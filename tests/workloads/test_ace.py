"""ACE workload generation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fixed_fs
from repro.workloads import ace
from repro.workloads.ops import Op, run_workload


class TestOpSpace:
    def test_seq1_count_near_paper(self):
        """Paper: 56 seq-1 PM-mode workloads; our op space gives 51."""
        assert 45 <= ace.count(1) <= 60

    def test_seq2_is_square(self):
        assert ace.count(2) == ace.count(1) ** 2

    def test_seq3_uses_metadata_space(self):
        assert ace.count(3) == len(ace.metadata_op_space()) ** 3

    def test_metadata_space_restricted(self):
        names = {op.name for op in ace.metadata_op_space()}
        assert names <= {"write", "append", "link", "unlink", "rename"}

    def test_core_space_covers_paper_ops(self):
        names = {op.name for op in ace.core_op_space()}
        for required in ("creat", "mkdir", "fallocate", "write", "link",
                         "unlink", "remove", "rename", "truncate", "rmdir"):
            assert required in names


class TestGeneration:
    def test_seq1_workloads_have_one_core_op(self):
        for w in ace.generate(1):
            assert len(w.core) == 1

    def test_seq2_indexing(self):
        workloads = list(itertools.islice(ace.generate(2), 10))
        assert [w.index for w in workloads] == list(range(10))
        assert all(w.seq == 2 for w in workloads)

    def test_names_unique(self):
        names = [w.name() for w in ace.generate(1)]
        assert len(names) == len(set(names))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            next(ace.generate(1, mode="bogus"))

    def test_fsync_mode_appends_sync(self):
        for w in ace.generate(1, mode="fsync"):
            assert w.core[-1].name == "sync"

    def test_fsync_mode_has_fsync_after_data_ops(self):
        for w in ace.generate(1, mode="fsync"):
            if w.core[0].name == "write":
                assert w.core[1].name == "fsync"


class TestDependencySetup:
    def test_setup_creates_needed_files(self):
        w = next(
            x for x in ace.generate(1) if x.core[0] == Op("unlink", ("/A/foo",))
        )
        names = [(op.name, op.args[0]) for op in w.setup]
        assert ("mkdir", "/A") in names
        assert ("creat", "/A/foo") in names

    def test_setup_gives_files_data(self):
        w = next(
            x for x in ace.generate(1) if x.core[0].name == "truncate"
        )
        assert any(op.name == "write" for op in w.setup)

    def test_creat_target_not_precreated(self):
        w = next(x for x in ace.generate(1) if x.core[0] == Op("creat", ("/foo",)))
        assert not any(
            op.name == "creat" and op.args[0] == "/foo" for op in w.setup
        )

    def test_seq2_tracks_namespace_changes(self):
        """unlink then creat of the same file: the creat must not conflict."""
        target = (Op("unlink", ("/foo",)), Op("creat", ("/foo",)))
        w = next(x for x in ace.generate(2) if x.core == target)
        creats = [op for op in w.setup if op.name == "creat" and op.args[0] == "/foo"]
        assert len(creats) == 1  # only the dependency for the unlink


class TestWorkloadsExecute:
    """Every generated seq-1 workload must run on every strong FS with only
    POSIX-legal failures (setup phase always succeeds)."""

    @pytest.mark.parametrize("fs_name", ["nova", "pmfs", "splitfs"])
    def test_seq1_setup_always_succeeds(self, fs_name):
        for w in ace.generate(1):
            fs = make_fixed_fs(fs_name)
            assert run_workload(fs, w.setup) == [None] * len(w.setup), w.name()
            run_workload(fs, w.core)  # core failures are legal (e.g. EEXIST)

    def test_sampled_seq2_setup_succeeds(self):
        sample = itertools.islice(ace.generate(2), 0, None, 97)
        for w in sample:
            fs = make_fixed_fs("nova")
            assert run_workload(fs, w.setup) == [None] * len(w.setup), w.name()
            run_workload(fs, w.core)


class TestWorkloadAt:
    """Random access agrees with enumeration: campaign workers regenerate
    their workloads by index."""

    @given(index=st.integers(0, ace.count(2) - 1))
    @settings(max_examples=25, deadline=None)
    def test_workload_at_matches_generate_seq2(self, index):
        regenerated = ace.workload_at(2, index)
        streamed = next(itertools.islice(ace.generate(2), index, None))
        assert regenerated.index == streamed.index == index
        assert regenerated.core == streamed.core
        assert regenerated.setup == streamed.setup

    def test_workload_at_matches_generate_full_seq1_both_modes(self):
        for mode in ("pm", "fsync"):
            for i, streamed in enumerate(ace.generate(1, mode=mode)):
                regenerated = ace.workload_at(1, i, mode=mode)
                assert regenerated.core == streamed.core
                assert regenerated.setup == streamed.setup
