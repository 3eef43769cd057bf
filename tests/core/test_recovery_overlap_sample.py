"""Recovery-read overlap on a fixed sample of workloads.

``Chipmunk._recovery_overlap`` mounts a workload's final image a second
time, so it runs on one workload in :data:`~repro.core.harness.RECOVERY_SAMPLE`
only.  Which ones is a pure function of the workload's description
(:func:`~repro.core.harness.recovery_sampled`): the same in process, in a
parallel campaign and under ``repro ace``.  A sampled workload measures
exactly what every workload used to.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.__main__ import main
from repro.campaign import CampaignSpec
from repro.core import harness
from repro.core.recovery_reads import recovery_read_set
from repro.workloads import ace
from repro.workloads.ops import describe_workload

#: Seq-2 workloads after all of seq-1, per file system.
N_SEQ2 = 60


def slice_of(mode, n_seq2=N_SEQ2):
    return list(itertools.chain(
        ace.generate(1, mode=mode),
        itertools.islice(ace.generate(2, mode=mode), n_seq2),
    ))


def parent_definition(chipmunk, workload):
    """The statistic as it was measured on every workload: recovery reads
    of base + every logged write, against the lines those writes store."""
    base, log, _ = chipmunk.record(workload.core, setup=workload.setup)
    line = harness.RECOVERY_LINE
    stored = set()
    for entry in log.writes():
        last = entry.addr + max(len(entry.data), 1) - 1
        stored.update(range(entry.addr // line, last // line + 1))
    read = recovery_read_set(
        chipmunk.fs_class, base, bugs=chipmunk.bugs, granularity=line,
        writes=[(entry.addr, entry.data) for entry in log.writes()],
    )
    return {"read_lines": len(read), "store_lines": len(stored),
            "overlap_lines": len(read & stored)}


@pytest.mark.parametrize("fs", ["nova", "ext4-dax"])
def test_measured_iff_the_workload_is_sampled(fs):
    spec = CampaignSpec(fs=fs, seq=2)
    chipmunk = spec.build_chipmunk()
    sampled = 0
    for workload in slice_of(spec.mode):
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        chosen = harness.recovery_sampled(describe_workload(workload.core))
        assert bool(result.recovery_overlap) == chosen, result.workload_desc
        if chosen:
            assert result.recovery_overlap["sampled"] == 1
            sampled += 1
    assert sampled > 0


@pytest.mark.parametrize("seq, n_sampled", [(1, 3), (2, 202)])
def test_the_fsync_slice_samples_one_in_sixteen(seq, n_sampled):
    """The predicate is the first ``blake2b`` byte mod 16: on the
    fsync-mode ACE slice it picks 3 of 55 seq-1 and 202 of 3,025 seq-2
    workloads."""
    descs = [describe_workload(w.core) for w in ace.generate(seq, mode="fsync")]
    chosen = [d for d in descs if harness.recovery_sampled(d)]
    assert chosen == [
        d for d in descs
        if hashlib.blake2b(d.encode(), digest_size=8).digest()[0] % 16 == 0
    ]
    assert len(chosen) == n_sampled


@pytest.mark.parametrize("fs", ["nova", "ext4-dax"])
def test_a_sampled_workload_measures_the_parent_statistic(monkeypatch, fs):
    monkeypatch.setattr(harness, "RECOVERY_SAMPLE", 1)
    spec = CampaignSpec(fs=fs, seq=2)
    chipmunk = spec.build_chipmunk()
    for workload in slice_of(spec.mode, n_seq2=10):
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        overlap = dict(result.recovery_overlap)
        assert overlap.pop("sampled") == 1
        assert overlap == parent_definition(chipmunk, workload)


def test_campaign_and_ace_sample_the_same_workloads(tmp_path, capsys):
    args = ["nova", "--seq", "2", "--max-workloads", str(N_SEQ2)]
    out_dir = str(tmp_path / "camp")
    trace = str(tmp_path / "ace.jsonl")
    main(["campaign"] + args + ["--workers", "2", "--out", out_dir])
    main(["ace"] + args + ["--trace", trace])
    capsys.readouterr()
    sections = []
    for target in (out_dir, trace):
        assert main(["coverage", target, "--json"]) == 0
        sections.append(json.loads(capsys.readouterr().out)["recovery"])
    assert sections[0] == sections[1]
    journaled = 0
    with open(os.path.join(out_dir, "journal.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["type"] == "item_done":
                journaled += sum(bool(r["recovery_overlap"])
                                 for r in rec["results"])
    assert sections[0]["sampled"] == journaled > 0
