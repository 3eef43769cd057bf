"""Triage clustering: lexical, by culprit sites, and replayed from keys."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.worker import compact_results
from repro.core import harness
from repro.core.report import BugReport, Consequence
from repro.core.triage import Triage, jaccard, tokenize, triage_reports


def report(consequence=Consequence.ATOMICITY, detail="detail text", syscall="rename", fs="nova"):
    return BugReport(
        fs_name=fs,
        consequence=consequence,
        workload_desc="w",
        crash_desc="crash at fence 3",
        detail=detail,
        syscall=0,
        syscall_name=syscall,
        mid_syscall=True,
    )


class TestTokenize:
    def test_numbers_stripped(self):
        assert tokenize("fence 31 offset 0x40") == tokenize("fence 99 offset 0x40")

    def test_paths_kept(self):
        assert "/a/foo" in tokenize("missing /A/foo after crash")

    def test_single_chars_dropped(self):
        assert "a" not in tokenize("a b c word")


class TestJaccard:
    def test_identical(self):
        t = tokenize("some report text")
        assert jaccard(t, t) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"aa"}), frozenset({"bb"})) == 0.0

    def test_empty_sets(self):
        assert jaccard(frozenset(), frozenset()) == 1.0


class TestClustering:
    def test_duplicates_merge(self):
        triage = Triage()
        for _ in range(5):
            triage.add(report())
        assert len(triage.clusters) == 1
        assert triage.clusters[0].count == 5

    def test_different_consequences_split(self):
        triage = Triage()
        triage.add(report(Consequence.ATOMICITY, "rename lost the file /foo"))
        triage.add(report(Consequence.UNMOUNTABLE, "bad log page magic during mount"))
        assert len(triage.clusters) == 2

    def test_different_syscalls_split(self):
        triage = Triage()
        triage.add(report(detail="nlink differs on /foo", syscall="link"))
        triage.add(report(detail="file /foo missing entirely", syscall="unlink"))
        assert len(triage.clusters) == 2

    def test_near_duplicates_merge(self):
        """Reports differing only in indices and offsets cluster together."""
        triage = Triage()
        triage.add(report(detail="crash state 12 file /foo content differs expected size=100"))
        triage.add(report(detail="crash state 57 file /foo content differs expected size=400"))
        assert len(triage.clusters) == 1

    def test_exemplar_is_first(self):
        triage = Triage()
        first = report()
        triage.add(first)
        triage.add(report())
        assert triage.clusters[0].exemplar is first
        assert triage.unique == [first]

    def test_batch_helper(self):
        clusters = triage_reports([report(), report()])
        assert len(clusters) == 1

    def test_summary_renders(self):
        triage = Triage()
        triage.add(report())
        assert "x1" in triage.summary()

    @given(st.lists(st.sampled_from(["rename", "link", "unlink"]), min_size=1, max_size=20))
    @settings(max_examples=25)
    def test_cluster_count_bounded_by_distinct_kinds(self, kinds):
        triage = Triage()
        for kind in kinds:
            triage.add(report(syscall=kind, detail=f"{kind} violated something"))
        assert len(triage.clusters) <= len(set(kinds))


# ---------------------------------------------------------------------------
# Keyed replay (the campaign merge) equals in-process triage
# ---------------------------------------------------------------------------
SITES = [("flush_a", "log"), ("flush_b", "inode"), ("fence_c", "log"),
         ("store_d", "super")]
WORDS = ["rename", "lost", "file", "/a/foo", "/b/bar", "size", "nlink"]
CONSEQUENCES = [Consequence.ATOMICITY, Consequence.DATA_LOSS]


class _Provenance:
    """Stands in for ``CrashProvenance``: triage reads only the fs name and
    (through the patched ``provenance_sites``) the culprit sites."""

    fs_name = "nova"

    def __init__(self, sites):
        self.sites = frozenset(sites)

    def to_dict(self):
        return {"sites": sorted(self.sites)}


def _stub_sites(report, culprit_seqs=()):
    return report.provenance.sites if report.provenance is not None else None


_serial = itertools.count()


@st.composite
def reports(draw):
    consequence = draw(st.sampled_from(CONSEQUENCES))
    desc = f"w{next(_serial)}"
    if draw(st.booleans()):
        sites = draw(st.sets(st.sampled_from(SITES), min_size=1, max_size=2))
        return BugReport("nova", consequence, desc, "c", "detail",
                         provenance=_Provenance(sites))
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
    return BugReport("nova", consequence, desc, "c", " ".join(words),
                     syscall_name=draw(st.sampled_from(["rename", "link"])))


#: Work items: each is 1-2 results (a fuzz segment streams several) of
#: 0-3 reports each.
items = st.lists(
    st.lists(st.lists(reports(), max_size=3), min_size=1, max_size=2),
    min_size=1, max_size=12,
)


class TestKeyedReplay:
    def test_a_founding_key_without_a_report_raises(self):
        with pytest.raises(ValueError, match="founds a cluster"):
            Triage().add_key(("ATOMICITY", ("lost",)), None)

    def test_keys_survive_json(self):
        triage = Triage(provenance=True)
        with mock.patch("repro.core.triage.provenance_sites", _stub_sites):
            first = BugReport("nova", Consequence.ATOMICITY, "w", "c", "d",
                              provenance=_Provenance(SITES[:2]))
            key = triage.key_of(first)
            assert key == ("nova", "ATOMICITY", tuple(sorted(SITES[:2])))
            triage.add_key(json.loads(json.dumps(key)), first)
            triage.add_key(json.loads(json.dumps(key)), None)
        (cluster,) = triage.clusters
        assert (cluster.count, cluster.members) == (2, [first])
        assert cluster.sites == frozenset(SITES[:2])

    @given(stream=items, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_across_workers_equals_serial(self, stream, data):
        """Workers in any interleaving, each shipping a report in full only
        where it had not streamed the key at an earlier or equal position;
        replaying every key in canonical order rebuilds the serial
        clusters exactly."""
        n_workers = data.draw(st.integers(1, 3))
        owner = data.draw(st.lists(st.integers(0, n_workers - 1),
                                   min_size=len(stream),
                                   max_size=len(stream)))
        with mock.patch("repro.core.triage.provenance_sites", _stub_sites):
            key_of = Triage(provenance=True).key_of
            shipped = {}
            for w in range(n_workers):
                mine = [o for o in range(len(stream)) if owner[o] == w]
                seen = {}
                for ordinal in data.draw(st.permutations(mine)):
                    results = [harness.TestResult("w", reports=list(r))
                               for r in stream[ordinal]]
                    dicts, updates = compact_results(results, ordinal, seen,
                                                     key_of)
                    seen.update(updates)
                    shipped[ordinal] = json.loads(json.dumps(dicts))

            serial = Triage(provenance=True)
            for result in itertools.chain.from_iterable(stream):
                for report in result:
                    serial.add(report)
            replay = Triage(provenance=True)
            for ordinal, results in enumerate(stream):
                for reports_, data_ in zip(results, shipped[ordinal]):
                    for report, entry in zip(reports_, data_["reports"]):
                        body = report if "fs_name" in entry else None
                        replay.add_key(entry["key"], body)

        assert len(replay.clusters) == len(serial.clusters)
        for got, want in zip(replay.clusters, serial.clusters):
            assert got.exemplar is want.exemplar
            assert (got.count, got.sites, got.prov_key, got.tokens) == (
                want.count, want.sites, want.prov_key, want.tokens)
            assert all(any(m is w for w in want.members) for m in got.members)
