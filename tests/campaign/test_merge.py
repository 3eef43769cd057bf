"""Merge stage: serialization round-trips and serial equivalence."""

import itertools

from repro.analysis.reporting import CampaignSummary
from repro.campaign.merge import merge_results
from repro.campaign.queue import build_items
from repro.campaign.spec import CampaignSpec
from repro.core.harness import TestResult as HarnessResult
from repro.core.report import BugReport, Consequence
from repro.workloads import ace

N_WORKLOADS = 25


def serial_results(spec, n):
    chipmunk = spec.build_chipmunk()
    results = []
    for w in itertools.islice(ace.generate(spec.seq, mode=spec.mode), n):
        results.append(chipmunk.test_workload(w.core, setup=w.setup))
    return results


def cluster_fingerprint(clusters):
    return [
        (c.exemplar.consequence.name, c.exemplar.detail, c.count)
        for c in clusters
    ]


class TestSerialization:
    def test_bug_report_round_trip(self):
        report = BugReport(
            fs_name="nova", consequence=Consequence.ATOMICITY,
            workload_desc="w", crash_desc="c", detail="d",
            syscall=2, syscall_name="rename", mid_syscall=True,
            n_replayed=1, paths=("/foo", "/bar"),
        )
        assert BugReport.from_dict(report.to_dict()) == report

    def test_test_result_round_trip_preserves_aggregates(self):
        spec = CampaignSpec(fs="nova")
        original = serial_results(spec, 6)
        rebuilt = [HarnessResult.from_dict(r.to_dict()) for r in original]
        for a, b in zip(original, rebuilt):
            assert a.workload_desc == b.workload_desc
            assert a.reports == b.reports
            assert a.n_crash_states == b.n_crash_states
            assert a.n_unique_states == b.n_unique_states
            assert a.stage_times == b.stage_times
            assert a.inflight == b.inflight
            assert cluster_fingerprint(a.clusters) == cluster_fingerprint(b.clusters)


class TestMergeEqualsSerial:
    def test_merge_matches_serial_aggregation(self):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=N_WORKLOADS)
        results = serial_results(spec, N_WORKLOADS)

        serial = CampaignSummary(fs_name="nova", generator="ace")
        for result in results:
            serial.add_result(result)

        items = build_items(spec)
        by_id = {
            items[i].item_id: [results[i].to_dict()]
            for i in range(N_WORKLOADS)
        }
        merged = merge_results(spec, items, by_id)

        assert merged.workloads_tested == serial.workloads_tested
        assert merged.crash_states == serial.crash_states
        assert merged.unique_states == serial.unique_states
        assert cluster_fingerprint(merged.clusters) == \
            cluster_fingerprint(serial.clusters)
        assert merged.first_seen == serial.first_seen

    def test_merge_is_completion_order_invariant(self):
        # Workers finish in arbitrary order; the merge must fold by
        # canonical ordinal so the report never depends on scheduling.
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=N_WORKLOADS)
        results = serial_results(spec, N_WORKLOADS)
        items = build_items(spec)
        by_id = {
            items[i].item_id: [results[i].to_dict()]
            for i in range(N_WORKLOADS)
        }
        shuffled = dict(reversed(list(by_id.items())))
        a = merge_results(spec, items, by_id)
        b = merge_results(spec, items, shuffled)
        assert cluster_fingerprint(a.clusters) == cluster_fingerprint(b.clusters)
        assert a.first_seen == b.first_seen

    def test_missing_items_simply_absent(self):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=4)
        results = serial_results(spec, 4)
        items = build_items(spec)
        by_id = {items[0].item_id: [results[0].to_dict()]}
        merged = merge_results(spec, items, by_id)
        assert merged.workloads_tested == 1


class TestProvenanceThroughMerge:
    def test_provenance_survives_worker_serialization_byte_identically(self):
        # The campaign path is result -> to_dict -> JSON (worker result
        # file / journal) -> from_dict -> merge.  The provenance a merged
        # report carries must be byte-identical to the serial run's.
        import json

        spec = CampaignSpec(fs="nova", seq=2, max_workloads=12)
        results = serial_results(spec, 12)
        serial_provs = [
            json.dumps(r.provenance.to_dict(), sort_keys=True)
            for result in results for r in result.reports
        ]
        assert serial_provs, "expected buggy workloads in the sample"

        items = build_items(spec)
        by_id = {
            items[i].item_id: [
                json.loads(json.dumps(results[i].to_dict()))
            ]
            for i in range(len(results))
        }
        merged = merge_results(spec, items, by_id)
        # The merge keeps one exemplar per cluster; every report the
        # workers shipped is read back the way the merge reads it.
        shipped_provs = [
            json.dumps(BugReport.from_dict(entry).provenance.to_dict(),
                       sort_keys=True)
            for dicts in by_id.values() for data in dicts
            for entry in data["reports"]
        ]
        assert sorted(shipped_provs) == sorted(serial_provs)
        for cluster in merged.clusters:
            assert json.dumps(cluster.exemplar.provenance.to_dict(),
                              sort_keys=True) in serial_provs
        for cluster in merged.clusters:
            assert cluster.exemplar.provenance is not None
