"""One result schema, one fold.

``TestResult``'s dataclass fields are the schema of a workload result.  The
in-process object, its wire dict (worker result, checkpoint journal) and the
``workload_result`` trace event all fold through
:func:`repro.obs.campaign.fold`, so every aggregate sees the same totals.
Field names come from :func:`dataclasses.fields`: a new counter on
``TestResult`` is covered here without a test edit.
"""

import dataclasses
import itertools
import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.analysis.reporting import CampaignSummary
from repro.campaign import CampaignSpec
from repro.core import harness
from repro.obs import Telemetry
from repro.obs.campaign import ResultFold
from repro.obs.coverage import coverage_from_results
from repro.workloads import ace

FIELDS = dataclasses.fields(harness.TestResult)
#: Fields that add up across workloads.
NUMERIC = [f.name for f in FIELDS if f.type in ("int", "float", "bool")]
#: Fields that merge key by key across workloads.
MAPPINGS = [f.name for f in FIELDS if f.type in (
    "Dict[str, int]", "Dict[str, float]", "Dict[str, Dict[str, int]]")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """NOVA seq-1/seq-2 results under the profiler (so the profile
    mapping is filled), their wire dicts, and their trace file."""
    tel = Telemetry()
    tel.meta.update(fs="nova", generator="ace")
    spec = CampaignSpec(fs="nova", seq=2, profile=True)
    chipmunk = spec.build_chipmunk(telemetry=tel)
    workloads = itertools.chain(
        itertools.islice(ace.generate(1, mode=spec.mode), 6),
        itertools.islice(ace.generate(2, mode=spec.mode), 4),
    )
    results = [chipmunk.test_workload(w.core, setup=w.setup) for w in workloads]
    dicts = [json.loads(json.dumps(r.to_dict())) for r in results]
    path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    tel.export_jsonl(path)
    return results, dicts, path


def aggregates(results, dicts, trace_path):
    """Every aggregate a campaign folds into, by carrier."""
    live, journal = CampaignSummary(fs_name="nova"), CampaignSummary(fs_name="nova")
    watch = ResultFold(fs_name="nova")
    for result, data in zip(results, dicts):
        live.add_result(result)
        journal.add_dict(data)
        watch.add_fields(data)
    return {
        "in-process": live, "journal": journal, "watch": watch,
        "coverage": coverage_from_results(dicts, fs="nova"),
        "trace": CampaignSummary.from_traces([trace_path]),
    }


#: Per-workload fields older builds journaled: memo-miss reason counts,
#: colliding content keys, whole-write no-op drops, LRU evictions.
REMOVED_MEMO_FIELDS = {
    "memo_miss_reasons": {"cold_base": 3, "new_content": 5},
    "memo_collisions": [["0123456789abcdef", 2]],
    "memo_noop_dropped": 4,
    "memo_evictions": 1,
}

#: Per-workload fields of the removed mechanism-targeted crash plans: the
#: plan mode, epochs per recognized mechanism, targeted states emitted and
#: epochs that fell back to subset enumeration.
REMOVED_CRASH_PLAN_FIELDS = {
    "crash_plans": "mech",
    "mech_recognized": {"journal_commit": 3, "unstructured": 1},
    "mech_plans_emitted": 7,
    "mech_fallback_epochs": 1,
}


def summary_of(dicts):
    summary = CampaignSummary(fs_name="nova")
    for data in dicts:
        summary.add_dict(data)
    return summary


def merged(values):
    out = {}
    for value in values:
        for key, n in value.items():
            out[key] = merged([out.get(key, {}), n]) if isinstance(n, dict) \
                else out.get(key, 0) + n
    return out


class TestOneFold:
    def test_every_field_totals_alike_on_every_carrier(self, traced):
        results, dicts, path = traced
        assert {"n_crash_states", "memo_hits", "outcome_hits", "elapsed",
                "truncated", "recovery_hits"} <= set(NUMERIC)
        assert {"stage_times", "persistence", "recovery_overlap"} <= set(MAPPINGS)
        assert sum(r.recovery_hits for r in results) > 0
        for carrier, agg in aggregates(results, dicts, path).items():
            for name in NUMERIC:
                expected = sum(getattr(r, name) for r in results)
                assert agg.total(name) == pytest.approx(expected), (name, carrier)
            for name in MAPPINGS:
                expected = merged(getattr(r, name) for r in results)
                assert agg.total(name, {}) == expected, (name, carrier)

    def test_reports_outcomes_inflight_and_clusters_alike(self, traced):
        results, dicts, path = traced
        aggs = aggregates(results, dicts, path)
        live = aggs["in-process"]
        n_reports = sum(len(r.reports) for r in results)
        assert n_reports > 0
        assert sum(live.total("outcomes").values()) == n_reports
        for carrier, agg in aggs.items():
            assert agg.workloads_tested == len(results), carrier
            assert agg.total("n_reports") == n_reports, carrier
            assert agg.inflight == live.inflight, carrier
        for carrier in ("journal", "trace"):
            assert aggs[carrier].total("outcomes") == live.total("outcomes")
        journal = aggs["journal"]
        assert [c.exemplar for c in journal.clusters] == [
            c.exemplar for c in live.clusters]
        assert journal.first_seen == live.first_seen

    def test_wire_dict_round_trips_every_field(self, traced):
        results, dicts, _ = traced
        for result, data in zip(results, dicts):
            back = harness.TestResult.from_dict(data)
            for f in FIELDS:
                if f.name not in ("clusters", "profile"):
                    assert getattr(back, f.name) == getattr(result, f.name), f.name


class TestLegacyInputs:
    def test_trace_with_stages_key_folds_the_same(self, traced, tmp_path):
        legacy = str(tmp_path / "legacy.jsonl")
        with open(traced[2]) as src, open(legacy, "w") as dst:
            for line in src:
                rec = json.loads(line)
                if rec.get("name") == "workload_result":
                    rec["fields"]["stages"] = rec["fields"].pop("stage_times")
                dst.write(json.dumps(rec) + "\n")
        new = CampaignSummary.from_traces([traced[2]])
        old = CampaignSummary.from_traces([legacy])
        assert "stages" not in old.totals
        assert old.to_json_dict() == new.to_json_dict()

    def test_journal_dicts_with_stale_and_unknown_keys(self, traced):
        dicts = traced[1]
        fresh, old = CampaignSummary(fs_name="nova"), CampaignSummary(fs_name="nova")
        for data in dicts:
            stale = {**data, "image_backend": "numpy", "note": "newer build"}
            del stale["recovery_resets"]  # a counter an older build lacked
            fresh.add_dict(data)
            old.add_dict(stale)
        assert fresh.total("recovery_resets") == 0  # nothing reset here
        for name in NUMERIC + MAPPINGS:
            assert old.total(name) == fresh.total(name), name
        back = harness.TestResult.from_dict(stale)
        assert (back.recovery_resets, back.image_backend) == (0, "python")

    @staticmethod
    def assert_load_and_fold_alike(dicts, removed):
        old = [{**data, **removed} for data in dicts]
        for data, stale in zip(dicts, old):
            assert (harness.TestResult.from_dict(stale).to_dict()
                    == harness.TestResult.from_dict(data).to_dict())
        for fold_all in (summary_of, lambda ds: coverage_from_results(ds)):
            fresh, legacy = fold_all(dicts), fold_all(old)
            for name, total in fresh.totals.items():
                assert legacy.total(name) == total, name
            assert legacy.to_json_dict() == fresh.to_json_dict()

    def test_journal_dicts_with_removed_memo_fields(self, traced):
        """Results journaled by a build that still carried the memo-miss
        classifier, whole-write no-op drops and the LRU local tier load
        and fold exactly like results without those keys."""
        self.assert_load_and_fold_alike(traced[1], REMOVED_MEMO_FIELDS)

    def test_journal_dicts_with_removed_crash_plan_fields(self, traced):
        """Results journaled by a build that still had mechanism-targeted
        crash plans load and fold exactly like results without them."""
        self.assert_load_and_fold_alike(traced[1], REMOVED_CRASH_PLAN_FIELDS)

    def test_diff_strict_against_legacy_campaign_dir(self, tmp_path, capsys):
        fresh = str(tmp_path / "fresh")
        assert main(["campaign", "nova", "--seq", "1", "--max-workloads", "6",
                     "--workers", "1", "--out", fresh]) in (0, 1)
        legacy = str(tmp_path / "legacy")
        shutil.copytree(fresh, legacy)
        os.remove(os.path.join(legacy, "bugs.json"))  # diff folds the journal
        journal = os.path.join(legacy, "journal.jsonl")
        with open(journal) as fh:
            records = [json.loads(line) for line in fh]
        for rec in records:
            if rec["type"] == "campaign_meta":
                rec["spec"]["crash_plans"] = "subset"
            if rec["type"] == "item_done":
                rec["results"] = [{**r, **REMOVED_MEMO_FIELDS,
                                   **REMOVED_CRASH_PLAN_FIELDS}
                                  for r in rec["results"]]
        with open(journal, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        out = str(tmp_path / "diff.md")
        main(["diff", "--strict", fresh, legacy, "--out", out])
        capsys.readouterr()
        assert "0 appeared, 0 disappeared" in open(out).read()


class TestAceMatchesCampaign:
    """``repro ace`` triages like ``repro campaign`` and its bugs.json."""

    ARGS = ["nova", "--seq", "2", "--max-workloads", "40"]

    @staticmethod
    def cluster_blocks(text):
        """The ``cluster.describe()`` blocks printed after the summary line."""
        body = text.split("\n[campaign]")[0].split("\n", 1)[1]
        return [block for block in body.strip().split("\n\n") if block]

    def test_same_clusters_and_exemplars(self, tmp_path, capsys):
        assert main(["ace"] + self.ARGS) == 1
        ace_out = capsys.readouterr().out
        out_dir = str(tmp_path / "camp")
        assert main(["campaign"] + self.ARGS
                    + ["--workers", "1", "--out", out_dir]) == 1
        camp_out = capsys.readouterr().out
        with open(os.path.join(out_dir, "bugs.json")) as fh:
            exemplars = json.load(fh)["reports"]

        n_clusters = int(ace_out.split(" clusters")[0].rsplit(", ", 1)[1])
        assert n_clusters == len(exemplars) > 1
        assert self.cluster_blocks(ace_out) == self.cluster_blocks(camp_out)
        assert len(self.cluster_blocks(ace_out)) == n_clusters
