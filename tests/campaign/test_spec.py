"""Campaign spec: JSON round-trip and validation."""

import pytest

from repro.campaign.spec import CampaignSpec
from repro.fs.bugs import BugConfig


class TestValidation:
    def test_unknown_fs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="not-a-fs")

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="nova", generator="symbolic")

    def test_bad_seq_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="nova", seq=4)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = CampaignSpec(fs="pmfs", generator="fuzz", bug_ids=[1, 2],
                            cap=3, seed=7, segments=2, executions=10,
                            trace=True)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_ignored(self):
        # Forward compatibility: an old engine can read a newer journal.
        data = CampaignSpec(fs="nova").to_dict()
        data["future_knob"] = 42
        assert CampaignSpec.from_dict(data) == CampaignSpec(fs="nova")


class TestBugConfig:
    def test_default_is_fs_bug_catalogue(self):
        assert CampaignSpec(fs="nova").bug_config() == BugConfig.buggy("nova")

    def test_empty_list_is_fixed(self):
        assert CampaignSpec(fs="nova", bug_ids=[]).bug_config() == BugConfig.fixed()

    def test_explicit_ids(self):
        spec = CampaignSpec(fs="nova", bug_ids=[4])
        assert spec.bug_config() == BugConfig.only(4)


class TestMode:
    def test_strong_fs_is_pm_mode(self):
        assert CampaignSpec(fs="nova").mode == "pm"

    def test_weak_fs_is_fsync_mode(self):
        assert CampaignSpec(fs="ext4-dax").mode == "fsync"


class TestBuildChipmunk:
    def test_builds_configured_harness(self):
        spec = CampaignSpec(fs="winefs", bug_ids=[], cap=1)
        chipmunk = spec.build_chipmunk()
        assert chipmunk.fs_class.name == "winefs"
        assert chipmunk.config is spec
        assert chipmunk.config.cap == 1
        assert chipmunk.bugs == BugConfig.fixed()


def half_done_campaign(tmp_path, shared_memo=False, **stored):
    """A 4-workload campaign cut after 2 items, its journal's spec holding
    the extra ``stored`` keys: ``(spec, engine config, campaign dir)``."""
    import json
    import os

    from repro.campaign import CampaignEngine, EngineConfig

    spec = CampaignSpec(fs="nova", seq=1, max_workloads=4,
                        shared_memo=shared_memo)
    config = EngineConfig(workers=1, batch_size=1)
    campaign_dir = str(tmp_path / "camp")
    CampaignEngine(spec, campaign_dir, config).run()
    path = os.path.join(campaign_dir, "journal.jsonl")
    kept = []
    for line in open(path):
        record = json.loads(line)
        if record["type"] == "campaign_meta":
            record["spec"].update(stored)
        if record["type"] == "campaign_done" or (
            record["type"] == "item_done" and record["ordinal"] >= 2
        ):
            continue
        kept.append(json.dumps(record))
    with open(path, "w") as fh:
        fh.write("\n".join(kept) + "\n")
    return spec, config, campaign_dir


class TestLegacySpecKeys:
    """Journals written while ``memo_entries`` was a spec field resume: the
    per-workload memo has no bound to configure.
    So do journals whose spec carries the deleted ``memoize`` or
    ``memo_address`` and lacks the keys the spec now inherits from
    ``ChipmunkConfig``."""

    def test_memo_entries_key_is_dropped(self):
        data = {**CampaignSpec(fs="nova").to_dict(), "memo_entries": 1024}
        assert CampaignSpec.from_dict(data) == CampaignSpec(fs="nova")

    def test_journal_with_memo_entries_resumes(self, tmp_path):
        from repro.campaign import CampaignEngine

        spec, config, campaign_dir = half_done_campaign(
            tmp_path, memo_entries=262144)
        merged = CampaignEngine(spec, campaign_dir, config, resume=True).run()
        assert merged.engine["items_resumed"] == 2
        assert merged.summary.workloads_tested == 4

    def test_journal_with_memo_address_resumes(self, tmp_path):
        """A journal of a campaign that attached to an external memo server
        resumes under ``--shared-memo``: the address is dropped like any
        unknown key, and sharing only clean verdicts cannot move results."""
        from repro.campaign import CampaignEngine

        spec, config, campaign_dir = half_done_campaign(
            tmp_path, shared_memo=True, memo_address="127.0.0.1:7391")
        merged = CampaignEngine(spec, campaign_dir, config, resume=True).run()
        assert merged.engine["items_resumed"] == 2
        assert merged.summary.workloads_tested == 4

    def test_pre_config_journal_resumes_and_reads(self, tmp_path, capsys):
        import json
        import os

        from repro.__main__ import main
        from repro.campaign import CampaignEngine

        spec = CampaignSpec(fs="nova", seq=1, max_workloads=4)
        campaign_dir = str(tmp_path / "camp")
        CampaignEngine(spec, campaign_dir).run()
        path = os.path.join(campaign_dir, "journal.jsonl")
        records = [json.loads(line) for line in open(path)]
        inherited = ("device_size", "coalesce_threshold", "crash_points",
                     "forensics")
        old = {k: v for k, v in records[0]["spec"].items()
               if k not in inherited}
        records[0]["spec"] = {**old, "memoize": False}
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)

        merged = CampaignEngine(spec, campaign_dir, resume=True).run()
        assert merged.engine["items_resumed"] == 4
        assert main(["watch", campaign_dir, "--once"]) == 0
        assert main(["coverage", campaign_dir]) == 0
        assert main(["diff", campaign_dir, campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "[nova/ace]" in out
        assert "0 appeared, 0 disappeared" in out


class TestRemovedKnobs:
    """A journal that stored a since-deleted knob at a value other than the
    one the code now always runs must not resume: its crash states were
    enumerated another way."""

    def test_mech_journal_refuses_to_resume(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.campaign import CampaignEngine, SpecMismatch

        spec, config, campaign_dir = half_done_campaign(
            tmp_path, crash_plans="mech")
        with pytest.raises(SpecMismatch, match="crash_plans"):
            CampaignEngine(spec, campaign_dir, config, resume=True).run()
        assert main(["campaign", "--resume", campaign_dir]) == 2
        assert "crash_plans" in capsys.readouterr().err

    def test_subset_journal_resumes(self, tmp_path):
        from repro.campaign import CampaignEngine

        spec, config, campaign_dir = half_done_campaign(
            tmp_path, crash_plans="subset")
        merged = CampaignEngine(spec, campaign_dir, config, resume=True).run()
        assert merged.engine["items_resumed"] == 2
        assert merged.summary.workloads_tested == 4
