"""CLI (`python -m repro`) behaviour."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import _parse_op, build_parser, main
from repro.obs.tracing import read_jsonl
from repro.workloads.ops import Op


class TestOpParsing:
    def test_path_only(self):
        assert _parse_op("creat /foo") == Op("creat", ("/foo",))

    def test_mixed_args(self):
        assert _parse_op("write /foo 0 65 512") == Op("write", ("/foo", 0, 65, 512))

    def test_two_paths(self):
        assert _parse_op("rename /a /b") == Op("rename", ("/a", "/b"))

    def test_empty_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_op("")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_fs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["test", "not-a-fs"])


class TestCommands:
    def test_list_bugs(self, capsys):
        assert main(["list-bugs"]) == 0
        out = capsys.readouterr().out
        assert "Rename atomicity broken" in out
        assert out.count("\n") >= 25

    def test_test_clean_exit_zero(self, capsys):
        code = main(["test", "nova", "--fixed", "--op", "creat /f"])
        assert code == 0
        assert "0 report(s)" in capsys.readouterr().out

    def test_test_buggy_exit_one(self, capsys):
        code = main(
            [
                "test",
                "nova",
                "--bugs",
                "5",
                "--op",
                "creat /foo",
                "--op",
                "rename /foo /bar",
            ]
        )
        assert code == 1
        assert "BUG [nova]" in capsys.readouterr().out

    def test_ace_campaign_fixed(self, capsys):
        code = main(["ace", "nova", "--fixed", "--max-workloads", "10"])
        assert code == 0
        assert "10 workloads" in capsys.readouterr().out

    def test_fuzz_smoke(self, capsys):
        code = main(["fuzz", "nova", "--fixed", "--seconds", "1", "--seed", "3"])
        assert code == 0
        assert "executions" in capsys.readouterr().out


class TestTelemetryCLI:
    def test_fs_flag_is_alternative_to_positional(self, capsys):
        code = main(["test", "--fs", "nova", "--fixed", "--op", "creat /f"])
        assert code == 0
        assert "0 report(s)" in capsys.readouterr().out

    def test_fs_required_somewhere(self, capsys):
        with pytest.raises(SystemExit):
            main(["test", "--fixed"])

    def test_trace_then_stats(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        code = main(
            ["ace", "--fs", "nova", "--max-workloads", "10", "--trace", trace]
        )
        assert code == 1  # NOVA's default bug set reproduces within 10 workloads
        assert f"to {trace}" in capsys.readouterr().out

        chrome = str(tmp_path / "t.chrome.json")
        assert main(["stats", trace, "--chrome", chrome]) == 0
        out = capsys.readouterr().out
        assert "Per-stage timings" in out
        assert "crash states/sec" in out
        assert "dedup hit-rate" in out
        assert "Cumulative time-to-bug" in out
        assert "Chrome trace event(s)" in out

        import json

        doc = json.load(open(chrome))
        assert doc["traceEvents"], "chrome trace must contain events"
        assert all(e["ph"] in ("X", "i") for e in doc["traceEvents"])

    def test_metrics_flag_prints_snapshot(self, capsys):
        code = main(
            ["test", "nova", "--fixed", "--op", "creat /f", "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[telemetry] metrics snapshot:" in out
        assert "  workloads: 1   crash states: " in out

    def test_metrics_exact_past_the_ring_and_equal_to_stats(
            self, tmp_path, capsys, monkeypatch):
        """--metrics folds each result as it is recorded: a run that
        overflows the trace's ring buffer still counts every workload, and
        on a trace that kept everything it prints what `repro stats` does."""
        import functools

        import repro.__main__ as cli
        from repro.obs import Telemetry

        trace = str(tmp_path / "t.jsonl")
        main(["ace", "nova", "--seq", "1", "--trace", trace, "--metrics"])
        out = capsys.readouterr().out
        assert " oldest dropped" not in out
        metrics = out.split("[telemetry] metrics snapshot:\n", 1)[1]
        main(["stats", trace])
        assert metrics == textwrap.indent(capsys.readouterr().out, "  ")
        n_workloads = int(out.split(" workloads,", 1)[0].rsplit("\n", 1)[-1])

        monkeypatch.setattr(cli, "Telemetry",
                            functools.partial(Telemetry, span_capacity=64))
        main(["ace", "nova", "--seq", "1", "--trace", trace, "--metrics"])
        out = capsys.readouterr().out
        assert " oldest dropped: the ring buffer was full" in out
        assert f"  workloads: {n_workloads}   crash states: " in out
        kept = sum(1 for rec in read_jsonl(trace)
                   if rec.get("name") == "workload_result")
        assert kept < n_workloads
        header = next(read_jsonl(trace))
        assert header["type"] == "meta" and header["dropped_records"] > 0

    def test_fuzz_seed_recorded_in_trace(self, tmp_path):
        trace = str(tmp_path / "f.jsonl")
        main(["fuzz", "nova", "--fixed", "--seconds", "0.2", "--seed", "11",
              "--trace", trace])
        import json

        meta = json.loads(open(trace).readline())
        assert meta["type"] == "meta"
        assert meta["seed"] == 11
        assert meta["generator"] == "fuzz"

    def test_stats_on_fuzz_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "f.jsonl")
        main(["fuzz", "nova", "--bugs", "5", "--seconds", "1", "--seed", "3",
              "--trace", trace])
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "Campaign: nova (fuzz)" in out
        assert "seed=11" not in out  # this trace used seed 3
        assert "seed=3" in out

    def test_stats_merges_multiple_traces(self, tmp_path, capsys):
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        main(["ace", "nova", "--fixed", "--max-workloads", "5",
              "--trace", first])
        main(["ace", "nova", "--fixed", "--max-workloads", "5",
              "--trace", second])
        capsys.readouterr()
        assert main(["stats", first, second]) == 0
        out = capsys.readouterr().out
        assert "[stats] merged 2 trace files" in out
        assert "Per-stage timings" in out

    def test_stats_json_output(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["ace", "--fs", "nova", "--max-workloads", "8", "--trace", trace])
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["fs"] == "nova"
        assert doc["generator"] == "ace"
        assert doc["workloads"] == 8
        assert doc["crash_states"] > 0
        assert set(doc["stage_totals"]) >= {"record", "check"}
        assert doc["outcome_counts"]  # NOVA's bug set reproduces in 8 workloads
        assert all(
            set(e) == {"cluster", "workload", "t", "consequence"}
            for e in doc["time_to_bug"]
        )

    def test_save_reports_then_explain(self, tmp_path, capsys):
        reports = str(tmp_path / "bugs.json")
        code = main(["test", "nova", "--op", "creat /foo", "--op", "creat /foo",
                     "--save-reports", reports])
        assert code == 1
        assert "saved" in capsys.readouterr().out
        assert main(["explain", reports]) == 0
        out = capsys.readouterr().out
        assert "ordering timeline: nova" in out
        assert "<<< crash region >>>" in out

    def test_stats_chrome_rejects_multiple_traces(self, tmp_path, capsys):
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        main(["ace", "nova", "--fixed", "--max-workloads", "3",
              "--trace", first])
        main(["ace", "nova", "--fixed", "--max-workloads", "3",
              "--trace", second])
        capsys.readouterr()
        code = main(["stats", first, second,
                     "--chrome", str(tmp_path / "c.json")])
        assert code == 2
        assert "single trace" in capsys.readouterr().err


class TestCampaignCLI:
    def test_campaign_smoke(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        code = main(["campaign", "nova", "--workers", "2",
                     "--max-workloads", "12", "--out", out_dir])
        assert code == 1  # NOVA's bug catalogue reproduces within 12 workloads
        out = capsys.readouterr().out
        assert "12 workloads" in out
        assert "2 workers" in out
        assert (tmp_path / "camp" / "report.md").exists()
        assert (tmp_path / "camp" / "journal.jsonl").exists()

    def test_campaign_resume_reuses_journaled_work(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        main(["campaign", "nova", "--max-workloads", "8", "--out", out_dir])
        capsys.readouterr()
        code = main(["campaign", "--resume", out_dir])
        assert code == 1
        assert "8 workloads" in capsys.readouterr().out

    def test_campaign_refuses_dir_reuse_without_resume(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        main(["campaign", "nova", "--max-workloads", "6", "--out", out_dir])
        capsys.readouterr()
        code = main(["campaign", "nova", "--max-workloads", "6",
                     "--out", out_dir])
        assert code == 2
        assert "resume" in capsys.readouterr().err

    def test_campaign_requires_fs_or_resume(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign"])
        assert "file system is required" in capsys.readouterr().err


class TestBadKnobs:
    """A bad knob is a usage error — exit 2 with ``error:`` on stderr before
    any work starts — never a silent run, a traceback or a hang.  Run as a
    subprocess under a timeout, as a user would hit it."""

    @pytest.mark.parametrize("argv", [
        ["ace", "nova", "--max-workloads", "2", "--cap=-1"],
        ["ace", "nova", "--max-workloads", "-1"],
        ["campaign", "nova", "--batch", "0", "--max-workloads", "2"],
        ["campaign", "nova", "--workers", "0"],
        ["campaign", "nova", "--timeout", "0"],
        ["campaign", "nova", "--max-retries", "-1"],
    ], ids=["cap", "max-workloads", "batch", "workers", "timeout",
            "max-retries"])
    def test_rejected_as_usage_error(self, argv, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not list(tmp_path.iterdir()), "no campaign directory"

    def test_removed_crash_plans_flag_is_a_usage_error(self, tmp_path):
        """The mechanism-targeted crash-plan mode is gone; its flag is an
        unrecognized argument, not a silent subset run."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "nova",
             "--max-workloads", "2", "--crash-plans", "mech"], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "unrecognized arguments: --crash-plans mech" in proc.stderr
        assert not list(tmp_path.iterdir()), "no campaign directory"

    def test_removed_memo_server_flag_is_a_usage_error(self, tmp_path):
        """The external memo server is gone (``--shared-memo`` is the one
        shared mode); its flag is an unrecognized argument, and ``memod``
        is no command."""
        src = Path(__file__).resolve().parents[1] / "src"
        for argv, expected in (
            (["campaign", "nova", "--max-workloads", "2",
              "--memo-server", "127.0.0.1:7391"],
             "unrecognized arguments: --memo-server 127.0.0.1:7391"),
            (["memod"], "invalid choice: 'memod'"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True, text=True, timeout=30,
            )
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert expected in proc.stderr
        assert not list(tmp_path.iterdir()), "no campaign directory"


class TestObservabilityCLI:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        out_dir = str(tmp_path_factory.mktemp("obs") / "camp")
        code = main(["campaign", "nova", "--workers", "2", "--seq", "2",
                     "--max-workloads", "6", "--out", out_dir, "--trace"])
        assert code in (0, 1)
        return out_dir

    def test_stats_accepts_campaign_dir(self, campaign_dir, capsys):
        assert main(["stats", campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "Campaign: nova (ace)" in out
        assert "check memo (memo_hits/memo_misses)" in out

    def test_stats_json_memo_accounting(self, campaign_dir, capsys):
        assert main(["stats", campaign_dir, "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["memo_hits"] + doc["memo_misses"] == doc["crash_states"]
        assert doc["unique_states"] == doc["memo_misses"]
        assert doc["unique_outcomes"] > 0

    def test_stats_dir_without_traces_errors_with_hint(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_coverage_on_campaign_dir(self, campaign_dir, tmp_path, capsys):
        out_file = str(tmp_path / "coverage.md")
        assert main(["coverage", campaign_dir, "--out", out_file]) == 0
        text = open(out_file).read()
        assert "## Crash-state space" in text
        assert "In-flight window size CDF" in text
        assert "Persistence-mechanism store breakdown" in text

    def test_coverage_json_sum_invariant(self, campaign_dir, capsys):
        assert main(["coverage", campaign_dir, "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["memo_hits"] + doc["memo_misses"] == doc["states_enumerated"]
        assert doc["states_checked"] == doc["memo_misses"]

    def test_coverage_on_trace_files(self, campaign_dir, capsys):
        trace = str(Path(campaign_dir) / "trace.jsonl")
        assert main(["coverage", trace]) == 0
        assert "## Crash-state space" in capsys.readouterr().out

    def test_coverage_merge_artifact_exists(self, campaign_dir):
        assert (Path(campaign_dir) / "coverage.md").exists()

    def test_coverage_rejects_non_campaign_dir(self, tmp_path, capsys):
        assert main(["coverage", str(tmp_path)]) == 2
        assert "journal" in capsys.readouterr().err

    def test_watch_once_on_completed_campaign(self, campaign_dir, capsys):
        assert main(["watch", campaign_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "12/12" in out  # 6 workloads per sequence length, seq 1..2

    def test_watch_rejects_non_campaign_dir(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path), "--once"]) == 2
        assert "not a campaign directory" in capsys.readouterr().out

    def test_diff_metrics_only_on_traces(self, campaign_dir, capsys):
        trace = str(Path(campaign_dir) / "trace.jsonl")
        assert main(["diff", trace, trace]) == 0
        out = capsys.readouterr().out
        assert "metrics-only" in out
        assert "states_enumerated" in out


class TestProfileCLI:
    def test_profile_op_renders_markdown(self, capsys):
        code = main(["profile", "nova", "--op", "creat /f",
                     "--op", "write /f 0 65 1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Profile: nova" in out
        assert "## Stage breakdown" in out
        assert "## Byte accounting" in out
        assert "attributed to pipeline stages" in out

    def test_profile_out_and_chrome(self, tmp_path, capsys):
        import json

        out_md = str(tmp_path / "profile.md")
        chrome = str(tmp_path / "profile.chrome.json")
        code = main(["profile", "nova", "--max-workloads", "3",
                     "--out", out_md, "--chrome", chrome])
        assert code == 0
        out = capsys.readouterr().out
        assert "[profile] wrote" in out
        assert "## Hot callsites" in open(out_md).read()
        doc = json.loads(open(chrome).read())
        assert doc["traceEvents"]

    def test_profile_json_output(self, capsys):
        import json

        assert main(["profile", "nova", "--op", "creat /f", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"stages", "sites", "bytes"}

    def test_campaign_profile_flag_reaches_results(self, tmp_path):
        from repro.campaign.journal import CheckpointJournal

        out_dir = str(tmp_path / "profcamp")
        code = main(["campaign", "nova", "--workers", "2",
                     "--max-workloads", "3", "--out", out_dir, "--profile"])
        assert code in (0, 1)
        state = CheckpointJournal.replay(out_dir)
        result_dicts = [d for results in state.results.values()
                        for d in results]
        assert result_dicts
        for fields in result_dicts:
            assert fields.get("profile", {}).get("stages")
