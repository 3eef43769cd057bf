"""Campaign differencing: cluster matching, exit codes, golden documents.

The diff.md goldens are deterministic because report-file sides carry no
wall-clock metrics and the inputs are handcrafted reports written under
fixed relative names.  Regenerate after an intentional format change::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/obs/test_diff.py
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.core.report import BugReport, Consequence
from repro.obs.diff import diff_sides, load_side, render_diff

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def assert_matches_golden(name: str, text: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REGEN_GOLDENS"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert text == golden, f"{name} drifted from its golden; see module docstring"


def _report(detail, consequence=Consequence.UNREADABLE, syscall_name="creat"):
    return BugReport(
        fs_name="nova",
        consequence=consequence,
        workload_desc="creat('/foo'); rename('/foo', '/bar')",
        crash_desc="crash after fence 3",
        detail=detail,
        syscall=0,
        syscall_name=syscall_name,
    )


BASE_REPORTS = [
    _report("EIO: inode 2 is corrupt (dangling dentry)"),
    _report("rename left neither source nor target",
            consequence=Consequence.ATOMICITY, syscall_name="rename"),
]

EXTRA = _report("inode 5: invalid log entry type 9",
                consequence=Consequence.UNMOUNTABLE, syscall_name="rename")


def _write_reports(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"reports": [r.to_dict() for r in reports]}, fh,
                  sort_keys=True)


class TestLoadSide:
    def test_report_file(self, tmp_path):
        path = str(tmp_path / "bugs.json")
        _write_reports(path, BASE_REPORTS)
        side = load_side(path)
        assert len(side.reports) == 2
        assert side.report_dicts == [r.to_dict() for r in BASE_REPORTS]
        assert side.metrics == {}

    def test_bare_list_accepted(self, tmp_path):
        path = str(tmp_path / "bugs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in BASE_REPORTS], fh)
        assert len(load_side(path).reports) == 2

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_side(str(tmp_path / "absent.json"))

    def test_malformed_report_raises_valueerror(self, tmp_path):
        path = str(tmp_path / "bugs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"reports": [{"detail": "no consequence field"}]}, fh)
        with pytest.raises(ValueError, match="malformed bug report"):
            load_side(path)


class TestClusterMatching:
    def test_identical_sides_all_persist(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS)
        _write_reports(b, BASE_REPORTS)
        diff = diff_sides(load_side(a), load_side(b), strict=True)
        assert diff.clusters_compared
        assert not diff.appeared and not diff.disappeared
        assert len(diff.persisting) == 2
        assert diff.strict_equal is True
        assert not diff.divergent

    def test_extra_bug_appears(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS)
        _write_reports(b, BASE_REPORTS + [EXTRA])
        diff = diff_sides(load_side(a), load_side(b))
        assert len(diff.appeared) == 1
        assert diff.appeared[0].exemplar.detail == EXTRA.detail
        assert diff.divergent

    def test_lost_bug_disappears(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS + [EXTRA])
        _write_reports(b, BASE_REPORTS)
        diff = diff_sides(load_side(a), load_side(b))
        assert len(diff.disappeared) == 1
        assert diff.divergent

    def test_strict_catches_reorder(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS)
        _write_reports(b, list(reversed(BASE_REPORTS)))
        diff = diff_sides(load_side(a), load_side(b), strict=True)
        # Cluster-level: same bugs.  Byte-level: reordered, so strict fails.
        assert not diff.appeared and not diff.disappeared
        assert diff.strict_equal is False
        assert diff.divergent

    def test_strict_needs_report_dicts(self):
        from repro.obs.diff import DiffSide

        with pytest.raises(ValueError, match="--strict"):
            diff_sides(DiffSide(path="a"), DiffSide(path="b"), strict=True)


class TestGoldenDocuments:
    def test_identical_pair_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_reports("a.json", BASE_REPORTS)
        _write_reports("b.json", BASE_REPORTS)
        diff = diff_sides(load_side("a.json"), load_side("b.json"),
                          strict=True)
        assert_matches_golden("diff_identical.md", render_diff(diff))

    def test_divergent_pair_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_reports("a.json", BASE_REPORTS)
        _write_reports("b.json", BASE_REPORTS + [EXTRA])
        diff = diff_sides(load_side("a.json"), load_side("b.json"))
        text = render_diff(diff)
        assert "**DIVERGENT**" in text
        assert EXTRA.detail in text
        assert_matches_golden("diff_divergent.md", text)


class TestDiffCLI:
    def test_identical_exit_zero(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS)
        _write_reports(b, BASE_REPORTS)
        out_md = str(tmp_path / "diff.md")
        assert main(["diff", a, b, "--strict", "--out", out_md]) == 0
        assert "bug sets match" in capsys.readouterr().out
        assert os.path.exists(out_md)

    def test_divergent_exit_one_and_names_cluster(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        _write_reports(a, BASE_REPORTS)
        _write_reports(b, BASE_REPORTS + [EXTRA])
        out_md = str(tmp_path / "diff.md")
        assert main(["diff", a, b, "--out", out_md]) == 1
        assert "DIVERGENT" in capsys.readouterr().out
        with open(out_md, "r", encoding="utf-8") as fh:
            assert EXTRA.detail in fh.read()

    def test_missing_side_exit_two(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        _write_reports(a, BASE_REPORTS)
        assert main(["diff", a, str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestCampaignEquivalence:
    """The CI contract: a serial and a 2-worker campaign diff to zero
    divergence."""

    @pytest.fixture(scope="class")
    def campaign_pair(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("diffcamp")
        dirs = {}
        for workers in (1, 2):
            out = str(base / f"w{workers}")
            code = main(["campaign", "nova", "--workers", str(workers),
                         "--max-workloads", "6", "--out", out])
            assert code in (0, 1)
            dirs[workers] = out
        return dirs

    def test_serial_vs_parallel_zero_divergence(self, campaign_pair, tmp_path,
                                                capsys):
        out_md = str(tmp_path / "diff.md")
        code = main(["diff", campaign_pair[1], campaign_pair[2],
                     "--strict", "--out", out_md])
        assert code == 0
        with open(out_md, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert "0 appeared, 0 disappeared" in text
        assert "Strict serialized-report equality: **equal**" in text
        assert "states_enumerated" in text

    def test_campaign_dir_sides_carry_metrics(self, campaign_pair):
        side = load_side(campaign_pair[2])
        assert side.metrics["workloads"] == 6
        assert side.reports is not None
