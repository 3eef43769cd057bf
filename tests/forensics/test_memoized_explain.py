"""Forensics regression: memoized campaigns feed ``repro explain`` unchanged.

Check memoization and delta images alter how crash states are built and
checked, not what the saved provenance describes — so a report produced by
a memoized run, serialized through the campaign's ``bugs.json`` shape and
rebuilt offline, must render the exact golden timeline the pre-memoization
pipeline pinned.
"""

import json
import os

import pytest

from repro.core.harness import Chipmunk
from repro.core.report import BugReport
from repro.forensics.explain import load_report_dicts
from repro.forensics.replay import rebuild_session
from repro.forensics.timeline import render_timeline
from repro.fs.nova.fs import NovaFS
from repro.pm.device import PMDevice
from repro.workloads.ops import Op

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SEQ2 = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]


@pytest.fixture(scope="module")
def memoized_bugs_json(tmp_path_factory):
    """A ``bugs.json`` written from a memoized run."""
    result = Chipmunk("nova").test_workload(SEQ2)
    assert result.memo_hits > 0, "fixture must actually exercise the memo"
    report = next(r for r in result.reports if r.provenance.dropped())
    path = tmp_path_factory.mktemp("memoized") / "bugs.json"
    path.write_text(json.dumps({"reports": [report.to_dict()]}, sort_keys=True))
    return str(path)


class TestMemoizedExplainGolden:
    def test_timeline_matches_pre_memoization_golden(self, memoized_bugs_json):
        report = BugReport.from_dict(load_report_dicts(memoized_bugs_json)[0])
        prov = report.provenance
        culprits = [e.seq for e in prov.dropped()][:1]
        dev = PMDevice(prov.config.device_size)
        NovaFS.mkfs(dev)
        layout = NovaFS.layout_map(dev.snapshot())
        text = render_timeline(prov, layout, culprits) + "\n"
        with open(os.path.join(GOLDEN_DIR, "timeline_nova_seq2.txt"),
                  encoding="utf-8") as fh:
            assert text == fh.read()

    def test_offline_replay_reproduces_from_memoized_report(
        self, memoized_bugs_json
    ):
        report = BugReport.from_dict(load_report_dicts(memoized_bugs_json)[0])
        session = rebuild_session(report.provenance)
        outcome = {r.consequence.name for r in session.original_reports()}
        assert report.consequence.name in outcome

    def test_rematerialized_state_byte_identical(self, memoized_bugs_json):
        """The offline CrashImage must materialize to the same bytes as the
        state the memoized run checked (pinned via the provenance's
        replayed positions)."""
        report = BugReport.from_dict(load_report_dicts(memoized_bugs_json)[0])
        session = rebuild_session(report.provenance)
        state = session.original_state()
        assert state.replayed_entries == report.provenance.replayed_entries
        # Rebuilding twice yields byte-identical images and equal keys.
        again = rebuild_session(report.provenance).original_state()
        assert state.image.materialize() == again.image.materialize()
        assert state.image.content_key() == again.image.content_key()
