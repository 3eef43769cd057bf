"""Timeline rendering, Chrome export, and image diffs — golden-pinned.

The renderers must be byte-stable: recording is deterministic, so the same
workload always produces the same lineage, and the goldens under
``tests/forensics/golden/`` pin the exact output.  Regenerate with::

    REGEN_GOLDENS=1 python -m pytest tests/forensics/test_timeline.py
"""

import json
import os

import pytest

from repro.core.harness import Chipmunk
from repro.forensics.timeline import (
    diff_ranges,
    provenance_to_chrome,
    render_image_diff,
    render_timeline,
)
from repro.fs.common.layout import LayoutMap, NamedRegion, Region
from repro.workloads.ops import Op

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SEQ2 = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]


def assert_matches_golden(name: str, text: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REGEN_GOLDENS"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert text == golden, f"{name} drifted from its golden; see module docstring"


@pytest.fixture(scope="module")
def nova_report():
    result = Chipmunk("nova").test_workload(SEQ2)
    return next(r for r in result.reports if r.provenance.dropped())


class TestTimelineGolden:
    def test_timeline_matches_golden(self, nova_report):
        prov = nova_report.provenance
        culprits = [e.seq for e in prov.dropped()][:1]
        from repro.fs.nova.fs import NovaFS
        from repro.pm.device import PMDevice

        dev = PMDevice(prov.config.device_size)
        NovaFS.mkfs(dev)
        layout = NovaFS.layout_map(dev.snapshot())
        text = render_timeline(prov, layout, culprits)
        assert_matches_golden("timeline_nova_seq2.txt", text + "\n")

    def test_timeline_is_deterministic(self, nova_report):
        prov = nova_report.provenance
        assert render_timeline(prov) == render_timeline(prov)

    def test_culprit_stars_and_legend(self, nova_report):
        prov = nova_report.provenance
        culprit = prov.dropped()[0].seq
        text = render_timeline(prov, culprit_seqs=[culprit])
        starred = [l for l in text.splitlines() if f"seq {culprit:>4} *" in l]
        assert len(starred) == 1
        assert "minimal culprit store set" in text

    def test_crash_region_marked(self, nova_report):
        text = render_timeline(nova_report.provenance)
        assert "<<< crash region >>>" in text
        assert "crash point: log position" in text


class TestForensicsSectionGolden:
    def test_report_section_matches_golden(self, nova_report):
        from repro.analysis.reporting import _forensics_section

        text = "\n".join(_forensics_section(nova_report, 1))
        assert "**Forensics**" in text
        assert "repro explain" in text
        assert_matches_golden("forensics_section_nova_seq2.md", text + "\n")


class TestChromeExport:
    def test_document_shape(self, nova_report):
        doc = provenance_to_chrome(nova_report.provenance)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i"}

    def test_crash_marker_and_syscall_span(self, nova_report):
        doc = provenance_to_chrome(nova_report.provenance)
        names = [e["name"] for e in doc["traceEvents"]]
        assert "CRASH" in names
        assert any(n.startswith("syscall #0") for n in names)

    def test_culprit_flag_lands_in_args(self, nova_report):
        prov = nova_report.provenance
        culprit = prov.dropped()[0].seq
        doc = provenance_to_chrome(prov, [culprit])
        flagged = [
            e for e in doc["traceEvents"]
            if e.get("args", {}).get("culprit")
        ]
        assert len(flagged) == 1
        assert flagged[0]["args"]["seq"] == culprit

    def test_json_serializable(self, nova_report):
        json.dumps(provenance_to_chrome(nova_report.provenance))


class TestDiffRanges:
    def test_equal_images(self):
        assert diff_ranges(b"abcd", b"abcd") == []

    def test_single_range(self):
        assert diff_ranges(b"aXYd", b"abcd") == [(1, 2)]

    def test_two_ranges(self):
        assert diff_ranges(b"Xbcd" + b"eY", b"abcd" + b"ez") == [(0, 1), (5, 1)]

    def test_length_mismatch_is_trailing_range(self):
        assert diff_ranges(b"ab", b"abcd") == [(2, 2)]


class TestImageDiffRender:
    LAYOUT = LayoutMap((
        NamedRegion("superblock", Region(0, 8)),
        NamedRegion("inode_table", Region(8, 16), slot_size=4),
    ))

    def test_no_difference(self):
        out = render_image_diff(b"ab", b"ab", self.LAYOUT)
        assert "0 range(s), 0 byte(s)" in out

    def test_annotated_range(self):
        a = bytearray(24)
        b = bytearray(24)
        b[10] = 0xFF
        out = render_image_diff(bytes(a), bytes(b), self.LAYOUT, label="oracle")
        assert "vs oracle" in out
        assert "inode_table[0]+0x2" in out
        assert "00 -> ff" in out

    def test_cap_elides(self):
        a = b"\xff\x00" * 20  # 20 separate one-byte differing ranges
        b = bytes(40)
        out = render_image_diff(a, b, self.LAYOUT, max_ranges=2)
        assert "18 more range(s) elided" in out
