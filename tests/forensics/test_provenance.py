"""Provenance capture: tagging, memoization, and the JSON round-trip."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.report import BugReport
from repro.forensics.provenance import (
    DROPPED,
    PAYLOAD_CAP,
    DURABLE,
    REPLAYED,
    CrashProvenance,
    ProvEntry,
    ProvenanceRecorder,
    capture_provenance,
)
from repro.pm.log import PMLog
from repro.workloads.ops import Op

SEQ2 = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]

#: ``bugs.json`` of ``repro campaign pmfs --seq 2 --max-workloads 100``,
#: written before provenance carried a ``ChipmunkConfig``.
OLD_BUGS_JSON = Path(__file__).parent / "golden" / "bugs_pmfs_seq2.json"


def failing_reports(fs="nova", workload=SEQ2, setup=()):
    return Chipmunk(fs).test_workload(workload, setup=setup).reports


class TestCapture:
    def test_every_report_carries_provenance(self):
        reports = failing_reports()
        assert reports
        assert all(r.provenance is not None for r in reports)

    def test_store_fates_partition_the_log(self):
        prov = failing_reports()[0].provenance
        stores = prov.stores()
        assert stores
        assert all(e.status in (DURABLE, REPLAYED, DROPPED) for e in stores)
        counts = prov.counts()
        assert sum(counts.values()) == len(stores)

    def test_replayed_matches_state_identity(self):
        for report in failing_reports():
            prov = report.provenance
            n_replayed = sum(1 for e in prov.stores() if e.status == REPLAYED)
            assert n_replayed == len(prov.replayed_entries)

    def test_crash_region_is_last_epoch(self):
        prov = failing_reports()[0].provenance
        region = [e for e in prov.crash_region() if e.kind in ("store", "flush")]
        assert all(e.status in (REPLAYED, DROPPED) for e in region)
        durable = [e for e in prov.stores() if e.status == DURABLE]
        assert all(e.epoch < prov.fence_index for e in durable)

    def test_epochs_increment_at_fences(self):
        prov = failing_reports()[0].provenance
        epoch = 0
        for entry in prov.entries:
            assert entry.epoch == epoch
            if entry.kind == "fence":
                epoch += 1

    def test_syscall_markers_carry_labels(self):
        prov = failing_reports()[0].provenance
        begins = [e for e in prov.entries if e.kind == "syscall_begin"]
        assert begins and all("creat" in e.label for e in begins)

    def test_repro_context_recorded(self):
        prov = failing_reports()[0].provenance
        assert prov.fs_name == "nova"
        assert prov.workload == (("creat", ("/foo",)), ("creat", ("/foo",)))
        assert prov.bug_ids  # the default config injects NOVA's bugs

    def test_disabled_by_config(self):
        from repro.core.harness import ChipmunkConfig

        result = Chipmunk("nova", config=ChipmunkConfig(forensics=False)) \
            .test_workload(SEQ2)
        assert result.reports
        assert all(r.provenance is None for r in result.reports)


class TestRecorderMemoization:
    def test_same_state_captured_once(self):
        log = PMLog()
        log.syscall_begin(0, "creat", "'/f'")
        log.nt_store(0, b"x" * 16, "f")
        log.fence("b")
        log.syscall_end()

        class FakeState:
            log_pos = 3
            replayed_entries = ()
            fence_index = 1
            mid_syscall = True
            syscall = 0
            syscall_name = "creat"
            after_syscall = -1
            kind = "subset"

        recorder = ProvenanceRecorder(log, fs_name="nova")
        a = recorder.for_state(FakeState())
        b = recorder.for_state(FakeState())
        assert a is b


def roundtrip(prov: CrashProvenance) -> CrashProvenance:
    return CrashProvenance.from_dict(json.loads(json.dumps(prov.to_dict())))


class TestRoundTrip:
    def test_engine_emitted_provenance_roundtrips(self):
        for report in failing_reports():
            assert roundtrip(report.provenance) == report.provenance

    def test_old_bugs_json_roundtrips_byte_identically(self):
        raw = OLD_BUGS_JSON.read_text()
        reports = [BugReport.from_dict(data).to_dict()
                   for data in json.loads(raw)["reports"]]
        assert json.dumps({"reports": reports}, sort_keys=True) == raw

    def test_missing_knobs_take_the_config_defaults(self):
        data = json.loads(OLD_BUGS_JSON.read_text())["reports"][0]
        prov = data["provenance"]
        for key in ("cap", "coalesce_threshold", "device_size", "crash_points"):
            del prov[key]
        assert CrashProvenance.from_dict(prov).config == ChipmunkConfig()

    @given(
        seq=st.integers(0, 10_000),
        kind=st.sampled_from(["store", "flush", "fence", "syscall_begin"]),
        status=st.sampled_from([DURABLE, REPLAYED, DROPPED, "fence", "marker"]),
        epoch=st.integers(0, 500),
        func=st.text(max_size=30),
        addr=st.integers(-1, 2**31),
        length=st.integers(0, 4096),
        syscall=st.none() | st.integers(0, 50),
        label=st.text(max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_prov_entry_roundtrips(self, **fields):
        entry = ProvEntry(**fields)
        data = json.loads(json.dumps(entry.to_dict()))
        assert ProvEntry.from_dict(data) == entry


class TestCaptureFunction:
    def test_prefix_only(self):
        log = PMLog()
        log.nt_store(0, b"a" * 8, "w")
        log.fence("b")
        log.nt_store(8, b"b" * 8, "w")  # beyond the crash point

        class S:
            log_pos = 2
            replayed_entries = ()
            fence_index = 1
            mid_syscall = False
            syscall = None
            syscall_name = None
            after_syscall = -1
            kind = "subset"

        prov = capture_provenance(log, S(), fs_name="x")
        assert len(prov.entries) == 2
        assert [e.kind for e in prov.entries] == ["store", "fence"]
        assert prov.entries[0].status == DURABLE


class TestPayloadBudget:
    """Payload capture is bounded: a data-heavy campaign's ``bugs.json``
    stays within a fixed size budget.

    ACE seq-2 index 9 writes two 1 KiB extents; unbounded payloads would
    serialize every written byte into every report's lineage (~85 KB here,
    growing linearly with write sizes).  The :data:`PAYLOAD_CAP` prefix
    keeps the whole report set under 64 KiB while still carrying enough
    bytes to identify torn content.
    """

    BUDGET = 64 * 1024

    @classmethod
    def setup_class(cls):
        from repro.workloads import ace

        w = ace.workload_at(2, 9)  # ...; write('/bar', 0, 66, 1024)
        cls.reports = Chipmunk("nova").test_workload(
            w.core, setup=w.setup
        ).reports

    def test_bugs_json_stays_under_budget(self):
        blob = json.dumps(
            {"reports": [r.to_dict() for r in self.reports]}, sort_keys=True
        )
        assert self.reports, "data-heavy campaign found no reports"
        assert len(blob) <= self.BUDGET

    def test_large_stores_are_truncated_with_marker(self):
        truncated = [
            e
            for r in self.reports
            for e in r.provenance.entries
            if e.payload_truncated
        ]
        assert truncated, "1 KiB writes should exceed PAYLOAD_CAP"
        for entry in truncated:
            assert len(entry.payload) == 2 * PAYLOAD_CAP  # hex digits
            assert entry.length > PAYLOAD_CAP

    def test_small_stores_keep_full_payload(self):
        small = [
            e
            for r in self.reports
            for e in r.provenance.entries
            if e.kind == "store" and not e.payload_truncated
        ]
        assert small
        for entry in small:
            assert len(entry.payload) == 2 * entry.length

    def test_truncation_survives_the_roundtrip(self):
        entry = next(
            e
            for r in self.reports
            for e in r.provenance.entries
            if e.payload_truncated
        )
        data = json.loads(json.dumps(entry.to_dict()))
        restored = ProvEntry.from_dict(data)
        assert restored.payload == entry.payload
        assert restored.payload_truncated is True
