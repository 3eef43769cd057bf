"""On-demand provenance: the lineage is built on first read, and nothing a
campaign does not keep is ever built.

* Property: for every state the replayer emits from a random PM log, in all
  three ``crash_points`` modes, an on-demand provenance's crash-region
  :meth:`~repro.forensics.provenance.CrashProvenance.dropped` equals the
  eagerly captured lineage's, and its serialization, once built, equals
  :func:`~repro.forensics.provenance.capture_provenance`'s.
* Retention: folding a NOVA campaign through
  :class:`~repro.analysis.reporting.CampaignSummary` keeps only the cluster
  exemplars' reports, pins no crash image, and builds one lineage per
  serialized exemplar.
"""

import gc
import json
import types
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.forensics.provenance as provenance
from repro.analysis.reporting import CampaignSummary
from repro.campaign.spec import CampaignSpec
from repro.config import ChipmunkConfig
from repro.core.replayer import enumerate_crash_states
from repro.forensics.provenance import (
    PAYLOAD_CAP,
    ProvenanceRecorder,
    capture_provenance,
)
from repro.pm.image import CrashImage
from repro.pm.log import PMLog
from repro.workloads.ops import Op

BASE = bytes(4096)

CONTEXT = dict(
    fs_name="nova",
    workload=[Op("creat", ("/foo",)), Op("write", ("/foo", 0, 1, 300))],
    setup=[Op("mkdir", ("/A",))],
    bug_ids=[7, 3],
    config=ChipmunkConfig(cap=2, crash_points="fence"),
)


@st.composite
def pm_logs(draw):
    """Syscalls of stores, flushes and fences; store sizes straddle both
    :data:`PAYLOAD_CAP` and the replayer's data-write coalescing threshold,
    and adjacent large stores coalesce into one replay unit."""
    log = PMLog()
    for index in range(draw(st.integers(1, 3))):
        log.syscall_begin(index, draw(st.sampled_from(["creat", "fsync"])))
        addr = 0
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(["store", "flush", "fence"]))
            if kind == "fence":
                log.fence(draw(st.sampled_from(["sfence", "nova_fence"])))
                continue
            length = draw(st.sampled_from([8, PAYLOAD_CAP + 8, 256]))
            if not draw(st.booleans()) or addr + length > len(BASE):
                addr = draw(st.integers(0, (len(BASE) - length) // 8)) * 8
            data = bytes([draw(st.integers(1, 255))]) * length
            if kind == "store":
                log.nt_store(addr, data, draw(st.sampled_from(["a", "b"])))
            else:
                log.flush(addr, data, "clwb")
            addr += length
        if draw(st.booleans()):
            log.fence()
        log.syscall_end()
    return log


class TestOnDemandMatchesEager:
    @settings(max_examples=60, deadline=None)
    @given(
        log=pm_logs(),
        cap=st.sampled_from([None, 1, 2]),
        crash_points=st.sampled_from(["fence", "post", "fsync"]),
    )
    def test_every_replayed_state(self, log, cap, crash_points):
        recorder = ProvenanceRecorder(log, **CONTEXT)
        for state in enumerate_crash_states(
            BASE, log, cap=cap, crash_points=crash_points
        ):
            eager = capture_provenance(log, state, **CONTEXT)
            lazy = recorder.for_state(state)
            assert "entries" not in vars(lazy)
            dropped = lazy.dropped()
            assert "entries" not in vars(lazy), "dropped() built the lineage"
            assert [(e.seq, e.func, e.addr) for e in dropped] == [
                (e.seq, e.func, e.addr) for e in eager.dropped()
            ]
            assert dropped == eager.dropped()
            assert lazy.to_dict() == eager.to_dict()
            assert lazy == eager and hash(lazy) == hash(eager)
            # Built once, the log is released and the answers stand.
            assert "_log" not in vars(lazy)
            assert lazy.dropped() == dropped

    def test_recorder_keeps_the_crash_point_not_the_state(self):
        log = PMLog()
        log.syscall_begin(0, "creat")
        log.nt_store(0, b"x" * 8, "a")
        log.fence()
        log.syscall_end()
        state = next(enumerate_crash_states(BASE, log))
        prov = ProvenanceRecorder(log, fs_name="nova").for_state(state)
        assert not any(
            isinstance(value, CrashImage) or value is state
            for value in vars(prov).values()
        )


def _reachable(root):
    """Every object reachable from ``root`` through instance data (types,
    modules and functions are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType)
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)


class TestCampaignRetention:
    def test_summary_keeps_only_exemplars(self):
        spec = CampaignSpec(fs="nova", seq=2, max_workloads=60)
        chipmunk = spec.build_chipmunk()
        summary = CampaignSummary(fs_name="nova", generator="ace")
        builds = []
        real = provenance._lineage

        def counting(*args):
            builds.append(args[1:])
            return real(*args)

        refs = []
        with mock.patch.object(provenance, "_lineage", counting):
            for w in spec.ace_workloads():
                result = chipmunk.test_workload(w.core, setup=w.setup)
                refs.extend(weakref.ref(r) for r in result.reports)
                summary.add_result(result)
                del result
            gc.collect()
            assert not builds, "folding built a lineage"

            alive = [r() for r in refs if r() is not None]
            exemplars = [c.exemplar for c in summary.clusters]
            assert len(refs) > 10 * len(exemplars) > 0
            assert sorted(map(id, alive)) == sorted(map(id, exemplars))
            assert not any(isinstance(o, CrashImage)
                           for o in _reachable(summary))

            serialized = json.dumps([e.to_dict() for e in exemplars])
            # Exemplars of two consequences seen on one crash state share
            # that state's provenance, and its one build.
            provs = {id(e.provenance) for e in exemplars}
            assert len(builds) == len(provs)
            assert '"entries": []' not in serialized
            assert json.dumps([e.to_dict() for e in exemplars]) == serialized
            assert len(builds) == len(provs), "a lineage was built twice"
