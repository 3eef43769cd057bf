"""Forensics rebuilds every enumerated crash state exactly.

Enumeration and forensics build crash states through one constructor
(``CrashRegion.state``), so a state captured as a provenance and rebuilt
through the session path must equal the enumerated state in every field
but ``image``, and its image must materialize to the same bytes.  The
PMFS workload ends with unfenced writes in flight, so its final state
persists writes it does not count as replayed; the NOVA workload has
subset, post-syscall and final states.
"""

import dataclasses

import pytest

from repro.core.harness import Chipmunk
from repro.core.replayer import enumerate_crash_states
from repro.forensics.provenance import capture_provenance
from repro.forensics.replay import rebuild_recording, session_from_recording
from repro.workloads import ace

#: (file system, ACE seq-2 ordinal): PMFS's #125 is
#: ``creat('/A/foo'); write('/A/bar', 0, 66, 1024)``.
CASES = [("pmfs", 125), ("nova", 9)]


def enumerated(fs_name, index):
    workload = ace.workload_at(2, index)
    chipmunk = Chipmunk(fs_name)
    config = dataclasses.replace(chipmunk.config, crash_points="fence")
    base, log, _ = chipmunk.record(workload.core, setup=workload.setup)
    states = list(enumerate_crash_states(
        base, log, cap=config.cap,
        coalesce_threshold=config.coalesce_threshold,
    ))
    context = dict(
        fs_name=fs_name, workload=workload.core, setup=workload.setup,
        bug_ids=sorted(chipmunk.bugs.enabled), config=config,
    )
    return log, states, context


@pytest.mark.parametrize("fs_name,index", CASES,
                         ids=[f"{fs}-{i}" for fs, i in CASES])
def test_rebuilt_state_equals_the_enumerated_one(fs_name, index):
    log, states, context = enumerated(fs_name, index)
    assert {s.kind for s in states} == {"subset", "post", "final"}
    recording = None
    for state in states:
        prov = capture_provenance(log, state, **context)
        if recording is None:
            recording = rebuild_recording(prov)
        rebuilt = session_from_recording(prov, recording).original_state()
        for field in dataclasses.fields(state):
            if field.name != "image":
                assert (getattr(rebuilt, field.name)
                        == getattr(state, field.name)), (field.name,
                                                         state.describe())
        assert rebuilt.image.materialize() == state.image.materialize()


def test_pmfs_final_state_replays_in_flight_writes():
    """The case the property was written for: a final state with writes in
    flight, which enumeration counts as replaying none."""
    _, states, _ = enumerated("pmfs", 125)
    final = states[-1]
    assert final.kind == "final" and final.replayed_entries
    assert final.n_replayed == 0
