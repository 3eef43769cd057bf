"""Single-run oracle against the reference oracle, over an ACE slice.

``Chipmunk.record`` observes the recording run for the oracle; the
reference ``run_oracle`` re-runs the workload on a fresh, unprobed instance.
For every registry entry with its bug catalogue and fully fixed, this runs
ACE seq-1 plus the first ``--seq2`` seq-2 workloads (in the entry's
campaign mode) and checks, per workload, that

* the trees and errnos equal ``run_oracle``'s, item for item;
* the base image, write log and errnos equal a recording that never walks.

It prints one line per entry and exits 1 on any mismatch::

    PYTHONPATH=src python tests/core/single_run_oracle_driver.py --seq2 60

``test_single_run_oracle.py`` runs :func:`mismatch` on random op sequences.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import List, Optional, Sequence

from repro.campaign import CampaignSpec
from repro.core.oracle import run_oracle
from repro.core.probes import ProbeSet, probe_targets_of
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.pm.log import PMLog
from repro.workloads import ace
from repro.workloads.ops import Op, execute_op

#: bug set name -> ``CampaignSpec.bug_ids`` (None = the catalogue).
BUG_SETS = {"catalogue": None, "fixed": []}


def unobserved_recording(chipmunk, workload: Sequence[Op], setup: Sequence[Op]):
    """``(base, log entries, errnos)`` of a probed run with no walk."""
    device = PMDevice(chipmunk.config.device_size)
    fs = chipmunk.fs_class.mkfs(device, bugs=chipmunk.bugs)
    for op in setup:
        execute_op(fs, op)
    base = device.snapshot()
    log = PMLog()
    probes = ProbeSet(log)
    probes.attach(probe_targets_of(fs))
    errnos: List[Optional[str]] = []
    try:
        for index, op in enumerate(workload):
            log.syscall_begin(index, op.name, ", ".join(map(repr, op.args)))
            errnos.append(execute_op(fs, op))
            log.syscall_end()
    finally:
        probes.detach()
    return base, log.entries, errnos


def mismatch(chipmunk, workload: Sequence[Op], setup: Sequence[Op]) -> str:
    """What differs between the single run and the references ("" = none)."""
    base, log, oracle = chipmunk.record(workload, setup=setup)
    reference = run_oracle(
        chipmunk.fs_class, workload, chipmunk.config.device_size,
        bugs=chipmunk.bugs, setup=setup,
    )
    if oracle.errnos != reference.errnos:
        return f"errnos {oracle.errnos} != {reference.errnos}"
    if len(oracle.states) != len(reference.states):
        return f"{len(oracle.states)} trees != {len(reference.states)}"
    for index, (ours, theirs) in enumerate(zip(oracle.states, reference.states)):
        if list(ours.items()) != list(theirs.items()):
            return f"tree {index} differs"
    if (base, log.entries, oracle.errnos) != unobserved_recording(
        chipmunk, workload, setup
    ):
        return "recording differs from an unobserved run"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seq2", type=int, default=60,
                        help="seq-2 workloads per entry after all of seq-1")
    args = parser.parse_args(argv)
    failed = 0
    for fs in sorted(FS_CLASSES()):
        for bugs, bug_ids in BUG_SETS.items():
            spec = CampaignSpec(fs=fs, seq=2, bug_ids=bug_ids)
            chipmunk = spec.build_chipmunk()
            checked = 0
            for workload in itertools.chain(
                ace.generate(1, mode=spec.mode),
                itertools.islice(ace.generate(2, mode=spec.mode), args.seq2),
            ):
                problem = mismatch(chipmunk, workload.core, workload.setup)
                checked += 1
                if problem:
                    failed += 1
                    print(f"{fs} {bugs} {workload.name()}: {problem}",
                          file=sys.stderr)
            print(f"{fs} {bugs}: {checked} workload(s) checked")
    if failed:
        print(f"{failed} workload(s) differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
