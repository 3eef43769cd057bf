"""PM I/O equivalence gate for the file-system models.

The file systems' CPU-side code may get faster, but what they do to the
device may not change: every crash state, read set, outcome-cache key and
report is a function of the ordered ``PMDevice.read (addr, len)`` and
``PMDevice.write (addr, bytes)`` calls.  For every registry entry with its
bug catalogue and fully fixed, this runs every ACE seq-1 workload plus the
first :data:`N_SEQ2` seq-2 workloads through the whole pipeline and compares
two digests against golden values:

* ``io`` — sha1 over the ordered device reads and writes;
* ``results`` — sha1 over each ``TestResult.to_dict()`` without its timings.

The device methods are wrapped here only; production code has no hook.  A
change that is *meant* to alter PM traffic regenerates the table with::

    PYTHONPATH=src python tests/fs/test_io_trace.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from contextlib import contextmanager

import pytest

from repro.campaign import CampaignSpec
from repro.core.triage import layout_map_for
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.workloads import ace

N_SEQ2 = 40

#: ``TestResult`` fields that are wall-clock measurements, not outcomes.
TIMINGS = ("elapsed", "stage_times", "profile")

BUG_SETS = {"catalogue": None, "fixed": []}

#: (fs, bug set) -> (io digest, results digest).
GOLDEN = {
    ('ext4-dax', 'catalogue'): (
        '203792840b09ac736668e11330ce706fef70e1d2',
        '6edadbbf1162990de12ae60de0b45c10e42bbf9a',
    ),
    ('ext4-dax', 'fixed'): (
        '203792840b09ac736668e11330ce706fef70e1d2',
        '6edadbbf1162990de12ae60de0b45c10e42bbf9a',
    ),
    ('nova', 'catalogue'): (
        '8955619b183e8b116823197c6d9f42eb88a267b4',
        '105609c0d0095038223a1c8f8f6058018ae8f868',
    ),
    ('nova', 'fixed'): (
        '395abde6f0c1f51178ab2b869c70a8c06267b640',
        '7fa2269b62d8045fbdb57fb80ae5ae6ab3138507',
    ),
    ('nova-fortis', 'catalogue'): (
        'd5fb1d92661bc5167705aa62702678a77091497a',
        '9dc11d2ab17a501f08ae0fb68d48844826adb1ca',
    ),
    ('nova-fortis', 'fixed'): (
        '64cdba224648949cc5d8436053cc185e520d7034',
        'b486459487db3e07645075cc7083d206f9a4dcb6',
    ),
    ('pmfs', 'catalogue'): (
        '705b29439047121d6f90dda73c579f3f03045c6f',
        '46faf1e314298e1f49adb164f90cb81e2040a2f2',
    ),
    ('pmfs', 'fixed'): (
        '0d6fb61754233969b2af273134dead7e4ba54aa9',
        '6cfe91088a62159f9feb9942cd1e1b8969d0bfd6',
    ),
    ('splitfs', 'catalogue'): (
        '6677f515c3a2f07a711ecd0dc3bad183635a29ea',
        '1b0d336e2d451156445075dd66230def0155e412',
    ),
    ('splitfs', 'fixed'): (
        'c6214a0e3b60de85255ca1a5345d246e7fe37d07',
        '0b0ec92a04b87e962a3a056a7f46ba3f3bc057b7',
    ),
    ('winefs', 'catalogue'): (
        'ac23a85606e1216e5122c3687ca2b2b46c23bc24',
        '1a5be37db1699dde0a354315ab00481885d178cf',
    ),
    ('winefs', 'fixed'): (
        'a9a10d3df4a8bad3b2ac0bf6f04c1b15b8312349',
        'e680b06c236e8a84a3049e53bbe6cd01add5d79a',
    ),
    ('xfs-dax', 'catalogue'): (
        '02b06ff107ba0aefcd0f2a18bd80b5bf1060d0df',
        '6edadbbf1162990de12ae60de0b45c10e42bbf9a',
    ),
    ('xfs-dax', 'fixed'): (
        '02b06ff107ba0aefcd0f2a18bd80b5bf1060d0df',
        '6edadbbf1162990de12ae60de0b45c10e42bbf9a',
    ),
}


@contextmanager
def traced_device(io):
    """Feed every ``PMDevice.read``/``write`` call into the hash ``io``."""
    real_read, real_write = PMDevice.read, PMDevice.write

    def read(self, addr, length):
        io.update(b"R%d,%d;" % (addr, length))
        return real_read(self, addr, length)

    def write(self, addr, data):
        io.update(b"W%d,%d:" % (addr, len(data)))
        io.update(data)
        return real_write(self, addr, data)

    PMDevice.read, PMDevice.write = read, write
    try:
        yield
    finally:
        PMDevice.read, PMDevice.write = real_read, real_write


def trace_slice(fs, bug_ids):
    """``(io digest, results digest)`` of one file system's slice."""
    spec = CampaignSpec(fs=fs, seq=2, bug_ids=bug_ids)
    chipmunk = spec.build_chipmunk()
    # The layout map is memoized per process by a throwaway mkfs; build it
    # outside the trace so the digests do not depend on test order.
    layout_map_for(chipmunk.fs_class.name, chipmunk.config.device_size)
    workloads = itertools.chain(
        ace.generate(1, mode=spec.mode),
        itertools.islice(ace.generate(2, mode=spec.mode), N_SEQ2),
    )
    io, results = hashlib.sha1(), hashlib.sha1()
    with traced_device(io):
        for workload in workloads:
            result = chipmunk.test_workload(workload.core, setup=workload.setup)
            doc = {k: v for k, v in result.to_dict().items() if k not in TIMINGS}
            results.update(json.dumps(doc, sort_keys=True).encode())
    return io.hexdigest(), results.hexdigest()


@pytest.mark.parametrize("bugs", sorted(BUG_SETS))
@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_pm_io_and_results_match_the_golden_trace(fs, bugs):
    assert trace_slice(fs, BUG_SETS[bugs]) == GOLDEN[(fs, bugs)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for fs in sorted(FS_CLASSES()):
        for bugs in sorted(BUG_SETS):
            io, results = trace_slice(fs, BUG_SETS[bugs])
            print(f"    ({fs!r}, {bugs!r}): (\n        {io!r},\n        {results!r},\n    ),")
    print("}")
