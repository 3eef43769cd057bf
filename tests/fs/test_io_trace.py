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
        '0b91563529e530950348b67b67b76da35728eecb',
        '17fb70d6ab1f71c201a645d97866de3773045117',
    ),
    ('ext4-dax', 'fixed'): (
        '0b91563529e530950348b67b67b76da35728eecb',
        '17fb70d6ab1f71c201a645d97866de3773045117',
    ),
    ('nova', 'catalogue'): (
        '5c944025828175caf3c1125afad4830bb34975d3',
        '27efdd304b8e3b622aefeb36a18a0c87b8e094af',
    ),
    ('nova', 'fixed'): (
        '9c2f36f6184b60bc4653ce177e0d8a73cbd4678f',
        'eb9639febc0a82453edaa1b996ca5caa5d7ab254',
    ),
    ('nova-fortis', 'catalogue'): (
        '15d20c298bcbf274bdf02a15df04e30439848046',
        'b1b10b18a8fb6d32d09d8fec8315960b26de1d84',
    ),
    ('nova-fortis', 'fixed'): (
        '04f79538a0fe753714a590446d4ac24a141cbf7b',
        'dc2cea5f6f523eea3322c6814b78d04ae60c2adc',
    ),
    ('pmfs', 'catalogue'): (
        '2119d6b0149b21be220df106e578ba79ea74d510',
        'c37f59bebde2824f6189109a3d25e70b0a0d774b',
    ),
    ('pmfs', 'fixed'): (
        'd6d60c58c582bca6504df27e0156c7400a7b3f27',
        '3f7b535222cdbc842cbc19e9eacdc611ef269f7a',
    ),
    ('splitfs', 'catalogue'): (
        '491e560bf03e9319b7be797bf0472f03851b4789',
        '03e9389a0b1c4cfdc061895e3fcad539a34226fa',
    ),
    ('splitfs', 'fixed'): (
        '3c95d0da15e9f8d48bdee58acef26f0552c64935',
        '7321ed926684d6a10db946ef8e2c41c53b4a6bc4',
    ),
    ('winefs', 'catalogue'): (
        'b736280652d6434eda540dea1cea30a02f96915c',
        '80a2f55d88c94367046351f0756ae00b47e20b2a',
    ),
    ('winefs', 'fixed'): (
        '30f984a6559203b43b86473836f33e897863f30c',
        '8f22b44a0a5cd83e727cbeb21ec055ce6a3b2cef',
    ),
    ('xfs-dax', 'catalogue'): (
        '95988cb84edd02566f8442340396755d53ae65d3',
        '17fb70d6ab1f71c201a645d97866de3773045117',
    ),
    ('xfs-dax', 'fixed'): (
        '95988cb84edd02566f8442340396755d53ae65d3',
        '17fb70d6ab1f71c201a645d97866de3773045117',
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
