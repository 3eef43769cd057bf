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
        '02526e8ac5d42c5ee02cf229827565e43776803b',
        '0abf60701f24d8bba5dab141144c6aa50fcb75b5',
    ),
    ('ext4-dax', 'fixed'): (
        '02526e8ac5d42c5ee02cf229827565e43776803b',
        '0abf60701f24d8bba5dab141144c6aa50fcb75b5',
    ),
    ('nova', 'catalogue'): (
        'b4b6937bfed0cd04e56e7d9834ce9286df5166e8',
        '7832bb02d2831c34d1d05b01d5eeb555f9f5e2dc',
    ),
    ('nova', 'fixed'): (
        '42960f16ff9585786c554bef2406ec8f861016bf',
        '9115a19dfc6046ee13842b8a18de6e41d0b32227',
    ),
    ('nova-fortis', 'catalogue'): (
        '682a7df1bc3026b968626b31d189af61b97090b7',
        '49bdcfe070f333272f5d47d053244bf4f8aa5bcd',
    ),
    ('nova-fortis', 'fixed'): (
        'b6743ca2ef3ed4367f8fb6077029027e6ee2e1fa',
        '0cd0c6fff7a81b278b75ed3baeec2d8eb201b48d',
    ),
    ('pmfs', 'catalogue'): (
        '206701853085f706df5e279cdb410fde59e30ad9',
        'fbb3413089d74a9efe404d824903cb5cc0c992ed',
    ),
    ('pmfs', 'fixed'): (
        'dbb78fe9b23fbb323666ed91c36fa88e6d7bdd03',
        '7d715cdb13afc5fffbb7f0f39fcc4f223c873ccb',
    ),
    ('splitfs', 'catalogue'): (
        '0799c45bd5e4b6a948135cfeb868d1fbb45b9c7c',
        '31ec42a0d7748b109ce65ca0da13f778ec4ad078',
    ),
    ('splitfs', 'fixed'): (
        'b5555b244d5c0f22e962ec597b68c98f7988366c',
        '8b349a693a75eb192da535b059e860e987631374',
    ),
    ('winefs', 'catalogue'): (
        'dac16fcfea173ea2c50c2088b3a1ec60bee708f4',
        'b966c317d3abdc480e915f4b153ea4d436198a5c',
    ),
    ('winefs', 'fixed'): (
        '196601ed41b98d88e3d411c07f5f4c5d3881b381',
        'f9f47fda77fa488a09d5f7bec32badc9b81812a8',
    ),
    ('xfs-dax', 'catalogue'): (
        'ec8fe408124b2a387f0ae3bbe84412be7902adbd',
        '0abf60701f24d8bba5dab141144c6aa50fcb75b5',
    ),
    ('xfs-dax', 'fixed'): (
        'ec8fe408124b2a387f0ae3bbe84412be7902adbd',
        '0abf60701f24d8bba5dab141144c6aa50fcb75b5',
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
