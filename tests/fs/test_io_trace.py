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
        '94a990d8861e01d963d822d26b969eab0cb8661d',
        'f1a9c31b518c6caf377a1a3d284299583813ee2f',
    ),
    ('ext4-dax', 'fixed'): (
        '94a990d8861e01d963d822d26b969eab0cb8661d',
        'f1a9c31b518c6caf377a1a3d284299583813ee2f',
    ),
    ('nova', 'catalogue'): (
        '6e0b18d1cb494360225b463fe7435b92b5531e29',
        'e939cfb118448c3972b60490291c3524673a8d23',
    ),
    ('nova', 'fixed'): (
        '8cb38e586f14d8029b3c65dfcecaaadd17688192',
        'd766c0b1b8b55df5a6f1b0387f3b3884d912875f',
    ),
    ('nova-fortis', 'catalogue'): (
        'ce86f3dbc8c3a2f79ca07770b2d47f97221c659b',
        '2521d69e0c39007676cbca37a57dc15bda2ca0b4',
    ),
    ('nova-fortis', 'fixed'): (
        '1bd5e1f0a37ff4ae3c305e1644baf7ecfecbf8c6',
        'f4bcc97b0f856bba400c1ec8feaec8e64bb039b6',
    ),
    ('pmfs', 'catalogue'): (
        '280680406d686ffb29924d20cef52c748d230df8',
        '43dcd87ffad4a21f84db28ecae53fa58beb1d2cf',
    ),
    ('pmfs', 'fixed'): (
        '17c35585b32e84881ed8af7cf28744de6cfcd48a',
        '1917be69910f78b0e1944e632ccda98b08af02ae',
    ),
    ('splitfs', 'catalogue'): (
        'f4a1655fa4f9791d9df9d2ba339ce5dc63c568ab',
        'fa01451b004473b8f3b56b932cb108101bd4072c',
    ),
    ('splitfs', 'fixed'): (
        '551af5b1c77a6d2245935ecda3b23009a482bb5b',
        '2f9580f3456737a50657758e11cc79d0f2967e4a',
    ),
    ('winefs', 'catalogue'): (
        '2fdfc7d3eb1eff9a9afb404a4e27bc9cfd53ff33',
        '0a777d6ab8fa736bbea6b80006791b8eda0a251f',
    ),
    ('winefs', 'fixed'): (
        '6e890285d21925ba2060223f7bb63506274b215b',
        '5d6dcb2f120b6da68521929cb08eceb85ae0f741',
    ),
    ('xfs-dax', 'catalogue'): (
        '5695b370da31d262f125e9c3bfc198e6dc9657de',
        'f1a9c31b518c6caf377a1a3d284299583813ee2f',
    ),
    ('xfs-dax', 'fixed'): (
        '5695b370da31d262f125e9c3bfc198e6dc9657de',
        'f1a9c31b518c6caf377a1a3d284299583813ee2f',
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
