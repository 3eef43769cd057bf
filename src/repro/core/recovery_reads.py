"""Recovery-read sets (paper section 6.2).

Vinter reduces its state space by focusing on crash states whose in-flight
writes are *likely to be read during recovery*.  The paper notes Chipmunk
"could incorporate this heuristic by recording PM read functions" — this
module records them: it mounts an image under the device's access trace
and returns the cache lines recovery reads.  The harness intersects them
with a workload's stores (``TestResult.recovery_overlap``) on one workload
in sixteen (:func:`repro.core.harness.recovery_sampled`).
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.core.checker import RECOVERY_CRASHES
from repro.pm.device import PMDevice
from repro.vfs.errors import FsError
from repro.vfs.interface import MountError


def recovery_read_set(
    fs_class,
    image,
    bugs=None,
    granularity: int = 64,
    writes: Iterable[Tuple[int, bytes]] | None = None,
) -> Set[int]:
    """Lines of ``granularity`` bytes recovery reads when mounting ``image``.

    With ``writes``, ``image`` is a base (flat bytes or a sliceable fence
    base) and the mount runs on ``base + writes``.  Reads are recorded by
    the device's own access trace (:meth:`PMDevice.traced`), the recorder
    the checker's recovery memo keys on.  A failed or crashed mount (the
    checker's taxonomy) still yields the reads made up to the failure —
    precisely the locations recovery trusted; anything else, a harness
    bug, propagates.
    """
    device = PMDevice(len(image), image=bytearray(image[0 : len(image)]))
    for addr, data in writes or ():
        device.check_range(addr, len(data))
        device.image[addr : addr + len(data)] = data
    with device.traced() as trace:
        try:
            fs_class.mount(device, bugs=bugs)
        except (MountError, FsError) + RECOVERY_CRASHES:
            pass
    lines: Set[int] = set()
    for addr, length in trace:
        if length > 0:
            lines.update(range(addr // granularity,
                               (addr + length - 1) // granularity + 1))
    return lines

