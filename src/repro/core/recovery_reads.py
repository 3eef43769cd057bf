"""Vinter-style recovery-read heuristic (paper section 6.2).

Vinter reduces its state space by focusing on crash states whose in-flight
writes are *likely to be read during recovery*.  The paper notes Chipmunk
"could incorporate this heuristic by recording PM read functions" — this
module does exactly that: it mounts the last persistent state under the
device's access trace, records which byte ranges recovery reads, and lets
the replayer rank subsets by how much of their in-flight data recovery
would actually observe.

This is an *ordering* heuristic, not a filter: with a subset cap in place it
changes which states are generated first, which matters when a campaign is
stopped early (time-boxed fuzzing).  The ablation bench
(`benchmarks/bench_vinter_heuristic.py`) measures how many crash states a
campaign checks before the first report, with and without the heuristic.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.pm.device import PMDevice
from repro.pm.log import WriteEntry


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
    the checker's recovery memo keys on.  A failed mount still yields the
    reads made up to the failure — precisely the locations recovery
    trusted.
    """
    device = PMDevice(len(image), image=bytearray(image[0 : len(image)]))
    for addr, data in writes or ():
        device.check_range(addr, len(data))
        device.image[addr : addr + len(data)] = data
    with device.traced() as trace:
        try:
            fs_class.mount(device, bugs=bugs)
        except Exception:  # noqa: BLE001 - any recovery failure is fine
            pass
    lines: Set[int] = set()
    for addr, length in trace:
        if length > 0:
            lines.update(range(addr // granularity,
                               (addr + length - 1) // granularity + 1))
    return lines


def write_overlap(entry: WriteEntry, read_lines: Set[int], granularity: int = 64) -> int:
    """How many of the entry's cache lines recovery would read."""
    first = entry.addr // granularity
    last = (entry.addr + max(entry.length, 1) - 1) // granularity
    return sum(1 for line in range(first, last + 1) if line in read_lines)


def rank_units(
    units: List[List[WriteEntry]], read_lines: Set[int]
) -> List[List[WriteEntry]]:
    """Order replay units so recovery-visible writes come first."""
    scored = [
        (sum(write_overlap(e, read_lines) for e in unit), i, unit)
        for i, unit in enumerate(units)
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [unit for _, _, unit in scored]
