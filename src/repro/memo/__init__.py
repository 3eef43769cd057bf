"""Campaign-wide shared check-memo service ("one fleet, one dedup domain").

Every workload in a campaign re-checks the same mkfs-fresh early crash
states, yet :class:`~repro.core.checker.CheckMemo` historically lived and
died inside one harness — the bench showed the hit-rate stuck below 10%
because the dedup domain was a single workload.  This package promotes the
memo to a campaign-wide content-addressed verdict service:

* :mod:`repro.memo.store` — :class:`~repro.memo.store.MemoTable`, a
  thread-safe LRU/size-bounded verdict table (clean entries evict, buggy
  entries pin) with hit/miss/evict counters;
* :mod:`repro.memo.wire` — the length-prefixed JSON frame protocol, with
  torn- and oversized-frame rejection;
* :mod:`repro.memo.server` — :class:`~repro.memo.server.MemoServer`, a
  threaded TCP server the campaign engine embeds for ``--shared-memo`` and
  ``python -m repro memod`` runs standalone for multi-host campaigns;
* :mod:`repro.memo.client` — :class:`~repro.memo.client.MemoClient`, a
  worker-side client with connect/request timeouts, bounded retries, and
  silent permanent degradation to the local memo on any failure.

Soundness contract (see DESIGN.md "Shared check-memo service"): entries
are keyed by ``sha1(oracle-context digest ‖ content address ‖ syscall
context)``, so key equality implies both byte-identical images *and*
identical oracle expectations — a shared hit can never mask a bug.  Only
CLEAN verdicts are skippable; a BUGGY verdict forces a local re-check so
every workload still emits its own reports and ``bugs.json`` stays
byte-equal to a run without the service.
"""

from repro.memo.client import MemoClient
from repro.memo.server import MemoServer, run_memod
from repro.memo.store import BUGGY, CLEAN, DEFAULT_MAX_ENTRIES, MemoTable
from repro.memo.wire import FrameError, MAX_FRAME, recv_frame, send_frame

__all__ = [
    "MemoClient",
    "MemoServer",
    "run_memod",
    "MemoTable",
    "CLEAN",
    "BUGGY",
    "DEFAULT_MAX_ENTRIES",
    "FrameError",
    "MAX_FRAME",
    "recv_frame",
    "send_frame",
]
