"""Campaign-wide shared check memo (``campaign --shared-memo``).

Every workload in a campaign re-checks the same mkfs-fresh early crash
states, yet :class:`~repro.core.checker.CheckMemo` lives and dies inside
one harness.  With ``--shared-memo`` the engine hosts one table of clean
states that every worker consults before checking:

* :mod:`repro.memo.store` — :class:`~repro.memo.store.MemoTable`, a
  thread-safe LRU-bounded set of clean keys with hit/miss/evict counters;
* :mod:`repro.memo.wire` — the length-prefixed JSON frame protocol, with
  torn- and oversized-frame rejection;
* :mod:`repro.memo.server` — :class:`~repro.memo.server.MemoServer`, the
  threaded TCP server the engine runs on a loopback ephemeral port;
* :mod:`repro.memo.client` — :class:`~repro.memo.client.MemoClient`, a
  worker-side client with connect/request timeouts, one retry, a raised
  (and counted) error per failed request, and permanent degradation to
  the local memo after repeated failures.

Soundness contract (see DESIGN.md "Shared check-memo service"): entries
are keyed by ``sha1(oracle-context digest ‖ content address ‖ syscall
context)``, so key equality implies both byte-identical images *and*
identical oracle expectations.  Only clean states are published, and a hit
skips only a check that would have reported nothing, so ``bugs.json`` stays
byte-equal to a run without the service.
"""

from repro.memo.client import MemoClient
from repro.memo.server import MemoServer
from repro.memo.store import DEFAULT_MAX_ENTRIES, MemoTable
from repro.memo.wire import FrameError, MAX_FRAME, recv_frame, send_frame

__all__ = [
    "MemoClient",
    "MemoServer",
    "MemoTable",
    "DEFAULT_MAX_ENTRIES",
    "FrameError",
    "MAX_FRAME",
    "recv_frame",
    "send_frame",
]
