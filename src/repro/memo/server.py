"""Threaded TCP memo server: the campaign's shared verdict authority.

One :class:`MemoServer` instance serves both deployment modes with the
same code path:

* **host-local** — the campaign engine starts an in-process server on a
  loopback ephemeral port for ``--shared-memo`` and hands the address to
  its workers.  (A ``multiprocessing.Manager`` proxy would also be a
  socket round trip per call — a real server is no slower and additionally
  serves mode two.)
* **multi-host** — ``python -m repro memod`` runs the same server
  standalone; campaigns on other machines attach via
  ``--memo-server HOST:PORT``.  The memo key is a pure function of image
  bytes and oracle expectations (PR 7 made the content address canonical),
  so keys are host-portable by construction.

The server is deliberately dumb: it stores verdict strings under opaque
hex keys and never inspects them.  All soundness reasoning (what a key
must fold in, which verdicts may be skipped) lives client-side in
:class:`repro.core.checker.CheckMemo` — a stale or wrong *server* can at
worst return a verdict for a key nobody asked about, which the client
ignores.

Protocol (one JSON frame per request/response, see :mod:`repro.memo.wire`):

``{"op": "lookup", "key": HEX}``  → ``{"ok": true, "verdict": "clean" | "buggy" | null}``
``{"op": "publish", "key": HEX, "verdict": V}`` → ``{"ok": true}``
``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}``
``{"op": "ping"}`` → ``{"ok": true}``

Malformed requests get ``{"ok": false, "error": ...}``; frame-level
violations (oversized, torn, non-JSON) close the connection.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import Optional, Tuple

from repro.memo.store import DEFAULT_MAX_ENTRIES, MemoTable, VERDICTS
from repro.memo.wire import FrameError, recv_frame, send_frame

#: Hex sha1 is 40 chars; allow headroom for longer digests without
#: admitting unbounded keys into the table.
MAX_KEY_CHARS = 128

#: Accept-loop poll granularity; bounds shutdown latency.
_ACCEPT_POLL_S = 0.2


class MemoServer:
    """Shared check-memo server: a :class:`MemoTable` behind a TCP socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        table: Optional[MemoTable] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.table = table if table is not None else MemoTable(max_entries)
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.connections = 0
        self.frame_errors = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind, listen, and serve from a daemon acceptor thread."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(64)
        sock.settimeout(_ACCEPT_POLL_S)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._accept_loop, name="memod-accept", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def address_str(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us during shutdown
            self.connections += 1
            threading.Thread(
                target=self._serve_client, args=(conn,),
                name="memod-conn", daemon=True,
            ).start()

    def _serve_client(self, conn: socket.socket) -> None:
        # Per-request timeout: a wedged client must not hold a server
        # thread forever, but an idle-but-alive worker connection may sit
        # between requests indefinitely — so only cap time *inside* a
        # frame by polling the stop event between recv attempts.
        conn.settimeout(_ACCEPT_POLL_S)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # e.g. a non-TCP test socketpair
        try:
            while not self._stop.is_set():
                try:
                    request = recv_frame(conn)
                except socket.timeout:
                    continue
                except FrameError:
                    # Oversized/torn/non-JSON: drop the connection; there
                    # is no way to resynchronize a byte stream mid-frame.
                    self.frame_errors += 1
                    return
                # A request that arrives after stop() is not answered: a
                # stopped service must look dead to a connected client.
                if request is None or self._stop.is_set():
                    return
                send_frame(conn, self._handle(request))
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": self.table.stats()}
        if op in ("lookup", "publish"):
            key = request.get("key")
            if not isinstance(key, str) or not key or len(key) > MAX_KEY_CHARS:
                return {"ok": False, "error": "bad key"}
            if op == "lookup":
                return {"ok": True, "verdict": self.table.lookup(key)}
            verdict = request.get("verdict")
            if verdict not in VERDICTS:
                return {"ok": False, "error": f"bad verdict {verdict!r}"}
            self.table.publish(key, verdict)
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def run_memod(
    host: str = "127.0.0.1",
    port: int = 0,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    out=None,
) -> int:
    """CLI entry point (``python -m repro memod``): serve until interrupted."""
    out = out if out is not None else sys.stdout
    server = MemoServer(host=host, port=port, max_entries=max_entries)
    server.start()
    print(
        f"[memod] serving shared check memo on {server.address_str} "
        f"(max {server.table.max_entries} clean entries); Ctrl-C to stop",
        file=out, flush=True,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        stats = server.table.stats()
        print(
            f"\n[memod] {stats['entries']} entrie(s) "
            f"({stats['buggy']} buggy pinned), {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['evictions']} eviction(s) "
            f"over {server.connections} connection(s)",
            file=out, flush=True,
        )
        return 130
    finally:
        server.stop()
