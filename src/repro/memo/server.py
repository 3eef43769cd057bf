"""Threaded TCP memo server: the campaign's shared table of clean keys.

For ``--shared-memo`` the campaign engine starts one :class:`MemoServer` on
a loopback ephemeral port and hands the address to its workers.  A
``multiprocessing.Manager`` proxy would also be a socket round trip per
call, but its calls have no timeout; the worker's
:class:`~repro.memo.client.MemoClient` bounds every request, so a wedged
server slows a campaign down and never hangs it.

The server is deliberately dumb: it stores opaque hex keys and never
inspects them.  All soundness reasoning (what a key must fold in, which
states may be skipped) lives client-side in
:class:`repro.core.checker.CheckMemo`.

Protocol (one JSON frame per request/response, see :mod:`repro.memo.wire`):

``{"op": "lookup", "key": HEX}``  → ``{"ok": true, "hit": true | false}``
``{"op": "publish", "key": HEX}`` → ``{"ok": true}``

Malformed requests get ``{"ok": false, "error": ...}``; frame-level
violations (oversized, torn, non-JSON) close the connection.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Tuple

from repro.memo.store import MemoTable
from repro.memo.wire import FrameError, recv_frame, send_frame

#: Hex sha1 is 40 chars; allow headroom for longer digests without
#: admitting unbounded keys into the table.
MAX_KEY_CHARS = 128

#: Accept-loop poll granularity; bounds shutdown latency.
_ACCEPT_POLL_S = 0.2


class MemoServer:
    """Shared check-memo server: a :class:`MemoTable` behind a loopback
    TCP socket (``port`` 0 picks an ephemeral one)."""

    host = "127.0.0.1"

    def __init__(self, port: int = 0) -> None:
        self.port = port
        self.table = MemoTable()
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
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
            target=self._accept_loop, name="memo-accept", daemon=True
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
            # Forked workers inherit the listening socket, so close() alone
            # would leave it accepting; shutdown() stops it in every process
            # and a later connect is refused at once.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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
            threading.Thread(
                target=self._serve_client, args=(conn,),
                name="memo-conn", daemon=True,
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
        if op not in ("lookup", "publish"):
            return {"ok": False, "error": f"unknown op {op!r}"}
        key = request.get("key")
        if not isinstance(key, str) or not key or len(key) > MAX_KEY_CHARS:
            return {"ok": False, "error": "bad key"}
        if op == "lookup":
            return {"ok": True, "hit": self.table.lookup(key)}
        self.table.publish(key)
        return {"ok": True}
