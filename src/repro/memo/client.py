"""Worker-side memo client: fast when the service is up, counted when not.

The shared memo is a pure optimization — every verdict it serves could be
recomputed locally — so the client's failure policy is *degrade, never
disrupt*:

* connect and per-request timeouts (a wedged server costs a worker at most
  ``request_timeout`` per attempt, not a campaign);
* one in-call retry over a fresh connection (survives a server restart or
  an idle-connection reset without losing the request);
* a request whose two attempts both fail raises, so the caller
  (:class:`~repro.core.checker.CheckMemo`) counts it in
  ``memo_shared_errors`` and treats it as a miss;
* after :attr:`max_failures` *consecutive* failed requests the client
  permanently disables itself: :attr:`ok` turns False, the caller stops
  consulting it, and the worker runs on its local memo alone.  A dead
  server therefore slows a campaign down; it never changes its output.

The client is used serially by one worker process over one persistent
connection; it is not thread-safe and does not need to be.
"""

from __future__ import annotations

import socket
from typing import Optional, Tuple

from repro.memo.wire import FrameError, recv_frame, send_frame


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"``; raises ``ValueError`` on malformed input."""
    host, sep, port_s = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"memo address {address!r} is not HOST:PORT")
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"memo address {address!r} has a non-integer port")
    if not (0 < port < 65536):
        raise ValueError(f"memo address {address!r} port out of range")
    return host, port


class MemoClient:
    """One worker's connection to the shared memo service."""

    def __init__(
        self,
        address: str,
        connect_timeout: float = 1.0,
        request_timeout: float = 1.0,
        max_failures: int = 3,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_failures = max_failures
        self._sock: Optional[socket.socket] = None
        self._consecutive_failures = 0
        self._dead = False

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """False once the client has permanently degraded to local-only."""
        return not self._dead

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        # Request/response with tiny frames: Nagle would trade the one
        # thing this client cares about (latency) for nothing.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.request_timeout)
        return sock

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request(self, obj: dict) -> Optional[dict]:
        """One request/response round trip; None once degraded.

        Two attempts: a stale persistent connection (server restarted
        between calls) fails once and retries on a fresh one.  When *both*
        attempts fail the second error propagates, and it counts one
        consecutive failure toward permanent degradation; any success
        resets the count.
        """
        if self._dead:
            return None
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._sock = self._connect()
                send_frame(self._sock, obj)
                response = recv_frame(self._sock)
                if response is None:
                    raise FrameError("connection closed before the response")
            except (OSError, FrameError, ValueError):
                self._close()
                if attempt == 0:
                    continue
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.max_failures:
                    self._dead = True
                raise
            self._consecutive_failures = 0
            return response

    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> bool:
        """Whether ``key`` is known clean (False on a miss *or* degraded);
        raises when the request failed."""
        response = self._request({"op": "lookup", "key": key.hex()})
        return bool(response and response.get("ok")
                    and response.get("hit") is True)

    def publish(self, key: bytes) -> bool:
        """Record ``key`` as clean; False if the server refused it or the
        client has degraded, and raises when the request failed."""
        response = self._request({"op": "publish", "key": key.hex()})
        return bool(response and response.get("ok"))

    def close(self) -> None:
        self._close()
