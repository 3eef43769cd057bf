"""Memo wire protocol: 4-byte length-prefixed JSON frames.

Requests and responses are small dicts (a request carries an op and a hex
key, a response a hit flag), so the frame cap is tight: anything larger
than :data:`MAX_FRAME` is rejected *from the header alone* — the body is
never read, so a hostile or corrupted peer cannot make the server buffer
arbitrary data.  A connection that closes mid-frame raises
:class:`FrameError` ("torn frame"); a close exactly on a frame boundary
is a clean EOF and :func:`recv_frame` returns ``None``.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

#: Maximum frame payload in bytes.  Every legitimate message is well under
#: 200 bytes (op + hex sha1 key, or a hit flag); 4 KiB leaves headroom
#: without admitting anything pathological.
MAX_FRAME = 4096

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """Malformed frame: oversized, torn mid-read, or not a JSON object."""


def send_frame(sock, obj: dict) -> None:
    """Serialize ``obj`` and send it as one length-prefixed frame."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameError(
            f"frame payload {len(payload)} exceeds MAX_FRAME {MAX_FRAME}"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on EOF before the first byte,
    :class:`FrameError` on EOF after it (a torn frame)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameError(
                    f"torn frame: connection closed with "
                    f"{remaining} of {n} byte(s) outstanding"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Optional[dict]:
    """Receive one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"oversized frame: {length} > MAX_FRAME {MAX_FRAME}")
    if length == 0:
        raise FrameError("empty frame")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("torn frame: connection closed before the body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame body is not an object: {type(obj).__name__}")
    return obj
