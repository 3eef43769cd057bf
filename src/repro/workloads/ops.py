"""Serializable workload operations.

A workload is a sequence of :class:`Op` values — syscall descriptors with
concrete arguments.  Both the system under test and the oracle execute the
same descriptors through :func:`execute_op`, which maps POSIX-style failures
to errno names instead of exceptions (a failing syscall is part of a valid
workload, exactly as in ACE and Syzkaller runs).

Write data is described as ``(fill_byte, length)`` so workloads stay small,
hashable, and deterministic; the bytes are materialized at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.vfs.errors import FsError
from repro.vfs.interface import FileSystem

#: Operations with no trailing data payload.
PATH_OPS = ("creat", "mkdir", "rmdir", "unlink", "remove", "fsync", "fdatasync")
TWO_PATH_OPS = ("link", "rename")


@dataclass(frozen=True)
class Op:
    """One syscall in a workload.

    ``name`` is the syscall (paper section 4.1 set plus the fsync family and
    xattrs); ``args`` are concrete values:

    * ``creat``/``mkdir`` — (path,)
    * ``rmdir``/``unlink``/``remove``/``fsync``/``fdatasync`` — (path,)
    * ``link``/``rename`` — (oldpath, newpath)
    * ``truncate`` — (path, length)
    * ``fallocate`` — (path, offset, length)
    * ``write``/``pwrite``/``append`` — (path, offset, fill_byte, length);
      append ignores the offset and writes at EOF
    * ``sync`` — ()
    * ``setxattr`` — (path, name, value_fill, value_len)
    * ``removexattr`` — (path, name)
    """

    name: str
    args: Tuple = ()

    def describe(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


Workload = Sequence[Op]


def describe_workload(workload: Workload) -> str:
    return "; ".join(op.describe() for op in workload)


@lru_cache(maxsize=32)
def data_bytes(fill_byte: int, length: int) -> bytes:
    """Deterministic data payload: a fill byte with a rolling tweak so
    distinct regions remain distinguishable in content comparisons.

    Byte ``i`` is ``(fill_byte + i // 64) % 256``, built one 64-byte line
    at a time.  Workloads reuse a handful of payloads (ACE has four), so
    a small cache serves nearly every call.
    """
    if length <= 0:
        return b""
    lines = (length + 63) // 64
    return b"".join(
        bytes(((fill_byte + line) % 256,)) * 64 for line in range(lines)
    )[:length]


def execute_op(fs: FileSystem, op: Op) -> Optional[str]:
    """Run one op; return the errno name on POSIX failure, None on success."""
    try:
        _dispatch(fs, op)
        return None
    except FsError as exc:
        return exc.errno_name


def _dispatch(fs: FileSystem, op: Op) -> None:
    name, args = op.name, op.args
    if name == "creat":
        fs.creat(args[0])
    elif name == "mkdir":
        fs.mkdir(args[0])
    elif name == "rmdir":
        fs.rmdir(args[0])
    elif name == "unlink":
        fs.unlink(args[0])
    elif name == "remove":
        fs.remove(args[0])
    elif name == "link":
        fs.link(args[0], args[1])
    elif name == "rename":
        fs.rename(args[0], args[1])
    elif name == "truncate":
        fs.truncate(args[0], args[1])
    elif name == "fallocate":
        fs.fallocate(args[0], args[1], args[2])
    elif name in ("write", "pwrite"):
        path, offset, fill, length = args
        fs.write(path, offset, data_bytes(fill, length))
    elif name == "append":
        path, _, fill, length = args
        fs.append(path, data_bytes(fill, length))
    elif name == "fsync":
        fs.fsync(args[0])
    elif name == "fdatasync":
        fs.fdatasync(args[0])
    elif name == "sync":
        fs.sync()
    elif name == "setxattr":
        path, xname, fill, length = args
        fs.setxattr(path, xname, data_bytes(fill, length))
    elif name == "removexattr":
        fs.removexattr(args[0], args[1])
    elif name == "read":
        path, offset, length = args
        fs.read(path, offset, length)
    elif name == "stat":
        fs.stat(args[0])
    else:
        raise ValueError(f"unknown workload op {name!r}")


def run_workload(fs: FileSystem, workload: Workload) -> List[Optional[str]]:
    """Execute a whole workload, returning per-op errno names."""
    return [execute_op(fs, op) for op in workload]
