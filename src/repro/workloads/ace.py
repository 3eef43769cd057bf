"""Automatic Crash Explorer (ACE) workload generation.

ACE (Mohan et al., CrashMonkey) exhaustively enumerates workloads of a fixed
length over a small file set — the "small workloads on a small file-system
state find most bugs" hypothesis the paper set out to test on PM file
systems.  Following the paper's adaptation (section 3.4.1):

* the default mode inserts fsync-family operations after each core op and a
  trailing ``sync`` (for ext4-DAX/XFS-DAX);
* the PM mode omits them entirely (strong-guarantee file systems make every
  operation durable on their own);
* each workload carries a *setup* phase that satisfies dependencies —
  creating parent directories and input files — executed before crash
  recording starts, as in CrashMonkey.

Workload space.  ``seq-n`` is the cross product of the core-op space taken
``n`` times; ``seq-3`` is restricted to the metadata operations (pwrite,
link, unlink, rename) as in the paper.  ACE deliberately keeps arguments
aligned and simple — which is exactly why it misses the four bugs whose
triggers need unaligned sizes (section 4.3); those are the fuzzer's job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.vfs.path import dirname
from repro.workloads.ops import Op

#: The ACE file set: two directories and four files.
DIRS = ("/A", "/B")
FILES = ("/foo", "/bar", "/A/foo", "/A/bar")

#: Sizes used by ACE's data operations (block-aligned or the classic 2500).
WRITE_SIZES = (1024,)
TRUNCATE_SIZES = (2500, 700, 512)

#: Initial content written to setup-created files so shrinking truncates and
#: overwrites have data to destroy.
SETUP_DATA_LEN = 1024
SETUP_FILL = 0x41


@dataclass(frozen=True)
class AceWorkload:
    """A generated test: dependency setup plus the core operations."""

    setup: Tuple[Op, ...]
    core: Tuple[Op, ...]
    seq: int
    index: int

    def name(self) -> str:
        return f"seq{self.seq}-{self.index:06d}"


def core_op_space() -> List[Op]:
    """The seq-1 core operation space (PM mode)."""
    ops: List[Op] = []
    ops += [Op("creat", (f,)) for f in FILES]
    ops += [Op("mkdir", (d,)) for d in DIRS]
    for f in FILES:
        for size in WRITE_SIZES:
            ops.append(Op("write", (f, 0, 0x42, size)))
            ops.append(Op("write", (f, 512, 0x43, size)))
            ops.append(Op("append", (f, 0, 0x44, 512)))
    for f in FILES:
        ops.append(Op("fallocate", (f, 0, 1024)))
        ops.append(Op("fallocate", (f, 512, 1024)))
    ops += [
        Op("link", ("/foo", "/bar")),
        Op("link", ("/foo", "/A/bar")),
        Op("link", ("/A/foo", "/A/bar")),
        Op("link", ("/A/foo", "/bar")),
    ]
    ops += [Op("unlink", (f,)) for f in FILES]
    ops += [Op("remove", (f,)) for f in ("/foo", "/A/foo")]
    ops += [
        Op("rename", ("/foo", "/bar")),
        Op("rename", ("/foo", "/A/bar")),
        Op("rename", ("/A/foo", "/bar")),
        Op("rename", ("/A/foo", "/A/bar")),
        Op("rename", ("/A", "/B")),
    ]
    for f in FILES:
        for size in TRUNCATE_SIZES:
            ops.append(Op("truncate", (f, size)))
    ops += [Op("rmdir", (d,)) for d in DIRS]
    return ops


def metadata_op_space() -> List[Op]:
    """The seq-3 restriction: pwrite, link, unlink, rename (paper 3.4.1)."""
    return [
        op
        for op in core_op_space()
        if op.name in ("write", "append", "link", "unlink", "rename")
    ]


# ---------------------------------------------------------------------------
# Dependency satisfaction
# ---------------------------------------------------------------------------


def _needed_paths(op: Op) -> Tuple[Set[str], Set[str]]:
    """Paths an op requires to exist: (files, dirs)."""
    name, args = op.name, op.args
    files: Set[str] = set()
    dirs: Set[str] = set()
    if name in ("write", "append", "fallocate", "truncate", "unlink", "remove", "fsync", "fdatasync"):
        files.add(args[0])
    elif name == "link":
        files.add(args[0])
        dirs.add(dirname(args[1]))
    elif name == "rename":
        src = args[0]
        if src in DIRS:
            dirs.add(src)
        else:
            files.add(src)
        dirs.add(dirname(args[1]))
    elif name == "rmdir":
        dirs.add(args[0])
    for path in files:
        dirs.add(dirname(path))
    if name in ("creat", "mkdir"):
        dirs.add(dirname(args[0]))
    dirs.discard("/")
    return files, dirs


def build_setup(core: Sequence[Op]) -> List[Op]:
    """Dependency phase: create the dirs and (data-filled) files the core
    operations consume, tracking namespace changes op by op."""
    setup: List[Op] = []
    existing_files: Set[str] = set()
    existing_dirs: Set[str] = {"/"}
    #: Paths an earlier *core* op created or removed: their state at each
    #: point is part of the workload and cannot be patched by setup (an op
    #: that needs a file a previous core op removed simply fails — a legal
    #: workload, exactly as in ACE).
    core_touched: Set[str] = set()

    def ensure_dir(d: str) -> None:
        if d in ("", "/") or d in existing_dirs or d in core_touched:
            return
        ensure_dir(dirname(d))
        setup.append(Op("mkdir", (d,)))
        existing_dirs.add(d)

    def ensure_file(f: str) -> None:
        if f in existing_files or f in core_touched:
            return
        ensure_dir(dirname(f))
        setup.append(Op("creat", (f,)))
        setup.append(Op("write", (f, 0, SETUP_FILL, SETUP_DATA_LEN)))
        existing_files.add(f)

    for op in core:
        files, dirs = _needed_paths(op)
        for d in sorted(dirs):
            ensure_dir(d)
        for f in sorted(files):
            ensure_file(f)
        core_touched.update(
            arg for arg in op.args if isinstance(arg, str)
        )
    return setup


def _with_fsync(core: Sequence[Op]) -> List[Op]:
    """Default (weak-FS) mode: fsync the touched file after each core op and
    finish with a sync, as the paper's adapted ACE does."""
    out: List[Op] = []
    for op in core:
        out.append(op)
        target: Optional[str] = None
        if op.args and isinstance(op.args[0], str) and op.name not in ("rmdir", "unlink", "remove", "rename"):
            target = op.args[0]
        if target is not None:
            out.append(Op("fsync", (target,)))
    out.append(Op("sync", ()))
    return out


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate(seq: int, mode: str = "pm") -> Iterator[AceWorkload]:
    """Generate all seq-``seq`` workloads.

    ``mode`` is ``"pm"`` (no fsync; strong-guarantee file systems) or
    ``"fsync"`` (fsync-family calls inserted; ext4-DAX/XFS-DAX).
    ``seq=3`` uses the metadata-only op space, as in the paper.
    """
    if mode not in ("pm", "fsync"):
        raise ValueError(f"unknown ACE mode {mode!r}")
    space = metadata_op_space() if seq >= 3 else core_op_space()
    for index, combo in enumerate(itertools.product(space, repeat=seq)):
        core: List[Op] = list(combo)
        setup = build_setup(core)
        if mode == "fsync":
            core = _with_fsync(core)
        yield AceWorkload(setup=tuple(setup), core=tuple(core), seq=seq, index=index)


def count(seq: int, mode: str = "pm") -> int:
    """Number of seq-``seq`` workloads without generating them."""
    space = metadata_op_space() if seq >= 3 else core_op_space()
    return len(space) ** seq


def workload_at(seq: int, index: int, mode: str = "pm") -> AceWorkload:
    """Random access into the workload space: the workload :func:`generate`
    would yield at ``index``, computed in O(``seq``) without enumeration.

    ``itertools.product`` enumerates with the *last* position varying
    fastest, so ``index`` decodes as a base-``len(space)`` numeral whose
    most significant digit selects the first op.  Campaign workers use this
    to regenerate exactly the workloads their batches name, so a work item
    travels across the process boundary as a bare integer.
    """
    if mode not in ("pm", "fsync"):
        raise ValueError(f"unknown ACE mode {mode!r}")
    space = metadata_op_space() if seq >= 3 else core_op_space()
    total = len(space) ** seq
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for seq-{seq} ({total})")
    digits: List[int] = []
    remaining = index
    for _ in range(seq):
        remaining, digit = divmod(remaining, len(space))
        digits.append(digit)
    core: List[Op] = [space[d] for d in reversed(digits)]
    setup = build_setup(core)
    if mode == "fsync":
        core = _with_fsync(core)
    return AceWorkload(setup=tuple(setup), core=tuple(core), seq=seq, index=index)
