"""Abstract file-system interface.

Every simulated PM file system implements this path-based POSIX-ish API.  The
operation set matches the ten syscalls the paper tests (section 4.1): creat,
mkdir, fallocate, write, link, unlink, remove, rename, truncate, rmdir —
plus open/close bookkeeping, fsync-family calls, and the xattr calls used
only on ext4-DAX/XFS-DAX.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.pm.device import PMDevice
from repro.pm.persistence import PersistenceOps
from repro.vfs.errors import EINVAL, ENOENT
from repro.vfs.types import FileType, Stat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.bugs import BugConfig
    from repro.workloads.coverage import CoverageMap


class MountError(Exception):
    """The file system failed to mount a (possibly corrupt) image.

    A crash image that cannot be mounted is itself a crash-consistency bug
    (Table 1 bugs 1, 3, 13); the checker turns this exception into a report.
    """


class FileSystem(abc.ABC):
    """Base class for all simulated PM file systems."""

    #: Short identifier used in reports and registries (e.g. ``"nova"``).
    name: str = "abstract"

    #: True when the FS guarantees synchronous, (mostly) atomic operations
    #: without fsync — NOVA-family, PMFS, WineFS, SplitFS-strict.  False for
    #: ext4-DAX/XFS-DAX, whose guarantees only attach to fsync.
    strong_guarantees: bool = True

    #: True when ``write`` data updates are guaranteed atomic (section 3.3:
    #: "many systems provide the option to make write atomic").
    atomic_data_writes: bool = False

    #: True when the FS supports setxattr/removexattr.
    supports_xattr: bool = False

    def __init__(self, device: PMDevice, ops: PersistenceOps) -> None:
        self.device = device
        self.ops = ops
        self.coverage: Optional["CoverageMap"] = None
        self.bugcfg: Optional["BugConfig"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def mkfs(cls, device: PMDevice, **kwargs) -> "FileSystem":
        """Format ``device`` and return a mounted instance."""

    @classmethod
    @abc.abstractmethod
    def mount(cls, device: PMDevice, **kwargs) -> "FileSystem":
        """Mount an existing image, running crash recovery.

        Raises :class:`MountError` when the image cannot be recovered.

        **Mount purity (contract).**  When ``mount`` returns, every piece
        of volatile state the instance holds — free lists, DRAM indices,
        cached inodes, dirty sets — must be a function of ``(cls, bugs,
        the device image as recovery left it)`` and nothing else: not of
        the image as it was *before* recovery, not of process history.
        Recovery that rebuilds its DRAM structures from the recovered
        media satisfies this by construction; recovery that remembers
        something about the pre-recovery image without writing it back
        does not.  The checker's recovered-outcome cache
        (:mod:`repro.core.outcome_cache`) relies on it to reuse ``walk()``
        and usability results across crash states that mount to
        byte-identical images; ``tests/core/test_outcome_cache.py`` audits
        it for every registry entry.

        The contract extends to the whole check: ``mount`` plus ``walk()``
        plus the usability pass (``creat``/``unlink``) is a function of
        ``(cls, bugs, device size)`` and the bytes it *reads*, and it
        reaches PM only through ``PMDevice.read`` / ``write`` — never the
        device's ``image``, undo log or trace.  The read-trace recovery
        memo (:mod:`repro.core.recovery_memo`) keys on exactly those reads
        to skip the check on a state that would read the same bytes;
        ``tests/core/test_recovery_memo.py`` audits it for every registry
        entry and ``tests/fs/test_device_access.py`` guards the access
        path.
        """

    @classmethod
    def layout_map(cls, image: bytes):
        """Named-region map of ``image`` for forensic annotation.

        File systems with a parseable on-PM geometry override this so
        timelines and image diffs can say ``inode_table[3]+0x40`` instead
        of a raw byte address; the default is a single anonymous region.
        Implementations must tolerate corrupt images (a crash state's
        superblock may be torn) and fall back to this default.
        """
        from repro.fs.common.layout import single_region_map

        return single_region_map(len(image))

    @classmethod
    def mechanism_hints(cls):
        """Persistence-mechanism hints for ``--crash-plans mech``.

        Concrete file systems return a
        :class:`repro.mech.recognize.MechanismHints` declaring which
        ``layout_map()`` regions host journals, log appends, commit
        pointers, and replicas — declared next to the layout they refine.
        ``None`` (the default) means "no claims": mechanism-aware planning
        degrades to plain subset enumeration for this file system.
        """
        return None

    # ------------------------------------------------------------------
    # Core operations (paper section 4.1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def creat(self, path: str, mode: int = 0o644) -> None:
        """Create an empty regular file."""

    @abc.abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory."""

    @abc.abstractmethod
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""

    @abc.abstractmethod
    def link(self, oldpath: str, newpath: str) -> None:
        """Create a hard link ``newpath`` to the file at ``oldpath``."""

    @abc.abstractmethod
    def unlink(self, path: str) -> None:
        """Remove a directory entry (and the file when nlink drops to 0)."""

    @abc.abstractmethod
    def rename(self, oldpath: str, newpath: str) -> None:
        """Atomically rename ``oldpath`` to ``newpath`` (POSIX semantics)."""

    @abc.abstractmethod
    def truncate(self, path: str, length: int) -> None:
        """Set the file size, zero-filling on extension."""

    @abc.abstractmethod
    def fallocate(self, path: str, offset: int, length: int) -> None:
        """Preallocate (and logically zero) the byte range, growing the file."""

    @abc.abstractmethod
    def write(self, path: str, offset: int, data: bytes) -> int:
        """pwrite: store ``data`` at ``offset``, returning the byte count."""

    @abc.abstractmethod
    def read(self, path: str, offset: int, length: int) -> bytes:
        """pread: return up to ``length`` bytes from ``offset``."""

    @abc.abstractmethod
    def stat(self, path: str) -> Stat:
        """Return the metadata of the object at ``path``."""

    @abc.abstractmethod
    def readdir(self, path: str) -> List[str]:
        """Return the sorted entry names of the directory at ``path``."""

    # ------------------------------------------------------------------
    # Persistence-related operations
    # ------------------------------------------------------------------
    def fsync(self, path: str) -> None:
        """Flush the object at ``path``.

        Strong-guarantee file systems are already synchronous, so the default
        implementation only validates the path.
        """
        self.stat(path)

    def fdatasync(self, path: str) -> None:
        """Flush the data of the object at ``path`` (default: as fsync)."""
        self.fsync(path)

    def sync(self) -> None:
        """Flush the whole file system (default: no-op for synchronous FSs)."""

    # ------------------------------------------------------------------
    # Extended attributes (only ext4-DAX/XFS-DAX, paper section 4.1)
    # ------------------------------------------------------------------
    def setxattr(self, path: str, name: str, value: bytes) -> None:
        raise EINVAL(f"{self.name} does not support xattrs")

    def removexattr(self, path: str, name: str) -> None:
        raise EINVAL(f"{self.name} does not support xattrs")

    def getxattr(self, path: str, name: str) -> bytes:
        raise EINVAL(f"{self.name} does not support xattrs")

    def listxattr(self, path: str) -> List[str]:
        return []

    # ------------------------------------------------------------------
    # Conveniences shared by every implementation
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """True when ``path`` resolves to an object."""
        try:
            self.stat(path)
            return True
        except ENOENT:
            return False

    def remove(self, path: str) -> None:
        """POSIX ``remove``: unlink files, rmdir directories."""
        if self.stat(path).ftype is FileType.DIRECTORY:
            self.rmdir(path)
        else:
            self.unlink(path)

    def append(self, path: str, data: bytes) -> int:
        """O_APPEND-style write at the current end of file."""
        return self.write(path, self.stat(path).size, data)

    def read_all(self, path: str) -> bytes:
        """Read the complete contents of a regular file."""
        return self.read(path, 0, self.stat(path).size)

    def cov(self, point: str) -> None:
        """Record a coverage point (no-op unless a fuzzer attached a map)."""
        if self.coverage is not None:
            self.coverage.hit(f"{self.name}.{point}")

    # ------------------------------------------------------------------
    # Whole-tree observation (used by the oracle and the checker)
    # ------------------------------------------------------------------
    def walk(self) -> Dict[str, "FileObservation"]:
        """Observe every object in the tree, keyed by path."""
        out: Dict[str, FileObservation] = {}
        self._walk_into("/", out)
        return out

    def _walk_into(self, path: str, out: Dict[str, "FileObservation"]) -> None:
        """Walk by path: ``stat`` then ``readdir`` or ``read``, per object.

        This is the reference every by-handle override must equal, item
        for item and error for error, so it recurses into itself and never
        into an override.
        """
        st = self.stat(path)
        if st.ftype is FileType.DIRECTORY:
            entries = self.readdir(path)
            out[path] = FileObservation.for_dir(st, entries)
            for entry in entries:
                child = path.rstrip("/") + "/" + entry
                FileSystem._walk_into(self, child, out)
        else:
            out[path] = FileObservation.for_file(st, self.read(path, 0, st.size))

    def _walk_node(self, path: str, node, out: Dict[str, "FileObservation"]) -> None:
        """Walk by handle: ``node`` is this file system's handle for ``path``.

        A family whose objects can be observed without resolving their path
        again overrides :meth:`_walk_into` as ``self._walk_node(path,
        <handle of path>, out)`` and implements :meth:`_observe_node`; each
        directory and inode is then read once.  An entry name that is not a
        single path component (empty, ``.``, ``..`` or holding ``/``, as a
        corrupt image may list) resolves to something else by path, so its
        subtree takes the path walk.  A name listed twice is walked once:
        the path walk's second visit re-observes the same objects.
        """
        observation, child_of = self._observe_node(path, node)
        out[path] = observation
        if child_of is None:
            return
        prefix = path.rstrip("/") + "/"
        previous = None
        for name in observation.entries:
            if name == previous:
                continue
            previous = name
            if name and "/" not in name and name not in (".", ".."):
                self._walk_node(prefix + name, child_of(name), out)
            else:
                FileSystem._walk_into(self, prefix + name, out)

    def _observe_node(self, path: str, node):
        """``(observation, child_of)`` of the object ``node`` at ``path``.

        ``child_of(name)`` returns the handle of a directory entry, exactly
        as resolving ``path/name`` would; it is ``None`` for a file.  Must
        raise what ``stat`` plus ``readdir``/``read`` on ``path`` raise.
        """
        raise NotImplementedError


class FileObservation:
    """Checker-comparable view of one file or directory.

    For regular files: stat fields plus content.  For directories: stat
    fields plus the entry list — exactly what the paper's checker compares
    (section 3.3).
    """

    # Weak-referenceable so the recovered-outcome cache can intern
    # observations without pinning them.
    __slots__ = ("ftype", "size", "nlink", "mode", "content", "entries",
                 "__weakref__")

    def __init__(
        self,
        ftype: FileType,
        size: int,
        nlink: int,
        mode: int,
        content: Optional[bytes],
        entries: Optional[tuple],
    ) -> None:
        self.ftype = ftype
        self.size = size
        self.nlink = nlink
        self.mode = mode
        self.content = content
        self.entries = entries

    @classmethod
    def for_file(cls, st: Stat, content: bytes) -> "FileObservation":
        return cls(st.ftype, st.size, st.nlink, st.mode, content, None)

    @classmethod
    def for_dir(cls, st: Stat, entries: List[str]) -> "FileObservation":
        return cls(st.ftype, st.size, st.nlink, st.mode, None, tuple(sorted(entries)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileObservation):
            return NotImplemented
        return (
            self.ftype == other.ftype
            and self.size == other.size
            and self.nlink == other.nlink
            and self.mode == other.mode
            and self.content == other.content
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.ftype, self.size, self.nlink, self.mode, self.content, self.entries))

    def matches_metadata(self, other: "FileObservation") -> bool:
        """Compare only stat-visible metadata (used for non-atomic writes)."""
        return (
            self.ftype == other.ftype
            and self.nlink == other.nlink
            and self.mode == other.mode
        )

    def describe(self) -> str:
        if self.ftype is FileType.DIRECTORY:
            return f"dir nlink={self.nlink} entries={list(self.entries or ())}"
        content = self.content or b""
        preview = content[:32].hex()
        return f"file size={self.size} nlink={self.nlink} content[:32]={preview}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FileObservation {self.describe()}>"
