"""Mount-time recovery for the NOVA-like file system.

Recovery replays the commit journal, then rebuilds all DRAM state — the
directory maps, file block maps, and the allocators — by walking every valid
inode's log up to its committed entry count.  This is exactly the
"rebuild volatile state" code path paper Observation 3 identifies as a major
source of crash-consistency bugs; several Table-1 bugs (1, 3) manifest here
as :class:`MountError`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.fs.common.layout import read_u32, read_u64, u32
from repro.fs.nova import layout as L
from repro.fs.nova.dram import DramInode, make_corrupt_inode
from repro.vfs.interface import MountError

ROOT_INO = 0


def rebuild(fs) -> None:
    """Recover and rebuild ``fs`` (a freshly constructed NovaFS) in place."""
    _journal_recover(fs)
    parsed: Dict[int, DramInode] = {}
    slot_bufs: Dict[int, bytes] = {}
    for ino in range(fs.geom.n_inodes):
        buf = fs.ops.read_pm(fs.geom.inode_addr(ino), L.INODE_SLOT_SIZE)
        if buf[L.INO_VALID] != 1:
            continue
        fs._verify_slot(ino, buf)
        parsed[ino] = _walk_log(fs, ino, L.unpack_inode_slot(buf))
        slot_bufs[ino] = buf

    root = parsed.get(ROOT_INO)
    if root is None or root.ftype != L.FTYPE_DIR:
        raise MountError("root inode missing or not a directory")

    reachable = _reachable_inos(parsed)
    fs.inodes = {}
    for ino in reachable:
        if ino in parsed:
            fs.inodes[ino] = parsed[ino]
        else:
            # A dentry references an inode whose slot never became durable
            # (bug 2): keep the name but mark the target corrupt.
            fs.inodes[ino] = make_corrupt_inode(ino)

    # Orphan pass: valid inodes no dentry references.  Files whose link
    # count dropped to zero are unfinished unlinks — complete them.  Anything
    # else is a leak: keep its space allocated but leave it out of the tree.
    leaked: List[DramInode] = []
    for ino, di in parsed.items():
        if ino in reachable or ino == ROOT_INO:
            continue
        if di.ftype == L.FTYPE_REG and di.nlink <= 0:
            fs._flush_write(fs.geom.inode_addr(ino) + L.INO_VALID, b"\x00")
            fs._fence()
        else:
            leaked.append(di)

    # Rebuild the allocators from the surviving metadata.
    fs.ialloc.mark_used(ROOT_INO)
    for di in list(fs.inodes.values()) + leaked:
        fs.ialloc.mark_used(di.ino)
        for page in di.pages:
            fs.alloc.mark_used(page // fs.geom.block_size)
        for block in set(di.blockmap.values()):
            fs.alloc.mark_used(block)

    fs._recovery_extra(parsed, reachable)


def _journal_recover(fs) -> None:
    """Redo a committed journal transaction, if any."""
    jaddr = fs.geom.journal.offset
    buf = fs.ops.read_pm(jaddr, L.JR_PAIRS + L.JR_MAX_PAIRS * L.JR_PAIR_SIZE)
    if buf[L.JR_COMMIT] != 1:
        return
    n_pairs = buf[L.JR_NPAIRS]
    if n_pairs > L.JR_MAX_PAIRS:
        raise MountError(f"corrupt journal: {n_pairs} pairs")
    for ino, new_count in L.unpack_journal_pairs(buf, n_pairs):
        if ino >= fs.geom.n_inodes:
            raise MountError(f"journal pair references invalid inode {ino}")
        fs._recover_count(ino, new_count)
    fs._fence()
    fs._flush_write(jaddr + L.JR_COMMIT, b"\x00")
    fs._fence()


def _walk_log(fs, ino: int, slot: L.InodeSlot) -> DramInode:
    """Walk one inode's log, applying its committed entries in order.

    Raises :class:`MountError` on a broken page chain (bug 1 manifestation)
    or an invalid entry (bug 3 manifestation: the commit pointer ran ahead
    of the entries it covers).
    """
    geom = fs.geom
    di = DramInode(
        ino=ino,
        ftype=slot.ftype,
        mode=slot.mode,
        log_head=slot.log_head,
        log_count=slot.log_count,
    )
    if slot.ftype not in (L.FTYPE_REG, L.FTYPE_DIR):
        raise MountError(f"inode {ino}: invalid file type {slot.ftype}")
    _check_page_addr(fs, slot.log_head, ino)
    di.pages = [slot.log_head]
    for index in range(slot.log_count):
        page_i, slot_i = divmod(index, geom.log_page_entries)
        while page_i >= len(di.pages):
            next_addr = read_u64(fs.ops.read_pm(di.pages[-1] + 8, 8))
            if next_addr == 0:
                raise MountError(
                    f"inode {ino}: log chain broken at entry {index} "
                    f"(count={slot.log_count})"
                )
            _check_page_addr(fs, next_addr, ino)
            di.pages.append(next_addr)
        addr = geom.entry_addr(di.pages[page_i], slot_i)
        buf = fs.ops.read_pm(addr, L.LOG_ENTRY_SIZE)
        try:
            entry = L.unpack_entry(buf, addr)
        except ValueError as exc:
            raise MountError(f"inode {ino}: {exc}") from exc
        _apply_entry(fs, di, entry)
    # A damaged size would make every read zero-fill up to it.
    if di.size > geom.max_file_size:
        raise MountError(f"inode {ino}: size {di.size} exceeds the data area")
    return di


def _check_page_addr(fs, addr: int, ino: int) -> None:
    geom = fs.geom
    first = geom.first_data_block * geom.block_size
    if addr < first or addr >= geom.device_size or addr % geom.block_size:
        raise MountError(f"inode {ino}: log page address {addr:#x} out of range")
    magic = read_u32(fs.ops.read_pm(addr, 4))
    if magic != L.LOGPAGE_MAGIC:
        raise MountError(f"inode {ino}: bad log page magic at {addr:#x}")


def _apply_entry(fs, di: DramInode, e: L.ParsedEntry) -> None:
    geom = fs.geom
    bs = geom.block_size
    if e.etype == L.ET_ATTR:
        di.size = e.size
        di.nlink = e.nlink
        if e.mode:
            di.mode = e.mode
        first_dead = (e.size + bs - 1) // bs
        for fblk in [b for b in di.blockmap if b >= first_dead]:
            del di.blockmap[fblk]
        di.last_write_addr = None
    elif e.etype == L.ET_WRITE:
        if e.n_blocks == 0 or e.length == 0:
            raise MountError(f"inode {di.ino}: empty WRITE entry at {e.addr:#x}")
        first_data = geom.first_data_block
        if not (first_data <= e.start_block and e.start_block + e.n_blocks <= geom.n_blocks):
            raise MountError(
                f"inode {di.ino}: WRITE entry maps invalid blocks "
                f"[{e.start_block}, {e.start_block + e.n_blocks})"
            )
        first_blk = e.offset // bs
        for k in range(e.n_blocks):
            di.blockmap[first_blk + k] = e.start_block + k
        di.size = max(di.size, e.offset + e.length)
        di.last_write_addr = e.addr
    elif e.etype == L.ET_LINK_CHANGE:
        di.nlink += e.delta
    elif e.etype == L.ET_DENTRY_ADD:
        if di.ftype != L.FTYPE_DIR:
            raise MountError(f"inode {di.ino}: dentry entry in a file log")
        if e.dentry_valid:
            di.children[e.name] = e.ino
            di.dentry_addrs[e.name] = e.addr
    elif e.etype == L.ET_DENTRY_DEL:
        if di.ftype != L.FTYPE_DIR:
            raise MountError(f"inode {di.ino}: dentry entry in a file log")
        di.children.pop(e.name, None)
        di.dentry_addrs.pop(e.name, None)


def _reachable_inos(parsed: Dict[int, DramInode]) -> Set[int]:
    """Inode numbers reachable from the root through valid dentries."""
    reachable: Set[int] = set()
    stack = [ROOT_INO]
    while stack:
        ino = stack.pop()
        if ino in reachable:
            continue
        reachable.add(ino)
        di = parsed.get(ino)
        if di is not None and di.ftype == L.FTYPE_DIR:
            stack.extend(di.children.values())
    return reachable
