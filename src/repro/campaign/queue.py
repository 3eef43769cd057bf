"""Work queue and scheduler: sharded dispatch with work-stealing.

The scheduler lives in the campaign parent.  Work items (one ACE workload
index, or one fuzzer seed segment) are striped into per-worker shards by
:func:`repro.workloads.sharding.assign_shard` — the same round-robin rule
the paper's ten-VM split used — and each worker drains its own shard first.

Static splits are unbalanced in practice: per-workload crash-state counts
vary ~3× across file systems and syscalls, so a worker whose shard happened
to draw rename-heavy workloads finishes long after the others.  When a
worker's shard runs dry the scheduler *steals* from the tail of the fullest
remaining shard (the classic work-stealing discipline: owners take from the
head, thieves from the tail), so the campaign ends when the slowest *item*
finishes, not the slowest *shard*.

Retries requeue at the head of the item's home shard so a flaky item is
retried promptly while its context is fresh; items that exhaust their retry
budget are quarantined by the engine, not the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List

from repro.workloads.sharding import assign_shard


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit of campaign work.

    ACE items carry a workload index (regenerated worker-side via
    :func:`repro.workloads.ace.workload_at`); fuzz items carry a seed
    segment (``seed`` plus an execution budget).  ``ordinal`` is the
    item's rank in the canonical serial order — the merge stage folds
    results by ordinal so parallel completion order never leaks into the
    merged report.
    """

    item_id: str
    kind: str  # "ace" | "fuzz"
    ordinal: int
    seq: int = 0
    index: int = 0
    seed: int = 0
    executions: int = 0

    @staticmethod
    def ace(seq: int, index: int, ordinal: int) -> "WorkItem":
        return WorkItem(
            item_id=f"ace:{seq}:{index:06d}", kind="ace", ordinal=ordinal,
            seq=seq, index=index,
        )

    @staticmethod
    def fuzz(seed: int, executions: int, ordinal: int) -> "WorkItem":
        return WorkItem(
            item_id=f"fuzz:{seed}", kind="fuzz", ordinal=ordinal,
            seed=seed, executions=executions,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "item_id": self.item_id, "kind": self.kind, "ordinal": self.ordinal,
            "seq": self.seq, "index": self.index, "seed": self.seed,
            "executions": self.executions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkItem":
        return cls(
            item_id=str(data["item_id"]), kind=str(data["kind"]),
            ordinal=int(data["ordinal"]), seq=int(data.get("seq", 0)),
            index=int(data.get("index", 0)), seed=int(data.get("seed", 0)),
            executions=int(data.get("executions", 0)),
        )


@dataclass
class QueueStats:
    """Scheduler counters surfaced in the campaign report."""

    dispatched: int = 0
    steals: int = 0
    requeues: int = 0


class ShardedWorkQueue:
    """Per-shard deques with work-stealing between them."""

    def __init__(self, n_shards: int, items: Iterable[WorkItem]) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.shards: List[Deque[WorkItem]] = [deque() for _ in range(n_shards)]
        self.stats = QueueStats()
        for item in items:
            self.shards[assign_shard(item.ordinal, n_shards)].append(item)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def pending(self) -> int:
        return len(self)

    def next_batch(self, shard_index: int, batch_size: int) -> List[WorkItem]:
        """Up to ``batch_size`` items for the worker owning ``shard_index``.

        Drains the home shard from the head; once it is dry, steals from
        the *tail* of the fullest other shard.  An empty list means the
        whole queue is drained.
        """
        if not (0 <= shard_index < self.n_shards):
            raise ValueError(f"shard_index {shard_index} out of range")
        batch: List[WorkItem] = []
        home = self.shards[shard_index]
        while home and len(batch) < batch_size:
            batch.append(home.popleft())
        while len(batch) < batch_size:
            victim = max(
                (s for s in self.shards if s), key=len, default=None
            )
            if victim is None:
                break
            batch.append(victim.pop())
            self.stats.steals += 1
        self.stats.dispatched += len(batch)
        return batch

    def requeue(self, items: Iterable[WorkItem]) -> None:
        """Return failed/orphaned items to the head of their home shard."""
        for item in items:
            self.shards[assign_shard(item.ordinal, self.n_shards)].appendleft(item)
            self.stats.requeues += 1


def build_items(spec) -> List[WorkItem]:
    """The full, canonically ordered work-item list of a campaign spec."""
    from repro.workloads.ace import count

    items: List[WorkItem] = []
    if spec.generator == "ace":
        # Index for index the slice ``spec.ace_workloads()`` yields (the
        # serial path), so the parallel campaign covers the same workloads.
        ordinal = 0
        for seq in range(1, spec.seq + 1):
            total = count(seq)
            if spec.max_workloads:
                total = min(total, spec.max_workloads)
            for index in range(total):
                items.append(WorkItem.ace(seq, index, ordinal))
                ordinal += 1
    else:
        for segment in range(spec.segments):
            items.append(
                WorkItem.fuzz(spec.seed + segment, spec.executions, segment)
            )
    return items
