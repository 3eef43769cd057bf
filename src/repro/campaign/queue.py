"""Work queue: one FIFO of work items in canonical order.

The scheduler lives in the campaign parent.  Work items (one ACE workload
index, or one fuzzer seed segment) wait in a single deque in ordinal
order; a ready worker takes the next contiguous run from its head, so
neighbouring workloads, which share their set-up and first op, run in
one process.  A batch is at most ``ceil(pending / workers)`` items: early
batches are full, the tail shrinks to single items (guided
self-scheduling), and the campaign ends when the slowest *item* finishes.
Requeued items go back to the head in their original order, so a retried
item runs next; items that exhaust their retry budget are quarantined by
the engine, not the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List


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


class WorkQueue:
    """One deque of work items, dealt from the head in batches."""

    def __init__(self, workers: int, items: Iterable[WorkItem]) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.items = deque(items)
        #: Scheduler counters surfaced in the campaign report.
        self.dispatched = 0
        self.requeues = 0

    def __len__(self) -> int:
        return len(self.items)

    def next_batch(self, batch_size: int) -> List[WorkItem]:
        """The next ``min(batch_size, ceil(pending / workers))`` items from
        the head.  An empty list means the queue is drained."""
        size = min(batch_size, -(-len(self.items) // self.workers))
        batch = [self.items.popleft() for _ in range(size)]
        self.dispatched += size
        return batch

    def requeue(self, items: List[WorkItem]) -> None:
        """Return failed/orphaned items to the head, in their given order."""
        self.items.extendleft(reversed(items))
        self.requeues += len(items)


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
