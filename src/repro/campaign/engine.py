"""Campaign engine: parallel, fault-tolerant orchestration.

The paper ran its 50k-workload seq-3 campaign split across ten VMs
(section 4.2); this engine is that scale-out pattern as a library — a
worker-pool analogue of the VM fleet, with the scheduling and fault
handling the paper's ad-hoc split lacked:

* **Scheduling** — work items are striped into per-worker shards
  (:class:`~repro.campaign.queue.ShardedWorkQueue`) and rebalanced by
  work-stealing when per-workload runtimes skew.
* **Fault tolerance** — a worker that dies or stops streaming results for
  longer than ``item_timeout`` is killed and its unfinished items are
  requeued; an item that exhausts ``max_retries`` is *quarantined* into
  the report instead of sinking the campaign.
* **Checkpointing** — every finished item is journaled
  (:class:`~repro.campaign.journal.CheckpointJournal`) before it counts,
  so ``resume=True`` skips journaled work after a kill and the merged
  report still covers the whole campaign.
* **Merging** — per-worker results fold back in canonical order through
  :mod:`repro.campaign.merge`, producing the same bug set a serial run
  yields.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.campaign.journal import CheckpointJournal, JournalState
from repro.campaign.merge import MergedCampaign, merge_campaign
from repro.campaign.queue import ShardedWorkQueue, WorkItem, build_items
from repro.campaign.spec import CampaignSpec
from repro.campaign import worker as workermod

#: Seconds the event loop sleeps when no worker made progress.
POLL_INTERVAL = 0.005


@dataclass
class EngineConfig:
    """Execution knobs of the campaign engine (not part of the spec: they
    may legitimately differ between a run and its resume)."""

    workers: int = 2
    #: Items handed to a worker per dispatch; small batches keep the
    #: work-stealing granularity fine.
    batch_size: int = 8
    #: Seconds without a progress message before a worker is presumed hung.
    item_timeout: float = 60.0
    #: Re-executions allowed per item before quarantine.
    max_retries: int = 2
    #: Test-only fault injection forwarded to workers
    #: (``{"item_id": ..., "kind": "crash"|"hang"|"raise", "times": N}``).
    fault: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {self.workers})")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 (got {self.batch_size})")
        if self.item_timeout <= 0:
            raise ValueError(
                f"item_timeout must be > 0 (got {self.item_timeout})"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0 (got {self.max_retries})"
            )


@dataclass
class _WorkerHandle:
    wid: int
    shard: int
    process: multiprocessing.Process
    task_q: object
    result_q: object
    #: The worker's fsync'd results file — the crash-durable copy of what
    #: it streamed over the (feeder-thread-buffered, lossy) result queue.
    results_path: str = ""
    #: Items dispatched and not yet individually resolved.
    in_flight: Dict[str, WorkItem] = field(default_factory=dict)
    awaiting_dispatch: bool = False
    last_progress: float = field(default_factory=time.monotonic)
    stopped: bool = False


@dataclass
class EngineStats:
    """Counters surfaced in the campaign report and CLI output."""

    workers: int = 0
    dispatched: int = 0
    steals: int = 0
    requeues: int = 0
    workers_killed: int = 0
    items_quarantined: int = 0
    items_resumed: int = 0
    wall_clock: float = 0.0
    interrupted: bool = False
    #: Final shared memo-service table stats (``MemoTable.stats()``) when
    #: the campaign ran with a shared memo; empty otherwise.  For an
    #: external ``memod`` this is a best-effort end-of-run snapshot.
    shared_memo: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class SpecMismatch(ValueError):
    """``resume`` pointed at a journal written by a different campaign."""


class CampaignEngine:
    """Run one campaign spec across a local worker pool."""

    def __init__(
        self,
        spec: CampaignSpec,
        campaign_dir: str,
        config: Optional[EngineConfig] = None,
        resume: bool = False,
    ) -> None:
        self.spec = spec
        self.campaign_dir = campaign_dir
        self.config = config or EngineConfig()
        self.resume = resume
        self.stats = EngineStats(workers=self.config.workers)
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        #: Engine-hosted shared memo server (``spec.shared_memo`` without
        #: an external address) and the address workers connect to.
        self._memo_server = None
        self._memo_address: Optional[str] = None
        #: Distinguishes this engine invocation's trace files from any
        #: earlier run's in the same campaign directory (resume).
        self._run_tag = uuid.uuid4().hex[:8]

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _load_prior_state(self) -> JournalState:
        state = CheckpointJournal.replay(self.campaign_dir)
        if not self.resume:
            if state.results or state.quarantined:
                raise SpecMismatch(
                    f"{self.campaign_dir} already holds a campaign journal; "
                    "pass resume=True (CLI: --resume) to continue it"
                )
            return JournalState()
        if state.spec_dict is not None:
            stored = CampaignSpec.from_dict(state.spec_dict)
            if stored != self.spec:
                raise SpecMismatch(
                    "journal was written by a different campaign spec: "
                    f"stored {stored.to_dict()}, requested {self.spec.to_dict()}"
                )
        return state

    def _spawn_worker(self, shard: int) -> _WorkerHandle:
        wid = self._next_wid
        self._next_wid += 1
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=workermod.worker_main,
            args=(wid, self.spec.to_dict(), task_q, result_q,
                  self.campaign_dir, self.config.fault, self._run_tag,
                  self._memo_address),
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(
            wid=wid, shard=shard, process=process,
            task_q=task_q, result_q=result_q,
            results_path=os.path.join(
                self.campaign_dir,
                f"worker-{self._run_tag}-{wid}.results.jsonl",
            ),
        )
        self._workers[wid] = handle
        return handle

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> MergedCampaign:
        started = time.monotonic()
        os.makedirs(self.campaign_dir, exist_ok=True)
        prior = self._load_prior_state()
        items = build_items(self.spec)
        self.stats.items_resumed = sum(
            1 for item in items if item.item_id in prior.done_ids
        )
        pending = [i for i in items if i.item_id not in prior.done_ids]

        journal = CheckpointJournal(self.campaign_dir)
        journal.open()
        if prior.spec_dict is None:
            journal.write_meta(self.spec.to_dict(), n_items=len(items))

        queue = ShardedWorkQueue(self.config.workers, pending)
        results: Dict[str, List[dict]] = dict(prior.results)
        quarantined: Dict[str, dict] = dict(prior.quarantined)
        retries: Dict[str, int] = {}
        ordinals = {item.item_id: item.ordinal for item in items}

        try:
            if self.spec.shared_memo:
                self._start_shared_memo()
            for shard in range(self.config.workers):
                self._spawn_worker(shard)
            self._event_loop(queue, journal, results, quarantined, retries)
        except KeyboardInterrupt:
            self.stats.interrupted = True
        finally:
            self._shutdown_workers()
            self._stop_shared_memo()
            self.stats.dispatched = queue.stats.dispatched
            self.stats.steals = queue.stats.steals
            self.stats.requeues = queue.stats.requeues
            self.stats.items_quarantined = len(quarantined)
            self.stats.wall_clock = time.monotonic() - started
            if not self.stats.interrupted:
                journal.write_done(self.stats.wall_clock)
            journal.close()
            if not self.stats.interrupted:
                self._remove_worker_results_files()

        merged = merge_campaign(
            self.spec, items, results, quarantined, self.stats,
            campaign_dir=self.campaign_dir,
        )
        return merged

    def _event_loop(self, queue, journal, results, quarantined, retries) -> None:
        while True:
            in_flight = sum(len(w.in_flight) for w in self._workers.values())
            if not queue.pending() and not in_flight:
                break
            progressed = False
            for handle in list(self._workers.values()):
                progressed |= self._drain_messages(
                    handle, queue, journal, results, quarantined, retries
                )
            self._dispatch_ready(queue)
            self._reap_failures(queue, journal, results, quarantined, retries)
            if not progressed:
                time.sleep(POLL_INTERVAL)

    # ------------------------------------------------------------------
    def _drain_messages(self, handle, queue, journal, results,
                        quarantined, retries) -> bool:
        progressed = False
        while True:
            try:
                message = handle.result_q.get_nowait()
            except Exception:
                break
            progressed = True
            handle.last_progress = time.monotonic()
            tag = message[0]
            if tag == workermod.MSG_READY:
                handle.awaiting_dispatch = True
            elif tag == workermod.MSG_RESULT:
                _, wid, item_id, item_results = message
                item = handle.in_flight.pop(item_id, None)
                if item is not None:
                    results[item_id] = item_results
                    journal.write_item_done(
                        item_id, item.ordinal, handle.wid,
                        retries.get(item_id, 0), item_results,
                    )
            elif tag == workermod.MSG_ITEM_ERROR:
                _, wid, item_id, error, tb = message
                item = handle.in_flight.pop(item_id, None)
                if item is not None:
                    self._retry_or_quarantine(
                        item, error, queue, journal, quarantined, retries,
                        traceback=tb,
                    )
            elif tag == workermod.MSG_BATCH_DONE:
                handle.awaiting_dispatch = True
            elif tag == workermod.MSG_STOPPED:
                handle.stopped = True
        return progressed

    def _dispatch_ready(self, queue) -> None:
        for handle in self._workers.values():
            if handle.stopped or not handle.awaiting_dispatch:
                continue
            batch = queue.next_batch(handle.shard, self.config.batch_size)
            if not batch:
                # Stay idle but alive: in-flight items on other workers may
                # yet fail and requeue.
                continue
            handle.awaiting_dispatch = False
            handle.in_flight.update({item.item_id: item for item in batch})
            handle.last_progress = time.monotonic()
            handle.task_q.put(
                (workermod.TASK_BATCH, [item.to_dict() for item in batch])
            )

    def _recover_results(self, handle, journal, results, retries) -> None:
        """Salvage results a dead worker persisted but never delivered.

        Queue messages ride a feeder thread that dies unflushed with the
        process; the fsync'd per-worker results file is the durable copy,
        so finished-but-undelivered items are not misblamed for the crash.
        """
        try:
            fh = open(handle.results_path, encoding="utf-8")
        except OSError:
            return
        with fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from the crash itself
                item = handle.in_flight.pop(record.get("id"), None)
                if item is not None:
                    results[item.item_id] = record["results"]
                    journal.write_item_done(
                        item.item_id, item.ordinal, handle.wid,
                        retries.get(item.item_id, 0), record["results"],
                    )

    def _reap_failures(self, queue, journal, results, quarantined,
                       retries) -> None:
        now = time.monotonic()
        for handle in list(self._workers.values()):
            if handle.stopped:
                continue
            died = not handle.process.is_alive()
            hung = (
                handle.in_flight
                and now - handle.last_progress > self.config.item_timeout
            )
            if not died and not hung:
                continue
            if hung:
                handle.process.terminate()
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
            self.stats.workers_killed += 1
            self._recover_results(handle, journal, results, retries)
            orphans = list(handle.in_flight.values())
            handle.in_flight.clear()
            del self._workers[handle.wid]
            reason = "worker hung past item timeout" if hung else "worker died"
            if orphans:
                # Workers run and stream a batch in dispatch order, so the
                # first unfinished item is the one that was executing when
                # the worker died — only it is charged a retry.  Its
                # batchmates never started; they requeue uncharged.
                self._retry_or_quarantine(
                    orphans[0], reason, queue, journal, quarantined, retries
                )
                queue.requeue(orphans[1:])
            # Replace the worker if there could still be work for it.
            if queue.pending() or any(
                w.in_flight for w in self._workers.values()
            ) or orphans:
                self._spawn_worker(handle.shard)

    def _retry_or_quarantine(self, item, error, queue, journal,
                             quarantined, retries,
                             traceback: Optional[str] = None) -> None:
        attempts = retries.get(item.item_id, 0) + 1
        retries[item.item_id] = attempts
        if attempts > self.config.max_retries:
            quarantined[item.item_id] = journal.write_item_quarantined(
                item.item_id, item.ordinal, attempts, error, traceback
            )
        else:
            queue.requeue([item])

    def _remove_worker_results_files(self) -> None:
        """The journal subsumes the per-worker durable copies once done.

        Heartbeat beacons go too: a completed campaign has no liveness to
        monitor, and stale beacons would confuse a later ``repro watch``.
        """
        try:
            names = os.listdir(self.campaign_dir)
        except OSError:
            return
        for name in names:
            if name.startswith("worker-") and (
                name.endswith(".results.jsonl") or name.endswith(".hb")
            ):
                try:
                    os.remove(os.path.join(self.campaign_dir, name))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Shared check memo
    # ------------------------------------------------------------------
    def _start_shared_memo(self) -> None:
        """Resolve the shared memo address the workers will connect to.

        ``--memo-server HOST:PORT`` attaches to an external ``repro memod``
        (multi-host campaigns share one table); otherwise the engine hosts
        the same server in-process on a loopback ephemeral port — the
        workers cannot tell the difference.
        """
        if self.spec.memo_address is not None:
            self._memo_address = self.spec.memo_address
            return
        from repro.memo.server import MemoServer
        from repro.memo.store import DEFAULT_MAX_ENTRIES

        self._memo_server = MemoServer(max_entries=DEFAULT_MAX_ENTRIES)
        self._memo_server.start()
        self._memo_address = self._memo_server.address_str

    def _stop_shared_memo(self) -> None:
        """Capture final service stats into :class:`EngineStats`, stop the
        embedded server.  Best-effort throughout — the shared memo is an
        optimization and must never turn a finished campaign into an error."""
        if self._memo_server is not None:
            self.stats.shared_memo = self._memo_server.table.stats()
            self._memo_server.stop()
            self._memo_server = None
        elif self._memo_address is not None:
            from repro.memo.client import MemoClient

            try:
                client = MemoClient(self._memo_address)
                stats = client.stats()
                client.close()
            except Exception:  # noqa: BLE001 — stats are advisory
                stats = None
            if stats:
                self.stats.shared_memo = stats
        self._memo_address = None

    # ------------------------------------------------------------------
    def _shutdown_workers(self) -> None:
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    handle.task_q.put((workermod.TASK_STOP,))
                except Exception:
                    pass
        deadline = time.monotonic() + 10.0
        for handle in self._workers.values():
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        self._workers.clear()
