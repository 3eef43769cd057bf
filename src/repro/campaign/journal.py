"""Checkpoint journal: append-only JSONL that makes campaigns killable.

Record types (one JSON object per line)::

    {"type": "campaign_meta", "spec": {...}, "n_items": N}
    {"type": "item_done", "id": "ace:1:000007", "ordinal": 7, "worker": 0,
     "retries": 0, "results": [<TestResult.to_dict()>, ...]}
    {"type": "item_quarantined", "id": ..., "ordinal": ..., "retries": R,
     "error": "...", "traceback": "..."}
    {"type": "campaign_done", "elapsed": ...}

Every record additionally carries ``"t"``, a wall-clock timestamp stamped
centrally on append; ``python -m repro watch`` derives throughput and ETA
from the ``item_done`` stamps.  Replay tolerates records without it.
``traceback`` (bounded, innermost frames kept) is present when the item's
last failure raised in the worker; a worker that died leaves none.

Every record is flushed and fsync'd on append, so a SIGKILL at any point
loses at most the in-flight (unjournaled) workloads — exactly the ones
``--resume`` is allowed to re-run.  A torn final line (the kill landed
mid-write) is detected and ignored on replay; the item it described simply
runs again.

``item_done`` carries the item's serialized results rather than a bare
index, so the merge stage rebuilds the campaign's whole bug set from the
journal alone — which is what makes a resumed campaign's report equal an
uninterrupted one without re-executing finished work.  Each report in
them is the worker's compact entry
(:func:`repro.campaign.worker.compact_results`): its triage key, plus the
full report only where it may found a cluster.  The journal therefore
holds every key, in order, but only a few full reports per key; journals
written with full reports and no key still fold, the key being derived
on read.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class JournalState:
    """Everything replayable from a journal file."""

    spec_dict: Optional[Dict[str, object]] = None
    n_items: Optional[int] = None
    #: item id -> list of serialized TestResult dicts.
    results: Dict[str, List[dict]] = field(default_factory=dict)
    #: item id -> ordinal (canonical merge order).
    ordinals: Dict[str, int] = field(default_factory=dict)
    #: item id -> quarantine record.
    quarantined: Dict[str, dict] = field(default_factory=dict)
    completed_marker: bool = False
    torn_lines: int = 0
    #: item id -> wall-clock journal-append time (``repro watch`` derives
    #: throughput and ETA from these).
    times: Dict[str, float] = field(default_factory=dict)
    started_t: Optional[float] = None
    finished_t: Optional[float] = None

    @property
    def done_ids(self) -> set:
        return set(self.results) | set(self.quarantined)

    def ordered_results(self) -> List[dict]:
        """Every journaled result dict, in canonical (ordinal) order."""
        order = sorted(self.results, key=lambda i: self.ordinals.get(i, 0))
        return [result for item_id in order for result in self.results[item_id]]


class CheckpointJournal:
    """Append-only JSONL journal for one campaign directory."""

    FILENAME = "journal.jsonl"

    def __init__(self, campaign_dir: str) -> None:
        self.path = os.path.join(campaign_dir, self.FILENAME)
        self._fh: Optional[io.TextIOBase] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def open(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _append(self, record: Dict[str, object]) -> Dict[str, object]:
        if self._fh is None:
            raise RuntimeError("journal is not open")
        # Stamp every record centrally so the monitor can derive progress
        # rates without the writers having to care about time at all.
        record.setdefault("t", round(time.time(), 3))
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        # Flush + fsync per record: the journal is the campaign's crash
        # consistency, so it gets the durability the tested file systems
        # only aspire to.
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    def write_meta(self, spec_dict: Dict[str, object], n_items: int) -> None:
        self._append({"type": "campaign_meta", "spec": spec_dict,
                      "n_items": n_items})

    def write_item_done(
        self, item_id: str, ordinal: int, worker: int, retries: int,
        results: List[dict],
    ) -> None:
        self._append({
            "type": "item_done", "id": item_id, "ordinal": ordinal,
            "worker": worker, "retries": retries, "results": results,
        })

    def write_item_quarantined(
        self, item_id: str, ordinal: int, retries: int, error: str,
        traceback: Optional[str] = None,
    ) -> Dict[str, object]:
        """Journal a quarantine; returns the record as written."""
        record = {
            "type": "item_quarantined", "id": item_id, "ordinal": ordinal,
            "retries": retries, "error": error,
        }
        if traceback:
            record["traceback"] = traceback
        return self._append(record)

    def write_done(self, elapsed: float) -> None:
        self._append({"type": "campaign_done", "elapsed": elapsed})

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, campaign_dir: str) -> JournalState:
        """Parse a journal, tolerating a torn final line."""
        state = JournalState()
        path = os.path.join(campaign_dir, cls.FILENAME)
        if not os.path.exists(path):
            return state
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A kill mid-append tears at most the last line; the
                    # item it described is simply not marked done.
                    state.torn_lines += 1
                    continue
                kind = record.get("type")
                stamp = record.get("t")
                if kind == "campaign_meta":
                    state.spec_dict = dict(record.get("spec", {}))
                    state.n_items = record.get("n_items")
                    if stamp is not None:
                        state.started_t = float(stamp)
                elif kind == "item_done":
                    item_id = str(record.get("id"))
                    state.results[item_id] = list(record.get("results", []))
                    state.ordinals[item_id] = int(record.get("ordinal", 0))
                    if stamp is not None:
                        state.times[item_id] = float(stamp)
                    # A resume may legitimately re-complete an item that was
                    # in flight at kill time; last write wins.
                    state.quarantined.pop(item_id, None)
                elif kind == "item_quarantined":
                    item_id = str(record.get("id"))
                    if item_id not in state.results:
                        state.quarantined[item_id] = record
                        state.ordinals[item_id] = int(record.get("ordinal", 0))
                        if stamp is not None:
                            state.times[item_id] = float(stamp)
                elif kind == "campaign_done":
                    state.completed_marker = True
                    if stamp is not None:
                        state.finished_t = float(stamp)
        return state
