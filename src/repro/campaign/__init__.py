"""Parallel, fault-tolerant campaign engine with checkpoint/resume.

The paper executed its largest campaign by hand-splitting 50k workloads
across ten VMs (section 4.2).  This package is that scale-out as a
subsystem: :class:`CampaignEngine` deals ACE workloads (or fuzzer seed
segments) to a local worker pool from one canonical-order queue, a
per-workload-timeout / bounded-retry / quarantine fault model, an
append-only checkpoint journal that makes any campaign killable and
resumable, and a merge stage whose output matches a serial run's.

Layout::

    spec.py     CampaignSpec — the JSON-round-trippable campaign closure
    queue.py    WorkItem, WorkQueue — one FIFO dealt in shrinking batches
    journal.py  CheckpointJournal — append-only JSONL checkpoint/resume
    worker.py   worker_main — the per-process execution loop
    engine.py   CampaignEngine — dispatch, fault handling, lifecycle
    merge.py    merge_campaign — canonical-order fold, cross-worker dedup

Entry point: ``python -m repro campaign <fs> --workers N [--resume]``.
"""

from repro.campaign.engine import (
    CampaignEngine,
    EngineConfig,
    EngineStats,
    SpecMismatch,
)
from repro.campaign.journal import CheckpointJournal, JournalState
from repro.campaign.merge import MergedCampaign, merge_campaign, merge_results
from repro.campaign.queue import WorkItem, WorkQueue, build_items
from repro.campaign.spec import CampaignSpec

__all__ = [
    "CampaignEngine",
    "EngineConfig",
    "EngineStats",
    "SpecMismatch",
    "CheckpointJournal",
    "JournalState",
    "MergedCampaign",
    "merge_campaign",
    "merge_results",
    "WorkItem",
    "WorkQueue",
    "build_items",
    "CampaignSpec",
]
