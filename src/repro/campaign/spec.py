"""Campaign specification: everything a worker needs to rebuild its world.

A campaign crosses process boundaries twice — parent → worker at dispatch
and disk → parent at ``--resume`` — so the full configuration must round-
trip through plain JSON.  :class:`CampaignSpec` is that closure: file
system, bug configuration, harness knobs (inherited from
:class:`~repro.config.ChipmunkConfig`), generator parameters.  Workers
receive the dict form and call :meth:`CampaignSpec.build_chipmunk`;
``--resume`` compares the journal's stored spec against the requested one
and refuses to mix campaigns.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from repro.config import ChipmunkConfig
from repro.core.harness import Chipmunk
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES


#: Deleted knobs that changed which crash states a campaign checks, each
#: with the value the code now always runs.  :meth:`CampaignSpec.from_dict`
#: drops them like any unknown key, so resume must look first: a journal
#: stored at another value enumerated different states, and continuing it
#: would mix two state sets in one ``bugs.json``.
REMOVED_KNOBS: Dict[str, object] = {"crash_plans": "subset"}


@dataclass(frozen=True, kw_only=True)
class CampaignSpec(ChipmunkConfig):
    """One campaign's full, JSON-serializable configuration.  The harness
    knobs are inherited: the spec *is* the harness config."""

    fs: str
    generator: str = "ace"  # "ace" | "fuzz"
    #: ``None`` means "all of the FS's catalogue bugs" (the CLI default);
    #: an explicit list pins the configuration, ``[]`` means fully fixed.
    bug_ids: Optional[List[int]] = None
    #: ACE parameters.
    seq: int = 1
    max_workloads: int = 0  # 0 = the whole sequence space
    #: Fuzzer parameters: the seed space [seed, seed + segments) is split
    #: into one work item per segment, each running ``executions`` programs.
    seed: int = 0
    segments: int = 4
    executions: int = 25
    #: Write per-worker telemetry traces into the campaign directory.
    trace: bool = False
    #: Campaign-wide shared check memo: workers dedup clean verdicts
    #: against one table, which the engine serves on a loopback ephemeral
    #: port, instead of each rediscovering the same states.
    shared_memo: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fs not in FS_CLASSES():
            raise ValueError(f"unknown file system {self.fs!r}")
        if self.generator not in ("ace", "fuzz"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "ace" and self.seq not in (1, 2, 3):
            raise ValueError(f"seq must be 1, 2, or 3 (got {self.seq})")
        if self.max_workloads < 0:
            raise ValueError(
                f"max_workloads must be >= 0 (got {self.max_workloads})"
            )

    @property
    def mode(self) -> str:
        """ACE mode for this file system (paper section 3.4.1)."""
        return "pm" if FS_CLASSES()[self.fs].strong_guarantees else "fsync"

    def ace_workloads(self) -> Iterator:
        """The ACE slice in canonical order: sequence lengths 1..``seq``, at
        most ``max_workloads`` of each (what ``repro ace`` runs, and what
        :func:`repro.campaign.queue.build_items` lists by index)."""
        from repro.workloads import ace

        for seq in range(1, self.seq + 1):
            workloads = ace.generate(seq, mode=self.mode)
            yield from itertools.islice(workloads, self.max_workloads or None)

    def bug_config(self) -> BugConfig:
        if self.bug_ids is None:
            return BugConfig.buggy(self.fs)
        if not self.bug_ids:
            return BugConfig.fixed()
        return BugConfig.only(*self.bug_ids)

    def build_chipmunk(self, telemetry=None, shared_memo=None) -> Chipmunk:
        return Chipmunk(
            self.fs,
            bugs=self.bug_config(),
            config=self,
            telemetry=telemetry,
            shared_memo=shared_memo,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Flat: the inherited harness knobs sit beside the spec's own."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`: unknown keys (knobs since deleted,
        like ``memo_entries``) are ignored and missing ones take their
        defaults, so journals of older specs still load."""
        known = cls.__dataclass_fields__
        return cls(**{k: v for k, v in data.items() if k in known})
