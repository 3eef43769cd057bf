"""Harness configuration: the one declaration of every harness knob.

:class:`ChipmunkConfig` declares, defaults and validates each knob of the
record → replay → check pipeline; ``CampaignSpec`` inherits it and crash
provenance carries it.  This module imports nothing from the package, so
every layer can use it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ChipmunkConfig:
    """Knobs of one testing campaign."""

    device_size: int = 256 * 1024
    #: Maximum in-flight write units replayed per crash state (None = all;
    #: the paper finds 2 sufficient for every bug, section 5.1.2).
    cap: Optional[int] = 2
    #: NT stores at least this large coalesce as file-data writes.
    coalesce_threshold: int = 256
    #: Override the crash-point strategy ("fence", "post", "fsync"); None
    #: picks "fence" for strong-guarantee systems and "fsync" otherwise.
    crash_points: Optional[str] = None
    #: Attach store-level lineage (:mod:`repro.forensics`) to every bug
    #: report.  Capture only runs for failing states, so the cost on clean
    #: workloads is a no-op.
    forensics: bool = True
    #: Install the hot-path profiler (:mod:`repro.obs.profile`) for the
    #: duration of each workload: per-stage wall time, per-callsite
    #: attribution, and byte accounting land in ``TestResult.profile``.
    #: Off by default — the disabled path costs one global read per
    #: instrumented site (the telemetry-overhead bench pins it).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.cap is not None and self.cap < 0:
            raise ValueError(f"cap must be >= 0 (got {self.cap})")
