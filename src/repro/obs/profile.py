"""Deterministic hot-path profiler: stage clocks, callsite attribution,
byte accounting.

The telemetry facade (:mod:`repro.obs`) answers *what happened* — spans,
counters, events.  This module answers *where the time and bytes go* inside
the replay/check hot path: per-pipeline-stage wall time, per-callsite
wall time and byte throughput, and four byte-accounting categories that
mirror the delta-replay data plane:

* ``materialized`` — flat bytes produced (``CrashImage.materialize`` plus
  ``RegionBase.data`` snapshots, both O(device) copies, both on demand);
* ``overlay_applied`` — sparse overlay bytes written into the shared mount
  device by ``PMDevice.cow_view``;
* ``digest_hashed`` — bytes fed to sha1 by the content-address layer
  (``CrashImage.digest`` and ``ChunkedDigest`` chunk rehashes);
* ``cow_rollback`` — before-image bytes restored when a COW mount view
  exits (overlay undo plus checker-mutation undo).

Instrumentation is pull-based and nullable, exactly like the telemetry
counters: hot functions read the module-global :data:`ACTIVE` profiler and
skip all bookkeeping when it is ``None`` (one attribute load and an ``is``
check — ``benchmarks/bench_telemetry_overhead.py`` pins the disabled path
inside the existing overhead gate).  The harness installs a profiler per
workload when ``ChipmunkConfig.profile`` is set and serializes the result
into ``TestResult.profile``, so profiles survive the campaign journal and
aggregate across workloads with :func:`merge_profiles`.

The stage clock telescopes: :meth:`Profiler.set_stage` charges the time
since the previous transition to the outgoing stage, so the per-stage
seconds sum exactly to the profiled window — the invariant
``tests/obs/test_profile.py`` pins against ``TestResult.elapsed``.
Callsite seconds are attribution *within* a stage and can never exceed it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.campaign import fold

__all__ = [
    "ACTIVE",
    "BYTE_CATEGORIES",
    "ProfileFold",
    "Profiler",
    "install",
    "human_bytes",
    "merge_profiles",
    "render_profile",
]

#: The installed profiler, or ``None`` (the default — instrumentation off).
#: Hot paths read this through the module (``profile.ACTIVE``) so
#: installation is visible everywhere without threading a handle through
#: every constructor.
ACTIVE: Optional["Profiler"] = None

#: Byte-accounting categories, in render order.
BYTE_CATEGORIES = (
    "materialized",
    "overlay_applied",
    "digest_hashed",
    "cow_rollback",
)

#: Stage used for work outside any explicit :meth:`Profiler.set_stage`
#: window (pipeline setup, teardown).
OTHER_STAGE = "other"


class Profiler:
    """Accumulates stage wall time, callsite attribution, and byte counts."""

    __slots__ = ("stages", "sites", "bytes", "_stage", "_t0", "_inner")

    def __init__(self) -> None:
        #: stage -> wall seconds (telescoping; sums to the profiled window).
        self.stages: Dict[str, float] = {}
        #: (stage, site) -> [calls, seconds, bytes].
        self.sites: Dict[Tuple[str, str], List[float]] = {}
        #: byte-accounting category -> total bytes.
        self.bytes: Dict[str, int] = {cat: 0 for cat in BYTE_CATEGORIES}
        self._stage = OTHER_STAGE
        self._t0: Optional[float] = None
        # Running total of attributed seconds, consumed by mark() /
        # add_exclusive() so nesting callsites subtract their children.
        self._inner = 0.0

    # ------------------------------------------------------------------
    # Stage clock
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the profiled window (idempotent)."""
        if self._t0 is None:
            self._t0 = perf_counter()

    @property
    def stage(self) -> str:
        """The stage the clock is charging now."""
        return self._stage

    def set_stage(self, name: str) -> None:
        """Charge time since the last transition to the outgoing stage."""
        now = perf_counter()
        if self._t0 is not None:
            prev = self._stage
            self.stages[prev] = self.stages.get(prev, 0.0) + (now - self._t0)
        self._stage = name
        self._t0 = now

    def stop(self) -> None:
        """Close the profiled window, charging the tail to the live stage."""
        if self._t0 is not None:
            self.set_stage(OTHER_STAGE)
            self._t0 = None
            self._stage = OTHER_STAGE

    # ------------------------------------------------------------------
    # Callsite attribution (the hot-path entry point)
    # ------------------------------------------------------------------
    def add(self, site: str, seconds: float, nbytes: int = 0,
            category: Optional[str] = None) -> None:
        """Attribute one call at ``site`` to the current stage."""
        key = (self._stage, site)
        cell = self.sites.get(key)
        if cell is None:
            cell = [0, 0.0, 0]
            self.sites[key] = cell
        cell[0] += 1
        cell[1] += seconds
        cell[2] += nbytes
        self._inner += seconds
        if category is not None:
            self.bytes[category] = self.bytes.get(category, 0) + nbytes

    def mark(self) -> float:
        """Snapshot of total attributed seconds, for :meth:`add_exclusive`."""
        return self._inner

    def add_exclusive(self, site: str, seconds: float, mark: float,
                      nbytes: int = 0, category: Optional[str] = None) -> None:
        """Attribute a call minus the profiled work nested inside it.

        ``mark`` is the :meth:`mark` value taken when the call started;
        anything attributed since then ran *inside* this call (the memo
        key wrapping a flatten, a fence base wrapping chunk rehashes) and
        is subtracted, so per-stage callsite seconds stay a partition of
        the stage clock rather than double-counting.  Chains compose: an
        exclusive parent adds only its own time to the running total, so
        a grandparent subtracts each level exactly once.
        """
        self.add(site, seconds - (self._inner - mark), nbytes, category)

    # ------------------------------------------------------------------
    # Serialization (JSON-safe; rides TestResult through the journal)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        sites = [
            [stage, site, int(calls), seconds, int(nbytes)]
            for (stage, site), (calls, seconds, nbytes) in self.sites.items()
        ]
        sites.sort(key=lambda row: -row[3])
        return {
            "stages": dict(self.stages),
            "sites": sites,
            "bytes": {k: int(v) for k, v in self.bytes.items()},
        }


@contextmanager
def install(profiler: Profiler):
    """Install ``profiler`` as :data:`ACTIVE` for the enclosed block.

    Re-entrant: the previous profiler (usually ``None``) is restored on
    exit, so nested pipelines — a forensics re-record or re-check — keep
    attributing to the outermost profile.
    """
    global ACTIVE
    prev = ACTIVE
    ACTIVE = profiler
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        ACTIVE = prev


# ----------------------------------------------------------------------
# Aggregation + rendering (the ``repro profile`` CLI surface)
# ----------------------------------------------------------------------
class ProfileFold:
    """Per-workload profile dicts summed one at a time into a campaign-level
    profile: stages and bytes through the shared result fold, site rows by
    key."""

    def __init__(self) -> None:
        self.merged: Dict[str, object] = {
            "stages": {}, "bytes": {cat: 0 for cat in BYTE_CATEGORIES},
        }
        self.sites: Dict[Tuple[str, str], List[float]] = {}

    def add(self, prof: Dict[str, object]) -> None:
        fold(self.merged, prof)
        for stage, site, calls, seconds, sbytes in prof.get("sites", []):
            cell = self.sites.setdefault((stage, site), [0, 0.0, 0])
            cell[0] += int(calls)
            cell[1] += float(seconds)
            cell[2] += int(sbytes)

    def result(self) -> Dict[str, object]:
        """The merged profile, site rows hottest first."""
        return {**self.merged, "sites": sorted(
            ([stage, site, calls, seconds, b]
             for (stage, site), (calls, seconds, b) in self.sites.items()),
            key=lambda row: -row[3],
        )}


def merge_profiles(profiles: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-workload profile dicts (see :class:`ProfileFold`)."""
    acc = ProfileFold()
    for prof in profiles:
        acc.add(prof)
    return acc.result()


def human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"


def render_profile(profile: Dict[str, object], top: int = 15) -> str:
    """Markdown tables: stage breakdown, hot callsites, byte accounting."""
    out: List[str] = []
    stages = dict(profile.get("stages", {}))
    total = sum(stages.values())
    out.append("## Stage breakdown")
    out.append("")
    out.append("| stage | seconds | share |")
    out.append("| --- | ---: | ---: |")
    for stage, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        share = seconds / total * 100 if total else 0.0
        out.append(f"| {stage} | {seconds:.4f} | {share:.1f}% |")
    out.append(f"| **total** | **{total:.4f}** | 100.0% |")
    out.append("")
    out.append(f"## Hot callsites (top {top} by wall time)")
    out.append("")
    out.append("| stage | site | calls | seconds | bytes |")
    out.append("| --- | --- | ---: | ---: | ---: |")
    sites = list(profile.get("sites", []))
    for stage, site, calls, seconds, nbytes in sites[:top]:
        out.append(
            f"| {stage} | {site} | {calls} | {seconds:.4f} | "
            f"{human_bytes(nbytes)} |"
        )
    if not sites:
        out.append("| - | (no attributed callsites) | 0 | 0.0000 | 0 B |")
    out.append("")
    out.append("## Byte accounting")
    out.append("")
    out.append("| category | bytes |")
    out.append("| --- | ---: |")
    for cat in BYTE_CATEGORIES:
        out.append(f"| {cat} | {human_bytes(int(dict(profile.get('bytes', {})).get(cat, 0)))} |")
    out.append("")
    return "\n".join(out)
