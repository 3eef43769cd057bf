"""The pipeline's one stage clock, and the hot-path profiler built on it.

:class:`StageClock` is the only timer of a workload's stages.  It
telescopes: :meth:`StageClock.set_stage` charges the time since the
previous transition to the outgoing stage, so the per-stage seconds sum
exactly to the clocked window.  ``Chipmunk._run_pipeline`` runs exactly one
clock per workload; ``TestResult.stage_times`` is its stages minus
``other`` (pipeline setup between stages) and ``TestResult.elapsed`` is
their sum.  When a tracer is attached the clock also writes one ``record``,
``oracle``, ``triage`` and ``analyze`` span per workload, each starting at
the stage's first segment and lasting the seconds the clock charged it, so
a trace and the result can never disagree.

:class:`Profiler` is that clock plus *where the time and bytes go* inside
the replay/check hot path: per-callsite wall time and byte throughput, and
four byte-accounting categories that mirror the delta-replay data plane:

* ``materialized`` — flat bytes produced (``CrashImage.materialize`` plus
  ``RegionBase.data`` snapshots, both O(device) copies, both on demand);
* ``overlay_applied`` — sparse overlay bytes written into the shared mount
  device by ``PMDevice.cow_view``;
* ``digest_hashed`` — bytes fed to sha1 by the content-address layer
  (``CrashImage.digest`` and ``ChunkedDigest`` chunk rehashes);
* ``cow_rollback`` — before-image bytes restored when a COW mount view
  exits (overlay undo plus checker-mutation undo).

Both are found through module globals, :data:`CLOCK` and :data:`ACTIVE`,
so installation is visible everywhere without threading a handle through
every constructor.  Hot functions read :data:`ACTIVE` and skip all
bookkeeping when it is ``None`` (one attribute load and an ``is`` check —
``benchmarks/bench_telemetry_overhead.py`` pins the disabled path inside
the existing overhead gate).  The harness uses a profiler as its clock when
``ChipmunkConfig.profile`` is set and serializes it into
``TestResult.profile``, so profiles survive the campaign journal and
aggregate across workloads with :func:`merge_profiles`.  Callsite seconds
are attribution *within* a stage and can never exceed it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.campaign import fold

__all__ = [
    "ACTIVE",
    "BYTE_CATEGORIES",
    "CLOCK",
    "ProfileFold",
    "Profiler",
    "StageClock",
    "install",
    "human_bytes",
    "merge_profiles",
    "render_profile",
]

#: The running pipeline's stage clock, or ``None`` outside a pipeline (then
#: nothing is charged).
CLOCK: Optional["StageClock"] = None

#: The installed profiler, or ``None`` (the default — instrumentation off).
ACTIVE: Optional["Profiler"] = None

#: Byte-accounting categories, in render order.
BYTE_CATEGORIES = (
    "materialized",
    "overlay_applied",
    "digest_hashed",
    "cow_rollback",
)

#: Stage used for work outside any explicit :meth:`StageClock.set_stage`
#: window (pipeline setup, teardown).
OTHER_STAGE = "other"

#: Stages the clock writes as trace spans.  Enumeration and checking
#: alternate per crash state, so they get none.
SPAN_STAGES = frozenset(("record", "oracle", "triage", "analyze"))

#: Span stage -> the span stage whose span encloses it: the oracle walks
#: run between the recorded syscalls.
ENCLOSING = {"oracle": "record"}


class StageClock:
    """Telescoping per-stage wall time of one clocked window."""

    __slots__ = ("stages", "tracer", "workload", "_stage", "_t0", "_spans")

    def __init__(self, tracer=None, workload: str = "") -> None:
        #: stage -> wall seconds (telescoping; sums to the clocked window).
        self.stages: Dict[str, float] = {}
        #: Optional :class:`~repro.obs.tracing.Tracer` receiving one span per
        #: :data:`SPAN_STAGES` stage of the window.
        self.tracer = tracer
        #: The workload description the stage spans carry.
        self.workload = workload
        self._stage = OTHER_STAGE
        self._t0: Optional[float] = None
        # Span stage -> its open span (only while tracing).
        self._spans: Dict[str, object] = {}

    def start(self) -> None:
        """Open the clocked window (idempotent)."""
        if self._t0 is None:
            self._t0 = perf_counter()

    @property
    def stage(self) -> str:
        """The stage the clock is charging now."""
        return self._stage

    def set_stage(self, name: str) -> None:
        """Charge time since the last transition to the outgoing stage."""
        now = perf_counter()
        t0 = self._t0
        if t0 is not None:
            prev = self._stage
            stages = self.stages
            stages[prev] = stages.get(prev, 0.0) + (now - t0)
            if self.tracer is not None and (
                    prev in SPAN_STAGES or name in SPAN_STAGES):
                self._trace(prev, name, now)
        self._stage = name
        self._t0 = now

    def _trace(self, prev: str, name: str, now: float) -> None:
        """Open a stage's span at its first segment; keep it on the tracer's
        stack only while the stage (or one it encloses) runs, so the spans
        opened inside it (``syscall`` in ``record``) nest under it."""
        spans = self._spans
        if prev in spans and ENCLOSING.get(name) != prev:
            self.tracer.release(spans[prev])
        if name in SPAN_STAGES and name not in spans:
            spans[name] = self.tracer.open_span(
                name, now, workload=self.workload)

    def stop(self) -> None:
        """Close the clocked window, charging the tail to the live stage;
        write each stage span with the seconds its stage was charged."""
        if self._t0 is not None:
            self.set_stage(OTHER_STAGE)
            self._t0 = None
            for name, span in self._spans.items():
                self.tracer.close_span(span, self.stages[name])
            self._spans.clear()

    def stage_times(self) -> Dict[str, float]:
        """The stages minus ``other``: ``TestResult.stage_times``."""
        return {s: t for s, t in self.stages.items() if s != OTHER_STAGE}


class Profiler(StageClock):
    """A stage clock plus callsite attribution and byte counts."""

    __slots__ = ("sites", "bytes", "_inner")

    def __init__(self, tracer=None, workload: str = "") -> None:
        super().__init__(tracer, workload)
        #: (stage, site) -> [calls, seconds, bytes].
        self.sites: Dict[Tuple[str, str], List[float]] = {}
        #: byte-accounting category -> total bytes.
        self.bytes: Dict[str, int] = {cat: 0 for cat in BYTE_CATEGORIES}
        # Running total of attributed seconds, consumed by mark() /
        # add_exclusive() so nesting callsites subtract their children.
        self._inner = 0.0

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
def install(clock: StageClock):
    """Run ``clock`` as :data:`CLOCK` (and, if it is a :class:`Profiler`,
    as :data:`ACTIVE`) for the enclosed block.

    Re-entrant: the previous clock and profiler (usually ``None``) are
    restored on exit.
    """
    global ACTIVE, CLOCK
    prev = ACTIVE, CLOCK
    CLOCK = clock
    if isinstance(clock, Profiler):
        ACTIVE = clock
    clock.start()
    try:
        yield clock
    finally:
        clock.stop()
        ACTIVE, CLOCK = prev


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
