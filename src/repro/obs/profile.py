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

:class:`Profiler` is that clock plus *where the time goes* inside the
replay/check hot path: per-callsite calls and self time.  The callsites are
the functions named in :data:`SITES`, instrumented from outside like the
paper's Kprobes: while a profiler is installed each target is wrapped by
name, and the original object is put back when it is uninstalled.  The
replay, COW and checker code carries no profiling hook, so an unprofiled
run pays nothing.  A call's self time excludes the sites nested in it, so
per-stage callsite seconds partition the stage clock and never exceed it.

Both are found through module globals, :data:`CLOCK` and :data:`ACTIVE`,
so installation is visible everywhere without threading a handle through
every constructor.  The harness uses a profiler as its clock when
``ChipmunkConfig.profile`` is set and serializes it into
``TestResult.profile``, so profiles survive the campaign journal and
aggregate across workloads with :func:`merge_profiles`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import lru_cache
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.campaign import fold

__all__ = [
    "ACTIVE",
    "CLOCK",
    "SITES",
    "ProfileFold",
    "Profiler",
    "StageClock",
    "install",
    "merge_profiles",
    "render_profile",
]

#: The running pipeline's stage clock, or ``None`` outside a pipeline (then
#: nothing is charged).
CLOCK: Optional["StageClock"] = None

#: The installed profiler, or ``None`` (the default — instrumentation off).
ACTIVE: Optional["Profiler"] = None

#: ``(site, "module:qualname", kind)``: the profiled callsites.  ``function``
#: also covers methods and classmethods; ``property`` times the getter;
#: ``contextmanager`` charges entering and leaving to the two sites it
#: names, never the ``with`` body.  A name the code no longer has raises at
#: install, so a rename cannot silently drop a site.
SITES: Tuple[Tuple[object, str, str], ...] = (
    ("checker.usability",
     "repro.core.checker:ConsistencyChecker._check_usability", "function"),
    ("checker.semantics",
     "repro.core.checker:ConsistencyChecker._check_semantics", "function"),
    ("checker.outcome_key",
     "repro.core.checker:ConsistencyChecker._outcome_key", "function"),
    ("checker.recovery_lookup",
     "repro.core.recovery_memo:RecoveryMemo.lookup", "function"),
    ("checker.recovery_insert",
     "repro.core.recovery_memo:RecoveryMemo.insert", "function"),
    ("memo.key", "repro.core.checker:CheckMemo.key_of", "function"),
    ("image.flatten_overlay", "repro.pm.image:flatten_overlay", "function"),
    ("image.chunk_rehash", "repro.pm.image:ChunkedDigest.digest", "function"),
    ("image.materialize", "repro.pm.image:CrashImage.materialize", "function"),
    ("replay.fence_base", "repro.pm.image:PersistTracker.base", "function"),
    ("replay.fence_base", "repro.pm.image:RegionBase.data", "property"),
    ("replay.persist_apply", "repro.pm.image:PersistTracker.apply",
     "function"),
    (("device.cow_apply", "device.cow_rollback"),
     "repro.pm.device:PMDevice.cow_view", "contextmanager"),
    ("checker.walk", "repro.vfs.interface:FileSystem.walk", "function"),
    ("checker.mount", "repro.fs.nova.fs:NovaFS.mount", "function"),
    ("checker.mount", "repro.fs.pmfs.fs:PmfsFS.mount", "function"),
    ("checker.mount", "repro.fs.ext4dax.fs:Ext4DaxFS.mount", "function"),
    ("checker.mount", "repro.fs.splitfs.fs:SplitFS.mount", "function"),
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
    """A stage clock plus per-callsite self time of the :data:`SITES`."""

    __slots__ = ("sites", "_site", "_charged")

    def __init__(self, tracer=None, workload: str = "") -> None:
        super().__init__(tracer, workload)
        #: (stage, site) -> [calls, self seconds].
        self.sites: Dict[Tuple[str, str], List[float]] = {}
        # The innermost site whose call is in progress, or None.
        self._site: Optional[str] = None
        # Self seconds charged so far: what a call's nested sites were
        # charged is how much this grew while it ran.
        self._charged = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; rides ``TestResult`` through the journal."""
        sites = [[stage, site, int(calls), seconds]
                 for (stage, site), (calls, seconds) in self.sites.items()]
        sites.sort(key=lambda row: -row[3])
        return {"stages": dict(self.stages), "sites": sites}


@lru_cache(maxsize=None)
def _owner(target: str) -> Tuple[object, str]:
    """The object holding a ``"module:qualname"`` target and the name it
    has there, resolved once per process."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _resolve(target: str):
    """``(owner, attr, raw attribute)`` of a ``"module:qualname"`` target.

    The raw attribute comes from the owner's own ``__dict__``, so it is the
    object to restore and a target naming an inherited attribute fails.
    """
    owner, attr = _owner(target)
    try:
        return owner, attr, vars(owner)[attr]
    except KeyError:
        raise AttributeError(f"profile site target {target} does not resolve")


def _timed(site: str, fn):
    """``fn``, charging each call to ``site`` of :data:`ACTIVE`: one call
    and its self time, the seconds not charged to the sites nested in it."""
    def timed(*args, **kwargs):
        prof = ACTIVE
        outer = prof._site
        if outer == site:
            # Re-entered directly from itself (SplitFS mounting its kernel
            # ext4): part of the outer call.
            return fn(*args, **kwargs)
        prof._site = site
        charged = prof._charged
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - t0 - (prof._charged - charged)
            prof._charged += seconds
            prof._site = outer
            key = (prof._stage, site)
            cell = prof.sites.get(key)
            if cell is None:
                prof.sites[key] = [1, seconds]
            else:
                cell[0] += 1
                cell[1] += seconds
    return timed


class _TimedContext:
    """A context manager whose entering and leaving are two sites."""

    __slots__ = ("enter", "leave")

    def __init__(self, inner, sites: Tuple[str, str]) -> None:
        self.enter = _timed(sites[0], inner.__enter__)
        self.leave = _timed(sites[1], inner.__exit__)

    def __enter__(self):
        return self.enter()

    def __exit__(self, *exc):
        return self.leave(*exc)


def _wrap(site, kind: str, raw):
    if kind == "property":
        return property(_timed(site, raw.fget))
    if kind == "contextmanager":
        return lambda *args, **kwargs: _TimedContext(raw(*args, **kwargs), site)
    if isinstance(raw, classmethod):
        return classmethod(_timed(site, raw.__func__))
    return _timed(site, raw)


def _patch_sites() -> List[Tuple[object, str, object]]:
    """Wrap every :data:`SITES` target; the ``(owner, attr, original)``
    list to restore.  Resolves every target before patching any."""
    resolved = [(site, kind, *_resolve(target))
                for site, target, kind in SITES]
    for site, kind, owner, attr, raw in resolved:
        setattr(owner, attr, _wrap(site, kind, raw))
    return [(owner, attr, raw) for _, _, owner, attr, raw in resolved]


@contextmanager
def install(clock: StageClock):
    """Run ``clock`` as :data:`CLOCK` (and, if it is a :class:`Profiler`,
    as :data:`ACTIVE`) for the enclosed block.

    Re-entrant: the previous clock and profiler (usually ``None``) are
    restored on exit.  The outermost profiler install wraps the
    :data:`SITES` and puts every original back on exit; a nested one
    reuses those wrappers, so each call is charged once, to :data:`ACTIVE`.
    """
    global ACTIVE, CLOCK
    prev = ACTIVE, CLOCK
    patched = ()
    if isinstance(clock, Profiler):
        if ACTIVE is None:
            patched = _patch_sites()
        ACTIVE = clock
    CLOCK = clock
    clock.start()
    try:
        yield clock
    finally:
        clock.stop()
        ACTIVE, CLOCK = prev
        for owner, attr, raw in patched:
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Aggregation + rendering (the ``repro profile`` CLI surface)
# ----------------------------------------------------------------------
class ProfileFold:
    """Per-workload profile dicts summed one at a time into a campaign-level
    profile: stages through the shared result fold, site rows by key."""

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}
        self.sites: Dict[Tuple[str, str], List[float]] = {}

    def add(self, prof: Dict[str, object]) -> None:
        fold(self.stages, prof.get("stages", {}))
        # Rows journaled before byte accounting was retired carry a fifth,
        # bytes column; it is dropped.
        for stage, site, calls, seconds, *_ in prof.get("sites", []):
            cell = self.sites.setdefault((stage, site), [0, 0.0])
            cell[0] += int(calls)
            cell[1] += float(seconds)

    def result(self) -> Dict[str, object]:
        """The merged profile, site rows hottest first."""
        return {"stages": self.stages, "sites": sorted(
            ([stage, site, calls, seconds]
             for (stage, site), (calls, seconds) in self.sites.items()),
            key=lambda row: -row[3],
        )}


def merge_profiles(profiles: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-workload profile dicts (see :class:`ProfileFold`)."""
    acc = ProfileFold()
    for prof in profiles:
        acc.add(prof)
    return acc.result()


def render_profile(profile: Dict[str, object], top: int = 15) -> str:
    """Markdown tables: stage breakdown, hot callsites."""
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
    out.append(f"## Hot callsites (top {top} by self time)")
    out.append("")
    out.append("| stage | site | calls | seconds |")
    out.append("| --- | --- | ---: | ---: |")
    sites = list(profile.get("sites", []))
    for stage, site, calls, seconds, *_ in sites[:top]:
        out.append(f"| {stage} | {site} | {calls} | {seconds:.4f} |")
    if not sites:
        out.append("| - | (no attributed callsites) | 0 | 0.0000 |")
    out.append("")
    return "\n".join(out)
