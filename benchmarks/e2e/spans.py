"""Layer spans for the traced pass, recorded from outside the program.

The traced pass runs the real ``Chipmunk.test_workload`` /
``CampaignEngine.run``; this module only wraps the names those call, so a
span opens and closes at each layer boundary.  Every interposition point is
resolved *by name* when the pass starts (:data:`POINTS`): one that a later
refactor under ``src/`` removed is listed in :attr:`Tracer.unresolved`, its
metric reads 0, and nothing else changes — the end-to-end numbers never come
from a traced pass.

A span is ``(name, start, end, parent, workload)``; a layer's self time is
its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: ``(span name, "module:attr.path", kind)``.  ``function`` also covers plain
#: methods (the wrapper forwards ``self``).  The harness imports its
#: collaborators by name, so those are patched on the harness module — the
#: name the harness actually calls.
POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("core.record", "repro.core.harness:Chipmunk.record", "function"),
    ("core.oracle", "repro.core.harness:run_oracle", "function"),
    ("core.enumerate", "repro.core.harness:enumerate_crash_states", "iterator"),
    ("core.check", "repro.core.checker:CheckMemo.check", "function"),
    ("memo.key", "repro.core.checker:CheckMemo.key_of", "function"),
    ("core.triage", "repro.core.harness:triage_reports", "function"),
    ("core.analyze", "repro.core.harness:persistence_breakdown", "function"),
    ("core.analyze", "repro.core.harness:layout_map_for", "function"),
    ("core.analyze", "repro.core.harness:store_region_counts", "function"),
    ("core.analyze", "repro.core.harness:inflight_histogram", "function"),
    ("core.analyze", "repro.core.harness:Chipmunk._recovery_overlap", "function"),
    ("fs.syscall", "repro.core.harness:execute_op", "function"),
    ("fs.syscall", "repro.core.oracle:execute_op", "function"),
    ("forensics.provenance",
     "repro.forensics.provenance:ProvenanceRecorder.for_state", "function"),
    ("pm.cow", "repro.pm.device:PMDevice.cow_view", "contextmanager"),
    ("pm.from_snapshot", "repro.pm.device:PMDevice.from_snapshot", "classmethod"),
)

#: Engine-parent points; the workers are other processes and stay untraced
#: (their numbers come from the journal and ``merged.engine``).
ENGINE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("campaign.build_items", "repro.campaign.engine:build_items", "function"),
    ("campaign.journal",
     "repro.campaign.journal:CheckpointJournal.write_meta", "function"),
    ("campaign.journal",
     "repro.campaign.journal:CheckpointJournal.write_item_done", "function"),
    ("campaign.journal",
     "repro.campaign.journal:CheckpointJournal.write_item_quarantined",
     "function"),
    ("campaign.journal",
     "repro.campaign.journal:CheckpointJournal.write_done", "function"),
    ("campaign.merge", "repro.campaign.engine:merge_campaign", "function"),
    ("campaign.merge.report", "repro.campaign.merge:render_markdown", "function"),
    ("campaign.merge.coverage",
     "repro.campaign.merge:coverage_from_results", "function"),
    ("campaign.merge.coverage",
     "repro.obs.coverage:CoverageReport.render_markdown", "function"),
)

#: Methods the thin FS subclass times (``creat``/``unlink`` are the usability
#: pass when they run under a check span, a syscall otherwise).
FS_METHODS = ("mkfs", "mount", "walk", "creat", "unlink")
FS_CLASSMETHODS = ("mkfs", "mount")


class Tracer:
    """In-memory span recorder; written out once, when the pass ends."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        #: Index of the innermost open span (-1 = none).
        self.stack: List[int] = [-1]
        #: Index of the campaign workload being tested (-1 outside the loop).
        self.workload = -1
        #: span name -> calls that raised (``fs.mount`` failures are findings).
        self.failures: Dict[str, int] = {}
        self.unresolved: List[str] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        spans, stack, failures, clock = (
            self.spans, self.stack, self.failures, perf_counter
        )

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failures[name] = failures.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.workload)

        return traced

    # ------------------------------------------------------------------
    def _wrap_iterator(self, name: str, fn):
        tracer = self

        class TracedIterator:
            """Each ``next()`` on the crash-state generator is one span."""

            def __init__(self, inner) -> None:
                self._next = tracer.wrap(name, inner.__next__)

            def __iter__(self):
                return self

            def __next__(self):
                return self._next()

        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        return traced

    def _wrap_contextmanager(self, name: str, fn):
        tracer = self

        class TracedContext:
            """Spans cover entering and leaving, never the ``with`` body."""

            def __init__(self, inner) -> None:
                self.enter = tracer.wrap(name, inner.__enter__)
                self.exit = tracer.wrap(name, inner.__exit__)

            def __enter__(self):
                return self.enter()

            def __exit__(self, *exc):
                return self.exit(*exc)

        def traced(*args, **kwargs):
            return TracedContext(fn(*args, **kwargs))

        return traced

    def install(self, points) -> None:
        """Patch every resolvable point; remember the ones that are gone."""
        for name, target, kind in points:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unresolved.append(target)
                continue
            if kind == "iterator":
                patched = self._wrap_iterator(name, original)
            elif kind == "contextmanager":
                patched = self._wrap_contextmanager(name, original)
            elif kind == "classmethod":
                patched = classmethod(self.wrap(name, original.__func__))
            else:
                patched = self.wrap(name, original)
            setattr(owner, attr, patched)

    def traced_fs_class(self, fs_class):
        """A subclass of ``fs_class`` whose layer-boundary methods are spans."""
        body = {}
        for method in FS_METHODS:
            original = getattr(fs_class, method, None)
            if original is None:
                self.unresolved.append(f"{fs_class.__name__}.{method}")
                continue
            if method in FS_CLASSMETHODS:
                body[method] = classmethod(
                    self.wrap("fs." + method, original.__func__)
                )
            else:
                body[method] = self.wrap("fs." + method, original)
        return type("Traced" + fs_class.__name__, (fs_class,), body)

    # ------------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, span count)`` per span name.

        ``fs.creat``/``fs.unlink`` fold into ``fs.usability`` when a check
        span is among their ancestors and into ``fs.syscall`` otherwise.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        seconds: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            count = 1
            if name in ("fs.creat", "fs.unlink"):
                while parent >= 0 and spans[parent][0] != "core.check":
                    parent = spans[parent][3]
                if parent >= 0:
                    name = "fs.usability"
                else:
                    # The execute_op span around it already counted the call.
                    name, count = "fs.syscall", 0
            seconds[name] = seconds.get(name, 0.0) + (end - start) - covered[index]
            counts[name] = counts.get(name, 0) + count
        return seconds, counts

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: str, workload: str, origin: float) -> None:
        """Dump the spans, times in microseconds since ``origin``."""
        names: Dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)),
             round((start - origin) * 1e6), round((end - origin) * 1e6),
             parent, index]
            for name, start, end, parent, index in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload,
                    "names": list(names),
                    "columns": ["name", "start_us", "end_us", "parent",
                                "workload_index"],
                    "unresolved_points": self.unresolved,
                    "spans": rows,
                },
                fh, separators=(",", ":"),
            )
