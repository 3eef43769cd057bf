"""Gray-box workload fuzzer (the Syzkaller analogue, paper section 3.4.2).

Generates syntactically and semantically plausible workloads from typed
templates (valid paths from a name pool, size/offset ranges per syscall),
executes each through Chipmunk, and keeps workloads that reach new coverage
points as seeds for mutation — the standard generational gray-box loop.
Bug reports are clustered by lexical similarity
(:mod:`repro.core.triage`), mirroring the triage procedure the paper added
to Syzkaller's dashboard.

Unlike ACE, the fuzzer freely generates unaligned offsets and sizes, repeats
operations on one file, and builds longer programs — exactly the workload
shapes that exposed the four ACE-invisible bugs (section 4.3).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.harness import Chipmunk, TestResult
from repro.core.triage import Cluster, Triage
from repro.workloads.coverage import CoverageMap, GlobalCoverage
from repro.workloads.ops import Op, Workload

NAME_POOL = ("foo", "bar", "baz", "qux")
DIR_POOL = ("A", "B")

#: Weights of each syscall template (writes over-represented, as Syzkaller's
#: file-system-focused configuration does).
SYSCALL_WEIGHTS = [
    ("creat", 3),
    ("mkdir", 2),
    ("rmdir", 1),
    ("link", 2),
    ("unlink", 2),
    ("rename", 2),
    ("truncate", 2),
    ("fallocate", 2),
    ("write", 5),
    ("append", 2),
]

MAX_PROGRAM_LEN = 8
MAX_OFFSET = 2048
MAX_LEN = 1500


@dataclass
class FuzzStats:
    """Progress counters of one fuzzing campaign."""

    executions: int = 0
    corpus_size: int = 0
    coverage_points: int = 0
    crash_states: int = 0
    reports: int = 0
    clusters: int = 0
    elapsed: float = 0.0
    #: (execution index, elapsed seconds) when each new cluster was found.
    cluster_found_at: List[Tuple[int, float]] = field(default_factory=list)


class WorkloadFuzzer:
    """Coverage-guided workload generator bound to one Chipmunk instance."""

    def __init__(
        self,
        chipmunk: Chipmunk,
        seed: int = 0,
        seeds: Optional[List[Workload]] = None,
    ) -> None:
        self.chipmunk = chipmunk
        self.rng = random.Random(seed)
        self.corpus: List[List[Op]] = [list(w) for w in seeds or []]
        self.coverage = GlobalCoverage()
        self.triage = Triage()
        self.stats = FuzzStats()

    # ------------------------------------------------------------------
    # Typed generation
    # ------------------------------------------------------------------
    def _path(self, depth_ok: bool = True) -> str:
        if depth_ok and self.rng.random() < 0.4:
            return f"/{self.rng.choice(DIR_POOL)}/{self.rng.choice(NAME_POOL)}"
        return f"/{self.rng.choice(NAME_POOL)}"

    def _dir_path(self) -> str:
        return f"/{self.rng.choice(DIR_POOL)}"

    def _offset(self) -> int:
        # Mixed distribution: aligned offsets, small unaligned ones, and
        # arbitrary values (the non-8-byte-aligned writes ACE never emits).
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.choice((0, 512, 1024))
        if roll < 0.7:
            return self.rng.randrange(0, 64)
        return self.rng.randrange(0, MAX_OFFSET)

    def _length(self) -> int:
        roll = self.rng.random()
        if roll < 0.35:
            return self.rng.choice((512, 1024))
        if roll < 0.7:
            return self.rng.randrange(1, 64)
        return self.rng.randrange(1, MAX_LEN)

    def random_op(self) -> Op:
        total = sum(w for _, w in SYSCALL_WEIGHTS)
        pick = self.rng.randrange(total)
        for name, weight in SYSCALL_WEIGHTS:
            pick -= weight
            if pick < 0:
                break
        if name == "creat":
            return Op("creat", (self._path(),))
        if name == "mkdir":
            return Op("mkdir", (self._dir_path(),))
        if name == "rmdir":
            return Op("rmdir", (self._dir_path(),))
        if name == "link":
            return Op("link", (self._path(), self._path()))
        if name == "unlink":
            return Op("unlink", (self._path(),))
        if name == "rename":
            if self.rng.random() < 0.15:
                return Op("rename", (self._dir_path(), self._dir_path()))
            return Op("rename", (self._path(), self._path()))
        if name == "truncate":
            return Op("truncate", (self._path(), self._length()))
        if name == "fallocate":
            return Op("fallocate", (self._path(), self._offset(), self._length()))
        if name == "append":
            return Op("append", (self._path(), 0, self.rng.randrange(256), self._length()))
        return Op(
            "write",
            (self._path(), self._offset(), self.rng.randrange(256), self._length()),
        )

    def random_program(self) -> List[Op]:
        return [self.random_op() for _ in range(self.rng.randrange(1, MAX_PROGRAM_LEN + 1))]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mutate(self, program: List[Op]) -> List[Op]:
        program = list(program)
        for _ in range(self.rng.randrange(1, 3)):
            choice = self.rng.random()
            if choice < 0.3 and len(program) < MAX_PROGRAM_LEN:
                program.insert(self.rng.randrange(len(program) + 1), self.random_op())
            elif choice < 0.45 and len(program) > 1:
                program.pop(self.rng.randrange(len(program)))
            elif choice < 0.7:
                index = self.rng.randrange(len(program))
                program[index] = self._mutate_args(program[index])
            elif self.corpus:
                # Splice with another corpus program.
                other = self.rng.choice(self.corpus)
                cut = self.rng.randrange(len(program) + 1)
                program = (program[:cut] + list(other))[:MAX_PROGRAM_LEN]
            else:
                index = self.rng.randrange(len(program))
                program[index] = self.random_op()
        return program

    def _mutate_args(self, op: Op) -> Op:
        args = list(op.args)
        for i, value in enumerate(args):
            if isinstance(value, int) and self.rng.random() < 0.6:
                delta = self.rng.choice((-17, -8, -1, 1, 3, 8, 64, 511))
                args[i] = max(0, value + delta)
            elif isinstance(value, str) and self.rng.random() < 0.3:
                args[i] = self._path()
        return Op(op.name, tuple(args))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def next_program(self) -> List[Op]:
        if self.corpus and self.rng.random() < 0.7:
            return self.mutate(self.rng.choice(self.corpus))
        return self.random_program()

    def step(self) -> TestResult:
        """Generate, execute, and learn from one workload."""
        tel = self.chipmunk.telemetry
        program = self.next_program()
        coverage = CoverageMap()
        result = self.chipmunk.test_workload(program, coverage=coverage)
        self.stats.executions += 1
        self.stats.crash_states += result.n_crash_states
        if self.coverage.add(coverage.points()):
            self.corpus.append(program)
        before = len(self.triage.clusters)
        self.triage.add_all(result.reports)
        self.stats.reports += len(result.reports)
        if len(self.triage.clusters) > before:
            self.stats.cluster_found_at.append(
                (self.stats.executions, self.stats.elapsed)
            )
            if tel.enabled:
                for index in range(before, len(self.triage.clusters)):
                    exemplar = self.triage.clusters[index].exemplar
                    tel.event(
                        "cluster_found",
                        cluster=index,
                        workload=self.stats.executions,
                        t=self.stats.elapsed,
                        consequence=exemplar.consequence.name,
                    )
        return result

    def run(
        self,
        max_executions: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_after_clusters: Optional[int] = None,
    ) -> FuzzStats:
        """Fuzz until a budget is exhausted; returns the campaign stats.

        The stats are finalized even when the loop exits by exception
        (notably ``KeyboardInterrupt``), so an interrupted campaign still
        reports its partial progress accurately via :attr:`stats`.
        """
        start = time.perf_counter()
        try:
            while True:
                self.stats.elapsed = time.perf_counter() - start
                if max_executions is not None and self.stats.executions >= max_executions:
                    break
                if time_budget is not None and self.stats.elapsed >= time_budget:
                    break
                if (
                    stop_after_clusters is not None
                    and len(self.triage.clusters) >= stop_after_clusters
                ):
                    break
                self.step()
        finally:
            self.stats.elapsed = time.perf_counter() - start
            self.stats.corpus_size = len(self.corpus)
            self.stats.coverage_points = len(self.coverage)
            self.stats.clusters = len(self.triage.clusters)
        return self.stats

    @property
    def clusters(self) -> List[Cluster]:
        return self.triage.clusters
