"""Store-set and workload minimization by delta debugging.

A failing crash state usually drops more in-flight writes than the bug
needs: the replayer enumerates subsets bottom-up, so the *persisted* set is
small but the *dropped* set — the complement — can contain stores that are
irrelevant to the failure.  This pass runs classic ddmin (Zeller &
Hildebrandt) over the dropped write units, re-replaying shrinking candidate
sets through the real checker until no single chunk can be removed, and
returns the minimal set of unpersisted stores that still trips the same
checker outcome.

The same ddmin core also shrinks the *workload*
(:func:`minimize_workload`): re-running the full harness on op
subsequences while the consequence survives, so a seq-3 culprit workload
collapses to its essential ops.  A full harness run is far more expensive
than a checker replay, so the workload pass gets its own, much smaller,
default budget.

Every candidate costs one mount + walk + compare (or, for the workload
pass, a full record/oracle/enumerate/check run), so both passes are bounded
by a budget; when it runs out the best set found so far is returned,
flagged ``budget_exhausted``.  All replays run under a PR-1 telemetry span
(``forensics.minimize`` / ``forensics.minimize_workload``) with
``forensics.replays`` / ``forensics.workload_runs`` counters when a
telemetry object is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.forensics.replay import ReplaySession, outcome_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> replay)
    from repro.forensics.cache import ForensicsCache

#: Default maximum checker replays per minimization.
DEFAULT_BUDGET = 128

#: Default maximum full harness runs per workload minimization.  Each test
#: is a complete record/oracle/enumerate/check pipeline, so the budget is an
#: order of magnitude tighter than the store-set one.
DEFAULT_WORKLOAD_BUDGET = 24


class BudgetExhausted(Exception):
    """Internal signal: the replay budget ran out mid-pass."""


@dataclass
class MinimizationResult:
    """Outcome of one store-set minimization."""

    #: Consequence name the pass preserved.
    target: str
    #: Dropped unit indices of the original failing state.
    original_dropped: Tuple[int, ...]
    #: Minimal dropped unit set still reproducing the target consequence.
    minimal_dropped: Tuple[int, ...]
    #: Log sequence numbers of the write entries in the minimal set — the
    #: culprit stores a timeline can highlight.
    culprit_seqs: Tuple[int, ...]
    #: Checker replays spent.
    n_replays: int
    #: True when the budget ran out before the pass converged; the result
    #: is still 1-minimal only if False.
    budget_exhausted: bool
    #: False when the rebuilt original state did not reproduce the target
    #: consequence (stale report or nondeterministic workload) — the
    #: remaining fields are then meaningless.
    reproduced: bool = True

    @property
    def removed(self) -> int:
        return len(self.original_dropped) - len(self.minimal_dropped)

    def describe(self) -> str:
        if not self.reproduced:
            return f"minimization failed: {self.target} did not reproduce"
        note = " [budget exhausted]" if self.budget_exhausted else ""
        return (
            f"minimal culprit set: {len(self.minimal_dropped)} of "
            f"{len(self.original_dropped)} dropped unit(s) suffice for "
            f"{self.target} ({self.n_replays} replays{note})"
        )


def _split(items: List[int], n: int) -> List[List[int]]:
    """Partition ``items`` into ``n`` contiguous, non-empty chunks."""
    chunks: List[List[int]] = []
    start = 0
    for i in range(n):
        end = start + (len(items) - start) // (n - i)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks


def ddmin(
    items: Sequence[int],
    test: Callable[[List[int]], bool],
    budget: int = DEFAULT_BUDGET,
) -> Tuple[List[int], int, bool]:
    """Classic ddmin: a minimal sublist of ``items`` for which ``test`` holds.

    ``test`` must hold for ``items`` itself.  Returns ``(minimal, n_tests,
    budget_exhausted)``; with an exhausted budget the best set found so far
    is returned (still failing, but possibly not 1-minimal).
    """
    spent = 0

    def run(candidate: List[int]) -> bool:
        nonlocal spent
        if spent >= budget:
            raise BudgetExhausted
        spent += 1
        return test(candidate)

    current = list(items)
    try:
        if run([]):
            # Persisting everything still fails: no dropped store is needed
            # for the outcome (a synchrony/oracle-level divergence).
            return [], spent, False
        n = 2
        while len(current) >= 2:
            chunks = _split(current, n)
            reduced = False
            for chunk in chunks:
                if run(chunk):
                    current = chunk
                    n = 2
                    reduced = True
                    break
            if not reduced and n > 2:
                for chunk in chunks:
                    complement = [i for i in current if i not in set(chunk)]
                    if run(complement):
                        current = complement
                        n = max(n - 1, 2)
                        reduced = True
                        break
            if not reduced:
                if n >= len(current):
                    break
                n = min(len(current), 2 * n)
    except BudgetExhausted:
        return current, spent, True
    return current, spent, False


def minimize_dropped_set(
    session: ReplaySession,
    target: str,
    budget: int = DEFAULT_BUDGET,
    telemetry=None,
    cache: Optional["ForensicsCache"] = None,
) -> MinimizationResult:
    """Shrink the dropped unit set of a session's crash state.

    ``target`` is the consequence name (e.g. ``"UNREADABLE"``) to preserve:
    a candidate set of dropped units reproduces when the checker's verdict
    for the corresponding state still contains it.  With a ``cache``, every
    verdict goes through its persisted-subset memo, so minimizing K reports
    that share a crash point re-uses each other's replays.
    """
    tel = telemetry if telemetry is not None and telemetry.enabled else None
    all_units = list(range(len(session.region.units)))
    dropped = list(session.dropped_units)

    def test(candidate_dropped: List[int]) -> bool:
        if tel is not None:
            tel.count("forensics.replays")
        persisted = [i for i in all_units if i not in set(candidate_dropped)]
        if cache is not None:
            return target in cache.check_positions(session, persisted)
        return target in outcome_of(session.check_units(persisted))

    def run() -> MinimizationResult:
        if not test(dropped):
            return MinimizationResult(
                target=target,
                original_dropped=tuple(dropped),
                minimal_dropped=tuple(dropped),
                culprit_seqs=(),
                n_replays=1,
                budget_exhausted=False,
                reproduced=False,
            )
        minimal, spent, exhausted = ddmin(dropped, test, budget=budget)
        seqs: List[int] = []
        stores = [e for e in session.prov.entries
                  if e.kind in ("store", "flush")]
        # Map minimal units -> in-flight positions -> provenance seqs.  The
        # crash region's in-flight stores are exactly the last
        # ``len(inflight)`` store entries of the provenance.
        region_stores = stores[len(stores) - len(session.region.inflight):]
        for unit_index in minimal:
            for pos in session.region.unit_positions[unit_index]:
                seqs.append(region_stores[pos].seq)
        return MinimizationResult(
            target=target,
            original_dropped=tuple(dropped),
            minimal_dropped=tuple(minimal),
            culprit_seqs=tuple(sorted(seqs)),
            n_replays=spent + 1,
            budget_exhausted=exhausted,
        )

    if tel is not None:
        with tel.span("forensics.minimize", target=target,
                      dropped=len(dropped), budget=budget):
            result = run()
        tel.count("forensics.minimizations")
        return result
    return run()


@dataclass
class WorkloadMinimizationResult:
    """Outcome of one workload (op-sequence) minimization."""

    #: Consequence name the pass preserved.
    target: str
    #: Descriptions of the full original workload, in program order.
    original_ops: Tuple[str, ...]
    #: Descriptions of the minimal subsequence still reproducing the target.
    minimal_ops: Tuple[str, ...]
    #: Indices into the original workload of the minimal subsequence.
    minimal_indices: Tuple[int, ...]
    #: Full harness runs spent.
    n_runs: int
    #: True when the budget ran out before the pass converged.
    budget_exhausted: bool
    #: False when even the full workload no longer produces the target
    #: consequence — the remaining fields are then meaningless.
    reproduced: bool = True

    @property
    def removed(self) -> int:
        return len(self.original_ops) - len(self.minimal_ops)

    def describe(self) -> str:
        if not self.reproduced:
            return f"workload minimization failed: {self.target} did not reproduce"
        note = " [budget exhausted]" if self.budget_exhausted else ""
        return (
            f"minimal workload: {len(self.minimal_ops)} of "
            f"{len(self.original_ops)} op(s) suffice for {self.target} "
            f"({self.n_runs} runs{note})"
        )

    def headline(self) -> str:
        """One timeline-header line naming the essential ops."""
        if not self.reproduced:
            return f"minimal workload: (not reproduced for {self.target})"
        ops = "; ".join(self.minimal_ops) or "<empty>"
        return (
            f"minimal workload: {ops} "
            f"({len(self.minimal_ops)} of {len(self.original_ops)} op(s))"
        )


def minimize_workload(
    prov,
    target: str,
    budget: int = DEFAULT_WORKLOAD_BUDGET,
    telemetry=None,
) -> WorkloadMinimizationResult:
    """Shrink a provenance's workload to the ops essential for ``target``.

    Runs ddmin over the op *subsequence* lattice: each candidate re-runs the
    full harness pipeline (record, oracle, enumerate, check) on the
    subsequence — with the original setup phase intact — and reproduces when
    any resulting crash state files the target consequence.  Unlike the
    store-set pass this explores different recordings, so it cannot share
    the replay session or the verdict cache; each test costs a full
    pipeline run and the default budget is correspondingly small.
    """
    from repro.core.harness import Chipmunk
    from repro.forensics.provenance import ops_from_tuples
    from repro.fs.bugs import BugConfig

    tel = telemetry if telemetry is not None and telemetry.enabled else None
    workload = ops_from_tuples(prov.workload)
    setup = ops_from_tuples(prov.setup)
    bugs = BugConfig(frozenset(prov.bug_ids))
    # Candidates need verdicts, not new provenance.
    config = replace(prov.config, forensics=False)

    def test(indices: List[int]) -> bool:
        if tel is not None:
            tel.count("forensics.workload_runs")
        candidate = [workload[i] for i in indices]
        chipmunk = Chipmunk(prov.fs_name, bugs=bugs, config=config)
        result = chipmunk.test_workload(candidate, setup=setup)
        return any(r.consequence.name == target for r in result.reports)

    indices = list(range(len(workload)))
    descriptions = tuple(op.describe() for op in workload)

    def run() -> WorkloadMinimizationResult:
        if not test(indices):
            return WorkloadMinimizationResult(
                target=target,
                original_ops=descriptions,
                minimal_ops=descriptions,
                minimal_indices=tuple(indices),
                n_runs=1,
                budget_exhausted=False,
                reproduced=False,
            )
        minimal, spent, exhausted = ddmin(indices, test, budget=budget)
        minimal = sorted(minimal)
        return WorkloadMinimizationResult(
            target=target,
            original_ops=descriptions,
            minimal_ops=tuple(descriptions[i] for i in minimal),
            minimal_indices=tuple(minimal),
            n_runs=spent + 1,
            budget_exhausted=exhausted,
        )

    if tel is not None:
        with tel.span("forensics.minimize_workload", target=target,
                      ops=len(workload), budget=budget):
            result = run()
        tel.count("forensics.workload_minimizations")
        return result
    return run()
