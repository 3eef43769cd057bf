"""Ablation: the Vinter-style recovery-read heuristic (section 6.2).

The paper suggests Chipmunk "could incorporate this heuristic by recording
PM read functions".  This bench does so and measures its value: for each
mid-syscall bug, how many crash states does a campaign check before the
first report, with plain subset ordering vs recovery-read-ranked ordering?
The heuristic front-loads states whose in-flight writes recovery actually
observes, so it should reach the bug in no more states — usually fewer.
"""

from conftest import print_table, run_once

from repro.analysis.bugdb import TRIGGERS
from repro.core.checker import ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.oracle import run_oracle
from repro.core.recovery_reads import rank_units, recovery_read_set
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BUG_REGISTRY, BugConfig

BUGS_TO_TEST = [3, 4, 5, 6, 7, 10, 13, 19, 22]


def _states_to_first_report(fs_name, bug_id, use_heuristic):
    bugs = BugConfig.only(bug_id)
    cm = Chipmunk(fs_name, bugs=bugs, config=ChipmunkConfig(cap=2))
    best = None
    for workload in TRIGGERS[bug_id]:
        base, log, _ = cm.record(workload)
        oracle = run_oracle(cm.fs_class, workload, cm.config.device_size, bugs=bugs)
        checker = ConsistencyChecker(cm.fs_class, oracle, "ablation", bugs=bugs)
        ranker = None
        if use_heuristic:
            read_lines = recovery_read_set(cm.fs_class, base, bugs=bugs)
            ranker = lambda units: rank_units(units, read_lines)  # noqa: E731
        checked = 0
        for state in enumerate_crash_states(base, log, cap=2, unit_ranker=ranker):
            checked += 1
            if checker.check(state):
                best = checked if best is None else min(best, checked)
                break
        if best is not None:
            break
    return best


def _run():
    rows = []
    for bug_id in BUGS_TO_TEST:
        fs_name = BUG_REGISTRY[bug_id].filesystems[0]
        plain = _states_to_first_report(fs_name, bug_id, use_heuristic=False)
        ranked = _states_to_first_report(fs_name, bug_id, use_heuristic=True)
        rows.append((bug_id, fs_name, plain, ranked))
    return rows


def test_vinter_heuristic_ablation(benchmark):
    rows = run_once(benchmark, _run)
    print_table(
        "Recovery-read heuristic ablation — crash states checked before the "
        "first report",
        ["bug", "fs", "plain ordering", "recovery-read ranked"],
        rows,
    )
    # The heuristic must never lose a detection, and should help on average.
    assert all(r[2] is not None and r[3] is not None for r in rows)
    plain_total = sum(r[2] for r in rows)
    ranked_total = sum(r[3] for r in rows)
    print(f"total states to first report: plain={plain_total}, ranked={ranked_total}")
    assert ranked_total <= plain_total * 1.2
