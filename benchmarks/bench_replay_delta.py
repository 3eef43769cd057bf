"""Delta crash states vs the eager baseline: states/sec, memo hit-rate,
peak allocation.

The eager baseline reproduces the pre-delta pipeline's costs: every crash
state is materialized to flat ``bytes`` (an O(device) copy), deduped by a
whole-image sha1, and checked as a per-state copy through the one check
path, ``CrashImage(fence_base(flat))`` — a fresh buffer and mount device
per state.  The delta path is what the harness runs today: shared fence bases +
sparse overlays, content-addressed memoization, and a copy-on-write mount
view — a clean check of a one-replay state touches kilobytes regardless of
device size.

Both paths check the same seq-2 workload across device sizes and must
produce identical report lists; the acceptance gate is >= 3x states/sec at
16 MiB.  Results land in ``BENCH_replay.json``; one history record is
appended to the ledger.

Runs two ways::

    pytest benchmarks/bench_replay_delta.py --benchmark-only -s   # full
    python benchmarks/bench_replay_delta.py --smoke               # CI gate
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import tracemalloc

from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.replayer import enumerate_crash_states
from repro.pm.image import CrashImage, fence_base
from repro.workloads import ace
from repro.workloads.ops import describe_workload

KIB = 1024
MIB = 1024 * KIB

#: Full sweep; the 16 MiB point is the acceptance gate.
SIZES = (256 * KIB, 1 * MIB, 16 * MIB)
SMOKE_SIZES = (256 * KIB,)

#: seq-2 ace workload: ``creat('/foo'); write('/bar', 0, 66, 1024)`` —
#: metadata stores plus a coalesced file-data write.
SEQ2 = ace.workload_at(2, 9)

MIN_SPEEDUP = 3.0


def build_pipeline(device_size):
    """Record the workload once and set up a checker (untimed)."""
    cm = Chipmunk("nova", config=ChipmunkConfig(device_size=device_size))
    base, log, oracle = cm.record(SEQ2.core, setup=SEQ2.setup)
    checker = ConsistencyChecker(
        cm.fs_class, oracle, describe_workload(SEQ2.core), bugs=cm.bugs
    )
    return cm, base, log, checker


def run_eager(cm, base, log, checker):
    """The seed pipeline: flat-bytes states, sha1 dedup, per-state device."""
    seen = set()
    reports = []
    n_states = 0
    for state in enumerate_crash_states(base, log, cap=cm.config.cap):
        n_states += 1
        flat = state.image.materialize()
        key = (hashlib.sha1(flat).digest(), state.syscall, state.mid_syscall,
               state.after_syscall)
        if key in seen:
            continue
        seen.add(key)
        copy = dataclasses.replace(state, image=CrashImage(fence_base(flat)))
        reports.extend(checker.check(copy))
    return n_states, reports


def run_delta(cm, base, log, checker):
    """Today's pipeline: CrashImage states through the memo entry point."""
    memo = CheckMemo(checker)
    n_states = 0
    reports = []
    for state in enumerate_crash_states(base, log, cap=cm.config.cap):
        n_states += 1
        found = memo.check(state)
        if found is not None:
            reports.extend(found)
    return n_states, reports, memo


def _best_seconds(func, rounds):
    func()  # untimed warmup: caches, buffer pools, branch predictors
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_alloc(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_size(device_size, rounds=5):
    """Benchmark one device size; returns the BENCH_replay.json entry."""
    cm, base, log, checker = build_pipeline(device_size)

    # Correctness first: both paths must report the same bugs, and the
    # delta images must materialize to the eager flat bytes.
    n_eager, eager_reports = run_eager(cm, base, log, checker)
    n_delta, delta_reports, memo = run_delta(cm, base, log, checker)
    assert n_eager == n_delta, (n_eager, n_delta)
    assert eager_reports == delta_reports, "delta path changed the bug set"
    assert memo.hits + memo.misses == n_delta, "memo lost a state"
    assert memo.checked == memo.misses, "memo checked a state it hit"

    # Time the delta path *before* the eager timing and tracemalloc
    # passes: those churn dozens of full-device flats through the
    # allocator, and the resulting page-fault noise would otherwise be
    # charged to the delta path.
    delta_s = _best_seconds(lambda: run_delta(cm, base, log, checker), rounds)
    eager_s = _best_seconds(lambda: run_eager(cm, base, log, checker), rounds)
    eager_peak = _peak_alloc(lambda: run_eager(cm, base, log, checker))
    delta_peak = _peak_alloc(lambda: run_delta(cm, base, log, checker))

    hit_rate = memo.hits / (memo.hits + memo.misses) if n_delta else 0.0
    entry = {
        "device_size": device_size,
        "n_states": n_delta,
        "eager": {
            "seconds": eager_s,
            "states_per_sec": n_eager / eager_s,
            "peak_alloc_bytes": eager_peak,
        },
        "delta": {
            "seconds": delta_s,
            "states_per_sec": n_delta / delta_s,
            "peak_alloc_bytes": delta_peak,
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
            "memo_hit_rate": hit_rate,
        },
        "speedup": eager_s / delta_s,
    }
    return entry


def run_bench(sizes, rounds=5):
    from repro.obs.history import host_fingerprint

    results = [measure_size(size, rounds=rounds) for size in sizes]
    return {
        "workload": describe_workload(SEQ2.core),
        "fs": "nova",
        "host": host_fingerprint(),
        "memo_hit_rate": results[-1]["delta"]["memo_hit_rate"],
        "results": results,
    }


def record_history(doc, ledger, smoke=False):
    """Append this run's gate-size metrics to the benchmark history ledger."""
    from repro.obs.history import append_record

    gate = doc["results"][-1]
    metrics = {
        "n_states": gate["n_states"],
        "eager": gate["eager"],
        "delta": gate["delta"],
        "speedup": gate["speedup"],
    }
    config = {
        "device_size": gate["device_size"],
        "smoke": smoke,
        "workload": doc["workload"],
    }
    append_record(ledger, "replay_delta", metrics, config=config)
    print(f"appended replay_delta record to {ledger}")


def render(doc):
    rows = []
    for r in doc["results"]:
        rows.append((
            f"{r['device_size'] // KIB} KiB",
            r["n_states"],
            f"{r['eager']['states_per_sec']:.0f}",
            f"{r['delta']['states_per_sec']:.0f}",
            f"{r['speedup']:.1f}x",
            f"{r['delta']['memo_hit_rate'] * 100:.0f}%",
            f"{r['eager']['peak_alloc_bytes'] // KIB} KiB",
            f"{r['delta']['peak_alloc_bytes'] // KIB} KiB",
        ))
    try:
        from conftest import print_table
    except ImportError:  # running as a script from the repo root
        sys.path.insert(0, "benchmarks")
        from conftest import print_table
    print_table(
        f"Delta crash states vs eager baseline ({doc['workload']})",
        ("device", "states", "eager st/s", "delta st/s", "speedup",
         "memo hits", "eager peak", "delta peak"),
        rows,
    )


def write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


def test_bench_replay_delta(benchmark):
    """Full sweep under pytest-benchmark; gates the 16 MiB speedup."""
    from conftest import run_once

    doc = run_once(benchmark, lambda: run_bench(SIZES))
    render(doc)
    write_json(doc, "BENCH_replay.json")
    record_history(doc, "BENCH_history.jsonl")
    gate = doc["results"][-1]
    assert gate["device_size"] == 16 * MIB
    assert gate["speedup"] >= MIN_SPEEDUP, (
        f"delta path only {gate['speedup']:.1f}x over eager at 16 MiB "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert gate["delta"]["memo_hit_rate"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small device only, one round (CI gate)")
    parser.add_argument("--out", default="BENCH_replay.json",
                        help="output JSON path")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="benchmark history ledger to append to "
                        "(see `python -m repro perf`)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the history-ledger append")
    args = parser.parse_args(argv)
    if args.smoke:
        doc = run_bench(SMOKE_SIZES, rounds=1)
    else:
        doc = run_bench(SIZES)
    render(doc)
    write_json(doc, args.out)
    if not args.no_history:
        record_history(doc, args.history, smoke=args.smoke)
    if not args.smoke:
        gate = doc["results"][-1]
        if gate["speedup"] < MIN_SPEEDUP:
            print(f"FAIL: speedup {gate['speedup']:.1f}x < {MIN_SPEEDUP}x",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
