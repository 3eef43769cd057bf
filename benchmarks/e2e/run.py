"""campaign_e2e: the whole-campaign benchmark.

Two ways in, one measurement underneath (a *pass*: one workload's campaign in
a fresh child interpreter, see ``pass_child.py``):

``python benchmarks/e2e/run.py [--seed S] [--repeats N] [--smoke | --stability]``
    runs all five workloads (interleaved inside each repeat), one traced pass
    each, prints every metric by name with its unit, checks the known
    answers, writes ``out/latest.json`` and appends to ``ledger.jsonl``.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    the BENCHMARK.json contract: one workload, timed passes until ``S``
    seconds of campaign time are measured, and one JSON result as the last
    line of stdout (end-to-end metrics with ``--trace 0``, per-layer metrics
    with ``--trace 1``).

README.md in this directory has the metric glossary and the run protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from metrics import (  # noqa: E402
    applies, count_keys, end_to_end_metrics, load_manifest, summarize, worse_by,
)
from workloads import (  # noqa: E402
    BY_NAME, WORKLOADS, Workload, allowed_failures, check_clusters,
)

OUT_DIR = os.path.join(HERE, "out")
LEDGER = os.path.join(HERE, "ledger.jsonl")
#: A pass takes ~10 s; one that has not ended by now is hung.
PASS_TIMEOUT_S = 170
SMOKE_SCALE = 0.1
#: Contract mode: two passes further apart than this get a third.
TIE_BREAK = 0.05


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(workload: Workload, kind: str, seed: int, scale: float) -> dict:
    """One pass in a fresh interpreter; its own session, so a hung pass is
    killed together with the engine workers it forked."""
    request = {
        "workload": workload.name, "kind": kind, "seed": seed, "scale": scale,
        "out_dir": OUT_DIR, "spawned": time.time(),
    }
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pass_child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"{kind} pass of {workload.name} exited {proc.returncode}"
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    if kind != "setup":
        log(f"  {workload.name:<20} {kind:<9} {result['wall_s']:.2f}s "
            f"(setup {result['setup_s']:.2f}s)")
    return result


class Collected:
    """Everything measured for one workload in one invocation."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.timed: List[dict] = []
        self.traced: Optional[dict] = None
        self.setup_s: List[float] = []

    def add(self, result: dict) -> None:
        self.setup_s.append(result["setup_s"])
        if result["kind"] == "timed":
            self.timed.append(result)
        elif result["kind"] == "traced":
            self.traced = result

    @property
    def passes(self) -> List[dict]:
        return self.timed + ([self.traced] if self.traced else [])

    def samples(self) -> Dict[str, List[float]]:
        """Per-pass values of every end-to-end metric (timed passes only)."""
        out = {
            "workloads_per_s":
                [p["counts"]["workloads"] / p["wall_s"] for p in self.timed],
            "cpu_s": [p["cpu_s"] for p in self.timed],
            "peak_rss_mb": [p["peak_rss_mb"] for p in self.timed],
            "setup_s": list(self.setup_s),
            "failed_share": [p["failed"] / p["attempted"] for p in self.timed],
        }
        last = [p["time_to_last_cluster_s"] for p in self.timed]
        if all(v is not None for v in last):
            out["time_to_last_cluster_s"] = last
        return out

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics of the traced pass, plus the two that need the
        untraced passes next to it."""
        layers = dict(self.traced["layers"])
        wall = statistics.median(p["wall_s"] for p in self.timed)
        layers["trace.overhead_ratio"] = self.traced["wall_s"] / wall
        last = [p["time_to_last_cluster_s"] for p in self.timed]
        if None not in last:
            layers["time_to_last_cluster_s"] = statistics.median(last)
        # In the manifest's order; a metric this pass could not measure (an
        # unresolved point, a layer the workload never enters) reads 0.
        return {m["name"]: layers.get(m["name"], 0.0)
                for m in load_manifest()["per_layer"]}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def problems_of(collected: Collected, reference: Optional[dict]) -> List[str]:
    """Campaign-level mismatches against the known answers (empty = correct)."""
    from repro.obs.diff import diff_sides, load_side

    workload = collected.workload
    expected = workload.expected()
    problems: List[str] = []
    for p in collected.passes:
        for problem in check_clusters(expected, p["consequences"]):
            problems.append(f"{p['kind']} pass: {problem}; clusters were:")
            problems.extend("    " + line for line in p["cluster_lines"])
        allowed = allowed_failures(expected)
        if p["failed"] > allowed:
            problems.append(
                f"{p['kind']} pass: {p['failed']} of {p['attempted']} workloads "
                f"failed, the known answer allows {allowed}"
            )
            problems.extend("    " + e.strip().splitlines()[-1]
                            for e in p["errors"])
        if workload.engine:
            diff = diff_sides(load_side(reference["bugs_json"]),
                              load_side(p["bugs_json"]), strict=True)
            if diff.divergent:
                problems.append(
                    f"{p['kind']} pass: bugs.json differs from the serial "
                    f"reference ({len(diff.appeared)} appeared, "
                    f"{len(diff.disappeared)} disappeared, strict_equal="
                    f"{diff.strict_equal})"
                )
                for label, clusters in (("appeared", diff.appeared),
                                        ("disappeared", diff.disappeared)):
                    problems.extend(
                        f"    {label}: {c.exemplar.consequence.name}: "
                        f"{c.exemplar.detail[:120]}" for c in clusters
                    )
    keys = count_keys(counts_of(collected))
    seen = {tuple(p["counts"][k] for k in keys) for p in collected.passes}
    if len(seen) > 1:
        problems.append(f"deterministic counts {keys} differ between passes: "
                        f"{sorted(seen)}")
    return problems


def counts_of(collected: Collected) -> dict:
    counts = dict(collected.passes[0]["counts"])
    checked = [p["counts"]["states_checked"] for p in collected.passes]
    if collected.workload.shared_memo:
        counts["states_checked"] = statistics.median(checked)
        counts["states_checked_range"] = [min(checked), max(checked)]
    return counts


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def document(collected: Collected, problems: List[str]) -> dict:
    """One workload's entry of ``latest.json``."""
    workload = collected.workload
    samples = collected.samples()
    end_to_end = {}
    for metric in end_to_end_metrics():
        name = metric["name"]
        if name in samples and applies(metric, workload.name):
            end_to_end[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "samples": samples[name],
                **summarize(samples[name]),
            }
    doc = {
        "why": workload.why, "end_to_end": end_to_end,
        "counts": counts_of(collected),
        "correct": not problems, "problems": problems,
    }
    if collected.traced:
        units = {m["name"]: m["unit"] for m in load_manifest()["per_layer"]}
        doc["per_layer"] = {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in collected.layers().items()
        }
    return doc


def print_workload(name: str, doc: dict) -> None:
    print(f"\n== {name} ==  {doc['why']}")
    counts = doc["counts"]
    print("  counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  {'end-to-end metric':<28}{'unit':<8}{'median':>12}{'min':>12}"
          f"{'max':>12}{'n':>4}  bound")
    for metric, row in doc["end_to_end"].items():
        bound = ("may not rise" if row["bound"] == 0
                 else f"{'+' if row['better'] == 'lower' else '-'}"
                      f"{row['bound'] * 100:.0f}%")
        print(f"  {metric:<28}{row['unit']:<8}{row['median']:>12.4f}"
              f"{row['min']:>12.4f}{row['max']:>12.4f}{row['n']:>4}  {bound}")
    if "per_layer" in doc:
        print(f"  {'per-layer metric (traced pass)':<40}{'unit':<8}{'value':>14}")
        for metric, row in doc["per_layer"].items():
            print(f"  {metric:<40}{row['unit']:<8}{row['value']:>14.4f}")
    for problem in doc["problems"]:
        print(f"  MISMATCH: {problem}")
    print(f"  correct: {doc['correct']}")


def measure_set(seed: int, repeats: int, scale: float, traced: bool) -> dict:
    """All five workloads: one reference pass, ``repeats`` interleaved timed
    passes each, then (optionally) one traced pass each."""
    os.makedirs(OUT_DIR, exist_ok=True)
    collected = {w.name: Collected(w) for w in WORKLOADS}
    engine = next(w for w in WORKLOADS if w.engine)
    log("reference pass (serial, untimed) for the cross-path check")
    reference = run_pass(engine, "reference", 0, scale)
    host = reference["host"]
    for repeat in range(1, repeats + 1):
        log(f"repeat {repeat}/{repeats}")
        for workload in WORKLOADS:
            collected[workload.name].add(run_pass(workload, "timed", seed, scale))
    if traced:
        log("traced passes")
        for workload in WORKLOADS:
            collected[workload.name].add(run_pass(workload, "traced", seed, scale))
    docs = {
        name: document(c, problems_of(c, reference))
        for name, c in collected.items()
    }
    return {
        "benchmark": "campaign_e2e", "t": round(time.time(), 3), "seed": seed,
        "repeats": repeats, "scale": scale, "host": host, "workloads": docs,
    }


def append_ledger(result: dict) -> None:
    """One ``campaign_e2e.<workload>`` record per workload: the end-to-end
    medians only, because ``repro perf`` trends six columns per bench."""
    from repro.obs.history import append_record

    for name, doc in result["workloads"].items():
        append_record(
            LEDGER, f"campaign_e2e.{name}",
            {m: row["median"] for m, row in doc["end_to_end"].items()},
            config={"seed": result["seed"], "repeats": result["repeats"],
                    "workloads": doc["counts"]["workloads"],
                    **{k: v for k, v in result["host"].items() if k != "python"}},
        )


def full_main(args) -> int:
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = 1 if args.smoke else args.repeats
    result = measure_set(args.seed, repeats, scale, traced=True)
    print("campaign_e2e  seed={seed} repeats={repeats} scale={scale}".format(**result)
          + "  host: " + ", ".join(f"{k}={v}" for k, v in result["host"].items()))
    for name, doc in result["workloads"].items():
        print_workload(name, doc)
    out = os.path.join(OUT_DIR, "smoke.json" if args.smoke else "latest.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if not args.smoke:
        append_ledger(result)
    print(f"\nwrote {os.path.relpath(out)}")
    return 0 if all(d["correct"] for d in result["workloads"].values()) else 1


def stability_main(args) -> int:
    """Two full sets of the same code must agree within the bounds."""
    first = measure_set(args.seed, args.repeats, 1.0, traced=False)
    second = measure_set(args.seed, args.repeats, 1.0, traced=False)
    bad = 0
    print(f"{'workload':<20}{'metric':<26}{'first':>12}{'second':>12}"
          f"{'differs':>9}{'bound':>7}  verdict")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, row in a["end_to_end"].items():
            other = b["end_to_end"][metric]
            differs = abs(worse_by(row, row["median"], other["median"]))
            ok = differs <= row["bound"]
            bad += not ok
            print(f"{name:<20}{metric:<26}{row['median']:>12.4f}"
                  f"{other['median']:>12.4f}{differs * 100:>8.1f}%"
                  f"{row['bound'] * 100:>6.0f}%  {'ok' if ok else 'UNSTABLE'}")
        same = all(a["counts"][k] == b["counts"][k]
                   for k in count_keys(a["counts"]))
        bad += not (same and a["correct"] and b["correct"])
        print(f"{name:<20}{'deterministic counts':<26}"
              f"{'identical' if same else 'DIFFER':>24}")
    with open(os.path.join(OUT_DIR, "stability.json"), "w", encoding="utf-8") as fh:
        json.dump({"first": first, "second": second}, fh, indent=1)
    return 1 if bad else 0


def contract_main(args) -> int:
    """One workload, one JSON result line: the BENCHMARK.json contract."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = BY_NAME[args.workload]
    collected = Collected(workload)
    reference = None
    if workload.engine:
        reference = run_pass(workload, "reference", 0, 1.0)
        collected.setup_s.append(reference["setup_s"])
    manifest = load_manifest()
    if args.trace:
        collected.add(run_pass(workload, "timed", args.seed, 1.0))
        collected.add(run_pass(workload, "traced", args.seed, 1.0))
        measured = collected.layers()
        declared = manifest["per_layer"]
    else:
        # Set-up is a tenth of a pass: sample it twice more, so the median
        # setup_s rests on at least three set-ups.
        for _ in range(2):
            collected.setup_s.append(
                run_pass(workload, "setup", args.seed, 1.0)["setup_s"])
        measured_s = 0.0
        while measured_s < args.seconds:
            collected.add(run_pass(workload, "timed", args.seed, 1.0))
            measured_s += collected.timed[-1]["wall_s"]
        # The median of two passes is their mean, and one burst of host noise
        # (seen: a 9 s pass taking 13 s) moves it; when two passes disagree by
        # more than TIE_BREAK, a third makes the median the middle one.
        walls = [p["wall_s"] for p in collected.timed]
        if len(walls) == 2 and max(walls) > min(walls) * (1 + TIE_BREAK):
            collected.add(run_pass(workload, "timed", args.seed, 1.0))
        measured = {name: statistics.median(values)
                    for name, values in collected.samples().items()}
        declared = manifest["end_to_end"]
    problems = problems_of(collected, reference)
    for problem in problems:
        log("MISMATCH: " + problem)
    # Per campaign, not summed over passes: the number of passes follows the
    # host's speed, and "more workloads failed" must not.
    attempted = collected.passes[0]["attempted"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        # A campaign-level mismatch fails every workload of the run.
        "failed": attempted if problems
                  else max(p["failed"] for p in collected.passes),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the canonical prefix slices; S>0 = a seeded "
                             "sample of the seq-2 space (serial workloads)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per workload (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="one-tenth slices, 1 repeat, same checks")
    parser.add_argument("--stability", action="store_true",
                        help="run two full sets; fail if medians disagree")
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="contract mode: run this workload only")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="contract mode: campaign seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 = report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload:
        return contract_main(args)
    if args.stability:
        return stability_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
