"""One pass of one workload, run in a fresh interpreter by ``run.py``.

A pass is set-up (imports, FS registry, the ACE list, the seq-1 workloads run
once untimed as warm-up) followed by the timed campaign.  The request arrives
as one JSON argument, the result leaves as the last line of stdout.

Kinds: ``timed`` (end-to-end numbers), ``traced`` (per-layer numbers, spans
installed after warm-up), ``setup`` (stop after set-up: one more ``setup_s``
sample), ``reference`` (serial pass over an engine workload's slice; leaves
its exemplar list for the cross-path check).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from repro.analysis.reporting import CampaignSummary  # noqa: E402
from repro.campaign import CampaignEngine, EngineConfig  # noqa: E402
from spans import ENGINE_POINTS, POINTS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, ENGINE_WORKERS, materialise, slice_counts,
)

MB = 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    """User+system CPU of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_serial(spec, items, zero_reports: bool, tracer) -> dict:
    """The in-process loop ``repro ace`` runs, folded into a summary."""
    chipmunk = spec.build_chipmunk()
    summary = CampaignSummary(fs_name=spec.fs, generator="ace")
    test, fold = chipmunk.test_workload, summary.add_result
    if tracer is not None:
        chipmunk.fs_class = tracer.traced_fs_class(chipmunk.fs_class)
        test = tracer.wrap("core.workload", test)
        fold = tracer.wrap("core.triage", fold)
    finished, errors = [], []
    failed = log_entries = fences = shared_errors = 0
    cpu0, t0 = cpu_seconds(), perf_counter()
    for index, workload in enumerate(items):
        if tracer is not None:
            tracer.workload = index
        try:
            result = test(workload.core, setup=workload.setup)
        except Exception:  # noqa: BLE001 — a raising workload is a failed one
            failed += 1
            errors.append(traceback.format_exc(limit=4))
            continue
        fold(result)
        finished.append(perf_counter())
        if zero_reports and result.reports:
            failed += 1
        log_entries += result.log_length
        fences += result.n_fences
        shared_errors += result.memo_shared_errors
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    last = max(summary.first_seen.values(), default=0)
    return {
        "wall_s": wall, "cpu_s": cpu, "t0": t0, "summary": summary,
        "attempted": len(items), "failed": failed, "errors": errors[:3],
        "time_to_last_cluster_s": finished[last - 1] - t0 if last else None,
        "log_entries": log_entries, "fences": fences,
        "shared_errors": shared_errors,
    }


def run_engine(spec, campaign_dir: str, attempted: int, tracer) -> dict:
    """``repro campaign FS`` with default flags, into ``campaign_dir``."""
    shutil.rmtree(campaign_dir, ignore_errors=True)
    run = CampaignEngine(
        spec, campaign_dir, EngineConfig(workers=ENGINE_WORKERS)
    ).run
    if tracer is not None:
        run = tracer.wrap("campaign.run", run)
    cpu0, t0 = cpu_seconds(), perf_counter()
    merged = run()
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    summary = merged.summary
    return {
        "wall_s": wall, "cpu_s": cpu, "t0": t0, "summary": summary,
        "attempted": attempted,
        # Quarantined or lost items never reach the summary.
        "failed": attempted - summary.workloads_tested,
        "errors": [str(q.get("error")) for q in merged.quarantined[:3]],
        "time_to_last_cluster_s": None, "merged": merged,
        "campaign_dir": campaign_dir,
    }


def engine_metrics(run: dict, tracer) -> dict:
    """The ``campaign`` layer, and the worker-side numbers the parent never
    sees: those come from the campaign's own journal, not from spans."""
    campaign_dir, wall = run["campaign_dir"], run["wall_s"]
    journal = os.path.join(campaign_dir, "journal.jsonl")
    records = busy = log_entries = fences = shared_errors = 0
    with open(journal, encoding="utf-8") as fh:
        for line in fh:
            records += 1
            for result in json.loads(line).get("results", ()):
                busy += result["elapsed"]
                log_entries += result["log_length"]
                fences += result["n_fences"]
                shared_errors += result["memo_shared_errors"]
    engine = run["merged"].engine
    server = engine.get("shared_memo") or {}
    server_lookups = server.get("hits", 0) + server.get("misses", 0)
    return {
        "core.record.log_entries": log_entries,
        "core.record.fences": fences,
        "memo.shared_errors": shared_errors,
        "memo.server_entries": server.get("entries", 0),
        "memo.server_lookup_hit_ratio":
            server.get("hits", 0) / server_lookups if server_lookups else 0.0,
        "campaign.run_s": wall,
        "campaign.journal.records": records,
        "campaign.journal_bytes": os.path.getsize(journal),
        "campaign.merge_s": sum(tracer.durations("campaign.merge")),
        "campaign.bugs_json_bytes":
            os.path.getsize(os.path.join(campaign_dir, "bugs.json")),
        "campaign.worker_busy_s": busy,
        "campaign.overhead_s": wall - busy / ENGINE_WORKERS,
        "campaign.parallel_efficiency": busy / (ENGINE_WORKERS * wall),
        "campaign.steals": engine.get("steals", 0),
        "campaign.requeues": engine.get("requeues", 0),
        "campaign.quarantined": engine.get("items_quarantined", 0),
    }


def layer_metrics(run: dict, tracer, n_items: int, rss: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json this pass can measure."""
    seconds, counts = tracer.totals()
    summary = run["summary"]
    clusters = summary.clusters
    lookups = summary.memo_hits + summary.memo_misses
    check_s = sum(tracer.durations("core.check"))
    checked = summary.unique_states
    per_workload = sorted(d * 1e3 for d in tracer.durations("core.workload"))
    out = {
        "workloads.generate_s": seconds.get("workloads.generate", 0.0),
        "workloads.count": n_items,
        "core.record.log_entries": run.get("log_entries", 0),
        "core.record.fences": run.get("fences", 0),
        "core.enumerate.states": summary.crash_states,
        "core.check_s": check_s,
        "core.check.self_s": seconds.get("core.check", 0.0),
        "core.check.checked_states": checked,
        "core.check.us_per_checked_state":
            check_s / checked * 1e6 if checked else 0.0,
        "core.check.checked_ratio":
            checked / summary.crash_states if summary.crash_states else 0.0,
        "core.triage.reports": sum(c.count for c in clusters),
        "core.triage.clusters": len(clusters),
        "core.truncated_workloads": summary.truncated_workloads,
        "core.other_s": seconds.get("core.workload", 0.0),
        "core.workload_ms_p50":
            statistics.median(per_workload) if per_workload else 0.0,
        "core.workload_ms_p99":
            per_workload[int(len(per_workload) * 0.99)] if per_workload else 0.0,
        "fs.mount.calls": counts.get("fs.mount", 0),
        "fs.mount.failed": tracer.failures.get("fs.mount", 0),
        "fs.walk.calls": counts.get("fs.walk", 0),
        "fs.usability.ops": counts.get("fs.usability", 0),
        "memo.hits": summary.memo_hits,
        "memo.misses": summary.memo_misses,
        "memo.hit_ratio": summary.memo_hits / lookups if lookups else 0.0,
        "memo.shared_hits": summary.memo_shared_hits,
        "memo.shared_errors": run.get("shared_errors", 0),
        "forensics.provenance.calls": counts.get("forensics.provenance", 0),
        "campaign.parent_rss_mb": rss["self"],
        "campaign.worker_rss_mb": rss["children"],
        "trace.unresolved_points": len(tracer.unresolved),
        # Of the timed campaign: everything but the harness glue left over
        # in the workload span (generation ran before the clock started).
        "trace.attributed_ratio":
            (sum(seconds.values()) - seconds.get("core.workload", 0.0)
             - seconds.get("workloads.generate", 0.0)) / run["wall_s"],
    }
    for name in ("core.record", "core.oracle", "core.enumerate", "core.triage",
                 "core.analyze", "fs.mkfs", "fs.syscall", "fs.mount", "fs.walk",
                 "fs.usability", "pm.cow", "pm.from_snapshot", "memo.key",
                 "forensics.provenance", "campaign.build_items",
                 "campaign.journal", "campaign.merge.report",
                 "campaign.merge.coverage"):
        out[name + "_s"] = seconds.get(name, 0.0)
    if "merged" in run:
        out.update(engine_metrics(run, tracer))
    return out


def main(argv) -> int:
    request = json.loads(argv[1])
    workload = BY_NAME[request["workload"]]
    kind = request["kind"]
    out_dir = request["out_dir"]
    spec = workload.spec(request["scale"])  # validating it loads the registry
    tracer = Tracer() if kind == "traced" else None
    # Engine slices are always the prefix: max_workloads can say nothing else.
    seed = 0 if workload.engine else request["seed"]
    generate = materialise
    if tracer is not None:
        generate = tracer.wrap("workloads.generate", materialise)
    items = generate(spec, seed)
    warm = spec.build_chipmunk()
    for item in items[:slice_counts(spec)[0]]:
        backend = warm.test_workload(item.core, setup=item.setup).image_backend
    numpy = sys.modules.get("numpy")
    result = {
        "workload": workload.name, "kind": kind, "seed": seed,
        "setup_s": time.time() - request["spawned"],
        "host": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "image_backend": backend,
            "numpy": numpy.__version__ if numpy is not None else None,
        },
    }
    if kind == "setup":
        print(json.dumps(result))
        return 0

    serial = kind == "reference" or not workload.engine
    if serial:
        if tracer is not None:
            tracer.install(POINTS)
        zero_reports = workload.expected()["rule"] == "zero-reports"
        run = run_serial(spec, items, zero_reports, tracer)
    else:
        if tracer is not None:
            tracer.install(ENGINE_POINTS)
        campaign_dir = os.path.join(out_dir, f"campaign-{workload.name}-{kind}")
        run = run_engine(spec, campaign_dir, len(items), tracer)
        result["bugs_json"] = os.path.join(campaign_dir, "bugs.json")
    summary = run["summary"]
    clusters = summary.clusters
    usage = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / MB,
    }
    result.update({
        "wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
        "peak_rss_mb": max(usage.values()),
        "attempted": run["attempted"], "failed": run["failed"],
        "errors": run["errors"],
        "time_to_last_cluster_s": run["time_to_last_cluster_s"],
        "counts": {
            "workloads": summary.workloads_tested,
            "states_generated": summary.crash_states,
            "states_checked": summary.unique_states,
            "reports": sum(c.count for c in clusters),
            "clusters": len(clusters),
        },
        "consequences": [c.exemplar.consequence.name for c in clusters],
        "cluster_lines": [
            f"{c.exemplar.consequence.name} x{c.count}: "
            f"{c.exemplar.detail[:100]} [{c.describe_sites()}]"
            for c in clusters
        ],
    })
    if kind == "reference":
        result["bugs_json"] = os.path.join(
            out_dir, f"reference-{workload.fs}-{spec.max_workloads}.json"
        )
        with open(result["bugs_json"], "w", encoding="utf-8") as fh:
            json.dump({"reports": [c.exemplar.to_dict() for c in clusters]},
                      fh, sort_keys=True)
    if tracer is not None:
        result["layers"] = layer_metrics(run, tracer, len(items), usage)
        tracer.write(os.path.join(out_dir, f"trace-{workload.name}.json"),
                     workload.name, run["t0"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
