"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list-bugs``
    Print the Table-1 bug catalogue.
``test``
    Run one workload through Chipmunk against a file system.
``ace``
    Run an ACE campaign (seq-1 and optionally seq-2) against a file system.
``fuzz``
    Run the gray-box fuzzer against a file system for a time budget.
``campaign``
    Run a campaign across a parallel worker pool (the paper's ten-VM
    split as a subsystem) with checkpoint/resume; see ``--workers``,
    ``--out``, ``--resume``.  ``--shared-memo`` dedups clean check
    verdicts across all workers through an engine-hosted service;
    ``--memo-server HOST:PORT`` attaches to an external ``memod`` so
    campaigns on several hosts share one table.
``memod``
    Serve a standalone shared check-memo service (the multi-host side of
    ``campaign --memo-server``); prints the bound address on startup.
``stats``
    Render a campaign summary from one or more JSONL traces written with
    ``--trace`` (multiple files merge — e.g. a parallel campaign's
    per-worker traces), or directly from a campaign directory (the merged
    ``trace.jsonl`` / per-worker traces are auto-discovered); ``--json``
    emits the same aggregates as JSON.
``coverage``
    Exploration-coverage analytics: in-flight window CDFs, fence/store
    histograms, persistence-mechanism breakdowns and recovery-read
    redundancy, from a campaign directory (journal) or
    trace files; ``--out`` writes the markdown report to a file.
``watch``
    Live dashboard for a running campaign directory: progress, throughput,
    ETA, per-worker liveness, memo hit-rate, bugs so far.  Exits when the
    campaign completes (``--once`` renders a single frame).
``diff``
    Compare two campaigns (directories, ``bugs.json`` files, or telemetry
    traces): bug clusters are matched through the provenance-aware triage
    layer and classified appeared/disappeared/persisting, headline metrics
    are reported as deltas.  Exits non-zero on bug-set divergence;
    ``--strict`` additionally demands byte-level report equality (the old
    ``cmp bugs.json`` CI contract).
``profile``
    Run workloads with the hot-path profiler enabled and print per-stage /
    per-callsite wall-time and byte attribution (bytes materialized,
    overlay bytes applied, digest bytes hashed, rollback bytes);
    ``--chrome OUT`` also exports the span timeline as a Chrome trace.
``perf``
    Render the append-only benchmark history ledger
    (``BENCH_history.jsonl``): per-bench trend tables plus regression
    flagging against the same-host median; ``--check`` turns flags into a
    non-zero exit for CI.
``explain``
    Offline bug forensics: rebuild the crash state of a saved report
    (``--save-reports`` / a campaign's ``bugs.json``), confirm it still
    reproduces, optionally minimize the culprit store set
    (``--minimize``), and print the fence-epoch ordering timeline plus an
    annotated image diff; ``--chrome OUT`` also writes the lineage as a
    Chrome trace.

The testing commands accept ``--trace FILE`` (write a JSONL telemetry
trace) and ``--metrics`` (print the run's campaign summary — what
``stats`` prints for the trace, folded as each result is recorded, so
exact however many records the trace's ring buffer drops); the file
system can be given positionally or with ``--fs``.
``ace``/``fuzz``/``campaign`` handle Ctrl-C gracefully: partial results are flushed and the exit status
is 130 (a killed ``campaign`` additionally resumes from its journal).

Examples
--------

::

    python -m repro list-bugs
    python -m repro test nova --bugs 4 --op "mkdir /A" --op "creat /foo" \
        --op "rename /foo /A/bar"
    python -m repro ace pmfs --seq 2 --max-workloads 500
    python -m repro ace --fs nova --trace /tmp/t.jsonl
    python -m repro fuzz winefs --seconds 30 --seed 7
    python -m repro campaign nova --workers 4 --seq 2 --out /tmp/camp
    python -m repro campaign --resume /tmp/camp --workers 4
    python -m repro stats /tmp/t.jsonl --chrome /tmp/t.chrome.json
    python -m repro stats /tmp/camp
    python -m repro coverage /tmp/camp --out /tmp/camp/coverage.md
    python -m repro watch /tmp/camp --interval 2
    python -m repro ace nova --seq 2 --save-reports /tmp/bugs.json
    python -m repro explain /tmp/bugs.json --minimize --chrome /tmp/bug.trace
    python -m repro diff /tmp/camp-a /tmp/camp-b --strict --out diff.md
    python -m repro profile nova --max-workloads 10 --out profile.md
    python -m repro perf BENCH_history.jsonl --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from typing import List, Optional

from repro.analysis.reporting import CampaignSummary
from repro.fs.bugs import BUG_REGISTRY
from repro.fs.registry import FS_CLASSES
from repro.memo.store import DEFAULT_MAX_ENTRIES
from repro.obs import Telemetry
from repro.obs.tracing import jsonl_to_chrome
from repro.workloads.fuzzer import WorkloadFuzzer
from repro.workloads.ops import Op


def _parse_op(text: str) -> Op:
    """Parse ``"write /foo 0 65 512"``-style op specifications."""
    parts = text.split()
    if not parts:
        raise argparse.ArgumentTypeError("empty operation")
    name, args = parts[0], parts[1:]
    converted = tuple(int(a) if a.lstrip("-").isdigit() else a for a in args)
    return Op(name, converted)


def _spec(args):
    """The campaign spec behind every testing command's harness.

    Parsed flags map onto spec fields by name (a flag meaning something
    else, like ``--trace FILE``, has its own ``dest``); ``--bugs`` and
    ``--fixed`` become ``bug_ids``.  Raises ``ValueError`` on a bad knob.
    ``spec.build_chipmunk()`` is the one harness constructor, and
    ``spec.mode`` the one ACE-mode rule.
    """
    from dataclasses import fields

    from repro.campaign.spec import CampaignSpec

    if args.fixed:
        bug_ids: Optional[List[int]] = []
    elif args.bugs:
        bug_ids = list(args.bugs)
    else:
        bug_ids = None
    knobs = {f.name: getattr(args, f.name)
             for f in fields(CampaignSpec) if hasattr(args, f.name)}
    return CampaignSpec(**knobs, bug_ids=bug_ids)


def _telemetry_for(args, generator: str) -> Optional[Telemetry]:
    """Build a Telemetry object when ``--trace``/``--metrics`` ask for one."""
    if not args.trace_file and not args.metrics:
        return None
    tel = Telemetry()
    tel.meta.update(fs=args.fs, generator=generator)
    tel.results = CampaignSummary(fs_name=args.fs, generator=generator,
                                  meta=tel.meta)
    tel.event("campaign_start", fs=args.fs, generator=generator)
    return tel


def _finish_telemetry(args, tel: Optional[Telemetry]) -> None:
    """Export the trace and/or print the run's result totals, as requested."""
    if tel is None:
        return
    if args.trace_file:
        try:
            n = tel.export_jsonl(args.trace_file)
        except OSError as exc:
            print(
                f"[telemetry] error: cannot write trace {args.trace_file!r}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
        else:
            dropped = tel.tracer.dropped
            print(f"[telemetry] wrote {n} trace record(s) to "
                  f"{args.trace_file}"
                  + (f" ({dropped} oldest dropped: the ring buffer was "
                     f"full)" if dropped else ""))
    if args.metrics:
        # Folded as each event was recorded, so exact even when the ring
        # dropped records; the same summary `repro stats` renders.
        print("[telemetry] metrics snapshot:")
        print(textwrap.indent(tel.results.render(), "  "))


def _write_file(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure say why on stderr."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    return True


def _save_reports(path: str, reports) -> None:
    """Write bug reports (with provenance) as a ``{"reports": [...]}`` doc."""
    doc = {"reports": [r.to_dict() for r in reports]}
    if _write_file(path, json.dumps(doc, sort_keys=True)):
        print(f"[reports] saved {len(doc['reports'])} report(s) to {path}")


def cmd_list_bugs(_args) -> int:
    print(f"{'id':>3}  {'file systems':<20} {'type':<6} consequence")
    print("-" * 78)
    for bug_id, spec in sorted(BUG_REGISTRY.items()):
        print(
            f"{bug_id:>3}  {','.join(spec.filesystems):<20} "
            f"{spec.bug_type:<6} {spec.consequence}"
        )
    return 0


def cmd_test(args) -> int:
    tel = _telemetry_for(args, "test")
    chipmunk = args.spec.build_chipmunk(telemetry=tel)
    result = chipmunk.test_workload(args.op or [Op("creat", ("/probe",))])
    print(result.summary())
    for cluster in result.clusters:
        print()
        print(cluster.describe())
    if args.save_reports:
        _save_reports(args.save_reports, result.reports)
    _finish_telemetry(args, tel)
    return 1 if result.buggy else 0


def cmd_ace(args) -> int:
    tel = _telemetry_for(args, "ace")
    spec = args.spec
    chipmunk = spec.build_chipmunk(telemetry=tel)
    summary = CampaignSummary(fs_name=args.fs, generator="ace", telemetry=tel)
    saved_reports: List = []
    interrupted = False
    try:
        for w in spec.ace_workloads():
            result = chipmunk.test_workload(w.core, setup=w.setup)
            summary.add_result(result)
            if args.save_reports:
                saved_reports.extend(result.reports)
    except KeyboardInterrupt:
        # Flush what we have rather than dying with a raw traceback: the
        # partial summary and telemetry of a long campaign are still data.
        interrupted = True
        print("\n[interrupted] flushing partial campaign results",
              file=sys.stderr)
    print(
        f"{summary.workloads_tested} workloads, {summary.crash_states} crash "
        f"states, {len(summary.clusters)} clusters, {summary.wall_time:.1f}s"
        + (" [interrupted]" if interrupted else "")
    )
    for cluster in summary.clusters:
        print()
        print(cluster.describe())
    if args.save_reports:
        _save_reports(args.save_reports, saved_reports)
    _finish_telemetry(args, tel)
    if interrupted:
        return 130
    return 1 if summary.clusters else 0


def cmd_fuzz(args) -> int:
    tel = _telemetry_for(args, "fuzz")
    if tel is not None:
        # The seed lands in the trace header so a campaign is reproducible
        # from its trace file alone.
        tel.meta["seed"] = args.seed
    chipmunk = args.spec.build_chipmunk(telemetry=tel)
    fuzzer = WorkloadFuzzer(chipmunk, seed=args.seed)
    interrupted = False
    try:
        stats = fuzzer.run(time_budget=args.seconds)
    except KeyboardInterrupt:
        # fuzzer.run finalizes its stats on the way out, so the partial
        # campaign is fully reportable.
        interrupted = True
        stats = fuzzer.stats
        print("\n[interrupted] flushing partial campaign results",
              file=sys.stderr)
    print(
        f"{stats.executions} executions, {stats.crash_states} crash states, "
        f"coverage {stats.coverage_points}, corpus {stats.corpus_size}, "
        f"{stats.clusters} clusters, {stats.elapsed:.1f}s"
        + (" [interrupted]" if interrupted else "")
    )
    for cluster in fuzzer.clusters:
        print()
        print(cluster.describe())
    _finish_telemetry(args, tel)
    if interrupted:
        return 130
    return 1 if stats.clusters else 0


def cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignEngine,
        CampaignSpec,
        CheckpointJournal,
        EngineConfig,
        SpecMismatch,
    )

    try:
        config = EngineConfig(
            workers=args.workers,
            batch_size=args.batch,
            item_timeout=args.timeout,
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume:
        # Resuming re-reads the spec from the journal: the campaign is
        # defined by what was started, not by what flags accompany the
        # resume.  Engine knobs (--workers etc.) may differ freely.
        campaign_dir = args.resume
        state = CheckpointJournal.replay(campaign_dir)
        if state.spec_dict is None:
            print(f"error: no campaign journal in {campaign_dir!r}",
                  file=sys.stderr)
            return 2
        spec = CampaignSpec.from_dict(state.spec_dict)
        if args.fs is not None and args.fs != spec.fs:
            print(
                f"error: journal in {campaign_dir!r} is a {spec.fs} campaign, "
                f"not {args.fs}", file=sys.stderr,
            )
            return 2
    else:
        campaign_dir = args.out or f"campaign-{args.fs}-{args.generator}"
        spec = args.spec
    engine = CampaignEngine(spec, campaign_dir, config,
                            resume=bool(args.resume))
    try:
        merged = engine.run()
    except SpecMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(merged.console_summary())
    for cluster in merged.clusters:
        print()
        print(cluster.describe())
    print(f"\n[campaign] dir: {campaign_dir}  report: "
          f"{campaign_dir}/report.md  journal: {campaign_dir}/journal.jsonl")
    if merged.trace_path:
        print(f"[campaign] merged telemetry trace: {merged.trace_path}")
    if merged.interrupted:
        return 130
    return 1 if merged.clusters else 0


def _expand_stats_targets(targets: List[str]) -> List[str]:
    """Expand campaign directories among stats targets into trace files.

    Prefers the merged ``trace.jsonl``; falls back to per-worker traces
    (an interrupted campaign has not merged yet).  Raises ``ValueError``
    with a hint when a directory holds no traces at all.
    """
    import glob as _glob

    traces: List[str] = []
    for target in targets:
        if not os.path.isdir(target):
            traces.append(target)
            continue
        merged = os.path.join(target, "trace.jsonl")
        if os.path.exists(merged):
            traces.append(merged)
            continue
        workers = sorted(_glob.glob(
            os.path.join(target, "worker-*.trace.jsonl")
        ))
        if not workers:
            raise ValueError(
                f"no telemetry traces in {target!r} — run the campaign "
                f"with --trace (expected trace.jsonl or "
                f"worker-*.trace.jsonl)"
            )
        traces.extend(workers)
    return traces


def cmd_memod(args) -> int:
    from repro.memo.server import run_memod

    return run_memod(
        host=args.host, port=args.port, max_entries=args.max_entries
    )


def cmd_stats(args) -> int:
    try:
        traces: List[str] = _expand_stats_targets(args.traces)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = CampaignSummary.from_traces(traces)
    except OSError as exc:
        print(f"error: cannot read trace: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: not a JSONL telemetry trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary.to_json_dict(), sort_keys=True, indent=2))
        return 0
    if len(traces) > 1:
        print(f"[stats] merged {len(traces)} trace files")
    print(summary.render())
    if args.chrome:
        if len(traces) > 1:
            print("error: --chrome requires a single trace file",
                  file=sys.stderr)
            return 2
        n = jsonl_to_chrome(traces[0], args.chrome)
        print(f"\nwrote {n} Chrome trace event(s) to {args.chrome}")
    return 0


def cmd_coverage(args) -> int:
    from repro.obs.coverage import CoverageReport, coverage_from_campaign_dir

    targets: List[str] = args.target
    try:
        if len(targets) == 1 and os.path.isdir(targets[0]):
            campaign_dir = targets[0]
            if not os.path.exists(os.path.join(campaign_dir, "journal.jsonl")):
                print(
                    f"error: no journal.jsonl in {campaign_dir!r} "
                    f"(not a campaign directory?)",
                    file=sys.stderr,
                )
                return 2
            report = coverage_from_campaign_dir(campaign_dir)
        else:
            for target in targets:
                if os.path.isdir(target):
                    print(
                        "error: mixing campaign directories and trace files "
                        "is not supported — pass one directory, or only "
                        "trace files",
                        file=sys.stderr,
                    )
                    return 2
            report = CoverageReport.from_traces(targets)
    except OSError as exc:
        print(f"error: cannot read coverage input: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: not a JSONL telemetry trace: {exc}", file=sys.stderr)
        return 2
    if not report.workloads_tested:
        print("error: no workload results found in the input(s)",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
        return 0
    markdown = report.render_markdown()
    if args.out:
        if not _write_file(args.out, markdown):
            return 2
        print(f"[coverage] wrote {args.out} "
              f"({report.workloads_tested} workload(s), "
              f"{report.unique_states} checked state(s))")
    else:
        print(markdown)
    return 0


def cmd_watch(args) -> int:
    from repro.campaign.watch import watch

    return watch(
        args.dir,
        interval=args.interval,
        once=args.once,
        timeout=args.timeout,
    )


def cmd_diff(args) -> int:
    from repro.obs.diff import diff_sides, load_side, render_diff

    try:
        side_a = load_side(args.a)
        side_b = load_side(args.b)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read diff input: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: not a campaign/report input: {exc}", file=sys.stderr)
        return 2
    try:
        diff = diff_sides(side_a, side_b, strict=args.strict)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_diff(diff, tol=args.tol)
    if args.out:
        if not _write_file(args.out, text):
            return 2
        print(f"[diff] wrote {args.out}")
    else:
        print(text)
    if diff.clusters_compared or diff.strict_equal is not None:
        if diff.clusters_compared:
            print(
                f"[diff] {len(diff.appeared)} appeared, "
                f"{len(diff.disappeared)} disappeared, "
                f"{len(diff.persisting)} persisting — "
                + ("DIVERGENT" if diff.divergent else "bug sets match")
            )
        return 1 if diff.divergent else 0
    # Trace-vs-trace comparison: metric deltas only, nothing to gate on.
    print("[diff] metrics-only comparison (no reports on either side)")
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import ProfileFold, render_profile

    tel = _telemetry_for(args, "profile")
    if args.chrome and tel is None:
        # The Chrome export rides on the span layer, so force telemetry on
        # even when --trace/--metrics were not requested.
        tel = Telemetry()
        tel.meta.update(fs=args.fs, generator="profile")
    spec = args.spec
    chipmunk = spec.build_chipmunk(telemetry=tel)
    # Fold each result as its workload finishes: nothing of a workload,
    # its reports included, outlives it.
    profiles = ProfileFold()
    workloads, elapsed, states = 0, 0, 0
    runs = ([(args.op, ())] if args.op
            else ((w.core, w.setup) for w in spec.ace_workloads()))
    interrupted = False
    try:
        for ops, setup in runs:
            result = chipmunk.test_workload(ops, setup=setup)
            if result.profile:
                profiles.add(result.profile)
            workloads += 1
            elapsed += result.elapsed
            states += result.n_crash_states
    except KeyboardInterrupt:
        interrupted = True
        print("\n[interrupted] rendering partial profile", file=sys.stderr)
    if not workloads:
        print("error: no workloads ran", file=sys.stderr)
        return 2
    merged = profiles.result()
    stages = dict(merged.get("stages", {}))
    attributed = sum(t for s, t in stages.items() if s != "other")
    share = attributed / elapsed if elapsed else 0.0
    header = [
        f"# Profile: {args.fs}",
        "",
        f"- workloads: {workloads}",
        f"- crash states: {states}",
        f"- harness elapsed: {elapsed:.4f}s",
        f"- attributed to pipeline stages: {attributed:.4f}s "
        f"({share * 100:.1f}% of elapsed)",
        "",
        "",
    ]
    text = "\n".join(header) + render_profile(merged, top=args.top)
    if args.json:
        print(json.dumps(merged, sort_keys=True, indent=2))
    elif args.out:
        if not _write_file(args.out, text):
            return 2
        print(f"[profile] wrote {args.out} ({workloads} workload(s), "
              f"{states} crash state(s))")
    else:
        print(text)
    if args.chrome and tel is not None:
        from repro.obs.tracing import spans_to_chrome

        doc = spans_to_chrome(tel.export_records())
        if not _write_file(args.chrome, json.dumps(doc)):
            return 2
        print(f"[profile] wrote {len(doc['traceEvents'])} Chrome trace "
              f"event(s) to {args.chrome}")
    _finish_telemetry(args, tel)
    return 130 if interrupted else 0


def cmd_perf(args) -> int:
    from repro.obs.history import (
        DEFAULT_LEDGER,
        check_regressions,
        read_ledger,
        render_history,
    )

    path = args.ledger or DEFAULT_LEDGER
    try:
        records, torn = read_ledger(path)
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"error: no ledger records in {path!r} (benchmarks append "
              "to the ledger when run with --history)", file=sys.stderr)
        return 2
    if torn:
        print(f"[perf] warning: skipped {torn} torn/unparsable line(s)",
              file=sys.stderr)
    if args.json:
        print(json.dumps(records, sort_keys=True, indent=2))
        return 0
    print(render_history(records, last=args.last, bench=args.bench,
                         tol=args.tol))
    if args.check:
        flags = check_regressions(records, tol=args.tol, last=args.last)
        if args.bench:
            flags = [f for f in flags if f["bench"] == args.bench]
        return 1 if flags else 0
    return 0


def cmd_explain(args) -> int:
    from repro.core.report import BugReport
    from repro.forensics.explain import explain_report, load_report_dicts

    if args.all:
        return _cmd_explain_all(args)
    if os.path.isdir(args.report):
        print(
            f"error: {args.report!r} is a directory — pass --all for batch "
            "forensics, or point at a report JSON file",
            file=sys.stderr,
        )
        return 2
    try:
        dicts = load_report_dicts(args.report)
    except OSError as exc:
        print(f"error: cannot read {args.report!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: not a bug-report document: {exc}", file=sys.stderr)
        return 2
    if not dicts:
        print(f"error: {args.report!r} contains no reports", file=sys.stderr)
        return 2
    if not (0 <= args.index < len(dicts)):
        print(
            f"error: --index {args.index} out of range "
            f"({len(dicts)} report(s) in {args.report!r})",
            file=sys.stderr,
        )
        return 2
    report = BugReport.from_dict(dicts[args.index])
    if len(dicts) > 1:
        print(f"[explain] report {args.index} of {len(dicts)} in {args.report}")
    try:
        explanation = explain_report(
            report,
            minimize=args.minimize,
            budget=args.budget,
            chrome_out=args.chrome,
            minimize_ops=args.minimize_workload,
            workload_budget=args.workload_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(explanation.text)
    return 0 if explanation.reproduced else 3


def _cmd_explain_all(args) -> int:
    """Batch forensics over a campaign directory (or report file)."""
    from repro.forensics.batch import FORENSICS_BASENAME, explain_campaign

    target = args.report
    if os.path.isdir(target) and not os.path.exists(
        os.path.join(target, "bugs.json")
    ):
        print(f"error: no bugs.json in {target!r} (not a campaign directory?)",
              file=sys.stderr)
        return 2
    try:
        batch = explain_campaign(
            target,
            minimize=args.minimize,
            budget=args.budget,
            minimize_ops=args.minimize_workload,
            workload_budget=args.workload_budget,
            out=args.out,
        )
    except OSError as exc:
        print(f"error: cannot read {target!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: not a bug-report document: {exc}", file=sys.stderr)
        return 2
    out_path = args.out or os.path.join(
        target if os.path.isdir(target) else (os.path.dirname(target) or "."),
        FORENSICS_BASENAME,
    )
    stats = batch.cache.stats()
    print(
        f"[explain] {len(batch.explanations)} report(s) explained, "
        f"{batch.reproduced} reproduced, {len(batch.clusters)} cluster(s); "
        f"{stats['recordings']} recording(s) "
        f"({stats['session_hits']} session cache hit(s)), "
        f"{stats['verdict_hits']} verdict cache hit(s)"
    )
    if batch.skipped:
        print(f"[explain] skipped {len(batch.skipped)} report(s) without "
              f"provenance")
    print(f"wrote {out_path}")
    return 0 if all(e.reproduced for e in batch.explanations) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Chipmunk reproduction: crash-consistency testing for "
        "simulated PM file systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-bugs", help="print the Table-1 bug catalogue")

    def add_harness(p, fs_help="file system (or use --fs)"):
        """The flags :func:`_spec` maps onto the harness, for every
        testing command including ``campaign``."""
        p.add_argument(
            "fs", nargs="?", choices=sorted(FS_CLASSES()), help=fs_help,
        )
        p.add_argument(
            "--fs",
            dest="fs_flag",
            choices=sorted(FS_CLASSES()),
            help="file system (alternative to the positional argument)",
        )
        p.add_argument(
            "--bugs",
            type=int,
            nargs="*",
            default=[],
            help="enable only these bug ids (default: all of the FS's bugs)",
        )
        p.add_argument(
            "--fixed", action="store_true", help="run the fully fixed variant"
        )
        p.add_argument("--cap", type=int, default=2, help="replay cap (default 2)")

    def add_common(p):
        add_harness(p)
        p.add_argument(
            "--trace",
            dest="trace_file",
            metavar="FILE",
            help="write a JSONL telemetry trace (see `python -m repro stats`)",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="print the run's campaign summary (what `python -m "
            "repro stats` prints for its trace) after the run",
        )

    def add_ops(p, text):
        p.add_argument("--op", type=_parse_op, action="append", help=text)

    def add_save_reports(p):
        p.add_argument(
            "--save-reports", metavar="FILE",
            help="save bug reports (with provenance) as JSON for "
            "`repro explain`",
        )

    def add_ace_slice(p, max_workloads=0):
        """``--seq``/``--max-workloads``: the slice
        :meth:`~repro.campaign.spec.CampaignSpec.ace_workloads` runs."""
        p.add_argument("--seq", type=int, default=1, choices=(1, 2, 3),
                       help="ACE sequence lengths to run (1..seq)")
        p.add_argument(
            "--max-workloads", type=int, default=max_workloads,
            help="cap ACE workloads per sequence length" + (
                f" (default {max_workloads}; 0 = the whole sequence space)"
                if max_workloads else ""
            ),
        )

    p_test = sub.add_parser("test", help="test one workload")
    add_common(p_test)
    add_ops(p_test, 'operation, e.g. "write /foo 0 65 512" (repeatable)')
    add_save_reports(p_test)

    p_ace = sub.add_parser("ace", help="run an ACE campaign")
    add_common(p_ace)
    add_ace_slice(p_ace)
    add_save_reports(p_ace)

    p_fuzz = sub.add_parser("fuzz", help="run the gray-box fuzzer")
    add_common(p_fuzz)
    p_fuzz.add_argument("--seconds", type=float, default=30.0)
    p_fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzzer RNG seed; recorded in the trace header so a campaign "
        "is reproducible from its trace file",
    )

    p_camp = sub.add_parser(
        "campaign",
        help="run a parallel campaign with checkpoint/resume",
    )
    add_harness(
        p_camp, fs_help="file system (or use --fs; not needed with --resume)"
    )
    p_camp.add_argument(
        "--generator", choices=("ace", "fuzz"), default="ace",
        help="workload generator (default: ace)",
    )
    p_camp.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    p_camp.add_argument("--out", metavar="DIR",
                        help="campaign directory (journal, report, traces); "
                        "default campaign-<fs>-<generator>")
    p_camp.add_argument("--resume", metavar="DIR",
                        help="resume a killed campaign from its directory, "
                        "skipping journaled workloads")
    add_ace_slice(p_camp)
    p_camp.add_argument("--seed", type=int, default=0,
                        help="fuzzer base seed (seed space is split into "
                        "segments)")
    p_camp.add_argument("--segments", type=int, default=4,
                        help="fuzzer seed segments (work items)")
    p_camp.add_argument("--executions", type=int, default=25,
                        help="fuzzer executions per segment")
    p_camp.add_argument(
        "--shared-memo",
        action="store_true",
        help="share one check-memo table across all workers (engine-hosted "
        "loopback service): clean verdicts dedup campaign-wide, bug "
        "reports are unaffected",
    )
    p_camp.add_argument(
        "--memo-server",
        dest="memo_address",
        metavar="HOST:PORT",
        help="attach to an external `repro memod` shared check-memo "
        "service (multi-host campaigns dedup against one table); "
        "implies --shared-memo",
    )
    p_camp.add_argument("--batch", type=int, default=8,
                        help="work items per dispatch (default 8)")
    p_camp.add_argument("--timeout", type=float, default=60.0,
                        help="per-workload timeout in seconds before a "
                        "worker is presumed hung (default 60)")
    p_camp.add_argument("--max-retries", type=int, default=2,
                        help="re-executions per workload before quarantine")
    p_camp.add_argument("--trace", action="store_true",
                        help="write per-worker telemetry traces plus a "
                        "merged trace.jsonl into the campaign directory")
    p_camp.add_argument("--profile", action="store_true",
                        help="enable hot-path time/byte attribution in "
                        "every worker (recorded per result; see "
                        "`python -m repro profile`)")

    p_memod = sub.add_parser(
        "memod",
        help="serve a standalone shared check-memo service for "
        "`campaign --memo-server` (multi-host dedup)",
    )
    p_memod.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 for multi-host)",
    )
    p_memod.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick an ephemeral port and print it)",
    )
    p_memod.add_argument(
        "--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
        help=f"LRU cap on clean verdict entries (default "
        f"{DEFAULT_MAX_ENTRIES}; 0 = unbounded)",
    )

    p_stats = sub.add_parser(
        "stats",
        help="render a campaign summary from JSONL trace(s) or a campaign "
        "directory",
    )
    p_stats.add_argument(
        "traces", nargs="+", metavar="trace",
        help="trace file(s) written with --trace, or a campaign directory "
        "(auto-discovers trace.jsonl / worker-*.trace.jsonl); multiple "
        "files merge",
    )
    p_stats.add_argument(
        "--chrome",
        metavar="OUT",
        help="also convert the trace to a Chrome trace-event file "
        "(load in chrome://tracing or Perfetto); single trace only",
    )
    p_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the campaign aggregates as JSON instead of tables",
    )

    p_cov = sub.add_parser(
        "coverage",
        help="exploration-coverage analytics (window CDFs, store "
        "breakdowns, recovery-read redundancy) from a campaign dir or traces",
    )
    p_cov.add_argument(
        "target", nargs="+", metavar="TARGET",
        help="a campaign directory (reads its checkpoint journal) or one "
        "or more --trace JSONL files",
    )
    p_cov.add_argument(
        "--out", metavar="FILE",
        help="write the markdown report to FILE instead of stdout",
    )
    p_cov.add_argument(
        "--json", action="store_true",
        help="emit the aggregates as JSON instead of markdown",
    )

    p_watch = sub.add_parser(
        "watch",
        help="live dashboard for a running campaign directory",
    )
    p_watch.add_argument(
        "dir", metavar="CAMPAIGN_DIR",
        help="campaign directory (the one passed to `campaign --out`)",
    )
    p_watch.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds (default 1)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (for scripts and tests)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None,
        help="give up (exit 3) after this many seconds without completion",
    )

    p_diff = sub.add_parser(
        "diff",
        help="compare two campaigns: bug-cluster divergence (exit status) "
        "plus metric deltas",
    )
    p_diff.add_argument(
        "a", metavar="A",
        help="baseline: campaign directory, bugs.json-style report file, "
        "or JSONL telemetry trace",
    )
    p_diff.add_argument(
        "b", metavar="B",
        help="candidate: campaign directory, report file, or trace",
    )
    p_diff.add_argument(
        "--strict", action="store_true",
        help="additionally require the serialized report lists to be equal "
        "object-for-object (the byte-level `cmp bugs.json` contract)",
    )
    p_diff.add_argument(
        "--tol", type=float, default=0.1,
        help="metric-delta flag threshold as a fraction (default 0.1); "
        "informational only, never affects the exit status",
    )
    p_diff.add_argument(
        "--out", metavar="FILE",
        help="write the diff.md document to FILE instead of stdout",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run workloads with hot-path time/byte attribution enabled",
    )
    add_common(p_prof)
    p_prof.set_defaults(profile=True)
    add_ops(p_prof,
            "profile this workload instead of an ACE slice (repeatable)")
    add_ace_slice(p_prof, max_workloads=25)
    p_prof.add_argument("--top", type=int, default=15,
                        help="hot-callsite rows to show (default 15)")
    p_prof.add_argument(
        "--out", metavar="FILE",
        help="write the profile markdown to FILE instead of stdout",
    )
    p_prof.add_argument(
        "--json", action="store_true",
        help="emit the merged profile dict as JSON instead of markdown",
    )
    p_prof.add_argument(
        "--chrome", metavar="OUT",
        help="also export the telemetry span timeline as a Chrome "
        "trace-event file",
    )

    p_perf = sub.add_parser(
        "perf",
        help="render the benchmark history ledger and flag regressions",
    )
    p_perf.add_argument(
        "ledger", nargs="?", metavar="LEDGER",
        help="ledger path (default ./BENCH_history.jsonl)",
    )
    p_perf.add_argument(
        "--bench", metavar="NAME",
        help="restrict to one bench (e.g. replay_delta)",
    )
    p_perf.add_argument("--last", type=int, default=10,
                        help="history window per bench (default 10)")
    p_perf.add_argument(
        "--tol", type=float, default=0.2,
        help="regression threshold vs same-host median (default 0.2)",
    )
    p_perf.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a regression is flagged (for CI)",
    )
    p_perf.add_argument(
        "--json", action="store_true",
        help="emit the raw ledger records as JSON",
    )

    p_explain = sub.add_parser(
        "explain",
        help="offline bug forensics from a saved report "
        "(timeline, minimization, image diff)",
    )
    p_explain.add_argument(
        "report", metavar="REPORT",
        help="report JSON: `--save-reports` output, a campaign's bugs.json, "
        "or a single serialized report; with --all, a campaign directory",
    )
    p_explain.add_argument(
        "--index", type=int, default=0,
        help="which report to explain when the file holds several (default 0)",
    )
    p_explain.add_argument(
        "--all", action="store_true",
        help="batch mode: explain every report in a campaign's bugs.json "
        "through a shared minimization cache and write forensics.md next "
        "to report.md",
    )
    p_explain.add_argument(
        "--minimize", action="store_true",
        help="delta-debug the dropped store set down to a minimal culprit set",
    )
    p_explain.add_argument(
        "--budget", type=int, default=128,
        help="maximum checker replays for --minimize (default 128)",
    )
    p_explain.add_argument(
        "--minimize-workload", action="store_true",
        help="also delta-debug the op sequence down to the essential ops "
        "(each candidate is a full harness run)",
    )
    p_explain.add_argument(
        "--workload-budget", type=int, default=24,
        help="maximum harness runs for --minimize-workload (default 24)",
    )
    p_explain.add_argument(
        "--out", metavar="PATH",
        help="with --all: write forensics.md to PATH instead of the "
        "campaign directory",
    )
    p_explain.add_argument(
        "--chrome", metavar="OUT",
        help="also write the store lineage as a Chrome trace-event file",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The testing commands accept the file system positionally or via --fs.
    if hasattr(args, "fs_flag"):
        if args.fs is None:
            args.fs = args.fs_flag
        if args.fs is None and not getattr(args, "resume", None):
            parser.error(f"{args.command}: a file system is required "
                         "(positional or --fs)")
        if args.fs is not None:
            # Validate the harness knobs once, before any work starts.
            try:
                args.spec = _spec(args)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    handlers = {
        "list-bugs": cmd_list_bugs,
        "test": cmd_test,
        "ace": cmd_ace,
        "fuzz": cmd_fuzz,
        "campaign": cmd_campaign,
        "memod": cmd_memod,
        "stats": cmd_stats,
        "coverage": cmd_coverage,
        "watch": cmd_watch,
        "diff": cmd_diff,
        "profile": cmd_profile,
        "perf": cmd_perf,
        "explain": cmd_explain,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output was piped into something that exited early (`... | head`);
        # that is the reader's prerogative, not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
