"""Serial ACE campaign with the checker's skip mechanisms attached or detached.

The recovered-outcome cache and the read-trace recovery memo have no flag
(both are always on), so "off" exists only here: the driver sets
``Chipmunk.outcome_cache`` and ``Chipmunk.recovery_memo`` to ``None``.  It
writes the report file ``repro diff --strict`` compares —

    python tests/campaign/outcome_cache_driver.py pmfs --max-workloads 60 \\
        --out on.json
    python tests/campaign/outcome_cache_driver.py pmfs --max-workloads 60 \\
        --detach --out off.json
    python -m repro diff --strict on.json off.json

— and is imported by ``test_outcome_cache_equivalence.py`` for the same
comparison across every registry entry.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Sequence, Tuple

from repro.analysis.reporting import CampaignSummary
from repro.campaign import CampaignSpec
from repro.core.harness import TestResult
from repro.workloads import ace


#: The ``Chipmunk`` attributes ``--detach`` sets to ``None``.
SKIP_MECHANISMS = ("outcome_cache", "recovery_memo")


def run_serial(
    fs: str,
    max_workloads: int,
    detach: Sequence[str],
    seq: int = 2,
) -> Tuple[dict, List[TestResult]]:
    """``(bugs.json document, per-workload results)`` of one serial run
    with the named :data:`SKIP_MECHANISMS` detached."""
    spec = CampaignSpec(fs=fs, seq=seq)
    chipmunk = spec.build_chipmunk()
    for name in detach:
        assert name in SKIP_MECHANISMS, name
        setattr(chipmunk, name, None)
    summary = CampaignSummary(fs_name=fs, generator="ace")
    results = []
    for workload in itertools.islice(
        ace.generate(seq, mode=spec.mode), max_workloads
    ):
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        summary.add_result(result)
        results.append(result)
    doc = {"reports": [c.exemplar.to_dict() for c in summary.clusters]}
    return doc, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fs")
    parser.add_argument("--seq", type=int, default=2)
    parser.add_argument("--max-workloads", type=int, default=60)
    parser.add_argument("--detach", action="store_true",
                        help="run with Chipmunk.outcome_cache and "
                             "Chipmunk.recovery_memo = None")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc, results = run_serial(
        args.fs, args.max_workloads,
        SKIP_MECHANISMS if args.detach else (), args.seq,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    hits = sum(r.outcome_hits for r in results)
    recovery_hits = sum(r.recovery_hits for r in results)
    print(f"{args.fs}: {len(results)} workload(s), {len(doc['reports'])} "
          f"cluster(s), {hits} outcome-cache hit(s), {recovery_hits} "
          f"recovery-memo hit(s) -> {args.out}")
    if not args.detach and not recovery_hits:
        print("expected recovery-memo hits with the memo attached",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
