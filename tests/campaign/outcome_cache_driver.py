"""Serial ACE campaign with the recovered-outcome cache attached or detached.

The cache has no flag (it is always on), so "off" exists only here: the
driver sets ``Chipmunk.outcome_cache`` to ``None``.  It writes the report
file ``repro diff --strict`` compares —

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
from typing import List, Tuple

from repro.analysis.reporting import CampaignSummary
from repro.campaign import CampaignSpec
from repro.core.harness import TestResult
from repro.workloads import ace


def run_serial(
    fs: str,
    max_workloads: int,
    detach: bool,
    seq: int = 2,
) -> Tuple[dict, List[TestResult]]:
    """``(bugs.json document, per-workload results)`` of one serial run."""
    spec = CampaignSpec(fs=fs, seq=seq)
    chipmunk = spec.build_chipmunk()
    if detach:
        chipmunk.outcome_cache = None
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
                        help="run with Chipmunk.outcome_cache = None")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc, results = run_serial(args.fs, args.max_workloads, args.detach, args.seq)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    hits = sum(r.outcome_hits for r in results)
    print(f"{args.fs}: {len(results)} workload(s), {len(doc['reports'])} "
          f"cluster(s), {hits} outcome-cache hit(s) -> {args.out}")
    if not args.detach and not hits:
        print("expected outcome-cache hits with the cache attached",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
