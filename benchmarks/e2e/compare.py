"""Compare two campaign_e2e results: ``compare.py PARENT.json CHANGE.json``.

Both files are ``out/latest.json`` documents (``run.py`` on the parent commit
and on the change, same seed and repeats).  One row per workload x end-to-end
metric, with both medians and quartiles, the metric's bound, and a verdict:

``worse``       the change's median is worse than the parent's by more than
                the bound;
``better``      better by more than the distance between the parent's own
                quartiles, and the change wins at least nine tenths of the
                runs paired in order;
``unresolved``  a side's run-to-run spread (quartile distance / median) is
                wider than the bound and the two sides' runs overlap, so the
                medians decide nothing;
``within``      anything else.

Exits 1 when any row is ``worse`` or the deterministic counts differ.
"""

from __future__ import annotations

import json
import sys
from typing import List

from metrics import count_keys, summarize, worse_by


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(parent: dict, change: dict) -> str:
    """``parent``/``change``: one metric's entry of a workload's end_to_end."""
    bound = parent["bound"]
    lower = parent["better"] == "lower"
    a, b = parent["samples"], change["samples"]
    if max(spread(parent), spread(change)) > bound > 0:
        if (max(b) < min(a)) if lower else (min(b) > max(a)):
            return "better"
        if (min(b) > max(a)) if lower else (max(b) < min(a)):
            return "worse"
        return "unresolved"
    worse = worse_by(parent, parent["median"], change["median"])
    if worse > bound:
        return "worse"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum((y < x) == lower for x, y in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(change["median"] - parent["median"])
            > parent["q3"] - parent["q1"] and worse < 0):
        return "better"
    return "within"


def compare(parent: dict, change: dict) -> List[List[str]]:
    rows = []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            rows.append([name, "(workload missing in change)"] + [""] * 5 + ["worse"])
            continue
        for metric, pa in a["end_to_end"].items():
            ch = b["end_to_end"].get(metric)
            if ch is None:
                rows.append([name, metric] + [""] * 5 + ["worse"])
                continue
            ch = {**ch, **summarize(ch["samples"])}
            pa = {**pa, **summarize(pa["samples"])}
            delta = ((ch["median"] - pa["median"]) / abs(pa["median"])
                     if pa["median"] else 0.0)
            rows.append([
                name, metric,
                f"{pa['median']:.4g} [{pa['q1']:.4g}, {pa['q3']:.4g}]",
                f"{ch['median']:.4g} [{ch['q1']:.4g}, {ch['q3']:.4g}]",
                f"{delta * 100:+.1f}%",
                "may not rise" if pa["bound"] == 0 else f"{pa['bound'] * 100:.0f}%",
                f"{pa['n']}/{ch['n']}",
                verdict(pa, ch),
            ])
        keys = count_keys(a["counts"])
        differing = [k for k in keys if a["counts"][k] != b["counts"].get(k)]
        rows.append([
            name, "deterministic counts",
            " ".join(str(a["counts"][k]) for k in keys),
            " ".join(str(b["counts"].get(k)) for k in keys),
            "", "equal", "",
            "differ: " + ",".join(differing) if differing else "identical",
        ])
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    headers = ["workload", "metric", "parent median [q1, q3]",
               "change median [q1, q3]", "change", "bound", "runs", "verdict"]
    rows = compare(*docs)
    widths = [max(len(str(r[i])) for r in [headers] + rows)
              for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    for side, doc in zip(("parent", "change"), docs):
        print(f"{side}: seed={doc['seed']} repeats={doc['repeats']} host={doc['host']}")
    bad = [r for r in rows if r[-1] == "worse" or r[-1].startswith("differ")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
