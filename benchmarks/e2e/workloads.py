"""The five ``campaign_e2e`` workloads and their known answers.

Every workload is what ``repro campaign FS --seq 2 --max-workloads N`` runs
with no other flag: the spec carries the file system, the bug configuration
and the slice size, and every other knob keeps its default.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign import CampaignSpec
from repro.workloads import ace

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``repro campaign`` default worker count.
ENGINE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    fs: str
    #: ``None`` = every catalogue bug of the file system, ``[]`` = all fixed.
    bug_ids: Optional[List[int]]
    #: seq-2 workloads at full scale (seq-1 always runs whole).
    seq2: int
    engine: bool = False
    shared_memo: bool = False
    why: str = ""

    def spec(self, scale: float = 1.0) -> CampaignSpec:
        return CampaignSpec(
            fs=self.fs, bug_ids=self.bug_ids, seq=2,
            max_workloads=max(1, round(self.seq2 * scale)),
            shared_memo=self.shared_memo,
        )

    def expected(self) -> dict:
        """The hand-reviewed known answer (``expected/<name>.json``)."""
        doc = _load_expected(self.name)
        if "clusters_from" in doc:
            doc["clusters"] = _load_expected(doc["clusters_from"])["clusters"]
        return doc


def _load_expected(name: str) -> dict:
    path = os.path.join(HERE, "expected", name + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = (
    Workload(
        "nova-serial", "nova", None, 1200,
        why="bug-finding regime on the log-structured family: check is ~78% "
            "of wall and thousands of reports keep provenance, report "
            "building and triage live",
    ),
    Workload(
        "pmfs-fixed-serial", "pmfs", [], 300,
        why="clean-regression regime on the journal family: the slowest "
            "checker per state, every verdict clean, no report work",
    ),
    Workload(
        "ext4dax-serial", "ext4-dax", None, 3025,
        why="weak-guarantee FS with crash points only at fsync: record, "
            "oracle and analyze dominate, so checker optimisations bypass it",
    ),
    Workload(
        "nova-engine", "nova", None, 1200, engine=True,
        why="the nova-serial slice through the 2-worker campaign engine: "
            "queue, fork workers, result round-trip, fsync'd journal, merge",
    ),
    Workload(
        "nova-engine-shared", "nova", None, 1200, engine=True, shared_memo=True,
        why="nova-engine with the engine-hosted shared memo: fewer states "
            "checked against a round trip per local miss",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def slice_counts(spec: CampaignSpec) -> List[int]:
    """Workloads per sequence length, exactly as ``build_items`` cuts them."""
    return [min(ace.count(seq), spec.max_workloads)
            for seq in range(1, spec.seq + 1)]


def sample_seq2(seed: int, size: int, mode: str) -> List[int]:
    """A seeded sample of ``size`` seq-2 indices, sorted.

    A systematic sample (seeded start, fixed stride) over the space ordered by
    (first op name, second op name): per-workload cost follows the operation
    types, so every seed draws the same mix and throughput differs between
    seeds by ~1-2% where a plain random sample of 300 differs by up to 8%.
    """
    names = [w.core[0].name for w in ace.generate(1, mode=mode)]
    side = len(names)
    total = ace.count(2)
    order = sorted(range(total),
                   key=lambda i: (names[i // side], names[i % side], i))
    stride = total / size
    start = random.Random(seed).random() * stride
    return sorted(order[int(start + k * stride)] for k in range(size))


def materialise(spec: CampaignSpec, seed: int) -> List[ace.AceWorkload]:
    """The workload list of a serial pass: all of seq-1, then the seq-2 slice
    (seed 0: the prefix ``--max-workloads`` cuts; otherwise a seeded sample)."""
    n1, n2 = slice_counts(spec)
    out = list(itertools.islice(ace.generate(1, mode=spec.mode), n1))
    if seed == 0:
        out += itertools.islice(ace.generate(2, mode=spec.mode), n2)
    else:
        out += [ace.workload_at(2, i, mode=spec.mode)
                for i in sample_seq2(seed, n2, spec.mode)]
    return out


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------
def check_clusters(expected: dict, consequences: List[str]) -> List[str]:
    """Problems with a pass's cluster list against ``expected`` (empty = ok)."""
    if expected["rule"] == "zero-reports":
        allowed = expected.get("known_false_positive", {}).get("consequence")
        return [f"unexpected {c} cluster on a bug-free file system"
                for c in consequences if c != allowed]
    want = Counter(c["consequence"] for c in expected["clusters"])
    got = Counter(consequences)
    if got == want:
        return []
    return [f"cluster multiset {dict(sorted(got.items()))} != expected "
            f"{dict(sorted(want.items()))}"]


def allowed_failures(expected: dict) -> int:
    """Failing workloads the recorded day-one finding accounts for."""
    return expected.get("known_false_positive", {}).get("max_failed_workloads", 0)
