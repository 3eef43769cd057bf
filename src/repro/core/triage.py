"""Bug-report triage: lexical similarity plus provenance-guided clustering.

Fuzzing produces floods of duplicate reports — multiple crash states trigger
the same underlying bug.  The paper extends Syzkaller with "a simple
triaging procedure that clusters bug reports by lexical similarity"
(section 3.4.2); this module implements that procedure: reports whose
token-set Jaccard similarity exceeds a threshold join the same cluster.

Lexical triage cannot merge one bug seen through different syscalls: the
report text names the syscall, so a missing journal-commit flush reported
under ``creat`` and again under ``unlink`` stays two clusters.  The
*provenance-guided* mode fixes this by keying on where the failure actually
lives — the set of ``(persistence function, layout region)`` sites of the
dropped in-flight stores.  Two reports with the same file system and
consequence whose site sets intersect are the same bug regardless of the
syscall that exposed it; reports without provenance (or with no dropped
stores) fall back to the lexical procedure, so mixed streams triage
cleanly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.report import BugReport

_TOKEN = re.compile(r"[a-zA-Z_/.#]+")


def tokenize(text: str) -> FrozenSet[str]:
    """Lexical tokens of a report signature (numbers stripped — crash-state
    indices and offsets should not separate duplicates)."""
    return frozenset(t.lower() for t in _TOKEN.findall(text) if len(t) > 1)


def jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


# ----------------------------------------------------------------------
# Provenance sites
# ----------------------------------------------------------------------
#: One culprit site: (persistence function, layout region name).
Site = Tuple[str, str]

_LAYOUT_MAPS: Dict[Tuple[str, int], object] = {}


def layout_map_for(fs_name: str, device_size: int):
    """The layout map of a freshly formatted ``fs_name`` device, cached.

    Triage only needs region *names* for addresses, and those depend on the
    geometry (derived from the device size), not on any workload — so one
    mkfs per (fs, size) pair serves every report in a campaign.
    """
    key = (fs_name, device_size)
    layout = _LAYOUT_MAPS.get(key)
    if layout is None:
        # Deferred: keep triage importable without the fs registry chain.
        from repro.fs.registry import fs_class
        from repro.pm.device import PMDevice

        cls = fs_class(fs_name)
        device = PMDevice(device_size)
        cls.mkfs(device)
        layout = cls.layout_map(device.snapshot())
        _LAYOUT_MAPS[key] = layout
    return layout


def provenance_sites(
    report: BugReport, culprit_seqs: Tuple[int, ...] = ()
) -> Optional[FrozenSet[Site]]:
    """The culprit site set of a provenance-carrying report.

    Sites are the ``(func, region)`` pairs of the dropped in-flight stores —
    the stores whose loss produced the failure.  When minimization has
    narrowed the dropped set, pass its ``culprit_seqs`` to restrict the
    sites to the minimal culprits.  Returns ``None`` when the report has no
    provenance or no dropped stores (nothing to key on — caller falls back
    to lexical triage).
    """
    prov = report.provenance
    if prov is None:
        return None
    dropped = prov.dropped()
    if culprit_seqs:
        wanted = set(culprit_seqs)
        narrowed = [e for e in dropped if e.seq in wanted]
        if narrowed:
            dropped = narrowed
    if not dropped:
        return None
    layout = layout_map_for(prov.fs_name, prov.config.device_size)
    return frozenset(
        (e.func, layout.region_of(e.addr)) for e in dropped if e.addr >= 0
    ) or None


#: A report's triage key — everything clustering reads of it.  With
#: culprit sites: ``(fs, consequence, sorted sites)``; otherwise
#: ``(consequence, sorted signature tokens)``.  JSON turns the tuples into
#: lists; :meth:`Triage.add_key` accepts either form.
TriageKey = tuple


@dataclass
class Cluster:
    """A group of similar reports; the first is the exemplar.

    Lexical clusters match on ``tokens``; provenance clusters carry a
    ``prov_key`` ((fs, consequence) pair) and a growing union of culprit
    ``sites``.
    """

    exemplar: BugReport
    tokens: FrozenSet[str]
    #: (fs_name, consequence name) for provenance clusters; None = lexical.
    prov_key: Optional[Tuple[str, str]] = None
    #: Union of the members' culprit site sets (provenance clusters only).
    sites: FrozenSet[Site] = frozenset()
    #: Members, the exemplar included.  Only the exemplar is kept: a
    #: caller that needs membership records the cluster :meth:`Triage.add`
    #: returns for each report.
    count: int = 1

    def describe(self) -> str:
        return f"x{self.count} {self.exemplar.render()}"

    def describe_sites(self) -> str:
        """The culprit sites, rendered for reports (provenance clusters)."""
        if not self.sites:
            return ""
        return ", ".join(
            f"{func}@{region}" for func, region in sorted(self.sites)
        )


class Triage:
    """Online clustering of bug reports.

    With ``provenance=True``, reports carrying a usable culprit site set
    cluster by (fs, consequence, intersecting sites); everything else runs
    through the lexical procedure against lexical clusters only, so the two
    populations never cross-contaminate.

    Clustering reads a report only through its :meth:`key_of`, so a stream
    of keys replays it exactly: :meth:`add_key` needs the report itself only
    where its key founds a cluster (the report becomes the exemplar).  A
    key already seen always joins an existing cluster — a provenance
    cluster's sites only grow, so they still intersect it, and a lexical
    cluster's tokens never change, so the one the earlier equal key founded
    or joined still scores at least the threshold — which is what lets the
    campaign merge replay compact worker entries.
    """

    def __init__(self, threshold: float = 0.72, provenance: bool = False) -> None:
        self.threshold = threshold
        self.provenance = provenance
        self.clusters: List[Cluster] = []

    def key_of(self, report: BugReport) -> TriageKey:
        """The triage key of ``report`` (see :data:`TriageKey`)."""
        if self.provenance:
            sites = provenance_sites(report)
            if sites:
                return (report.provenance.fs_name, report.consequence.name,
                        tuple(sorted(sites)))
        return (report.consequence.name,
                tuple(sorted(tokenize(report.signature()))))

    def add(self, report: BugReport) -> Cluster:
        """Insert a report, returning the cluster it joined (or founded)."""
        return self.add_key(self.key_of(report), report)

    def add_key(self, key: TriageKey, report: Optional[BugReport]) -> Cluster:
        """Insert one report by its key, returning the cluster it joined or
        founded; ``report`` may be ``None`` unless the key founds one."""
        if len(key) == 3:
            fs_name, consequence, site_list = key
            sites = frozenset(map(tuple, site_list))
            prov_key = (fs_name, consequence)
            for cluster in self.clusters:
                if cluster.prov_key == prov_key and cluster.sites & sites:
                    cluster.count += 1
                    cluster.sites = cluster.sites | sites
                    return cluster
            tokens = None
        else:
            tokens, prov_key, sites = frozenset(key[1]), None, frozenset()
            best: Cluster | None = None
            best_score = 0.0
            for cluster in self.clusters:
                if cluster.prov_key is not None:
                    continue
                score = jaccard(tokens, cluster.tokens)
                if score > best_score:
                    best, best_score = cluster, score
            if best is not None and best_score >= self.threshold:
                best.count += 1
                return best
        if report is None:
            raise ValueError(
                f"triage key {key!r} founds a cluster but carries no report"
            )
        cluster = Cluster(
            exemplar=report,
            tokens=tokenize(report.signature()) if tokens is None else tokens,
            prov_key=prov_key,
            sites=sites,
        )
        self.clusters.append(cluster)
        return cluster

    def add_all(self, reports: List[BugReport]) -> None:
        for report in reports:
            self.add(report)

    @property
    def unique(self) -> List[BugReport]:
        return [c.exemplar for c in self.clusters]

    def summary(self) -> str:
        return "\n\n".join(c.describe() for c in self.clusters)


def triage_reports(
    reports: List[BugReport],
    threshold: float = 0.72,
    provenance: bool = False,
) -> List[Cluster]:
    """Cluster a batch of reports (convenience wrapper)."""
    triage = Triage(threshold, provenance=provenance)
    triage.add_all(reports)
    return triage.clusters
