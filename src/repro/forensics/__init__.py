"""Bug forensics: crash-state provenance, minimization, and timelines.

The subsystem turns a confirmed checker failure into a diagnosis:

* :mod:`repro.forensics.provenance` — store-level lineage
  (:class:`CrashProvenance`) attached to
  :class:`~repro.core.report.BugReport` when a crash state fails, and
  built on first read;
* :mod:`repro.forensics.replay` — offline rematerialization of a crash
  state from its provenance (the engine behind ``python -m repro explain``);
* :mod:`repro.forensics.minimize` — delta-debugging passes that shrink
  the dropped store set to a minimal culprit set and the op sequence to a
  minimal workload reproducing the same outcome;
* :mod:`repro.forensics.cache` — cross-report minimization cache:
  recordings keyed by repro context, ddmin verdicts keyed by
  persisted-subset hash;
* :mod:`repro.forensics.timeline` — fence-epoch ordering timelines (ASCII
  and Chrome trace-event) and layout-annotated image diffs;
* :mod:`repro.forensics.explain` — the ``repro explain`` driver;
* :mod:`repro.forensics.batch` — ``repro explain --all``: every report in
  a campaign's ``bugs.json`` through one shared cache, clustered by
  culprit site, rendered to ``forensics.md``.

Only the dependency-light provenance layer is imported eagerly; the replay
and explain layers import the harness and are loaded as submodules to keep
``repro.core`` ↔ ``repro.forensics`` imports acyclic.
"""

from repro.forensics.provenance import (
    CrashProvenance,
    ProvEntry,
    ProvenanceRecorder,
    capture_provenance,
)

__all__ = [
    "CrashProvenance",
    "ProvEntry",
    "ProvenanceRecorder",
    "capture_provenance",
]
