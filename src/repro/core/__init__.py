"""Chipmunk: record-and-replay crash-consistency testing (paper section 3).

The pipeline mirrors Figure 2 of the paper:

1. :mod:`repro.core.probes` — attach function-level probes (the
   Kprobes/Uprobes analogue) to the target file system's centralized
   persistence functions and record a :class:`~repro.pm.log.PMLog` while the
   workload runs;
2. :mod:`repro.core.replayer` — construct crash states from the log by
   replaying subsets of the in-flight writes at each store fence;
3. :mod:`repro.core.oracle` — snapshot the legal state around every
   syscall, walking the recording run itself between syscalls;
4. :mod:`repro.core.checker` — mount each crash state and check atomicity,
   synchrony, and usability against the oracle;
5. :mod:`repro.core.report` / :mod:`repro.core.triage` — emit and deduplicate
   bug reports.

:class:`repro.core.harness.Chipmunk` ties the steps together.
"""

from repro.core.harness import Chipmunk, ChipmunkConfig, TestResult
from repro.core.report import BugReport
from repro.core.probes import ProbeSet
from repro.core.replayer import CrashState, enumerate_crash_states

__all__ = [
    "Chipmunk",
    "ChipmunkConfig",
    "TestResult",
    "BugReport",
    "ProbeSet",
    "CrashState",
    "enumerate_crash_states",
]
