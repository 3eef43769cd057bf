"""Live campaign monitor (``python -m repro watch CAMPAIGN_DIR``).

The campaign engine already externalizes everything a dashboard needs, as
a side effect of being crash-safe: the fsync'd checkpoint journal is an
append-only event log of per-item completions (now timestamped), and each
worker leaves a per-item heartbeat beacon.  The monitor is therefore a
pure *reader* — it attaches to a campaign directory from any terminal,
re-replays the journal each tick, and renders a refreshing dashboard:

* progress bar, throughput (recent items/min) and ETA,
* bugs-so-far and the skip counters, the journaled results folded by
  the shared result fold (:class:`~repro.obs.campaign.ResultFold`) and
  rendered by its :meth:`~repro.obs.campaign.ResultFold.counter_lines`,
* per-worker liveness from heartbeat mtimes (a worker grinding through a
  slow workload shows its current item; a wedged one shows as stale),
* quarantine count, and each retried or quarantined item's error and the
  innermost frame of its traceback.

It exits 0 when the journal's ``campaign_done`` marker appears, so shell
scripts can ``repro ace ... &; repro watch DIR && notify``.  Re-replaying
the whole journal per tick is deliberate: journals are small (one line per
work item), and statelessness means the monitor survives the campaign
being killed, resumed, or finished between any two polls.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.reporting import failure_text
from repro.campaign.journal import CheckpointJournal, JournalState
from repro.obs.campaign import ResultFold

#: A heartbeat older than this is rendered as stale ("no heartbeat").
STALE_HEARTBEAT_S = 30.0
#: Throughput window: rate is computed over item completions this recent.
RATE_WINDOW_S = 60.0


@dataclass
class WorkerBeat:
    """One worker's last heartbeat beacon."""

    worker: int
    item: Optional[str]
    t: float

    @property
    def age(self) -> float:
        return max(0.0, time.time() - self.t)

    @property
    def stale(self) -> bool:
        return self.age > STALE_HEARTBEAT_S


@dataclass
class Snapshot:
    """One poll's view of a campaign directory."""

    state: JournalState
    beats: List[WorkerBeat] = field(default_factory=list)
    now: float = 0.0

    @property
    def n_done(self) -> int:
        return len(self.state.results)

    @property
    def n_quarantined(self) -> int:
        return len(self.state.quarantined)

    @property
    def n_items(self) -> Optional[int]:
        return self.state.n_items

    @property
    def complete(self) -> bool:
        return self.state.completed_marker

    @property
    def rate_per_min(self) -> float:
        """Item completions per minute over the recent window."""
        recent = [t for t in self.state.times.values()
                  if self.now - t <= RATE_WINDOW_S]
        if len(recent) < 2:
            # Fall back to the whole-campaign average when the window is
            # too thin (start-up, or a very slow campaign).
            stamps = sorted(self.state.times.values())
            if len(stamps) < 2:
                return 0.0
            span = stamps[-1] - stamps[0]
            return (len(stamps) - 1) / span * 60.0 if span > 0 else 0.0
        span = self.now - min(recent)
        return len(recent) / span * 60.0 if span > 0 else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        if self.n_items is None or self.complete:
            return None
        remaining = self.n_items - self.n_done - self.n_quarantined
        rate = self.rate_per_min
        if remaining <= 0 or rate <= 0:
            return None
        return remaining / (rate / 60.0)

    def aggregate(self) -> ResultFold:
        """The journaled results so far, through the shared result fold."""
        agg = ResultFold()
        for fields in self.state.ordered_results():
            agg.add_fields(fields)
        return agg


class CampaignMonitor:
    """Stateless poller + renderer over one campaign directory."""

    def __init__(self, campaign_dir: str) -> None:
        self.campaign_dir = campaign_dir

    def snapshot(self) -> Snapshot:
        state = CheckpointJournal.replay(self.campaign_dir)
        beats: List[WorkerBeat] = []
        for path in sorted(glob.glob(
            os.path.join(self.campaign_dir, "worker-*.hb")
        )):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
                beats.append(WorkerBeat(
                    worker=int(record.get("worker", -1)),
                    item=record.get("item"),
                    t=float(record.get("t", 0.0)),
                ))
            except (OSError, ValueError):
                continue  # torn beacon write: skip this poll, not fatal
        # A resumed campaign leaves beacons from several run tags; keep the
        # freshest beacon per worker id.
        freshest: Dict[int, WorkerBeat] = {}
        for beat in beats:
            if beat.worker not in freshest or beat.t > freshest[beat.worker].t:
                freshest[beat.worker] = beat
        return Snapshot(
            state=state,
            beats=[freshest[w] for w in sorted(freshest)],
            now=time.time(),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _fmt_eta(seconds: Optional[float]) -> str:
        if seconds is None:
            return "--"
        seconds = int(seconds)
        if seconds >= 3600:
            return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
        if seconds >= 60:
            return f"{seconds // 60}m{seconds % 60:02d}s"
        return f"{seconds}s"

    def render(self, snap: Snapshot, width: int = 72) -> str:
        lines: List[str] = []
        spec = snap.state.spec_dict or {}
        name = f"{spec.get('fs', '?')}/{spec.get('generator', '?')}"
        status = "COMPLETE" if snap.complete else "running"
        lines.append(f"campaign {self.campaign_dir}  [{name}]  {status}")

        n_items = snap.n_items
        done = snap.n_done
        if n_items:
            frac = min(1.0, (done + snap.n_quarantined) / n_items)
            bar_w = max(10, width - 30)
            filled = int(round(frac * bar_w))
            bar = "=" * filled + "-" * (bar_w - filled)
            lines.append(
                f"[{bar}] {done}/{n_items} ({frac * 100:.0f}%)"
            )
        else:
            lines.append(f"{done} item(s) done (total unknown)")

        rate = snap.rate_per_min
        lines.append(
            f"throughput {rate:.1f} items/min   "
            f"eta {self._fmt_eta(snap.eta_s)}   "
            f"quarantined {snap.n_quarantined}"
        )

        agg = snap.aggregate()
        lines.append(
            f"crash states {agg.crash_states}   "
            f"checked {agg.unique_states}   "
            f"bug reports {agg.total('n_reports')}"
        )
        lines.extend(f"{label}: {text}" for label, text in agg.counter_lines())

        if snap.beats and not snap.complete:
            lines.append("workers:")
            for beat in snap.beats:
                if beat.stale:
                    liveness = f"STALE ({int(beat.age)}s without heartbeat)"
                elif beat.item:
                    liveness = f"running {beat.item} ({beat.age:.0f}s ago)"
                else:
                    liveness = f"idle ({beat.age:.0f}s ago)"
                lines.append(f"  w{beat.worker}: {liveness}")
        for item_id, record in sorted(snap.state.retried.items()):
            lines.append(f"retried {item_id} (attempt "
                         f"{record.get('attempt', '?')}): "
                         f"{failure_text(record)}")
        for item_id, record in sorted(snap.state.quarantined.items()):
            lines.append(f"quarantined {item_id}: {failure_text(record)}")
        if snap.state.torn_lines:
            lines.append(f"(journal has {snap.state.torn_lines} torn line(s))")
        return "\n".join(lines)


def watch(
    campaign_dir: str,
    interval: float = 1.0,
    once: bool = False,
    timeout: Optional[float] = None,
    out=None,
) -> int:
    """Poll a campaign directory until it completes; returns an exit code.

    0 — campaign complete (or ``once`` rendered a frame); 2 — the directory
    has no journal; 3 — ``timeout`` elapsed before completion; 130 —
    interrupted.
    """
    out = out if out is not None else sys.stdout
    if not os.path.exists(
        os.path.join(campaign_dir, CheckpointJournal.FILENAME)
    ):
        print(f"no {CheckpointJournal.FILENAME} in {campaign_dir} — "
              f"not a campaign directory (or the campaign has not started)",
              file=out)
        return 2
    monitor = CampaignMonitor(campaign_dir)
    is_tty = hasattr(out, "isatty") and out.isatty()
    deadline = time.monotonic() + timeout if timeout is not None else None
    try:
        while True:
            snap = monitor.snapshot()
            frame = monitor.render(snap)
            if is_tty:
                # Clear + home: a refreshing dashboard, not a scrolling log.
                out.write("\x1b[2J\x1b[H" + frame + "\n")
            else:
                out.write(frame + "\n")
            out.flush()
            if snap.complete or once:
                return 0
            if deadline is not None and time.monotonic() >= deadline:
                print("watch timeout reached before campaign completion",
                      file=out)
                return 3
            time.sleep(interval)
    except KeyboardInterrupt:
        return 130
