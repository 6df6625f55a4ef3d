"""Drift alarms: has a stream moved away from its own long-run behaviour?

The leakage evaluator answers "do these categories differ from *each
other*?".  A resident monitor also needs the complementary question — "has
this category's stream recently drifted from its *own* history?" — because
a deployment change (new model weights, co-tenant contention, a hardware
event remap) shifts counter distributions long before it flips a pairwise
verdict.  :class:`~repro.stats.streaming.SlidingWindowMoments` has carried
the ``drift_z_scores`` machinery since the streaming engine landed, but
nothing ever called it outside its own unit test; this module turns it
into an operational alarm used by ``repro stream --drift-threshold`` and
the ``repro serve`` daemon.

Per category a trailing window of the last ``window`` measurement rows is
kept (O(W·e) memory).  After every evaluation tick the window mean is
z-scored against the category's long-run Welford baseline — the same
accumulators the leakage verdicts run on — and any |z| at or above the
threshold raises a :class:`DriftAlarm`, recorded once per (category,
event) cell like the leakage path's first-detection bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import EvaluationError
from ..obs import runtime as obs
from ..stats.streaming import SlidingWindowMoments, StreamingMoments
from ..uarch.events import HpcEvent

__all__ = ["DriftAlarm", "DriftMonitor"]


@dataclass(frozen=True)
class DriftAlarm:
    """First drift detection of one (category, event) cell.

    Attributes:
        category: The drifting category (model label).
        event: The drifting hardware event.
        z_score: Window-mean z-score against the long-run baseline at
            first detection (signed; the threshold tests ``|z|``).
        window: Rows inside the trailing window at detection.
        baseline_n: Long-run samples behind the baseline at detection.
        tick: Evaluation tick (1-based) of the first detection.
    """

    category: int
    event: HpcEvent
    z_score: float
    window: int
    baseline_n: int
    tick: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly row (stable key order)."""
        return {
            "category": self.category,
            "event": self.event.value,
            "z_score": self.z_score,
            "window": self.window,
            "baseline_n": self.baseline_n,
            "tick": self.tick,
        }

    def format(self, display: Optional[Mapping[int, int]] = None) -> str:
        """One-line rendering with optional display-label remapping."""
        category = display[self.category] if display else self.category
        return (f"{self.event.value}: category t{category} drifted "
                f"z={self.z_score:+.1f} at tick {self.tick} "
                f"(window {self.window}, baseline n={self.baseline_n})")


class DriftMonitor:
    """Trailing-window drift detector over per-category event streams.

    Feed it the same measurement rows the leakage evaluator consumes
    (:meth:`observe`), then :meth:`check` against the evaluator's long-run
    accumulators after each tick.  Each (category, event) cell alarms at
    most once — the first tick where the trailing window mean sits
    ``threshold`` or more standard errors away from the long-run mean.

    Args:
        window: Trailing rows retained per category (>= 2).
        threshold: |z| at which a cell alarms (standard errors of the
            window mean under the baseline's variance).
    """

    def __init__(self, window: int = 32, threshold: float = 4.0):
        if window < 2:
            raise EvaluationError(f"window must be >= 2, got {window}")
        if threshold <= 0.0:
            raise EvaluationError(
                f"threshold must be > 0, got {threshold}")
        self.window = window
        self.threshold = float(threshold)
        self._windows: Dict[int, SlidingWindowMoments] = {}
        self._alarms: Dict[Tuple[int, HpcEvent], DriftAlarm] = {}

    def observe(self, category: int, rows: np.ndarray) -> None:
        """Append one category's ``(B, E)`` measurement rows."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        window = self._windows.get(int(category))
        if window is None:
            window = self._windows[int(category)] = SlidingWindowMoments(
                self.window, rows.shape[1])
        window.observe(rows)

    def savepoint(self, categories: Iterable[int]) -> Tuple:
        """Copies of ``categories``' windows plus the alarm count, which
        :meth:`rollback` restores — O(W·e) per category."""
        windows = {}
        for category in categories:
            window = self._windows.get(int(category))
            windows[int(category)] = (None if window is None
                                      else window.copy())
        return windows, len(self._alarms)

    def rollback(self, savepoint: Tuple) -> None:
        """Put the windows back and drop alarms raised since
        :meth:`savepoint`."""
        windows, alarms = savepoint
        for category, window in windows.items():
            if window is None:
                self._windows.pop(category, None)
            else:
                self._windows[category] = window
        for key in list(self._alarms)[alarms:]:
            del self._alarms[key]

    def check(self, baseline: StreamingMoments,
              events: Sequence[HpcEvent], tick: int) -> List[DriftAlarm]:
        """Z-score every category's window against its long-run baseline.

        Args:
            baseline: The long-run accumulators (normally the streaming
                evaluator's own moments — the window is compared against
                everything the stream has ever seen, itself included).
            events: Column labels of the accumulator/window columns.
            tick: Current evaluation tick, stamped into new alarms.

        Returns:
            Alarms first raised by this check (all alarms ever raised
            remain available through :meth:`alarms`).
        """
        events = tuple(events)
        new: List[DriftAlarm] = []
        for category in sorted(self._windows):
            window = self._windows[category]
            try:
                row = baseline.row(category)
            except Exception:
                continue
            # The baseline variance needs >= 2 samples; a window shorter
            # than 2 rows has a meaningless mean estimate.
            if row.count < 2 or window.count < 2:
                continue
            if len(events) != row.columns:
                raise EvaluationError(
                    f"expected {row.columns} event labels, "
                    f"got {len(events)}")
            z_scores = window.drift_z_scores(row)
            for column, z in enumerate(z_scores):
                if abs(z) < self.threshold:
                    continue
                key = (category, events[column])
                if key in self._alarms:
                    continue
                alarm = DriftAlarm(
                    category=category, event=events[column],
                    z_score=float(z), window=window.count,
                    baseline_n=row.count, tick=tick)
                self._alarms[key] = alarm
                new.append(alarm)
        if new:
            obs.inc("drift.alarms", len(new))
            for alarm in new:
                obs.observe("drift.z_score", abs(alarm.z_score),
                            event=alarm.event.value)
        return new

    @property
    def alarm(self) -> bool:
        """True once any cell has ever drifted past the threshold."""
        return bool(self._alarms)

    def alarms(self) -> List[DriftAlarm]:
        """All first-detection records, in (category, event) order."""
        return sorted(self._alarms.values(),
                      key=lambda a: (a.category, a.event.value))

    def alarm_rows(self) -> List[Dict[str, object]]:
        """JSON-friendly :meth:`alarms` rows (deterministic order)."""
        return [alarm.to_dict() for alarm in self.alarms()]

    def memory_bytes(self) -> int:
        """Bytes retained by the windows (flat in stream length)."""
        total = len(self._alarms) * 64
        for window in self._windows.values():
            total += window.capacity * window.columns * 8
        return total

    # ------------------------------------------------------------------
    # Persistence (serve checkpoint format)
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able monitor state: per-category windows + alarm table.

        Both halves must persist: the windows cannot be re-derived from
        the long-run accumulators, and the first-detection alarm table is
        what keeps already-alarmed cells from re-firing as new first
        detections after a checkpoint/resume.  Alarm events are stored by
        their string value (npz-friendly) and rebound to
        :class:`~repro.uarch.events.HpcEvent` on restore.
        """
        out: Dict[str, np.ndarray] = {}
        for category in sorted(self._windows):
            for key, value in self._windows[category].state().items():
                out[f"drift/cat{category}/{key}"] = value
        if self._alarms:
            alarms = self.alarms()
            out["drift/alarms/category"] = np.asarray(
                [a.category for a in alarms], dtype=np.int64)
            out["drift/alarms/event"] = np.asarray(
                [a.event.value for a in alarms])
            out["drift/alarms/z_score"] = np.asarray(
                [a.z_score for a in alarms], dtype=np.float64)
            out["drift/alarms/window"] = np.asarray(
                [a.window for a in alarms], dtype=np.int64)
            out["drift/alarms/baseline_n"] = np.asarray(
                [a.baseline_n for a in alarms], dtype=np.int64)
            out["drift/alarms/tick"] = np.asarray(
                [a.tick for a in alarms], dtype=np.int64)
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   window: int, threshold: float) -> "DriftMonitor":
        """Rebuild a monitor's windows from persisted :meth:`state`."""
        monitor = cls(window=window, threshold=threshold)
        per_category: Dict[int, Dict[str, np.ndarray]] = {}
        for key, value in arrays.items():
            if not key.startswith("drift/cat"):
                continue
            cat_part, rest = key[len("drift/"):].split("/", 1)
            per_category.setdefault(int(cat_part[3:]), {})[rest] = value
        for category, state in per_category.items():
            monitor._windows[category] = SlidingWindowMoments.from_state(
                state)
        if "drift/alarms/category" in arrays:
            columns = [np.asarray(arrays[f"drift/alarms/{name}"])
                       for name in ("category", "event", "z_score",
                                    "window", "baseline_n", "tick")]
            for category, event, z, win, baseline_n, tick in zip(*columns):
                alarm = DriftAlarm(
                    category=int(category), event=HpcEvent(str(event)),
                    z_score=float(z), window=int(win),
                    baseline_n=int(baseline_n), tick=int(tick))
                monitor._alarms[(alarm.category, alarm.event)] = alarm
        return monitor
