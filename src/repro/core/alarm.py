"""Alarm policy: turning a leakage report into an operational decision.

The paper's Evaluator "raises the alarm if the null hypothesis is rejected".
Deployed as-is over many events and pairs that rule accumulates false
alarms, so the policy layer supports multiple-comparison correction and a
minimum-rejections threshold while defaulting to the paper's behaviour.

The rule runs on a ``(pair, event)`` p-value array — what a streaming
tick computes — so a resident monitor decides without building a
:class:`~repro.core.leakage.LeakageReport`; a report is laid out as that
array first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import EvaluationError
from ..stats.corrections import adjust_p_value_columns
from ..uarch.events import HpcEvent
from .leakage import LeakageReport


@dataclass(frozen=True)
class Alarm:
    """Outcome of applying an :class:`AlarmPolicy` to a report.

    Attributes:
        triggered: Whether the alarm fires.
        reasons: One line per triggering event.
        rejections_by_event: Post-correction rejection counts.
    """

    triggered: bool
    reasons: List[str]
    rejections_by_event: Dict[HpcEvent, int]

    def format(self) -> str:
        """Render the alarm decision."""
        if not self.triggered:
            return "no alarm: no event distinguishes any category pair"
        lines = ["ALARM RAISED:"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


@dataclass(frozen=True)
class AlarmPolicy:
    """Configurable alarm rule.

    Attributes:
        min_rejections: Pairs an event must distinguish before it counts
            (paper: 1).
        correction: Multiple-comparison correction applied per event family
            (``none`` reproduces the paper; ``holm`` is the conservative
            deployment default).
    """

    min_rejections: int = 1
    correction: str = "none"

    def __post_init__(self) -> None:
        if self.min_rejections < 1:
            raise EvaluationError(
                f"min_rejections must be >= 1, got {self.min_rejections}"
            )

    def decide(self, report: LeakageReport) -> Alarm:
        """Apply the policy to a leakage report, at its confidence."""
        columns = [report.for_event(event) for event in report.events]
        p_value = np.array([[r.ttest.p_value for r in results]
                            for results in columns]).T
        return self.decide_p_values(
            p_value, 1.0 - report.confidence,
            pairs=[r.pair for r in columns[0]], events=report.events)

    def decide_p_values(self, p_value: np.ndarray, alpha: float,
                        pairs: Sequence[Tuple[int, int]],
                        events: Sequence[HpcEvent]) -> Alarm:
        """Apply the policy to a ``(P, E)`` p-value array at level ``alpha``.

        Row ``i`` holds pair ``pairs[i]``, column ``j`` event
        ``events[j]``; each column is corrected as one family.  A cell is
        rejected when its (corrected) p-value is below ``alpha``, so a
        zero ``alpha`` never alarms.
        """
        p_value = adjust_p_value_columns(p_value, self.correction)
        rejected = p_value < alpha
        per_event = rejected.sum(axis=0)
        counts = per_event.tolist()
        reasons: List[str] = []
        for column in np.flatnonzero(
                per_event >= self.min_rejections).tolist():
            pair_text = ", ".join([
                "(%d,%d)" % tuple(pairs[row])
                for row in np.flatnonzero(rejected[:, column]).tolist()])
            reasons.append(
                f"event {events[column].value!r} distinguishes "
                f"{counts[column]} category pair(s): {pair_text}")
        return Alarm(triggered=bool(reasons), reasons=reasons,
                     rejections_by_event=dict(zip(events, counts)))


#: The paper's policy: any single rejection, no correction.
PAPER_POLICY = AlarmPolicy(min_rejections=1, correction="none")

#: A deployment-oriented policy: Holm-corrected, still single rejection.
CONSERVATIVE_POLICY = AlarmPolicy(min_rejections=1, correction="holm")
