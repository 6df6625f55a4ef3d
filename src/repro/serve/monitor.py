"""Per-tenant evaluation core of the monitoring daemon.

A :class:`TenantMonitor` owns exactly the machinery one ``repro stream``
run owns — a :class:`~repro.core.streaming.StreamingEvaluator` plus an
optional :class:`~repro.core.drift.DriftMonitor` — and folds measurement
rounds into it in a canonical order: **sorted category order, then one
tick**.  Because per-category moment accumulators are independent and the
tick points coincide, a daemon that ingests the same row sequence as an
offline replay produces bit-identical t statistics, p-values and
first-detection records, no matter how the rounds were interleaved on the
wire.  That equivalence is the daemon's correctness contract and is
enforced by test and bench.

On top of the stream-identical detection bookkeeping sits the *resident*
alarm layer: a stream that runs forever cannot re-test at a fixed alpha
(every leak-free tenant would eventually alarm), so each tick ``t`` is
re-tested at the spent level :func:`~repro.core.sequential.spend_alpha`
``(alpha, t)``, Bonferroni-split across the tick's (pair, event) cells,
and the verdict is passed through the configured
:class:`~repro.core.alarm.AlarmPolicy`.  A union bound — across ticks by
the spending series, across cells by the split — caps the lifetime
false-alarm probability of this layer at ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.alarm import Alarm
from ..core.drift import DriftAlarm, DriftMonitor
from ..core.sequential import spend_alpha
from ..core.streaming import AlarmRecord, StreamingEvaluator
from ..errors import EvaluationError
from .config import ServeConfig, TenantSpec

__all__ = ["MeasurementRound", "RoundOutcome", "TenantMonitor"]


@dataclass(frozen=True)
class MeasurementRound:
    """One admission unit: a batch of rows for every category of a tenant.

    Attributes:
        tenant: Target tenant.
        index: 0-based round sequence number (per tenant).
        batches: ``category -> (B, E)`` float64 measurement rows; every
            configured category must be present with the same ``B``.
        submitted_at: Producer-side monotonic timestamp (seconds), used
            for ingest-latency and alarm-lag accounting.
    """

    tenant: str
    index: int
    batches: Mapping[int, np.ndarray]
    submitted_at: float = 0.0

    def nbytes(self) -> int:
        """Payload bytes (the row arrays; admission accounting)."""
        return int(sum(rows.nbytes for rows in self.batches.values()))


@dataclass(frozen=True)
class RoundOutcome:
    """What ingesting one round produced.

    Attributes:
        tenant: The tenant.
        round_index: The ingested round.
        tick: Evaluation tick index (None while the evaluator warms up).
        new_detections: First-detection records raised on this tick
            (identical to what ``repro stream`` would record).
        leakage_alarm: The spending-layer policy decision on the tick's
            p-values at the spent per-cell level (None before the first
            tick; never triggered once that level underflows to 0.0).
        spent_alpha: Significance level the spending layer tested at.
        drift_alarms: Drift cells first raised on this tick.
    """

    tenant: str
    round_index: int
    tick: Optional[int]
    new_detections: Tuple[AlarmRecord, ...] = ()
    leakage_alarm: Optional[Alarm] = None
    spent_alpha: Optional[float] = None
    drift_alarms: Tuple[DriftAlarm, ...] = ()

    @property
    def alarmed(self) -> bool:
        """True when the spending alarm layer fired on this round."""
        return bool(self.leakage_alarm is not None
                    and self.leakage_alarm.triggered)


class TenantMonitor:
    """Streaming leakage + drift evaluation for one tenant.

    Args:
        spec: The tenant being monitored.
        config: Daemon-wide settings (confidence, spending, policy...).
    """

    def __init__(self, spec: TenantSpec, config: ServeConfig):
        self.spec = spec
        self.config = config
        self.evaluator = StreamingEvaluator(
            confidence=config.confidence, method=config.method,
            events=spec.events)
        self.drift: Optional[DriftMonitor] = None
        if config.drift_threshold is not None:
            self.drift = DriftMonitor(window=config.drift_window,
                                      threshold=config.drift_threshold)
        self.rounds_ingested = 0
        #: Rounds on which the spending alarm layer fired.
        self.leakage_alarm_count = 0
        self._first_leakage_alarm: Optional[RoundOutcome] = None

    def ingest_round(self, round_: MeasurementRound) -> RoundOutcome:
        """Fold one round in: sorted categories, then a single tick.

        The canonical fold order is load-bearing: it is exactly the order
        ``MeasurementSession.stream`` and ``replay_stream`` use, which is
        what makes daemon verdicts bit-identical to offline ones.

        Ingestion is all-or-nothing: every batch is validated and
        converted before the first accumulator is touched, and a failure
        after the fold restores the O(k·e) state the round touched, so a
        round that raises leaves the monitor bit-identical to before the
        call.  The daemon's exactly-once re-ingest after a consumer
        restart depends on this — a round that half-mutated state before
        raising would be double-counted on replay.
        """
        if round_.tenant != self.spec.tenant:
            raise EvaluationError(
                f"round for tenant {round_.tenant!r} routed to monitor "
                f"of {self.spec.tenant!r}")
        missing = set(self.spec.categories) - set(round_.batches)
        if missing:
            raise EvaluationError(
                f"round {round_.index} of tenant {round_.tenant!r} is "
                f"missing categories {sorted(missing)}")
        columns = len(self.spec.events)
        batches: Dict[int, np.ndarray] = {}
        for category in sorted(round_.batches):
            try:
                rows = np.asarray(round_.batches[category],
                                  dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise EvaluationError(
                    f"round {round_.index} of tenant {round_.tenant!r}: "
                    f"category {category} rows are not numeric") from exc
            if rows.ndim == 1:
                rows = rows[None, :]
            if rows.ndim != 2 or rows.shape[1] != columns:
                raise EvaluationError(
                    f"round {round_.index} of tenant {round_.tenant!r}: "
                    f"category {category} rows have shape {rows.shape}, "
                    f"expected (B, {columns})")
            batches[category] = rows
        # Validated float64 (B, E) arrays only from here on.  The steps
        # after the fold (tick, alarm rule, drift check) can still raise;
        # the fold is then undone, so the re-ingest after a consumer
        # restart counts the round once.
        evaluator_undo = self.evaluator.savepoint(batches)
        drift_undo = (self.drift.savepoint(batches)
                      if self.drift is not None else None)
        try:
            outcome = self._fold(round_.index, batches)
        except BaseException:
            self.evaluator.rollback(evaluator_undo)
            if drift_undo is not None:
                self.drift.rollback(drift_undo)
            raise
        self.rounds_ingested += 1
        if outcome.alarmed:
            self.leakage_alarm_count += 1
            if self._first_leakage_alarm is None:
                self._first_leakage_alarm = outcome
        return outcome

    def _fold(self, round_index: int,
              batches: Mapping[int, np.ndarray]) -> RoundOutcome:
        for category, rows in batches.items():
            self.evaluator.observe_rows(category, rows)
            if self.drift is not None:
                self.drift.observe(category, rows)
        if not self.evaluator.ready:
            return RoundOutcome(tenant=self.spec.tenant,
                                round_index=round_index, tick=None)
        tick = self.evaluator.tick()
        alpha = spend_alpha(self.config.alpha, tick.tick,
                            scheme=self.config.spending)
        # The spent budget covers the tick's whole (pair, event) family:
        # each cell is tested at a Bonferroni share, so the union bound
        # holds across cells within a tick as well as across ticks.  The
        # rule reads the tick's own p-values; once the share underflows
        # to 0.0 no cell can reject.
        alpha_cell = alpha / (len(tick.pairs) * len(tick.events))
        leakage_alarm = self.config.policy.decide_p_values(
            tick.p_value, alpha_cell, tick.pairs, tick.events)
        drift_alarms: Tuple[DriftAlarm, ...] = ()
        if self.drift is not None:
            drift_alarms = tuple(self.drift.check(
                self.evaluator.moments, self.evaluator.events, tick.tick))
        return RoundOutcome(
            tenant=self.spec.tenant,
            round_index=round_index,
            tick=tick.tick,
            new_detections=tuple(tick.new_detections),
            leakage_alarm=leakage_alarm,
            spent_alpha=alpha,
            drift_alarms=drift_alarms,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leakage_alarmed(self) -> bool:
        """True once the spending alarm layer has ever fired."""
        return self._first_leakage_alarm is not None

    @property
    def first_leakage_alarm(self) -> Optional[RoundOutcome]:
        """The first spending-layer alarm (None while quiet)."""
        return self._first_leakage_alarm

    @property
    def drift_alarmed(self) -> bool:
        """True once any drift cell has fired."""
        return self.drift is not None and self.drift.alarm

    def memory_bytes(self) -> int:
        """Evaluator + drift state bytes (flat in stream length)."""
        total = self.evaluator.memory_bytes()
        if self.drift is not None:
            total += self.drift.memory_bytes()
        return total

    def summary(self) -> Dict[str, object]:
        """JSON-friendly tenant status row."""
        detections = self.evaluator.alarm_latency()
        return {
            "tenant": self.spec.tenant,
            "model": self.spec.model,
            "rounds": self.rounds_ingested,
            "ticks": self.evaluator.ticks,
            "detections": len(detections),
            "leakage_alarm": self.leakage_alarmed,
            "leakage_alarm_tick": (
                self._first_leakage_alarm.tick
                if self._first_leakage_alarm else None),
            "leakage_alarms": self.leakage_alarm_count,
            "drift_alarm": self.drift_alarmed,
            "drift_alarms": (self.drift.alarm_rows()
                             if self.drift is not None else []),
            "memory_bytes": self.memory_bytes(),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Npz-able monitor state (evaluator, drift, alarm record).

        Alongside the evaluator accumulators and drift windows/alarm
        table, the spending layer persists its first alarm as one
        ``(tick, round_index)`` row plus the number of alarmed rounds, so
        :attr:`leakage_alarmed`, the summary's first-alarm tick and
        :attr:`leakage_alarm_count` survive a checkpoint/resume — in a
        size that stays flat however long the tenant keeps alarming.
        """
        out = self.evaluator.state()
        out["serve/rounds"] = np.asarray([self.rounds_ingested],
                                         dtype=np.int64)
        first = self._first_leakage_alarm
        if first is not None:
            out["serve/first_alarm"] = np.asarray(
                [first.tick, first.round_index], dtype=np.int64)
            out["serve/alarm_count"] = np.asarray(
                [self.leakage_alarm_count], dtype=np.int64)
        if self.drift is not None:
            out.update(self.drift.state())
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   spec: TenantSpec, config: ServeConfig) -> "TenantMonitor":
        """Rebuild a monitor from persisted :meth:`state` arrays.

        The restored first alarm carries its tick, round index and
        (recomputed) spent alpha; the full
        :class:`~repro.core.alarm.Alarm` decision object is not
        persisted, so :attr:`leakage_alarmed`, the first-alarm tick and
        the alarm count survive the round trip while the per-alarm
        report details do not.  Checkpoints that stored every alarmed
        round (``serve/alarm_rounds``) still load: their first row is the
        first alarm and their length the count.
        """
        monitor = cls(spec, config)
        monitor.evaluator = StreamingEvaluator.from_state(
            arrays, confidence=config.confidence, method=config.method)
        if "serve/rounds" in arrays:
            monitor.rounds_ingested = int(
                np.asarray(arrays["serve/rounds"])[0])
        if "serve/first_alarm" in arrays:
            first = np.asarray(arrays["serve/first_alarm"], dtype=np.int64)
            count = np.asarray(arrays.get("serve/alarm_count", ()),
                               dtype=np.int64)
        elif "serve/alarm_rounds" in arrays:
            # Older checkpoints kept one (tick, round_index) row per alarm.
            rows = np.asarray(arrays["serve/alarm_rounds"], dtype=np.int64)
            first = rows[0] if rows.ndim == 2 and len(rows) else rows
            count = np.asarray([len(rows)], dtype=np.int64)
        else:
            first = count = None
        if first is not None:
            if first.shape != (2,) or count.shape != (1,) or count[0] < 1:
                raise EvaluationError(
                    f"malformed alarm record in state of tenant "
                    f"{spec.tenant!r}: first alarm {first.tolist()}, "
                    f"count {count.tolist()}")
            tick, round_index = (int(value) for value in first)
            monitor._first_leakage_alarm = RoundOutcome(
                tenant=spec.tenant, round_index=round_index, tick=tick,
                spent_alpha=spend_alpha(config.alpha, tick,
                                        scheme=config.spending))
            monitor.leakage_alarm_count = int(count[0])
        if monitor.drift is not None:
            monitor.drift = DriftMonitor.from_state(
                arrays, window=config.drift_window,
                threshold=config.drift_threshold)
        return monitor
