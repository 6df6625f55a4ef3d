"""Streaming leakage evaluation: verdicts while measurements arrive.

The batch :class:`~repro.core.evaluator.Evaluator` needs every sample of
every (category, event) stream in memory before it can say anything.  The
:class:`StreamingEvaluator` instead folds each arriving measurement batch
into Welford accumulators (:mod:`repro.stats.streaming`) and re-derives the
full vectorized Welch/Student t + p-value broadcast from the ``(mean, var,
n)`` triples on every tick:

* O(k·e) memory total — no retained samples, flat in stream length;
* O(k²·e) work per tick — independent of how many samples have arrived;
* verdicts that match the batch evaluator on identical data (t-values to
  1e-9 relative, verdicts exactly — asserted by the equivalence suite and
  gated by ``benchmarks/bench_streaming.py``).

On top of the verdicts it tracks **alarm latency**: for every (category
pair, event) cell, the per-category sample budget at which the pair first
became distinguishable — the metric that matters for continuous
monitoring, where "how many samples does an adversary need" and "how fast
does the monitor notice" are the same number read from opposite sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import EvaluationError
from ..obs import runtime as obs
from ..stats.streaming import StreamingMoments
from ..stats.vectorized import batch_pairwise_tests
from ..uarch.events import EventCounts, HpcEvent
from .evaluator import Evaluator
from .leakage import LeakageReport

__all__ = [
    "AlarmRecord",
    "STREAM_STATE_SCHEMA_VERSION",
    "StreamTick",
    "StreamingEvaluator",
    "replay_stream",
    "streaming_report_section",
]

#: Version stamped into persisted evaluator state (checkpoint format).
STREAM_STATE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AlarmRecord:
    """First detection of one (category pair, event) cell.

    Attributes:
        event: The leaking hardware event.
        category_a: First category of the pair (model label).
        category_b: Second category of the pair.
        detection_n: Per-category samples consumed when the pair first
            became distinguishable (the smaller of the two categories'
            counts at that tick) — the alarm latency.
        tick: Tick index (1-based) of the first detection.
    """

    event: HpcEvent
    category_a: int
    category_b: int
    detection_n: int
    tick: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly row (stable key order)."""
        return {
            "event": self.event.value,
            "category_a": self.category_a,
            "category_b": self.category_b,
            "detection_n": self.detection_n,
            "tick": self.tick,
        }

    def format(self, display: Optional[Mapping[int, int]] = None) -> str:
        """One-line rendering with optional display-label remapping."""
        a, b = self.category_a, self.category_b
        if display:
            a, b = display[a], display[b]
        return (f"{self.event.value}: pair t{a},{b} detected at "
                f"n={self.detection_n} samples/category")


@dataclass
class StreamTick:
    """One evaluation tick over the current accumulator state.

    Attributes:
        tick: 1-based tick index.
        categories: Categories in row order of the arrays.
        events: Events in column order of the arrays.
        pairs: ``(category_a, category_b)`` per row, combination order.
        statistic: t statistics, shape ``(P, E)``.
        p_value: Two-sided p-values, shape ``(P, E)``.
        samples: Per-category samples folded in so far.
        rejections: Distinguishable (pair, event) cells this tick.
        alarm: True when any cell is distinguishable.
        new_detections: Cells first detected on this tick.
    """

    tick: int
    categories: List[int]
    events: Tuple[HpcEvent, ...]
    pairs: List[Tuple[int, int]]
    statistic: np.ndarray
    p_value: np.ndarray
    samples: Dict[int, int]
    rejections: int
    alarm: bool
    new_detections: List[AlarmRecord]


class StreamingEvaluator:
    """Incremental pairwise leakage evaluator over moment accumulators.

    Feed it measurement batches (:meth:`observe` / :meth:`observe_rows`) or
    shipped shard states (:meth:`merge_state`), then call :meth:`tick` as
    often as verdict freshness demands.  The hot tick path works purely on
    arrays; :meth:`report` materializes a batch-compatible
    :class:`~repro.core.leakage.LeakageReport` on demand.

    Args:
        confidence: Confidence level of the t-tests (paper: 0.95).
        method: ``"welch"`` (default) or ``"student"``.
        events: Optional event order; inferred from the first observed
            :class:`~repro.uarch.events.EventCounts` when omitted.
    """

    def __init__(self, confidence: float = 0.95, method: str = "welch",
                 events: Optional[Sequence[HpcEvent]] = None):
        # Evaluator validates confidence/method; reuse it for report().
        self._evaluator = Evaluator(confidence=confidence, method=method)
        self.confidence = confidence
        self.method = method
        self._events: Optional[Tuple[HpcEvent, ...]] = (
            tuple(events) if events is not None else None)
        self._moments: Optional[StreamingMoments] = (
            StreamingMoments(len(self._events)) if self._events else None)
        self._detections: Dict[Tuple[int, int, HpcEvent], AlarmRecord] = {}
        self._ticks = 0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    @property
    def events(self) -> Optional[Tuple[HpcEvent, ...]]:
        """Event order of the accumulator columns (None before data)."""
        return self._events

    @property
    def categories(self) -> List[int]:
        """Categories observed so far, sorted."""
        return self._moments.categories if self._moments else []

    @property
    def ticks(self) -> int:
        """Ticks evaluated so far."""
        return self._ticks

    @property
    def moments(self) -> Optional["StreamingMoments"]:
        """The long-run accumulators (None before any data).

        Exposed read-only as the drift baseline: a
        :class:`~repro.core.drift.DriftMonitor` z-scores its trailing
        windows against these — the same state the verdicts derive from.
        """
        return self._moments

    def samples_seen(self, category: int) -> int:
        """Measurements folded in for ``category``."""
        return self._moments.count(category) if self._moments else 0

    @property
    def ready(self) -> bool:
        """True when a tick is possible (>= 2 categories, each n >= 2)."""
        if self._moments is None:
            return False
        categories = self._moments.categories
        return (len(categories) >= 2
                and all(self._moments.count(c) >= 2 for c in categories))

    def _bind_events(self, events: Sequence[HpcEvent]) -> None:
        events = tuple(events)
        if self._events is None:
            self._events = events
            self._moments = StreamingMoments(len(events))
        elif events != self._events:
            raise EvaluationError(
                f"event order changed mid-stream: expected "
                f"{[e.value for e in self._events]}, got "
                f"{[e.value for e in events]}")

    def observe(self, category: int,
                readings: Sequence[EventCounts]) -> None:
        """Fold a batch of one category's measurements in."""
        readings = list(readings)
        if not readings:
            return
        if self._events is None:
            # Measurement insertion order — the same convention
            # EventDistributions.events uses, so streaming and batch
            # reports list their columns identically.
            self._bind_events(list(readings[0]))
        events = self._events
        rows = np.empty((len(readings), len(events)), dtype=np.float64)
        for i, counts in enumerate(readings):
            for j, event in enumerate(events):
                rows[i, j] = counts[event]
        self._moments.observe(category, rows)

    def observe_rows(self, category: int, rows: np.ndarray,
                     events: Optional[Sequence[HpcEvent]] = None) -> None:
        """Fold a pre-assembled ``(B, E)`` batch in (columns = events)."""
        if events is not None:
            self._bind_events(events)
        if self._moments is None:
            raise EvaluationError(
                "event order unknown: pass events= on the first batch")
        self._moments.observe(category, rows)

    def merge_state(self, arrays: Mapping[str, np.ndarray],
                    events: Optional[Sequence[HpcEvent]] = None) -> None:
        """Merge a shipped shard's accumulator state (Chan merge).

        Shards must be merged in a canonical order (the measurement path
        uses sorted chunk order) for bit-reproducible state; any order
        agrees to floating-point roundoff.

        Args:
            arrays: ``cat<k>/count|mean|m2`` state arrays (extra keys are
                ignored).
            events: Column order of the shard; binds this evaluator's
                event order on first use and is validated against it
                afterwards.
        """
        if events is not None:
            self._bind_events(events)
        if self._moments is None:
            raise EvaluationError(
                "event order unknown: observe a batch or pass events= "
                "before merging shard states")
        self._moments.merge(StreamingMoments.from_state(
            arrays, columns=len(self._events)))

    def savepoint(self, categories: Iterable[int]) -> Tuple:
        """Undo record for folding ``categories`` in and ticking.

        O(k·e): the touched accumulator rows, the tick count and the
        number of detections.  :meth:`rollback` returns the evaluator to
        this point, dropping the detections recorded since.
        """
        if self._moments is None:
            raise EvaluationError(
                "event order unknown: a savepoint needs bound events")
        return (self._ticks, len(self._detections),
                self._moments.savepoint(categories))

    def rollback(self, savepoint: Tuple) -> None:
        """Restore the state a :meth:`savepoint` recorded."""
        ticks, detections, moments = savepoint
        self._moments.rollback(moments)
        self._ticks = ticks
        for key in list(self._detections)[detections:]:
            del self._detections[key]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def tick(self) -> StreamTick:
        """Re-derive every pairwise verdict from the accumulator state.

        O(k²·e) arithmetic on the ``(mean, var, n)`` triples — stream
        length never appears.  Newly distinguishable cells are recorded as
        :class:`AlarmRecord`\\ s with the current per-category budget.
        """
        if not self.ready:
            raise EvaluationError(
                "tick needs at least two categories with >= 2 observations "
                "each")
        with obs.span("stream.tick", tick=self._ticks + 1,
                      categories=len(self._moments.categories)) as span:
            stats = self._moments.to_sufficient_stats(self._events)
            arrays = batch_pairwise_tests(stats, method=self.method)
            self._ticks += 1
            alpha = 1.0 - self.confidence
            rejected = arrays.p_value < alpha
            rejections = int(rejected.sum())
            pairs = [(stats.categories[ia], stats.categories[ib])
                     for ia, ib in zip(arrays.index_a.tolist(),
                                       arrays.index_b.tolist())]
            samples = {category: int(stats.n[i])
                       for i, category in enumerate(stats.categories)}
            new_detections: List[AlarmRecord] = []
            if rejections:
                n_a = arrays.n_a
                n_b = arrays.n_b
                for pi, ei in zip(*np.nonzero(rejected)):
                    cat_a, cat_b = pairs[pi]
                    event = self._events[ei]
                    key = (cat_a, cat_b, event)
                    if key in self._detections:
                        continue
                    record = AlarmRecord(
                        event=event, category_a=cat_a, category_b=cat_b,
                        detection_n=int(min(n_a[pi], n_b[pi])),
                        tick=self._ticks)
                    self._detections[key] = record
                    new_detections.append(record)
            obs.inc("stream.ticks")
            if new_detections:
                obs.inc("stream.detections", len(new_detections))
                for record in new_detections:
                    obs.observe("stream.alarm_latency", record.detection_n,
                                event=record.event.value)
            span.set_attribute("rejections", rejections)
            span.set_attribute("new_detections", len(new_detections))
        return StreamTick(
            tick=self._ticks,
            categories=list(stats.categories),
            events=self._events,
            pairs=pairs,
            statistic=arrays.statistic,
            p_value=arrays.p_value,
            samples=samples,
            rejections=rejections,
            alarm=bool(self._detections),
            new_detections=new_detections,
        )

    def report(self) -> LeakageReport:
        """A batch-compatible leakage report of the current state.

        Identical construction to ``Evaluator.evaluate`` run on the same
        sufficient statistics (``distributions`` is None — the samples were
        never retained).  The hot tick path never builds one: this is for
        callers that print or export the report.
        """
        if not self.ready:
            raise EvaluationError(
                "report needs at least two categories with >= 2 "
                "observations each")
        stats = self._moments.to_sufficient_stats(self._events)
        results = self._evaluator.results_from_stats(stats, self._events)
        return LeakageReport(
            results=results,
            confidence=self.confidence,
            method=self.method,
            categories=list(stats.categories),
            events=list(self._events),
            distributions=None,
        )

    # ------------------------------------------------------------------
    # Alarm bookkeeping
    # ------------------------------------------------------------------

    @property
    def alarm(self) -> bool:
        """True once any cell has ever been distinguishable."""
        return bool(self._detections)

    def alarm_latency(self) -> List[AlarmRecord]:
        """All first-detection records, in ``(event, pair)`` order."""
        return sorted(self._detections.values(),
                      key=lambda r: (r.event.value, r.category_a,
                                     r.category_b))

    def alarm_latency_rows(self) -> List[Dict[str, object]]:
        """JSON-friendly :meth:`alarm_latency` rows (deterministic order)."""
        return [record.to_dict() for record in self.alarm_latency()]

    def memory_bytes(self) -> int:
        """Bytes retained by the evaluator state (flat in stream length)."""
        detections = len(self._detections) * 64  # bounded by k²·e cells
        return ((self._moments.memory_bytes() if self._moments else 0)
                + detections)

    # ------------------------------------------------------------------
    # Persistence (checkpoint format)
    # ------------------------------------------------------------------

    def state(self) -> Dict[str, np.ndarray]:
        """Flatten everything into npz-able arrays (bit-exact round trip).

        This is what measurement checkpoints persist instead of raw
        samples: three O(e) arrays per category plus the detection table.
        """
        if self._events is None:
            raise EvaluationError("no data observed yet")
        out = self._moments.state()
        out["meta/schema"] = np.asarray([STREAM_STATE_SCHEMA_VERSION],
                                        dtype=np.int64)
        out["meta/ticks"] = np.asarray([self._ticks], dtype=np.int64)
        out["meta/events"] = np.asarray([e.value for e in self._events])
        records = self.alarm_latency()
        event_index = {event: i for i, event in enumerate(self._events)}
        out["meta/detections"] = np.asarray(
            [[event_index[r.event], r.category_a, r.category_b,
              r.detection_n, r.tick] for r in records],
            dtype=np.int64).reshape(len(records), 5)
        return out

    @classmethod
    def from_state(cls, arrays: Mapping[str, np.ndarray],
                   confidence: float = 0.95,
                   method: str = "welch") -> "StreamingEvaluator":
        """Rebuild an evaluator from persisted :meth:`state` arrays."""
        try:
            schema = int(np.asarray(arrays["meta/schema"])[0])
            ticks = int(np.asarray(arrays["meta/ticks"])[0])
            event_names = [str(name) for name in
                           np.asarray(arrays["meta/events"]).tolist()]
            detections = np.asarray(arrays["meta/detections"],
                                    dtype=np.int64).reshape(-1, 5)
        except KeyError as exc:
            raise EvaluationError(
                f"stream state is missing {exc.args[0]!r}") from None
        if schema != STREAM_STATE_SCHEMA_VERSION:
            raise EvaluationError(
                f"unsupported stream state schema {schema} "
                f"(expected {STREAM_STATE_SCHEMA_VERSION})")
        events = tuple(HpcEvent.from_name(name) for name in event_names)
        evaluator = cls(confidence=confidence, method=method, events=events)
        evaluator._moments = StreamingMoments.from_state(
            arrays, columns=len(events))
        evaluator._ticks = ticks
        for ei, cat_a, cat_b, detection_n, tick in detections.tolist():
            record = AlarmRecord(
                event=events[ei], category_a=int(cat_a),
                category_b=int(cat_b), detection_n=int(detection_n),
                tick=int(tick))
            evaluator._detections[(record.category_a, record.category_b,
                                   record.event)] = record
        return evaluator


def replay_stream(distributions, batch_size: int = 25,
                  confidence: float = 0.95,
                  method: str = "welch") -> StreamingEvaluator:
    """Replay retained distributions through a streaming evaluator.

    Feeds each category's recorded readings in arrival order, ``batch_size``
    at a time, ticking after every round — the offline twin of a live
    ``MeasurementSession.stream`` run.  Used by ``repro report`` to derive
    alarm-latency metrics from an already-measured run.

    Args:
        distributions: An :class:`~repro.hpc.EventDistributions`.
        batch_size: Measurements folded in per category per tick.
        confidence: Evaluator confidence level.
        method: ``"welch"`` or ``"student"``.

    Returns:
        The evaluator after consuming the full stream (query
        :meth:`StreamingEvaluator.alarm_latency`, :meth:`~StreamingEvaluator.
        report`, ...).
    """
    if batch_size < 1:
        raise EvaluationError(f"batch_size must be >= 1, got {batch_size}")
    events = tuple(distributions.events)
    evaluator = StreamingEvaluator(confidence=confidence, method=method,
                                   events=events)
    categories = distributions.categories
    columns = {category: np.stack([distributions.values(category, event)
                                   for event in events], axis=1)
               for category in categories}
    total = max(distributions.sample_count(c) for c in categories)
    for start in range(0, total, batch_size):
        for category in categories:
            rows = columns[category][start:start + batch_size]
            if rows.shape[0]:
                evaluator.observe_rows(category, rows)
        if evaluator.ready:
            evaluator.tick()
    return evaluator


def streaming_report_section(evaluator: StreamingEvaluator,
                             batch_size: int) -> Dict[str, object]:
    """The run report's ``streaming`` section (schema-stable key order).

    Alarm-latency records come from :meth:`StreamingEvaluator.
    alarm_latency_rows` — already in deterministic (event, pair) order, so
    two runs of the same seed produce byte-identical sections.
    """
    return {
        "stream_schema": STREAM_STATE_SCHEMA_VERSION,
        "batch_size": batch_size,
        "ticks": evaluator.ticks,
        "alarm": evaluator.alarm,
        "detections": evaluator.alarm_latency_rows(),
        "memory_bytes": evaluator.memory_bytes(),
    }
