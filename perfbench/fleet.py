"""``serve-fleet``: two tenants in one resident ``MonitorDaemon``.

Set-up pre-generates every round of every tenant with
``SyntheticTenantLoad`` (10 categories x 8 events x 16 rows per category,
a mean shift injected from round ``DRIFT_AFTER`` on).  One operation of
the timed phase is one round submitted by one tenant; one pass is a fleet
session: a fresh daemon under ``block`` admission, every tenant driving
its rounds in a closed loop (the next round is submitted when
``on_outcome`` delivers the previous one, or when the tenant's failure
event fires), then ``stop()``.  There is no pacing sleep and no shedding.

The daemon fails every tenant at tick 42 (see README): from there on each
offered round is refused with ``TenantFailure`` and counted as failed.
The count depends only on the tick count, never on the seed.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.errors import EvaluationError
from repro.serve import (
    MeasurementRound, MonitorDaemon, ServeConfig, SyntheticTenantLoad,
    TenantFailure, TenantSpec)
from repro.uarch.events import ALL_EVENTS

from . import layers
from .harness import Outcome, Timing, repeat_for

NAME = "serve-fleet"
TAG = "fleet"
TARGETS = layers.FLEET
#: Layers the timed phase calls into: the traced run reports each one's
#: self time and call count per pass.
TIMED_LAYERS = ("stats", "core", "serve")
MIN_PASSES = 1

CATEGORIES = tuple(range(10))
BATCH = 16
DRIFT_AFTER = 24
DRIFT_THRESHOLD = 6.0
#: Round after whose delivery each tenant's accumulators are copied for
#: the moments check (before the tick-42 fault).
SNAPSHOT_ROUND = 32
#: Two tenants, as the ``repro serve --tenants`` default and
#: ``benchmarks/bench_serve.py`` run the daemon.
TENANTS = 2
SIZES = {
    "full": {"rounds": 60},
    "tiny": {"rounds": 44},
}
#: The message ``Evaluator`` raises for the confidence the serve alarm
#: layer asks for once its per-cell alpha underflows.
FAULT_MESSAGE = "confidence must be in (0, 1), got 1.0"


@dataclass
class State:
    config: ServeConfig
    rows: Dict[str, List[Dict[int, np.ndarray]]]
    rounds: int


@dataclass
class Session:
    """One fleet session's record (what the checks and metrics read)."""

    seconds: float = 0.0
    latency_ms: List[float] = field(default_factory=list)
    delivered: Dict[str, List[int]] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    first: Dict[str, object] = field(default_factory=dict)
    drift_rounds: Dict[str, List[int]] = field(default_factory=dict)
    snapshots: Dict[str, Dict[int, Tuple[int, np.ndarray, np.ndarray]]] = (
        field(default_factory=dict))
    final: Dict[str, Dict[int, Tuple[int, np.ndarray, np.ndarray]]] = (
        field(default_factory=dict))
    causes: Dict[str, Optional[BaseException]] = field(default_factory=dict)
    rounds_ingested: int = 0
    ticks: int = 0
    restarts: int = 0
    peak_queue_bytes: int = 0
    monitor_bytes: int = 0


def setup(seed: int, size: str, workdir: Path) -> State:
    preset = SIZES[size]
    specs = tuple(TenantSpec(f"tenant{i}", categories=CATEGORIES,
                             events=ALL_EVENTS)
                  for i in range(TENANTS))
    config = ServeConfig(tenants=specs, batch_size=BATCH, admission="block",
                         drift_threshold=DRIFT_THRESHOLD)
    rows = {}
    for spec in specs:
        load = SyntheticTenantLoad(spec, seed=seed,
                                   drift_after_round=DRIFT_AFTER)
        rows[spec.tenant] = load.rounds(preset["rounds"], BATCH)
    return State(config, rows, preset["rounds"])


def _moments(monitor) -> Dict[int, Tuple[int, np.ndarray, np.ndarray]]:
    moments = monitor.evaluator.moments
    return {category: (moments.row(category).count,
                       moments.row(category).mean.copy(),
                       moments.row(category).variance())
            for category in moments.categories}


async def _session(state: State) -> Session:
    record = Session()
    tenants = [spec.tenant for spec in state.config.tenants]
    for tenant in tenants:
        record.delivered[tenant] = []
        record.failed[tenant] = 0
        record.drift_rounds[tenant] = []
    sent_at: Dict[str, float] = {}
    pending: Dict[str, asyncio.Future] = {}
    daemon: Optional[MonitorDaemon] = None

    def on_outcome(outcome) -> None:
        now = time.perf_counter()
        tenant = outcome.tenant
        record.latency_ms.append((now - sent_at[tenant]) * 1e3)
        record.delivered[tenant].append(outcome.round_index)
        if outcome.round_index == 0:
            record.first[tenant] = outcome
        if outcome.drift_alarms:
            record.drift_rounds[tenant].append(outcome.round_index)
        if outcome.round_index == SNAPSHOT_ROUND:
            record.snapshots[tenant] = _moments(daemon.monitors[tenant])
        future = pending.pop(tenant, None)
        if future is not None and not future.done():
            future.set_result(True)

    async def watch(tenant: str) -> None:
        await daemon.admission.failure_event(tenant).wait()
        future = pending.pop(tenant, None)
        if future is not None and not future.done():
            future.set_result(False)

    async def drive(tenant: str) -> None:
        loop = asyncio.get_running_loop()
        for index, batches in enumerate(state.rows[tenant]):
            future = loop.create_future()
            pending[tenant] = future
            sent_at[tenant] = time.perf_counter()
            try:
                await daemon.submit_round(MeasurementRound(
                    tenant=tenant, index=index, batches=batches,
                    submitted_at=time.monotonic()))
            except TenantFailure:
                pending.pop(tenant, None)
                record.failed[tenant] += 1
                continue
            if not await future:
                record.failed[tenant] += 1

    start = time.perf_counter()
    daemon = MonitorDaemon(state.config, on_outcome=on_outcome)
    daemon.start()
    watchers = [asyncio.get_running_loop().create_task(watch(tenant))
                for tenant in tenants]
    try:
        await asyncio.gather(*(drive(tenant) for tenant in tenants))
    finally:
        for watcher in watchers:
            watcher.cancel()
        await asyncio.gather(*watchers, return_exceptions=True)
        await daemon.stop()
    record.seconds = time.perf_counter() - start
    for tenant, monitor in daemon.monitors.items():
        failure = daemon.failed.get(tenant)
        record.causes[tenant] = (None if failure is None
                                 else failure.__cause__ or failure)
        if failure is None:
            record.final[tenant] = _moments(monitor)
        record.rounds_ingested += monitor.rounds_ingested
        record.ticks += monitor.evaluator.ticks
        record.restarts += daemon.restarts[tenant]
        record.monitor_bytes += monitor.memory_bytes()
    record.peak_queue_bytes = daemon.admission.peak_buffered_bytes
    return record


def measure(state: State, seconds: float,
            min_passes: int = MIN_PASSES) -> Outcome:
    sessions: List[Session] = []
    repeat_for(seconds, lambda: sessions.append(asyncio.run(_session(state))),
               min_passes)
    per_session = len(state.config.tenants) * state.rounds
    return Outcome(
        attempted=per_session * len(sessions),
        failed=sum(n for s in sessions for n in s.failed.values()),
        timings=[Timing(s.seconds,
                        len(s.latency_ms) * len(CATEGORIES) * BATCH,
                        s.latency_ms) for s in sessions],
        evidence=sessions,
    )


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed phase)
# ---------------------------------------------------------------------------

def check_delivery(state: State, sessions: List[Session]) -> Optional[str]:
    """Outcomes arrive once each, in round order; delivered + failed =
    attempted."""
    for number, record in enumerate(sessions):
        for spec in state.config.tenants:
            delivered = record.delivered.get(spec.tenant, [])
            if delivered != list(range(len(delivered))):
                return (f"session {number} {spec.tenant}: outcomes for "
                        f"rounds {delivered[:5]}... not 0, 1, 2, ...")
            total = len(delivered) + record.failed.get(spec.tenant, 0)
            if total != state.rounds:
                return (f"session {number} {spec.tenant}: {len(delivered)} "
                        f"delivered + {record.failed.get(spec.tenant, 0)} "
                        f"failed != {state.rounds} attempted")
    return None


def _welch_cells(rows: Dict[int, np.ndarray], alpha: float
                 ) -> Tuple[Set[Tuple[int, int, object]], int]:
    """Cells scipy's Welch test rejects on one round's rows (and the
    number of cells too close to ``alpha`` to call)."""
    rejected = set()
    borderline = 0
    categories = sorted(rows)
    for i, a in enumerate(categories):
        for b in categories[i + 1:]:
            p = scipy_stats.ttest_ind(rows[a], rows[b], axis=0,
                                      equal_var=False).pvalue
            for column, event in enumerate(ALL_EVENTS):
                if abs(p[column] - alpha) <= 1e-9 * alpha:
                    borderline += 1
                elif p[column] < alpha:
                    rejected.add((a, b, event))
    return rejected, borderline


def check_first_tick(state: State, sessions: List[Session]) -> Optional[str]:
    """Tick 1's first detections are the cells scipy rejects on round 0,
    each with ``detection_n`` equal to the batch size."""
    alpha = 1.0 - state.config.confidence
    expected = {tenant: _welch_cells(rows[0], alpha)
                for tenant, rows in state.rows.items()}
    for number, record in enumerate(sessions):
        for tenant, (cells, borderline) in expected.items():
            first = record.first.get(tenant)
            if first is None or first.tick != 1:
                return f"session {number} {tenant}: round 0 is not tick 1"
            bad_n = [r for r in first.new_detections if r.detection_n != BATCH]
            if bad_n:
                return (f"session {number} {tenant}: tick-1 detection_n "
                        f"{bad_n[0].detection_n} != batch {BATCH}")
            found = {(r.category_a, r.category_b, r.event)
                     for r in first.new_detections}
            if len(found ^ cells) > borderline:
                return (f"session {number} {tenant}: tick 1 detected "
                        f"{len(found)} cells, scipy rejects {len(cells)} "
                        f"({len(found ^ cells)} differ)")
    return None


def check_first_alarm(state: State, sessions: List[Session]) -> Optional[str]:
    """The spending-layer leakage alarm fires on the first tick."""
    for number, record in enumerate(sessions):
        for tenant in state.rows:
            first = record.first.get(tenant)
            if first is None or not first.alarmed:
                return f"session {number} {tenant}: no alarm on tick 1"
    return None


def check_drift(state: State, sessions: List[Session]) -> Optional[str]:
    """Drift fires, and only from the injected shift on."""
    for number, record in enumerate(sessions):
        for tenant in state.rows:
            rounds = record.drift_rounds.get(tenant, [])
            early = [r for r in rounds if r < DRIFT_AFTER]
            if early:
                return (f"session {number} {tenant}: drift alarm at round "
                        f"{early[0]}, before the shift at {DRIFT_AFTER}")
            if len(record.delivered.get(tenant, [])) > DRIFT_AFTER \
                    and not rounds:
                return (f"session {number} {tenant}: no drift alarm after "
                        f"the shift at round {DRIFT_AFTER}")
    return None


def _numpy_moments(rounds: List[Dict[int, np.ndarray]], category: int):
    rows = np.concatenate([batches[category] for batches in rounds])
    return rows.shape[0], rows.mean(axis=0), rows.var(axis=0, ddof=1)


def _compare(label: str, moments, rounds) -> Optional[str]:
    for category, (count, mean, variance) in moments.items():
        n, ref_mean, ref_var = _numpy_moments(rounds, category)
        if count != n or not (np.allclose(mean, ref_mean, rtol=1e-12)
                              and np.allclose(variance, ref_var,
                                              rtol=1e-9)):
            return (f"{label} category {category}: n={count} vs {n}, "
                    f"mean/var differ from numpy over the delivered rows")
    return None


def check_moments(state: State, sessions: List[Session]) -> Optional[str]:
    """Accumulator mean and variance equal numpy's over the delivered rows
    (at round ``SNAPSHOT_ROUND``, and at the end for tenants that did not
    fail)."""
    for number, record in enumerate(sessions):
        for tenant, rows in state.rows.items():
            delivered = len(record.delivered.get(tenant, []))
            if delivered > SNAPSHOT_ROUND:
                snapshot = record.snapshots.get(tenant)
                if not snapshot:
                    return f"session {number} {tenant}: no snapshot"
                problem = _compare(
                    f"session {number} {tenant} round {SNAPSHOT_ROUND}",
                    snapshot, rows[:SNAPSHOT_ROUND + 1])
                if problem:
                    return problem
            if tenant in record.final:
                problem = _compare(f"session {number} {tenant} final",
                                   record.final[tenant], rows[:delivered])
                if problem:
                    return problem
    return None


def check_failures(state: State, sessions: List[Session]) -> Optional[str]:
    """The only failed rounds are those of tenants the named fault failed."""
    for number, record in enumerate(sessions):
        for tenant, cause in record.causes.items():
            failed = record.failed.get(tenant, 0)
            if cause is None:
                if failed:
                    return (f"session {number} {tenant}: {failed} rounds "
                            f"failed on a live tenant")
                continue
            if not (isinstance(cause, EvaluationError)
                    and FAULT_MESSAGE in str(cause)):
                return (f"session {number} {tenant} failed for another "
                        f"reason: {cause!r}")
    return None


CHECKS = {
    "outcomes_once_in_order": check_delivery,
    "tick1_matches_scipy": check_first_tick,
    "alarm_on_first_tick": check_first_alarm,
    "drift_only_after_shift": check_drift,
    "moments_match_numpy": check_moments,
    "failures_are_named_fault": check_failures,
}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(setup_tracer, tracer, outcome: Outcome
                  ) -> Dict[str, float]:
    sessions: List[Session] = outcome.evidence
    count = len(sessions)
    ingests = [s.ns / 1e6 for s in tracer.by_name("serve.ingest_round")
               if not s.error]
    submits = [s.ns / 1e6 for s in tracer.by_name("serve.submit_round")
               if not s.error]
    ingest_calls = max(tracer.calls("serve.ingest_round"), 1)
    return {
        "stats.observe_rows_ms": tracer.mean_ms("stats.observe_rows"),
        "core.tick_ms": tracer.mean_ms("core.tick"),
        "core.report_ms": tracer.mean_ms("core.report"),
        "core.alarm_decide_ms": tracer.mean_ms("core.alarm_decide"),
        "core.drift_ms": tracer.total_s("core.drift") * 1e3 / ingest_calls,
        "serve.ingest_ms": statistics.fmean(ingests),
        "serve.submit_ms": statistics.fmean(submits),
        "serve.wait_ms": (statistics.fmean(outcome.round_ms)
                          - statistics.fmean(ingests)),
        "serve.peak_queue_bytes": max(s.peak_queue_bytes for s in sessions),
        "serve.monitor_bytes": statistics.fmean(
            s.monitor_bytes for s in sessions) / len(sessions[0].causes),
        "serve.rounds_ingested": sum(s.rounds_ingested
                                     for s in sessions) / count,
        "serve.ticks": sum(s.ticks for s in sessions) / count,
        "serve.consumer_restarts": sum(s.restarts for s in sessions) / count,
        "serve.tenants_failed": sum(
            1 for s in sessions for cause in s.causes.values()
            if cause is not None) / count,
    }
