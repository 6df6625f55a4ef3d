"""Tests for TenantMonitor: stream-equivalence, alarms, persistence."""

import numpy as np
import pytest

from repro.core.streaming import StreamingEvaluator
from repro.errors import ConfigError, EvaluationError
from repro.serve import (
    MeasurementRound,
    ServeConfig,
    SyntheticTenantLoad,
    TenantMonitor,
    TenantSpec,
)
from repro.uarch.events import ALL_EVENTS


def make_config(**overrides):
    overrides.setdefault("tenants", (TenantSpec("t", categories=(0, 1, 2)),))
    overrides.setdefault("batch_size", 8)
    return ServeConfig(**overrides)


def offline_replay(spec, config, rounds):
    """The `repro stream` twin: observe sorted categories, then tick."""
    evaluator = StreamingEvaluator(confidence=config.confidence,
                                   method=config.method, events=spec.events)
    for batches in rounds:
        for category in sorted(batches):
            evaluator.observe_rows(category, batches[category])
        if evaluator.ready:
            evaluator.tick()
    return evaluator


class TestStreamEquivalence:
    def test_monitor_state_is_bit_identical_to_offline_replay(self):
        config = make_config()
        spec = config.tenants[0]
        load = SyntheticTenantLoad(spec, seed=11)
        rounds = load.rounds(10, config.batch_size)

        monitor = TenantMonitor(spec, config)
        for index, batches in enumerate(rounds):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=index, batches=batches))
        offline = offline_replay(spec, config, rounds)

        got = monitor.evaluator.state()
        want = offline.state()
        assert set(got) - {"serve/rounds"} == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_detection_records_match_offline_replay(self):
        config = make_config()
        spec = config.tenants[0]
        rounds = SyntheticTenantLoad(spec, seed=12).rounds(
            8, config.batch_size)
        monitor = TenantMonitor(spec, config)
        for index, batches in enumerate(rounds):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=index, batches=batches))
        offline = offline_replay(spec, config, rounds)
        assert monitor.evaluator.alarm_latency_rows() \
            == offline.alarm_latency_rows()
        assert monitor.evaluator.alarm_latency_rows()  # signal is real

    def test_tick_arrays_match_offline_replay_bitwise(self):
        config = make_config()
        spec = config.tenants[0]
        rounds = SyntheticTenantLoad(spec, seed=13).rounds(
            6, config.batch_size)
        monitor = TenantMonitor(spec, config)
        offline = StreamingEvaluator(confidence=config.confidence,
                                     method=config.method,
                                     events=spec.events)
        for index, batches in enumerate(rounds):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=index, batches=batches))
            for category in sorted(batches):
                offline.observe_rows(category, batches[category])
            tick = offline.tick()
            report = monitor.evaluator.report()
            offline_report = offline.report()
            for got, want in zip(report.results, offline_report.results):
                assert got.ttest.statistic == want.ttest.statistic
                assert got.ttest.p_value == want.ttest.p_value


class TestAlarms:
    def test_spending_layer_alarms_on_leaky_stream(self):
        config = make_config()
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=14)
        outcomes = [monitor.ingest_round(MeasurementRound(
            tenant="t", index=i,
            batches=load.round_batches(i, config.batch_size)))
            for i in range(6)]
        assert monitor.leakage_alarmed
        first = monitor.first_leakage_alarm
        assert first is not None and first.leakage_alarm.triggered
        assert outcomes[first.round_index].alarmed

    def test_spent_alpha_decays_with_ticks(self):
        config = make_config()
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=15)
        alphas = []
        for i in range(5):
            outcome = monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
            alphas.append(outcome.spent_alpha)
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == config.alpha / 2.0

    def test_geometric_spending_survives_its_underflow(self):
        # Regression: at 10 categories x 8 events the per-cell share
        # alpha / 2**t / 360 falls below 2**-53 at tick 42, where the
        # re-test used to ask for confidence exactly 1.0 and raise, and
        # reaches 0.0 near tick 1075.  The monitor keeps ingesting, alarms
        # early, and a zero budget never alarms.
        spec = TenantSpec("t", categories=tuple(range(10)))
        config = ServeConfig(tenants=(spec,), batch_size=4)
        assert len(spec.events) == 8 and config.spending == "geometric"
        cells = 45 * len(spec.events)
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=24)
        alarmed, zero_budget = [], []
        for i in range(1100):
            outcome = monitor.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=load.round_batches(i, 4)))
            if outcome.alarmed:
                alarmed.append(outcome.tick)
            if outcome.spent_alpha / cells == 0.0:
                zero_budget.append(outcome.tick)
        assert monitor.rounds_ingested == monitor.evaluator.ticks == 1100
        assert alarmed[0] == 1 and max(alarmed) > 42
        assert zero_budget and zero_budget[-1] == 1100
        assert max(alarmed) < zero_budget[0]

    def test_identical_streams_never_alarm(self):
        # All categories share one distribution: no leakage signal.
        config = make_config()
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        rng = np.random.default_rng(16)
        for i in range(10):
            batches = {category: rng.normal(
                1000.0, 40.0, size=(config.batch_size, len(spec.events)))
                for category in spec.categories}
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))
        assert not monitor.leakage_alarmed

    def test_drift_alarm_fires_after_injected_shift(self):
        config = make_config(drift_threshold=5.0, drift_window=16)
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=17, drift_after_round=6,
                                   drift_shift=8.0)
        drift_round = None
        for i in range(14):
            outcome = monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
            if outcome.drift_alarms and drift_round is None:
                drift_round = i
        assert monitor.drift_alarmed
        assert drift_round is not None and drift_round >= 6

    def test_no_drift_monitor_by_default(self):
        monitor = TenantMonitor(make_config().tenants[0], make_config())
        assert monitor.drift is None
        assert not monitor.drift_alarmed


class TestValidation:
    def test_wrong_tenant_is_rejected(self):
        config = make_config()
        monitor = TenantMonitor(config.tenants[0], config)
        with pytest.raises(EvaluationError, match="routed"):
            monitor.ingest_round(MeasurementRound(
                tenant="other", index=0,
                batches={c: np.ones((2, len(ALL_EVENTS)))
                         for c in (0, 1, 2)}))

    def test_missing_category_is_rejected(self):
        config = make_config()
        monitor = TenantMonitor(config.tenants[0], config)
        with pytest.raises(EvaluationError, match="missing categories"):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=0,
                batches={0: np.ones((2, len(ALL_EVENTS)))}))

    def test_malformed_batch_is_rejected_without_side_effects(self):
        # Regression: a round whose *last* category failed validation
        # used to leave the earlier categories folded in, so the
        # daemon's re-ingest after a consumer restart double-counted
        # them.  Ingestion must be all-or-nothing.
        config = make_config(drift_threshold=5.0)
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=20)
        for i in range(3):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
        before = monitor.state()

        bad = dict(load.round_batches(3, config.batch_size))
        bad[2] = np.ones((config.batch_size, len(spec.events) + 1))
        with pytest.raises(EvaluationError, match="shape"):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=3, batches=bad))
        non_numeric = dict(load.round_batches(3, config.batch_size))
        non_numeric[1] = np.array([["not", "a"], ["number", "row"]])
        with pytest.raises(EvaluationError, match="not numeric"):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=3, batches=non_numeric))

        after = monitor.state()
        assert set(after) == set(before)
        for key in before:
            assert np.array_equal(after[key], before[key]), key
        assert monitor.rounds_ingested == 3
        # A corrected round then ingests cleanly.
        outcome = monitor.ingest_round(MeasurementRound(
            tenant="t", index=3,
            batches=load.round_batches(3, config.batch_size)))
        assert outcome.round_index == 3
        assert monitor.rounds_ingested == 4

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(tenants=())
        with pytest.raises(ConfigError):
            make_config(admission="maybe")
        with pytest.raises(ConfigError):
            make_config(queue_capacity=0)
        with pytest.raises(ConfigError):
            make_config(spending="linear")
        with pytest.raises(ConfigError):
            TenantSpec("t", categories=(0,))
        with pytest.raises(ConfigError):
            ServeConfig(tenants=(TenantSpec("a"), TenantSpec("a")))


class TestPersistence:
    def test_state_round_trip_is_bit_exact(self):
        config = make_config(drift_threshold=5.0)
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=18)
        for i in range(6):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
        restored = TenantMonitor.from_state(monitor.state(), spec, config)
        assert restored.rounds_ingested == monitor.rounds_ingested
        assert restored.evaluator.ticks == monitor.evaluator.ticks
        assert restored.evaluator.alarm_latency_rows() \
            == monitor.evaluator.alarm_latency_rows()
        got, want = restored.state(), monitor.state()
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_leakage_alarm_state_survives_round_trip(self):
        # Regression: checkpoint/resume used to forget that the spending
        # layer had ever fired — leakage_alarmed reported False after a
        # --state-dir resume.
        config = make_config()
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=21)
        for i in range(6):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
        assert monitor.leakage_alarmed  # signal is real

        restored = TenantMonitor.from_state(monitor.state(), spec, config)
        assert restored.leakage_alarmed
        first, twin = monitor.first_leakage_alarm, \
            restored.first_leakage_alarm
        assert twin.tick == first.tick
        assert twin.round_index == first.round_index
        assert twin.spent_alpha == first.spent_alpha
        assert restored.summary()["leakage_alarm_tick"] \
            == monitor.summary()["leakage_alarm_tick"]
        # The restored history re-persists identically.
        again = TenantMonitor.from_state(restored.state(), spec, config)
        got, want = again.state(), monitor.state()
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_drift_alarms_survive_round_trip_and_do_not_refire(self):
        # Regression: the drift first-detection table was dropped by
        # checkpoints, so already-alarmed cells re-fired as new first
        # detections after a resume.
        config = make_config(drift_threshold=5.0, drift_window=16)
        spec = config.tenants[0]
        load = SyntheticTenantLoad(spec, seed=22, drift_after_round=4,
                                   drift_shift=8.0)
        monitor = TenantMonitor(spec, config)
        for i in range(12):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
        assert monitor.drift_alarmed  # signal is real

        restored = TenantMonitor.from_state(monitor.state(), spec, config)
        assert restored.drift_alarmed
        assert restored.drift.alarm_rows() == monitor.drift.alarm_rows()
        # Continuing the drifted stream raises exactly what the
        # uninterrupted monitor raises — no cell fires twice.
        for i in range(12, 16):
            batches = load.round_batches(i, config.batch_size)
            got = restored.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))
            want = monitor.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))
            assert [a.to_dict() for a in got.drift_alarms] \
                == [a.to_dict() for a in want.drift_alarms]
        assert restored.drift.alarm_rows() == monitor.drift.alarm_rows()

    def test_resumed_monitor_continues_identically(self):
        config = make_config()
        spec = config.tenants[0]
        load = SyntheticTenantLoad(spec, seed=19)
        rounds = load.rounds(10, config.batch_size)

        whole = TenantMonitor(spec, config)
        for i, batches in enumerate(rounds):
            whole.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))

        first_half = TenantMonitor(spec, config)
        for i, batches in enumerate(rounds[:5]):
            first_half.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))
        resumed = TenantMonitor.from_state(first_half.state(), spec, config)
        for i, batches in enumerate(rounds[5:], start=5):
            resumed.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=batches))

        got, want = resumed.evaluator.state(), whole.evaluator.state()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_alarm_record_stays_flat_over_thousands_of_alarms(self):
        # Regression: every alarmed round used to be kept and persisted,
        # so a leaking tenant's checkpoint grew by one row per round.
        config = make_config(spending="harmonic", batch_size=2)
        spec = config.tenants[0]
        load = SyntheticTenantLoad(spec, seed=23)
        monitor = TenantMonitor(spec, config)
        sizes = {}
        for i in range(2000):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i, batches=load.round_batches(i, 2)))
            if i in (99, 1999):
                sizes[i] = sum(a.nbytes for a in monitor.state().values())
        assert monitor.leakage_alarm_count > 1900  # the leak keeps alarming
        assert sizes[1999] == sizes[99]
        restored = TenantMonitor.from_state(monitor.state(), spec, config)
        assert restored.leakage_alarm_count == monitor.leakage_alarm_count
        assert restored.summary()["leakage_alarms"] \
            == monitor.leakage_alarm_count

    def test_old_format_alarm_history_still_loads(self):
        config = make_config()
        spec = config.tenants[0]
        monitor = TenantMonitor(spec, config)
        load = SyntheticTenantLoad(spec, seed=21)
        for i in range(6):
            monitor.ingest_round(MeasurementRound(
                tenant="t", index=i,
                batches=load.round_batches(i, config.batch_size)))
        first = monitor.first_leakage_alarm
        arrays = monitor.state()
        del arrays["serve/first_alarm"], arrays["serve/alarm_count"]
        arrays["serve/alarm_rounds"] = np.asarray(
            [[first.tick, first.round_index], [first.tick + 1, 9],
             [first.tick + 2, 10]], dtype=np.int64)

        restored = TenantMonitor.from_state(arrays, spec, config)
        twin = restored.first_leakage_alarm
        assert (twin.tick, twin.round_index, twin.spent_alpha) \
            == (first.tick, first.round_index, first.spent_alpha)
        assert restored.leakage_alarm_count == 3
        assert "serve/alarm_rounds" not in restored.state()

    @pytest.mark.parametrize("arrays", (
        {"serve/first_alarm": np.asarray([3]),
         "serve/alarm_count": np.asarray([1])},
        {"serve/first_alarm": np.asarray([3, 2]),
         "serve/alarm_count": np.asarray([0])},
        {"serve/first_alarm": np.asarray([3, 2])},
        {"serve/alarm_rounds": np.zeros((0, 2), dtype=np.int64)},
    ))
    def test_malformed_alarm_record_rejected(self, arrays):
        config = make_config()
        spec = config.tenants[0]
        state = TenantMonitor(spec, config).state()
        state.update(arrays)
        with pytest.raises(EvaluationError, match="alarm record"):
            TenantMonitor.from_state(state, spec, config)
