"""Tests for MonitorDaemon: equivalence, backpressure, crash recovery."""

import asyncio

import numpy as np
import pytest

from repro.core.streaming import StreamingEvaluator
from repro.serve import (
    AdmissionController,
    MeasurementRound,
    MonitorDaemon,
    ServeConfig,
    SyntheticTenantLoad,
    TenantFailure,
    TenantSpec,
    run_load,
)


def make_config(**overrides):
    overrides.setdefault("tenants", (
        TenantSpec("alpha", categories=(0, 1, 2)),
        TenantSpec("beta", categories=(0, 1)),
    ))
    overrides.setdefault("batch_size", 6)
    overrides.setdefault("queue_capacity", 3)
    return ServeConfig(**overrides)


def offline_replay(spec, config, rounds):
    evaluator = StreamingEvaluator(confidence=config.confidence,
                                   method=config.method, events=spec.events)
    for batches in rounds:
        for category in sorted(batches):
            evaluator.observe_rows(category, batches[category])
        if evaluator.ready:
            evaluator.tick()
    return evaluator


def assert_states_equal(daemon, tenant, offline):
    got = daemon.monitors[tenant].evaluator.state()
    want = offline.state()
    assert set(got) - {"serve/rounds"} == set(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), (tenant, key)
    assert daemon.monitors[tenant].evaluator.alarm_latency_rows() \
        == offline.alarm_latency_rows()


class TestEquivalence:
    def test_daemon_verdicts_match_offline_replay_bitwise(self):
        """The tentpole contract: the async multi-tenant pipeline and an
        offline `repro stream`-style replay agree bit for bit."""
        config = make_config()

        async def main():
            daemon = MonitorDaemon(config)
            daemon.start()
            await run_load(daemon, rounds=9, seed=3)
            await daemon.stop()
            return daemon

        daemon = asyncio.run(main())
        for spec in config.tenants:
            rounds = SyntheticTenantLoad(spec, seed=3).rounds(
                9, config.batch_size)
            offline = offline_replay(spec, config, rounds)
            assert_states_equal(daemon, spec.tenant, offline)
            # The leak is real: detections must exist, not vacuously match.
            assert offline.alarm_latency_rows()

    def test_interleaved_producers_cannot_corrupt_rounds(self):
        # Many concurrent producers per tenant: round-atomic admission
        # must keep per-category sequences aligned regardless.
        config = make_config(tenants=(TenantSpec("t", categories=(0, 1)),),
                             queue_capacity=2)
        load = SyntheticTenantLoad(config.tenants[0], seed=4)
        rounds = load.rounds(12, config.batch_size)

        async def main():
            daemon = MonitorDaemon(config)
            daemon.start()

            async def produce(indexes):
                for i in indexes:
                    await daemon.submit_round(MeasurementRound(
                        tenant="t", index=i, batches=rounds[i]))
                    await asyncio.sleep(0)

            # Three producers, striped round ranges, racing each other.
            await asyncio.gather(produce(range(0, 4)),
                                 produce(range(4, 8)),
                                 produce(range(8, 12)))
            await daemon.stop()
            return daemon

        daemon = asyncio.run(main())
        monitor = daemon.monitors["t"]
        assert monitor.rounds_ingested == 12
        # Producer interleaving reorders rounds but each category saw the
        # same multiset of rows, and every round stayed internally intact:
        # per-category counts remain aligned.
        for category in (0, 1):
            assert monitor.evaluator.samples_seen(category) \
                == 12 * config.batch_size


class TestBackpressure:
    def test_block_policy_bounds_queue_depth_and_loses_nothing(self):
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1)),),
            admission="block", queue_capacity=2, batch_size=4)
        load = SyntheticTenantLoad(config.tenants[0], seed=5)
        depths = []

        async def main():
            daemon = MonitorDaemon(config)

            # Slow the consumer: every ingest yields many times first.
            original = daemon.monitors["t"].ingest_round

            def slow_ingest(round_):
                return original(round_)

            async def produce():
                for i in range(10):
                    await daemon.submit_round(MeasurementRound(
                        tenant="t", index=i,
                        batches=load.round_batches(i, config.batch_size)))
                    depths.append(daemon.admission.depth("t"))

            daemon.monitors["t"].ingest_round = slow_ingest
            daemon.start()
            await produce()
            await daemon.stop()
            return daemon

        daemon = asyncio.run(main())
        assert max(depths) <= config.queue_capacity
        assert daemon.admission.peak_buffered_bytes \
            <= daemon.admission.capacity_bytes(config.batch_size)
        monitor = daemon.monitors["t"]
        assert monitor.rounds_ingested == 10  # lossless
        offline = offline_replay(
            config.tenants[0], config, load.rounds(10, config.batch_size))
        assert_states_equal(daemon, "t", offline)

    def test_reject_policy_drops_whole_rounds_only(self):
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1, 2)),),
            admission="reject", queue_capacity=1, batch_size=4)
        load = SyntheticTenantLoad(config.tenants[0], seed=6)
        rounds = load.rounds(20, config.batch_size)

        async def main():
            daemon = MonitorDaemon(config)
            daemon.start()
            admitted_indexes = []
            # Flood without yielding: the single-slot shards overflow.
            for i in range(20):
                if await daemon.submit_round(MeasurementRound(
                        tenant="t", index=i, batches=rounds[i])):
                    admitted_indexes.append(i)
            await daemon.stop()
            return daemon, admitted_indexes

        daemon, admitted = asyncio.run(main())
        monitor = daemon.monitors["t"]
        assert daemon.admission.rejected["t"] > 0
        assert daemon.admission.rejected["t"] + len(admitted) == 20
        assert monitor.rounds_ingested == len(admitted)
        # Per-category counts never desync: every category saw exactly
        # the admitted rounds.
        for category in (0, 1, 2):
            assert monitor.evaluator.samples_seen(category) \
                == len(admitted) * config.batch_size
        # Verdicts equal an offline replay of the admitted rounds only.
        offline = offline_replay(config.tenants[0], config,
                                 [rounds[i] for i in admitted])
        assert_states_equal(daemon, "t", offline)


class TestCrashRecovery:
    def test_consumer_crash_reingests_inflight_round_exactly_once(self):
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1)),),
            max_consumer_restarts=2)
        load = SyntheticTenantLoad(config.tenants[0], seed=7)
        rounds = load.rounds(8, config.batch_size)
        crashes = []

        def crash_once(tenant, round_index):
            # Fetched-but-not-ingested: the worst possible crash point.
            if round_index == 3 and not crashes:
                crashes.append(round_index)
                raise RuntimeError("consumer died mid-round")

        async def main():
            daemon = MonitorDaemon(config, ingest_fault=crash_once)
            daemon.start()
            for i, batches in enumerate(rounds):
                await daemon.submit_round(MeasurementRound(
                    tenant="t", index=i, batches=batches))
            await daemon.stop()
            return daemon

        daemon = asyncio.run(main())
        assert crashes == [3]
        assert daemon.restarts["t"] == 1
        assert "t" not in daemon.failed
        monitor = daemon.monitors["t"]
        assert monitor.rounds_ingested == 8  # nothing lost, nothing doubled
        offline = offline_replay(config.tenants[0], config, rounds)
        assert_states_equal(daemon, "t", offline)

    @pytest.mark.parametrize("crash_on", ["new_detections", "drift_alarms"])
    def test_crash_after_the_fold_is_undone(self, monkeypatch, crash_on):
        # A step after the fold (here the drift check, once its new
        # alarms are recorded) raising once — on a tick with new leakage
        # detections or new drift alarms — must undo the round: the
        # restarted consumer re-ingests it, it is counted once, and the
        # outcomes and final state equal a fault-free run's bit for bit.
        from repro.core.drift import DriftMonitor

        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1, 2)),),
            drift_threshold=5.0, drift_window=8, max_consumer_restarts=2)
        rounds = SyntheticTenantLoad(config.tenants[0], seed=9,
                                     drift_after_round=6).rounds(
            10, config.batch_size)

        def run():
            delivered = []

            async def main():
                daemon = MonitorDaemon(config, on_outcome=delivered.append)
                daemon.start()
                for i, batches in enumerate(rounds):
                    await daemon.submit_round(MeasurementRound(
                        tenant="t", index=i, batches=batches))
                await daemon.stop()
                return daemon

            return asyncio.run(main()).monitors["t"], delivered

        clean, clean_outcomes = run()
        crash_tick = next(o.tick for o in clean_outcomes
                          if getattr(o, crash_on))
        check = DriftMonitor.check
        crashes = []

        def check_then_crash(self, baseline, events, tick):
            alarms = check(self, baseline, events, tick)
            if tick == crash_tick and not crashes:
                crashes.append(tick)
                raise RuntimeError("consumer died after the fold")
            return alarms

        monkeypatch.setattr(DriftMonitor, "check", check_then_crash)
        monitor, outcomes = run()
        assert crashes == [crash_tick]
        assert monitor.rounds_ingested == len(outcomes) == len(rounds)
        assert [o.round_index for o in outcomes] == list(range(len(rounds)))
        for field in ("new_detections", "drift_alarms", "leakage_alarm"):
            assert [getattr(o, field) for o in outcomes] \
                == [getattr(o, field) for o in clean_outcomes], field
        want, got = clean.state(), monitor.state()
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        assert monitor.evaluator.alarm_latency_rows() \
            == clean.evaluator.alarm_latency_rows()
        assert monitor.drift.alarm_rows() == clean.drift.alarm_rows()

    def test_restart_budget_exhaustion_fails_the_tenant(self):
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1)),),
            max_consumer_restarts=1)
        load = SyntheticTenantLoad(config.tenants[0], seed=8)

        def always_crash(tenant, round_index):
            raise RuntimeError("hardware gremlin")

        async def main():
            daemon = MonitorDaemon(config, ingest_fault=always_crash)
            daemon.start()
            await daemon.submit_round(MeasurementRound(
                tenant="t", index=0,
                batches=load.round_batches(0, config.batch_size)))
            # Give the supervisor time to burn its restart budget.
            for _ in range(50):
                await asyncio.sleep(0)
                if "t" in daemon.failed:
                    break
            with pytest.raises(TenantFailure):
                await daemon.submit_round(MeasurementRound(
                    tenant="t", index=1,
                    batches=load.round_batches(1, config.batch_size)))
            await daemon.stop(drain=False)
            return daemon

        daemon = asyncio.run(main())
        assert "t" in daemon.failed
        assert daemon.restarts["t"] == config.max_consumer_restarts + 1
        assert daemon.summary()["t"]["failed"] is True

    def test_fail_tenant_wakes_a_blocked_submit(self):
        # Regression: a producer awaiting shard space used to sleep
        # forever once the tenant's consumer died (nothing would ever
        # drain the shard it was blocked on).
        config = make_config(tenants=(TenantSpec("t", categories=(0, 1)),),
                             admission="block", queue_capacity=1)
        load = SyntheticTenantLoad(config.tenants[0], seed=23)

        async def main():
            admission = AdmissionController(config)
            await admission.submit(MeasurementRound(
                tenant="t", index=0,
                batches=load.round_batches(0, config.batch_size)))
            blocked = asyncio.ensure_future(admission.submit(
                MeasurementRound(
                    tenant="t", index=1,
                    batches=load.round_batches(1, config.batch_size))))
            for _ in range(5):
                await asyncio.sleep(0)  # let it block on the full shard
            assert not blocked.done()
            admission.fail_tenant("t")
            with pytest.raises(TenantFailure):
                await asyncio.wait_for(blocked, timeout=5.0)
            # Later submissions fail fast instead of blocking.
            with pytest.raises(TenantFailure):
                await asyncio.wait_for(admission.submit(MeasurementRound(
                    tenant="t", index=2,
                    batches=load.round_batches(2, config.batch_size))),
                    timeout=5.0)

        asyncio.run(main())

    def test_dead_tenant_never_wedges_producers_or_shutdown(self):
        # End to end: the consumer poisons itself on the parked round and
        # burns its restart budget while the producer floods the 1-slot
        # shards; the producer must raise TenantFailure (whether blocked
        # mid-put or pre-checked) and stop(drain=True) must not hang on
        # the dead tenant's never-drained shards.
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1)),),
            admission="block", queue_capacity=1, max_consumer_restarts=2)
        load = SyntheticTenantLoad(config.tenants[0], seed=24)

        def always_crash(tenant, round_index):
            raise RuntimeError("poisoned round")

        async def main():
            daemon = MonitorDaemon(config, ingest_fault=always_crash)
            daemon.start()

            async def produce():
                for i in range(10):
                    await daemon.submit_round(MeasurementRound(
                        tenant="t", index=i,
                        batches=load.round_batches(i, config.batch_size)))

            with pytest.raises(TenantFailure):
                await asyncio.wait_for(produce(), timeout=10.0)
            await asyncio.wait_for(daemon.stop(), timeout=10.0)
            return daemon

        daemon = asyncio.run(main())
        assert "t" in daemon.failed
        assert daemon.monitors["t"].rounds_ingested == 0

    def test_other_tenants_survive_one_tenants_failure(self):
        config = make_config(max_consumer_restarts=0)
        load_beta = SyntheticTenantLoad(config.spec("beta"), seed=9)

        def crash_alpha(tenant, round_index):
            if tenant == "alpha":
                raise RuntimeError("alpha only")

        async def main():
            daemon = MonitorDaemon(config, ingest_fault=crash_alpha)
            daemon.start()
            await daemon.submit_round(MeasurementRound(
                tenant="alpha", index=0,
                batches=SyntheticTenantLoad(
                    config.spec("alpha"), seed=9).round_batches(
                        0, config.batch_size)))
            for i in range(4):
                await daemon.submit_round(MeasurementRound(
                    tenant="beta", index=i,
                    batches=load_beta.round_batches(i, config.batch_size)))
            for _ in range(100):
                await asyncio.sleep(0)
                if ("alpha" in daemon.failed
                        and daemon.monitors["beta"].rounds_ingested == 4):
                    break
            await daemon.stop(drain=False)
            return daemon

        daemon = asyncio.run(main())
        assert "alpha" in daemon.failed
        assert daemon.monitors["beta"].rounds_ingested == 4


class TestHorizon:
    def test_sixty_rounds_at_ten_categories_never_restart(self):
        # 60 ticks at 10 x 8 run past tick 42, where the spending layer's
        # per-cell level used to crash every consumer.
        config = make_config(
            tenants=tuple(TenantSpec(f"t{i}", categories=tuple(range(10)))
                          for i in range(2)),
            batch_size=4)

        async def main():
            daemon = MonitorDaemon(config)
            daemon.start()
            await run_load(daemon, rounds=60, seed=5)
            await daemon.stop()
            return daemon

        daemon = asyncio.run(main())
        assert not daemon.failed
        for tenant, row in daemon.summary().items():
            assert (row["restarts"], row["ticks"]) == (0, 60), tenant


class TestCheckpointing:
    def test_stop_checkpoints_and_restart_resumes_bit_exactly(self, tmp_path):
        config = make_config(
            tenants=(TenantSpec("t", categories=(0, 1)),),
            state_dir=str(tmp_path / "state"), drift_threshold=6.0)
        load = SyntheticTenantLoad(config.tenants[0], seed=10)
        rounds = load.rounds(10, config.batch_size)

        async def phase(daemon, chunk, start):
            daemon.start()
            for i, batches in enumerate(chunk, start=start):
                await daemon.submit_round(MeasurementRound(
                    tenant="t", index=i, batches=batches))
            await daemon.stop()

        async def main():
            first = MonitorDaemon(config)
            await phase(first, rounds[:5], 0)
            assert (tmp_path / "state" / "tenant-t.npz").exists()
            second = MonitorDaemon(config)  # resumes from the checkpoint
            assert second.monitors["t"].rounds_ingested == 5
            await phase(second, rounds[5:], 5)
            return second

        daemon = asyncio.run(main())
        offline = offline_replay(config.tenants[0], config, rounds)
        assert_states_equal(daemon, "t", offline)
        assert daemon.monitors["t"].rounds_ingested == 10

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "tenant-t.npz").write_bytes(b"not an npz archive")
        config = make_config(tenants=(TenantSpec("t", categories=(0, 1)),),
                             state_dir=str(state))
        daemon = MonitorDaemon(config)
        assert daemon.monitors["t"].rounds_ingested == 0
