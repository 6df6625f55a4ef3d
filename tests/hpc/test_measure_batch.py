"""Tests for SimBackend.measure_batch — the engine-backed batch front end.

Policy/scheme/cold-warm sweeps live in
``tests/uarch/test_engine_invariance.py``; this module covers the
backend-level behaviours around the batch call itself: auto key
assignment, noise-stream continuation, argument validation and the
packed noise draw.
"""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.hpc.sim_backend import DEFAULT_NOISE_FLOOR, SimBackend
from repro.uarch.events import HpcEvent


@pytest.fixture(scope="module")
def samples(digits_dataset):
    return [image for image in digits_dataset.category(1).images[:6]]


def assert_identical(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert a.prediction == b.prediction
        assert all(a.counts[event] == b.counts[event] for event in a.counts)


class TestAutoKeys:
    def test_unkeyed_batch_matches_unkeyed_loop(self, tiny_trained_model,
                                                samples):
        # Unkeyed per-sample-scheme calls burn one auto index each; the
        # batch must consume the same indices in the same order.
        loop = SimBackend(tiny_trained_model)
        batch = SimBackend(tiny_trained_model)
        assert_identical([loop.measure(sample) for sample in samples],
                         batch.measure_batch(samples))
        # Auto index advanced equally: the next unkeyed call still agrees.
        assert_identical([loop.measure(samples[0])],
                         [batch.measure(samples[0])])


class TestStreamScheme:
    def test_stream_draws_stay_aligned_after_batch(self, tiny_trained_model,
                                                   samples):
        loop = SimBackend(tiny_trained_model, noise_scheme="stream")
        batch = SimBackend(tiny_trained_model, noise_scheme="stream")
        assert_identical([loop.measure(sample) for sample in samples],
                         batch.measure_batch(samples))
        # The sequential generator must have consumed the exact same
        # number of variates, so later measurements remain identical.
        assert_identical([loop.measure(samples[0])],
                         [batch.measure(samples[0])])


class TestNoiseScaleZero:
    def test_counts_are_exact(self, tiny_trained_model, samples):
        loop = SimBackend(tiny_trained_model, noise_scale=0.0)
        batch = SimBackend(tiny_trained_model, noise_scale=0.0)
        assert_identical([loop.measure(sample) for sample in samples],
                         batch.measure_batch(samples))


class TestValidation:
    def test_empty_batch(self, tiny_trained_model):
        assert SimBackend(tiny_trained_model).measure_batch([]) == []

    def test_keys_rejected_under_stream_scheme(self, tiny_trained_model,
                                               samples):
        backend = SimBackend(tiny_trained_model, noise_scheme="stream")
        with pytest.raises(BackendError):
            backend.measure_batch(samples[:2], noise_keys=[(0, 0), (0, 1)])

    def test_key_count_must_match(self, tiny_trained_model, samples):
        backend = SimBackend(tiny_trained_model)
        with pytest.raises(BackendError):
            backend.measure_batch(samples[:3], noise_keys=[(0, 0)])


class TestRetrySessionRouting:
    def test_retry_session_still_takes_batched_path(self, tiny_trained_model,
                                                    samples):
        # The default pipeline configures retries=3; a retry policy on a
        # deterministic backend must not silently kick the session back
        # to the per-sample loop.
        from repro.hpc import MeasurementSession
        from repro.resilience import RetryPolicy

        backend = SimBackend(tiny_trained_model)
        session = MeasurementSession(backend, warmup=0,
                                     retry=RetryPolicy(max_attempts=3))
        calls = []
        original = backend.measure
        backend.measure = lambda *a, **k: calls.append(1) or original(*a, **k)
        counts = session.measure_category(samples, category=0)
        assert not calls, "retry session fell back to the per-sample loop"

        plain = MeasurementSession(SimBackend(tiny_trained_model), warmup=0)
        want = plain.measure_category(samples, category=0)
        for a, b in zip(want, counts):
            assert all(a[event] == b[event] for event in a)

    def test_failing_batch_falls_back_to_retried_loop(self, tiny_trained_model,
                                                      samples):
        from repro.hpc import MeasurementSession
        from repro.resilience import RetryPolicy

        class BrokenBatchBackend(SimBackend):
            def measure_batch(self, batch, noise_keys=None):
                raise BackendError("injected batch failure")

        session = MeasurementSession(BrokenBatchBackend(tiny_trained_model),
                                     warmup=0,
                                     retry=RetryPolicy(max_attempts=3))
        counts = session.measure_category(samples, category=0)
        plain = MeasurementSession(SimBackend(tiny_trained_model), warmup=0)
        want = plain.measure_category(samples, category=0)
        for a, b in zip(want, counts):
            assert all(a[event] == b[event] for event in a)

    def test_failing_batch_without_retry_raises(self, tiny_trained_model,
                                                samples):
        from repro.hpc import MeasurementSession

        class BrokenBatchBackend(SimBackend):
            def measure_batch(self, batch, noise_keys=None):
                raise BackendError("injected batch failure")

        session = MeasurementSession(BrokenBatchBackend(tiny_trained_model),
                                     warmup=0)
        with pytest.raises(BackendError):
            session.measure_category(samples, category=0)


def scalar_noise(backend, counts, rng):
    """Reference noise model: one scalar draw per event, jitter first."""
    noisy = {}
    for event in counts:
        value = float(counts[event])
        rel = backend.noise_profile.get(event, 0.002) * backend.noise_scale
        floor = DEFAULT_NOISE_FLOOR.get(event, 0.0) * backend.noise_scale
        jitter = rng.normal(0.0, rel * value) if rel else 0.0
        offset = abs(rng.normal(0.0, floor)) if floor else 0.0
        noisy[event] = max(0, int(round(value + jitter + offset)))
    return noisy


class TestPackedNoise:
    def test_packed_draw_equals_scalar_draws(self, tiny_trained_model,
                                             samples):
        # Identical keys give identical noise whichever entry point
        # produced the measurement.
        backend = SimBackend(tiny_trained_model)
        key = (3, 7)
        want = backend.measure(samples[0], noise_key=key)
        got = backend.measure_batch([samples[0]], noise_keys=[key])[0]
        assert_identical([want], [got])

    @pytest.mark.parametrize("seed", range(3))
    def test_packed_draw_matches_scalar_reference(self, tiny_trained_model,
                                                  seed):
        # The single packed draw must consume the generator bit stream
        # exactly like per-event scalar draws, including the events whose
        # relative noise is zeroed out of the draw.
        rng = np.random.default_rng(seed)
        events = list(HpcEvent)
        traced = SimBackend(tiny_trained_model).traced
        for trial in range(200):
            profile = {event: 0.0 for event in events
                       if rng.random() < 0.3}
            backend = SimBackend(tiny_trained_model, noise_profile=profile,
                                 noise_scale=float(rng.choice([0.5, 1, 4])),
                                 traced=traced)
            counts = {event: int(rng.integers(0, 10 ** int(
                rng.integers(1, 9)))) for event in events}
            key = (seed, trial)
            got = backend._noisy(counts, key)
            want = scalar_noise(backend, counts, backend._keyed_rng(*key))
            assert {event: got[event] for event in events} == want


def per_sample_collect(backend, dataset, categories, count, warmup):
    """The reference unkeyed collection: one measure() per classification."""
    from repro.hpc import EventDistributions

    per_category = {}
    for category in categories:
        images = dataset.category(category).images[:count]
        for image in images[:warmup]:
            backend.measure(image)
        per_category[category] = [backend.measure(image).counts
                                  for image in images]
    return EventDistributions.from_measurements(per_category)


def assert_same_distributions(want, got):
    assert want.categories == got.categories
    assert want.events == got.events
    for category in want.categories:
        for event in want.events:
            assert np.array_equal(want.values(category, event),
                                  got.values(category, event))


class TestUnkeyedSessionBatch:
    """Unkeyed collection (stateful noise) through one batch per category."""

    @staticmethod
    def _backends(model):
        from repro.countermeasures import NoiseInjectionBackend

        return {
            "noise-injection": lambda: NoiseInjectionBackend(
                SimBackend(model, seed=2), amplitude=0.25, seed=7),
            "stream": lambda: SimBackend(model, seed=2,
                                         noise_scheme="stream"),
        }

    @pytest.mark.parametrize("kind", ["noise-injection", "stream"])
    @pytest.mark.parametrize("warmup", [0, 2])
    def test_collect_equals_per_sample_loop(self, tiny_trained_model,
                                            digits_dataset, kind, warmup):
        from repro.hpc import MeasurementSession

        make = self._backends(tiny_trained_model)[kind]
        want = per_sample_collect(make(), digits_dataset, (0, 3), 4, warmup)
        backend = make()
        calls = []
        original = backend.measure
        backend.measure = lambda *a, **k: calls.append(1) or original(*a, **k)
        got = MeasurementSession(backend, warmup=warmup).collect(
            digits_dataset, (0, 3), 4)
        assert not calls, "unkeyed collection left the batched path"
        assert_same_distributions(want, got)

    def test_warmup_rides_in_the_batch(self, tiny_trained_model,
                                       digits_dataset):
        from repro.hpc import MeasurementSession

        backend = self._backends(tiny_trained_model)["noise-injection"]()
        sizes = []
        original = backend.measure_batch
        backend.measure_batch = (
            lambda samples: sizes.append(len(samples)) or original(samples))
        readings = MeasurementSession(backend, warmup=2).measure_category(
            digits_dataset.category(1).images[:5])
        assert sizes == [7]  # 2 warm-up + 5 measured, one call
        assert len(readings) == 5
        assert backend._count == 7  # warm-up folded into the running means

    def test_flaky_inner_keeps_retried_per_sample_path(self,
                                                       tiny_trained_model,
                                                       digits_dataset):
        # FlakyBackend has no measure_batch, so the chain cannot batch:
        # the session must stay on the retried loop, where the injected
        # fault is retried away and the run equals a clean one.
        from repro.countermeasures import NoiseInjectionBackend
        from repro.hpc import MeasurementSession
        from repro.resilience import (
            FaultKind, FaultPlan, FaultSpec, FlakyBackend, RetryPolicy)

        plan = FaultPlan([FaultSpec(FaultKind.TIMEOUT, -1, 3)])
        flaky = NoiseInjectionBackend(
            FlakyBackend(SimBackend(tiny_trained_model, seed=2), plan),
            amplitude=0.25, seed=7)
        retry = RetryPolicy(max_attempts=3, sleep=lambda seconds: None)
        got = MeasurementSession(flaky, warmup=2, retry=retry).collect(
            digits_dataset, (0, 3), 4)
        assert plan.fault_for((-1, 3)) is None  # the one attempt was spent
        clean = NoiseInjectionBackend(SimBackend(tiny_trained_model, seed=2),
                                      amplitude=0.25, seed=7)
        assert_same_distributions(
            per_sample_collect(clean, digits_dataset, (0, 3), 4, 2), got)


class TestCleanBatchReplay:
    """measure_clean_batch replays through the plan when it is exact."""

    @pytest.mark.parametrize("hardened", [False, True])
    def test_plan_replay_equals_measure_clean(self, tiny_trained_model,
                                              samples, hardened):
        from repro.countermeasures import harden_backend

        backend = SimBackend(tiny_trained_model, seed=5)
        if hardened:
            backend = harden_backend(backend)

        def scalar(*args, **kwargs):
            raise AssertionError("warm-up replayed on the scalar CpuModel")

        backend.traced.run_batch = scalar
        got = backend.measure_clean_batch(samples[:4])
        assert backend._plan is not None
        assert_identical([backend.measure_clean(sample)
                          for sample in samples[:4]], got)

    @pytest.mark.parametrize("cold,policy", [(False, "lru"),
                                             (True, "tree-plru")])
    def test_falls_back_outside_the_plan(self, tiny_trained_model, samples,
                                         cold, policy):
        from repro.uarch import CpuConfig, HierarchyConfig

        def backend():
            made = SimBackend(tiny_trained_model, cpu_config=CpuConfig(
                hierarchy=HierarchyConfig(policy=policy)))
            made.cpu.cold_start = cold
            return made

        batched = backend()
        got = batched.measure_clean_batch(samples[:3])
        assert batched._plan is None
        reference = backend()
        want = reference.traced.run_batch(np.asarray(samples[:3]),
                                          reference.cpu)
        for (prediction, counts), measurement in zip(want, got):
            assert measurement.prediction == prediction
            assert measurement.counts == counts

    def test_trace_counters_match_scalar_replay(self, tiny_trained_model,
                                                samples):
        from repro import obs

        def counters(run):
            obs.configure(obs.TelemetryConfig(enabled=True, console=False))
            try:
                run()
                snapshot = obs.active().snapshot()
                return (snapshot.counter_value("trace.ops"),
                        snapshot.counter_value("trace.mem_accesses"))
            finally:
                obs.reset()

        batch = np.asarray(samples[:3])
        planned = SimBackend(tiny_trained_model)
        scalar = SimBackend(tiny_trained_model)
        got = counters(lambda: planned.measure_clean_batch(batch))
        want = counters(lambda: scalar.traced.run_batch(batch, scalar.cpu))
        assert planned._plan is not None
        assert got == want
        assert got[0] > 0 and got[1] > 0


class TestTraceRecording:
    """Backends reading a TraceRecording return a fresh backend's readouts."""

    @staticmethod
    def recording(model, samples=(), **kwargs):
        from repro.hpc.recording import TraceRecording

        recording = TraceRecording(SimBackend(model).traced, **kwargs)
        for sample in samples:  # recorded ahead, as the trace matrix does
            recording.trace(sample)
        return recording

    @pytest.mark.parametrize("ahead", [True, False],
                             ids=["recorded-ahead", "recorded-lazily"])
    @pytest.mark.parametrize("scheme,keyed", [("per-sample", True),
                                              ("per-sample", False),
                                              ("stream", False)],
                             ids=["keyed", "auto-index", "stream"])
    def test_readouts_equal_a_fresh_backend(self, tiny_trained_model,
                                            samples, ahead, scheme, keyed):
        recording = self.recording(tiny_trained_model,
                                   samples if ahead else ())
        fresh = SimBackend(tiny_trained_model, seed=4, noise_scheme=scheme)
        served = SimBackend(tiny_trained_model, seed=4, noise_scheme=scheme,
                            recording=recording)
        keys = [(1, index) for index in range(4)] if keyed else None
        # The second round is served entirely from recorded counts, and
        # every noise stream and auto index must have advanced alike.
        for _ in range(2):
            assert_identical(fresh.measure_batch(samples[:4], noise_keys=keys),
                             served.measure_batch(samples[:4],
                                                  noise_keys=keys))
            assert_identical(fresh.measure_clean_batch(samples[2:]),
                             served.measure_clean_batch(samples[2:]))
        assert_identical([fresh.measure(samples[0])],
                         [served.measure(samples[0])])
        assert len(recording._entries) == len(samples)

    def test_second_backend_neither_traces_nor_replays(
            self, tiny_trained_model, samples, monkeypatch):
        from repro.uarch.engine import MeasurementPlan

        recording = self.recording(tiny_trained_model)
        first = SimBackend(tiny_trained_model, seed=4, recording=recording)
        first.measure_batch(samples)

        def refuse(*args, **kwargs):
            raise AssertionError("a recorded image was traced or replayed")

        monkeypatch.setattr(MeasurementPlan, "replay_batch", refuse)
        monkeypatch.setattr(recording.traced, "trace_sample", refuse)
        second = SimBackend(tiny_trained_model, seed=9, recording=recording)
        got = second.measure_batch(samples)
        monkeypatch.undo()
        assert_identical(SimBackend(tiny_trained_model,
                                    seed=9).measure_batch(samples), got)

    def test_settle_replays_every_pending_image_once(self, tiny_trained_model,
                                                     samples, monkeypatch):
        from repro.uarch.engine import MeasurementPlan

        recording = self.recording(tiny_trained_model, samples)
        sizes = []
        replay_batch = MeasurementPlan.replay_batch
        monkeypatch.setattr(
            MeasurementPlan, "replay_batch",
            lambda plan, traces: sizes.append(len(traces))
            or replay_batch(plan, traces))
        recording.settle()
        recording.settle()
        served = SimBackend(tiny_trained_model, recording=recording)
        got = served.measure_batch(samples, noise_keys=[(2, index) for index
                                                        in range(6)])
        assert sizes == [len(samples)]
        assert_identical(SimBackend(tiny_trained_model).measure_batch(
            samples, noise_keys=[(2, index) for index in range(6)]), got)

    def test_noise_injection_over_a_recording(self, tiny_trained_model,
                                              samples):
        # The tournament's noise-injection cell wraps a backend whose
        # recording the baseline cell has already replayed: the dummy-work
        # noise must land on the same clean counts as over a fresh one.
        from repro.countermeasures import NoiseInjectionBackend
        from repro.hpc import MeasurementSession

        recording = self.recording(tiny_trained_model, samples)
        baseline = SimBackend(tiny_trained_model, seed=2,
                              recording=recording)
        MeasurementSession(baseline, warmup=2).measure_category(samples,
                                                                category=1)
        fresh = NoiseInjectionBackend(SimBackend(tiny_trained_model, seed=2),
                                      amplitude=0.25, seed=7)
        served = NoiseInjectionBackend(
            SimBackend(tiny_trained_model, seed=2, recording=recording),
            amplitude=0.25, seed=7)
        # Two rounds: the running means and the dummy-work stream carry
        # over, so the second round checks they advanced alike.
        for _ in range(2):
            want = MeasurementSession(fresh, warmup=2).measure_category(
                samples)
            got = MeasurementSession(served, warmup=2).measure_category(
                samples)
            assert want == got
        assert fresh._count == served._count == 2 * (2 + len(samples))

    @pytest.mark.parametrize("cold,policy", [(False, "lru"),
                                             (True, "tree-plru")])
    def test_scalar_fallback_ignores_the_recording(self, tiny_trained_model,
                                                   samples, cold, policy):
        from repro.uarch import CpuConfig, HierarchyConfig

        cpu_config = CpuConfig(hierarchy=HierarchyConfig(policy=policy))
        recording = self.recording(tiny_trained_model, samples[:3],
                                   cpu_config=cpu_config)

        def backend(**kwargs):
            made = SimBackend(tiny_trained_model, cpu_config=cpu_config,
                              **kwargs)
            made.cpu.cold_start = cold
            return made

        served = backend(recording=recording)
        keys = [(0, index) for index in range(3)]
        got = served.measure_batch(samples[:3], noise_keys=keys)
        got_clean = served.measure_clean_batch(samples[:3])
        fresh = backend()
        assert_identical(fresh.measure_batch(samples[:3], noise_keys=keys),
                         got)
        assert_identical(fresh.measure_clean_batch(samples[:3]), got_clean)
        if policy != "lru":
            recording.settle()  # a tree-PLRU CPU has no plan to replay on
        assert recording._plan is None and served._plan is None

    def test_mismatched_recording_is_rejected(self, tiny_trained_model):
        from repro.core.experiment import build_model
        from repro.countermeasures import constant_footprint_config
        from repro.errors import ConfigError
        from repro.trace import TraceConfig
        from repro.uarch import CpuConfig, HierarchyConfig

        recording = self.recording(tiny_trained_model)
        with pytest.raises(ConfigError):
            SimBackend(build_model("mnist", seed=9), recording=recording)
        with pytest.raises(ConfigError):
            SimBackend(tiny_trained_model, recording=recording,
                       trace_config=constant_footprint_config(TraceConfig()))
        with pytest.raises(ConfigError):
            SimBackend(tiny_trained_model, recording=recording,
                       cpu_config=CpuConfig(
                           hierarchy=HierarchyConfig(policy="tree-plru")))
        shared = SimBackend(tiny_trained_model, recording=recording)
        assert shared.traced is recording.traced
        assert shared.fingerprint() == SimBackend(
            tiny_trained_model).fingerprint()

    def test_trace_counters_match_fresh_backend(self, tiny_trained_model,
                                                samples):
        from repro import obs

        def counters(run):
            obs.configure(obs.TelemetryConfig(enabled=True, console=False))
            try:
                run()
                snapshot = obs.active().snapshot()
                return (snapshot.counter_value("trace.ops"),
                        snapshot.counter_value("trace.mem_accesses"))
            finally:
                obs.reset()

        def twice(backend):
            for _ in range(2):
                backend.measure_batch(samples[:4])
                backend.measure_clean_batch(samples[:2])

        recording = self.recording(tiny_trained_model, samples[:2])
        want = counters(lambda: twice(SimBackend(tiny_trained_model)))
        got = counters(lambda: twice(SimBackend(tiny_trained_model,
                                                recording=recording)))
        assert got == want
        assert got[0] > 0 and got[1] > 0
