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
from repro.hpc.sim_backend import SimBackend


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


class TestPackedNoise:
    def test_packed_draw_equals_scalar_draws(self, tiny_trained_model,
                                             samples):
        # _noisy_packed must consume the generator bit stream exactly like
        # the per-event scalar path, so identical keys give identical
        # noise whichever path produced the measurement.
        backend = SimBackend(tiny_trained_model)
        key = (3, 7)
        want = backend.measure(samples[0], noise_key=key)
        got = backend.measure_batch([samples[0]], noise_keys=[key])[0]
        assert_identical([want], [got])


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
