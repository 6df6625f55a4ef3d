"""Tests for repro.hpc.sim_backend."""

import numpy as np
import pytest

from repro.errors import BackendError, ConfigError
from repro.hpc import SimBackend
from repro.trace import TraceConfig, TracedInference
from repro.uarch import CpuConfig, HpcEvent


@pytest.fixture(scope="module")
def backend_factory(request):
    def make(model, **kwargs):
        return SimBackend(model, **kwargs)
    return make


class TestSharedTracer:
    def test_prebuilt_tracer_measures_like_a_fresh_one(self,
                                                       tiny_trained_model,
                                                       digits_dataset):
        traced = TracedInference(tiny_trained_model)
        shared = SimBackend(tiny_trained_model, seed=4, traced=traced)
        fresh = SimBackend(tiny_trained_model, seed=4)
        assert shared.traced is traced
        images = digits_dataset.images[:3]
        assert [m.counts for m in shared.measure_batch(images)] \
            == [m.counts for m in fresh.measure_batch(images)]

    def test_mismatched_tracer_rejected(self, tiny_trained_model):
        import copy

        traced = TracedInference(tiny_trained_model)
        with pytest.raises(ConfigError, match="trace config"):
            SimBackend(tiny_trained_model, traced=traced,
                       trace_config=TraceConfig(dense_stride=2))
        with pytest.raises(ConfigError, match="engine"):
            SimBackend(tiny_trained_model, traced=traced, engine="layers")
        with pytest.raises(ConfigError, match="another model"):
            SimBackend(copy.deepcopy(tiny_trained_model), traced=traced)


class TestMeasurement:
    def test_measure_returns_prediction_and_counts(self, tiny_trained_model,
                                                   digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=0.0)
        measurement = backend.measure(digits_dataset.images[0])
        assert 0 <= measurement.prediction < 10
        assert len(measurement.counts) == 8

    def test_zero_noise_is_deterministic(self, tiny_trained_model,
                                         digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=0.0)
        image = digits_dataset.images[0]
        assert backend.measure(image).counts == backend.measure(image).counts

    def test_noise_perturbs_counts(self, tiny_trained_model, digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=1)
        image = digits_dataset.images[0]
        a = backend.measure(image).counts
        b = backend.measure(image).counts
        assert a != b

    def test_noise_is_small_relative_to_counts(self, tiny_trained_model,
                                               digits_dataset):
        image = digits_dataset.images[0]
        clean = SimBackend(tiny_trained_model, noise_scale=0.0).measure(image)
        noisy = SimBackend(tiny_trained_model, noise_scale=1.0,
                           seed=2).measure(image)
        for event in clean.counts:
            reference = clean.counts[event]
            assert abs(noisy.counts[event] - reference) < max(
                0.05 * reference, 50_000)

    def test_measure_clean_bypasses_noise(self, tiny_trained_model,
                                          digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=1.0, seed=3)
        image = digits_dataset.images[0]
        assert (backend.measure_clean(image).counts
                == backend.measure_clean(image).counts)

    def test_reset_noise_reproduces_stream(self, tiny_trained_model,
                                           digits_dataset):
        backend = SimBackend(tiny_trained_model, seed=4)
        image = digits_dataset.images[0]
        first = [backend.measure(image).counts for _ in range(3)]
        backend.reset_noise()
        second = [backend.measure(image).counts for _ in range(3)]
        assert first == second

    def test_noise_profile_override(self, tiny_trained_model, digits_dataset):
        quiet = SimBackend(
            tiny_trained_model, seed=5,
            noise_profile={event: 0.0 for event in HpcEvent})
        image = digits_dataset.images[0]
        a = quiet.measure(image).counts
        b = quiet.measure(image).counts
        # Relative noise zeroed; only the additive floor remains.
        for event in (HpcEvent.BRANCHES, HpcEvent.INSTRUCTIONS):
            assert abs(a[event] - b[event]) < 5000

    def test_measure_many(self, tiny_trained_model, digits_dataset):
        backend = SimBackend(tiny_trained_model)
        results = backend.measure_many(digits_dataset.images[:3])
        assert len(results) == 3

    def test_rejects_negative_noise(self, tiny_trained_model):
        with pytest.raises(BackendError):
            SimBackend(tiny_trained_model, noise_scale=-1.0)


class TestNoiseSchemes:
    def test_keyed_measurement_is_pure(self, tiny_trained_model,
                                       digits_dataset):
        backend = SimBackend(tiny_trained_model, seed=6)
        image = digits_dataset.images[0]
        assert (backend.measure(image, noise_key=(2, 7)).counts
                == backend.measure(image, noise_key=(2, 7)).counts)

    def test_keyed_noise_independent_of_order(self, tiny_trained_model,
                                              digits_dataset):
        image = digits_dataset.images[0]
        keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
        backend = SimBackend(tiny_trained_model, seed=6)
        forward = {key: backend.measure(image, noise_key=key).counts
                   for key in keys}
        backend = SimBackend(tiny_trained_model, seed=6)
        backward = {key: backend.measure(image, noise_key=key).counts
                    for key in reversed(keys)}
        assert forward == backward

    def test_distinct_keys_draw_distinct_noise(self, tiny_trained_model,
                                               digits_dataset):
        backend = SimBackend(tiny_trained_model, seed=6)
        image = digits_dataset.images[0]
        assert (backend.measure(image, noise_key=(0, 0)).counts
                != backend.measure(image, noise_key=(0, 1)).counts)

    def test_stream_scheme_reproduces_sequentially(self, tiny_trained_model,
                                                   digits_dataset):
        image = digits_dataset.images[0]
        first = SimBackend(tiny_trained_model, seed=6,
                           noise_scheme="stream")
        second = SimBackend(tiny_trained_model, seed=6,
                            noise_scheme="stream")
        for _ in range(3):
            assert first.measure(image).counts == second.measure(image).counts

    def test_stream_scheme_rejects_noise_keys(self, tiny_trained_model,
                                              digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scheme="stream")
        with pytest.raises(BackendError):
            backend.measure(digits_dataset.images[0], noise_key=(0, 0))

    def test_rejects_unknown_scheme(self, tiny_trained_model):
        with pytest.raises(BackendError):
            SimBackend(tiny_trained_model, noise_scheme="bogus")

    def test_supports_noise_keys_flag(self, tiny_trained_model):
        assert SimBackend(tiny_trained_model).supports_noise_keys
        assert not SimBackend(tiny_trained_model,
                              noise_scheme="stream").supports_noise_keys

    def test_scheme_changes_fingerprint(self, tiny_trained_model):
        per_sample = SimBackend(tiny_trained_model, seed=7).fingerprint()
        stream = SimBackend(tiny_trained_model, seed=7,
                            noise_scheme="stream").fingerprint()
        assert per_sample != stream


class TestFingerprint:
    def test_stable_for_same_configuration(self, tiny_trained_model):
        a = SimBackend(tiny_trained_model, seed=7)
        b = SimBackend(tiny_trained_model, seed=7)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_seed_and_configs(self, tiny_trained_model):
        base = SimBackend(tiny_trained_model, seed=7).fingerprint()
        assert SimBackend(tiny_trained_model, seed=8).fingerprint() != base
        assert SimBackend(tiny_trained_model, seed=7,
                          trace_config=TraceConfig(dense_stride=2)
                          ).fingerprint() != base
        assert SimBackend(tiny_trained_model, seed=7,
                          cpu_config=CpuConfig(base_cpi=2000)
                          ).fingerprint() != base

    def test_describe_mentions_configuration(self, tiny_trained_model):
        text = SimBackend(tiny_trained_model).describe()
        assert "sim backend" in text
        assert "L1D" in text


class TestEngines:
    def test_engine_reaches_traced_inference(self, tiny_trained_model):
        backend = SimBackend(tiny_trained_model, engine="layers")
        assert backend.engine == "layers"
        assert backend.traced.engine == "layers"
        assert SimBackend(tiny_trained_model).traced.engine == "compiled"

    def test_rejects_unknown_engine(self, tiny_trained_model):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            SimBackend(tiny_trained_model, engine="bogus")

    def test_measurements_engine_invariant(self, tiny_trained_model,
                                           digits_dataset):
        compiled = SimBackend(tiny_trained_model, noise_scale=0.0)
        layers = SimBackend(tiny_trained_model, noise_scale=0.0,
                            engine="layers")
        for image in digits_dataset.images[:4]:
            mc = compiled.measure_clean(image)
            ml = layers.measure_clean(image)
            assert mc.prediction == ml.prediction
            assert mc.counts == ml.counts
        batch = digits_dataset.images[:4]
        for mc, ml in zip(compiled.measure_clean_batch(batch),
                          layers.measure_clean_batch(batch)):
            assert mc.prediction == ml.prediction
            assert mc.counts == ml.counts

    def test_fingerprint_engine_invariant(self, tiny_trained_model):
        # The engine never changes measured values, so cached artifacts
        # must remain valid across engines.
        assert (SimBackend(tiny_trained_model).fingerprint()
                == SimBackend(tiny_trained_model,
                              engine="layers").fingerprint())
