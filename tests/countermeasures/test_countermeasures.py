"""Tests for repro.countermeasures."""

import numpy as np
import pytest

from repro.core import Evaluator
from repro.countermeasures import (
    NoiseInjectionBackend,
    certify_equivalence,
    constant_footprint_config,
    evaluate_defense,
    footprint_overhead,
    harden_backend,
    make_hardened_backend,
)
from repro.errors import BackendError, ConfigError
from repro.hpc import EventDistributions, MeasurementSession, SimBackend
from repro.trace import TraceConfig, TracedInference
from repro.uarch import HpcEvent


class TestConstantFootprintConfig:
    def test_transform(self):
        hardened = constant_footprint_config(TraceConfig(dense_stride=2))
        assert hardened.sparse_from_layer is None
        assert hardened.branchless_compares
        assert hardened.dense_stride == 2  # unrelated knobs preserved

    def test_default_base(self):
        hardened = constant_footprint_config()
        assert hardened.sparse_from_layer is None


class TestHardenedBackend:
    def test_counts_identical_across_inputs(self, tiny_trained_model,
                                            digits_dataset):
        backend = make_hardened_backend(tiny_trained_model, noise_scale=0.0)
        readouts = [backend.measure(image).counts
                    for image in digits_dataset.images[:5]]
        assert all(counts == readouts[0] for counts in readouts)

    def test_harden_backend_clones_settings(self, tiny_trained_model):
        base = SimBackend(tiny_trained_model, noise_scale=0.5, seed=3)
        hardened = harden_backend(base)
        assert hardened.noise_scale == 0.5
        assert hardened.seed == 3
        assert hardened.trace_config.sparse_from_layer is None
        assert hardened.fingerprint() != base.fingerprint()

    def test_baseline_backend_actually_varies(self, tiny_trained_model,
                                              digits_dataset):
        backend = SimBackend(tiny_trained_model, noise_scale=0.0)
        readouts = [backend.measure(image).counts
                    for image in digits_dataset.images[:5]]
        assert any(counts != readouts[0] for counts in readouts[1:])

    def test_overhead_factor_above_one(self, tiny_trained_model):
        assert footprint_overhead(tiny_trained_model) > 1.0

    def test_overhead_with_prebuilt_tracers(self, tiny_trained_model):
        base = TraceConfig()
        sparse = TracedInference(tiny_trained_model, base)
        hardened = TracedInference(tiny_trained_model,
                                   constant_footprint_config(base))
        assert footprint_overhead(tiny_trained_model, base, sparse=sparse,
                                  hardened=hardened) \
            == footprint_overhead(tiny_trained_model, base)
        with pytest.raises(ConfigError):  # tracers swapped
            footprint_overhead(tiny_trained_model, base, sparse=hardened,
                               hardened=sparse)


class TestNoiseInjection:
    def test_zero_amplitude_passthrough(self, tiny_trained_model,
                                        digits_dataset):
        inner = SimBackend(tiny_trained_model, noise_scale=0.0)
        wrapped = NoiseInjectionBackend(inner, amplitude=0.0)
        image = digits_dataset.images[0]
        assert wrapped.measure(image).counts == inner.measure(image).counts

    def test_injection_inflates_variance(self, tiny_trained_model,
                                         digits_dataset):
        image = digits_dataset.images[0]

        def spread(backend, n=12):
            values = [backend.measure(image).counts[HpcEvent.CACHE_MISSES]
                      for _ in range(n)]
            return float(np.std(values))

        clean = SimBackend(tiny_trained_model, noise_scale=0.0)
        noisy = NoiseInjectionBackend(
            SimBackend(tiny_trained_model, noise_scale=0.0),
            amplitude=0.10, seed=1)
        assert spread(noisy) > spread(clean) + 1.0

    def test_injection_only_adds(self, tiny_trained_model, digits_dataset):
        image = digits_dataset.images[0]
        inner = SimBackend(tiny_trained_model, noise_scale=0.0)
        reference = inner.measure(image).counts
        wrapped = NoiseInjectionBackend(
            SimBackend(tiny_trained_model, noise_scale=0.0),
            amplitude=0.05, seed=2)
        noisy = wrapped.measure(image).counts
        for event in reference:
            assert noisy[event] >= reference[event]

    def test_rejects_negative_amplitude(self, tiny_trained_model):
        inner = SimBackend(tiny_trained_model)
        with pytest.raises(BackendError):
            NoiseInjectionBackend(inner, amplitude=-0.1)

    def test_fingerprint_includes_amplitude(self, tiny_trained_model):
        inner = SimBackend(tiny_trained_model)
        a = NoiseInjectionBackend(inner, amplitude=0.1).fingerprint()
        b = NoiseInjectionBackend(inner, amplitude=0.2).fingerprint()
        assert a != b


class TestDefenseEvaluation:
    def test_certify_equivalence_on_identical_data(self):
        rng = np.random.default_rng(0)
        dists = EventDistributions({
            1: {HpcEvent.CACHE_MISSES: rng.normal(1000, 2, 100)},
            2: {HpcEvent.CACHE_MISSES: rng.normal(1000, 2, 100)},
        })
        assert certify_equivalence(dists, HpcEvent.CACHE_MISSES,
                                   margin_fraction=0.005) == 1.0

    def test_certify_fails_on_separated_data(self):
        rng = np.random.default_rng(0)
        dists = EventDistributions({
            1: {HpcEvent.CACHE_MISSES: rng.normal(1000, 2, 100)},
            2: {HpcEvent.CACHE_MISSES: rng.normal(1100, 2, 100)},
        })
        assert certify_equivalence(dists, HpcEvent.CACHE_MISSES,
                                   margin_fraction=0.005) == 0.0

    def test_full_defense_evaluation(self, tiny_trained_model,
                                     digits_dataset):
        hardened = make_hardened_backend(tiny_trained_model, noise_scale=0.2,
                                         seed=4)
        report = evaluate_defense(hardened, digits_dataset, [0, 1, 2], 8)
        assert report.equivalence  # per-event certification present
        text = report.summary()
        assert "defended alarm" in text
        assert "TOST" in text

    def test_defense_report_with_baseline(self, tiny_trained_model,
                                          digits_dataset):
        baseline_backend = SimBackend(tiny_trained_model, noise_scale=0.2,
                                      seed=4)
        session = MeasurementSession(baseline_backend, warmup=0)
        baseline_dists = session.collect(digits_dataset, [0, 1, 2], 8)
        baseline_report = Evaluator().evaluate(baseline_dists)
        hardened = harden_backend(baseline_backend)
        report = evaluate_defense(hardened, digits_dataset, [0, 1, 2], 8,
                                  baseline_report=baseline_report)
        assert "baseline alarm" in report.summary()
