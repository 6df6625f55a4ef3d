"""NoiseInjectionBackend.measure_batch against the per-sample measure loop."""

import pytest

from repro.countermeasures import NoiseInjectionBackend
from repro.hpc import SimBackend


@pytest.fixture(scope="module")
def samples(digits_dataset):
    return list(digits_dataset.category(2).images[:6])


def assert_identical(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert a.prediction == b.prediction
        assert a.counts == b.counts


@pytest.mark.parametrize("scheme", ["per-sample", "stream"])
@pytest.mark.parametrize("amplitude", [0.0, 0.25])
def test_batch_equals_per_sample_loop(tiny_trained_model, samples, scheme,
                                      amplitude):
    def make():
        return NoiseInjectionBackend(
            SimBackend(tiny_trained_model, seed=4, noise_scheme=scheme),
            amplitude=amplitude, seed=9)

    loop, batch = make(), make()
    assert_identical([loop.measure(sample) for sample in samples],
                     batch.measure_batch(samples))
    # Same running means, and both noise streams (dummy work and the
    # inner backend's) advanced alike: the next measurement still agrees.
    assert batch._count == loop._count == len(samples)
    assert batch._running_mean == loop._running_mean
    assert_identical([loop.measure(samples[0])], [batch.measure(samples[0])])


def test_batch_continues_a_started_stream(tiny_trained_model, samples):
    loop = NoiseInjectionBackend(SimBackend(tiny_trained_model), seed=1)
    batch = NoiseInjectionBackend(SimBackend(tiny_trained_model), seed=1)
    want = [loop.measure(sample) for sample in samples]
    got = [batch.measure(samples[0])] + batch.measure_batch(samples[1:])
    assert_identical(want, got)


def test_empty_batch(tiny_trained_model):
    backend = NoiseInjectionBackend(SimBackend(tiny_trained_model))
    assert backend.measure_batch([]) == []
    assert backend._count == 0
