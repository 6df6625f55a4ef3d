"""Invariance suite: the batched measurement engine vs naive replay.

The engine's contract is *bit-identity*: for every supported
configuration, `MeasurementPlan.replay_batch` must produce exactly the
event counts the naive per-sample `CpuModel` replay produces, and
`SimBackend.measure_batch` must produce exactly the measurements of the
per-sample `measure` loop — across replacement policies, noise schemes
and cold/warm caches.  Configurations the plan does not support must
fall back to the per-sample path (and say so via `supports`).
"""

import numpy as np
import pytest

from repro.hpc.sim_backend import SimBackend
from repro.uarch.cpu import CpuConfig, CpuModel
from repro.uarch.engine import MeasurementPlan
from repro.uarch.hierarchy import HierarchyConfig
from repro.uarch.tlb import TlbConfig

BATCH = 10  # crosses the engine's internal REPLAY_CHUNK boundary


@pytest.fixture(scope="module")
def traced_samples(tiny_trained_model, digits_dataset):
    backend = SimBackend(tiny_trained_model)
    samples = [image for image in digits_dataset.category(0).images[:BATCH]]
    traces = [backend.traced.trace_sample(sample)[1] for sample in samples]
    return samples, traces


def naive_counts(config, trace):
    cpu = CpuModel(config, seed=0, cold_start=True)
    cpu.begin_task()
    trace.replay(cpu)
    return cpu.ground_truth()


class TestReplayBatchBitIdentity:
    @pytest.mark.parametrize("predictor",
                             ["gshare", "bimodal", "static-taken",
                              "tournament"])
    def test_matches_naive_replay(self, traced_samples, predictor):
        _, traces = traced_samples
        config = CpuConfig(predictor=predictor)
        plan = MeasurementPlan(config)
        got = plan.replay_batch(traces)
        for index, trace in enumerate(traces):
            want = naive_counts(config, trace)
            assert list(got[index].keys()) == list(want.keys())
            assert got[index] == want

    @pytest.mark.parametrize("entries", [1, 4])
    def test_small_tlb_matches_naive_replay(self, traced_samples, entries):
        # TLBs below 6 entries take the shifted-compare kernel instead of
        # the bitset kernel the stock 32-entry TLB uses.
        _, traces = traced_samples
        config = CpuConfig(tlb=TlbConfig(entries=entries))
        got = MeasurementPlan(config).replay_batch(traces)
        for index, trace in enumerate(traces):
            assert got[index] == naive_counts(config, trace)

    def test_chunking_is_invisible(self, traced_samples):
        # Any internal chunk size must yield the same counts: each sample
        # is replayed independently against the memoized prefix.
        _, traces = traced_samples
        plan = MeasurementPlan(CpuConfig())
        whole = plan.replay_batch(traces)
        one_by_one = [plan.replay_batch([trace])[0] for trace in traces]
        assert whole == one_by_one


class TestSupportGating:
    def test_supported_configuration(self):
        assert MeasurementPlan.supports(CpuConfig(), cold_start=True)

    @pytest.mark.parametrize("config,cold", [
        (CpuConfig(), False),                                    # warm
        (CpuConfig(hierarchy=HierarchyConfig(policy="tree-plru")), True),
        (CpuConfig(hierarchy=HierarchyConfig(policy="random")), True),
        (CpuConfig(hierarchy=HierarchyConfig(policy="fifo")), True),
    ])
    def test_unsupported_configurations(self, config, cold):
        assert not MeasurementPlan.supports(config, cold_start=cold)


class TestMeasureBatchInvariance:
    """measure_batch == per-sample measure, whatever the configuration.

    Supported configurations take the vectorized engine; unsupported ones
    fall back to the per-sample loop — either way the measurements must be
    indistinguishable from calling ``measure`` in a loop on a fresh
    backend.
    """

    POLICIES = ["lru", "tree-plru", "random"]
    SCHEMES = ["per-sample", "stream"]

    def _backend(self, model, policy, scheme, cold):
        config = CpuConfig(hierarchy=HierarchyConfig(policy=policy))
        backend = SimBackend(model, cpu_config=config, noise_scheme=scheme)
        backend.cpu.cold_start = cold
        return backend

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cold", [True, False])
    def test_bit_identical_measurements(self, tiny_trained_model,
                                        traced_samples, policy, scheme, cold):
        samples, _ = traced_samples
        samples = samples[:3]
        reference = self._backend(tiny_trained_model, policy, scheme, cold)
        batched = self._backend(tiny_trained_model, policy, scheme, cold)
        if scheme == "per-sample":
            keys = [(0, index) for index in range(len(samples))]
            want = [reference.measure(sample, noise_key=key)
                    for sample, key in zip(samples, keys)]
            got = batched.measure_batch(samples, noise_keys=keys)
        else:
            want = [reference.measure(sample) for sample in samples]
            got = batched.measure_batch(samples)
        for a, b in zip(want, got):
            assert a.prediction == b.prediction
            assert all(a.counts[event] == b.counts[event]
                       for event in a.counts)
        engaged = MeasurementPlan.supports(batched.cpu_config,
                                           cold_start=cold)
        assert (batched._plan is not None) == engaged

    def test_engine_actually_engages_on_default_config(self,
                                                       tiny_trained_model,
                                                       traced_samples):
        samples, _ = traced_samples
        backend = SimBackend(tiny_trained_model)
        assert backend._plan is None
        backend.measure_batch(samples[:2])
        assert backend._plan is not None
