"""The public calls the traced run wraps, grouped by ``repro`` layer.

Each entry is a :class:`~perfbench.tracing.Target`; the span names double
as the keys the workloads read per-layer metrics from.  ``parallel``,
``resilience`` and ``obs`` are not traced: every workload runs one
worker, injects no faults and keeps telemetry off.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attack import tournament as tournament_module
from repro.attack.flush_reload import FlushReloadAttacker
from repro.attack.prime_probe import PrimeProbeAttacker
from repro.attack.trace_store import TraceStore
from repro.core.alarm import AlarmPolicy
from repro.core.drift import DriftMonitor
from repro.core.evaluator import Evaluator
from repro.core.streaming import StreamingEvaluator
from repro.countermeasures.noise import NoiseInjectionBackend
from repro.datasets.synthetic_cifar import SyntheticObjects
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.hpc.session import MeasurementCache, MeasurementSession
from repro.hpc.sim_backend import SimBackend
from repro.nn.trainer import Trainer
from repro.serve.daemon import MonitorDaemon
from repro.serve.monitor import TenantMonitor
from repro.trace.traced_model import TracedInference
from repro.uarch.engine import MeasurementPlan

from .tracing import Target


def _count_trace(tracer, span, args, result) -> None:
    tracer.counts["trace.mem_accesses"] += result[1].memory_accesses


def _count_batch(key: str):
    def count(tracer, span, args, result) -> None:
        tracer.counts[key] += len(args[1])
    return count


def _count_cache_bytes(tracer, span, args, result) -> None:
    tracer.counts["hpc.cache_write_bytes"] += result.stat().st_size


SETUP: List[Target] = [
    Target(SyntheticObjects, "generate", "datasets.generate", "datasets"),
    Target(SyntheticDigits, "generate", "datasets.generate", "datasets"),
    Target(Trainer, "fit", "nn.fit", "nn"),
    Target(Trainer, "evaluate", "nn.evaluate", "nn"),
]

MEASUREMENT: List[Target] = [
    Target(TracedInference, "trace_sample", "trace.trace_sample", "trace",
           _count_trace),
    Target(MeasurementPlan, "replay_batch", "uarch.replay_batch", "uarch",
           _count_batch("uarch.replayed")),
    Target(TracedInference, "trace_batch", "trace.trace_batch", "trace",
           _count_batch("trace.batched")),
    Target(TracedInference, "run", "uarch.scalar_run", "uarch"),
    Target(TracedInference, "run_batch", "uarch.scalar_run_batch", "uarch",
           _count_batch("uarch.scalar_batched")),
    Target(MeasurementSession, "collect", "hpc.collect", "hpc"),
    Target(SimBackend, "measure_batch", "hpc.measure_batch", "hpc"),
    Target(SimBackend, "measure", "hpc.measure", "hpc"),
    Target(MeasurementCache, "put", "hpc.cache_put", "hpc",
           _count_cache_bytes),
    Target(MeasurementCache, "put_arrays", "hpc.cache_put", "hpc",
           _count_cache_bytes),
]

AUDIT: List[Target] = SETUP + MEASUREMENT + [
    Target(Evaluator, "evaluate", "core.evaluate", "core"),
]

FLEET: List[Target] = [
    Target(StreamingEvaluator, "observe_rows", "stats.observe_rows", "stats"),
    Target(StreamingEvaluator, "tick", "core.tick", "core"),
    Target(StreamingEvaluator, "report", "core.report", "core"),
    Target(AlarmPolicy, "decide", "core.alarm_decide", "core"),
    Target(DriftMonitor, "observe", "core.drift", "core"),
    Target(DriftMonitor, "check", "core.drift", "core"),
    Target(TenantMonitor, "ingest_round", "serve.ingest_round", "serve"),
    Target(MonitorDaemon, "submit_round", "serve.submit_round", "serve"),
]

TOURNAMENT: List[Target] = SETUP + MEASUREMENT + [
    Target(PrimeProbeAttacker, "probe_vectors", "attack.probe_vectors",
           "attack"),
    Target(FlushReloadAttacker, "observe_batch", "attack.observe_batch",
           "attack"),
    # The tournament calls these through its own module namespace.
    Target(tournament_module, "profile_attack_vectors", "attack.profile",
           "attack"),
    Target(tournament_module, "profile_and_attack", "attack.profile",
           "attack"),
    Target(TraceStore, "get", "attack.trace_store", "attack"),
    Target(TraceStore, "put", "attack.trace_store", "attack"),
    Target(NoiseInjectionBackend, "measure", "countermeasures.noise_measure",
           "countermeasures"),
]


def scalar_samples(tracer) -> float:
    """Samples replayed one at a time on ``CpuModel`` (not batched)."""
    return (tracer.calls("uarch.scalar_run")
            + tracer.counts["uarch.scalar_batched"])


def measurement_metrics(setup_tracer, tracer, passes: int
                        ) -> Dict[str, float]:
    """Per-layer figures of the workloads that measure on the simulator:
    set-up training, tracing, replay, HPC collection and cache writes.
    Counts and ``_s`` totals are per pass; ``_ms`` figures per call or per
    sample, as named."""
    traced = tracer.calls("trace.trace_sample")
    replayed = tracer.counts["uarch.replayed"]
    measured = replayed + scalar_samples(tracer)
    return {
        "datasets.generate_s": setup_tracer.total_s("datasets.generate"),
        "nn.fit_s": setup_tracer.total_s("nn.fit"),
        "nn.holdout_eval_s": setup_tracer.total_s("nn.evaluate"),
        "trace.sample_ms": tracer.mean_ms("trace.trace_sample"),
        "trace.samples": traced / passes,
        "trace.mem_accesses_per_sample":
            tracer.counts["trace.mem_accesses"] / max(traced, 1),
        "uarch.replay_ms_per_sample":
            tracer.self_s("uarch.replay_batch") * 1e3 / max(replayed, 1),
        "uarch.replay_batches": tracer.calls("uarch.replay_batch") / passes,
        "hpc.collect_s": tracer.total_s("hpc.collect") / passes,
        "hpc.measure_batch_self_ms":
            tracer.self_s("hpc.measure_batch") * 1e3 / passes,
        "hpc.cache_write_ms": tracer.total_s("hpc.cache_put") * 1e3 / passes,
        "hpc.cache_write_bytes":
            tracer.counts["hpc.cache_write_bytes"] / passes,
        "hpc.batched_fraction": replayed / max(measured, 1),
        "hpc.samples_measured": measured / passes,
    }
