"""The leakage tournament: every attacker against every countermeasure.

The paper's question — *how much does each side channel leak, and what does
each defense buy?* — is answered here as one matrix run: attackers (HPC
profiling, Prime+Probe, Flush+Reload) x countermeasures (baseline,
constant-footprint inference, noise injection) x model zoo (one trained
classifier per dataset).  Each cell reports recovery accuracy, normalized
advantage, mutual information between the observable and the input
category, and the defense's runtime cost; cells are ranked most-leaky
first.

Cost discipline
---------------
The expensive steps are victim tracing and the HPC cells' microarchitecture
replay, not attack replay, so the tournament traces each distinct *trace
variant* of each pool image exactly once and shares it:

* ``base`` traces serve the baseline cells of both cache attackers **and**
  the noise-injection cells — dummy-work noise perturbs counter readings,
  not the victim's memory-access sequence, so the cache attackers see the
  baseline observable unchanged (the report states this honestly: noise
  injection does not degrade microarchitectural attacks at all).
* ``hardened`` traces (constant-footprint kernels) serve the
  constant-footprint cells of both cache attackers.

Every trace variant of a model has one :class:`~repro.hpc.recording.TraceRecording`
per pass.  The trace matrix traces through it, so the HPC cells — warm-up
included — measure the very traces the cache attackers saw: the first HPC
cell of a variant replays them through the
:class:`~repro.uarch.MeasurementPlan` once, and the noise-injection cell
draws its noise on the baseline cell's *clean* counts instead of replaying
them again.  Each cell still draws its own noise exactly as it would on
fresh counts, so no cell's result changes.  Images the matrix did not trace
(store hits carry no prediction; ``--attackers hpc`` has no matrix) are
traced by the first HPC cell that needs them and recorded then — in the
parent, before keyed measurement workers fork.

Variants live in a shared :class:`repro.attack.TraceStore`, so repeated
tournaments (and the standalone attack CLIs) reuse traced passes across
processes.  When ``workers > 1`` the missing traced passes fan out over a
process pool under :class:`repro.resilience.ChunkSupervisor` — crashed
workers are replaced and their chunks re-traced — with per-worker telemetry
shipped back and merged deterministically; workers return full traces with
their predictions, so the pool fills the recordings too.  Attack replay
itself runs in the parent through the vectorized batch engine
(:mod:`repro.attack.engine`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atomicio import atomic_write_text
from ..core.experiment import (
    GENERATOR_VERSION,
    ExperimentConfig,
    make_backend,
    prepare_model,
)
from ..countermeasures import (
    NoiseInjectionBackend,
    constant_footprint_config,
    footprint_overhead,
)
from ..errors import MeasurementError
from ..hpc.session import MeasurementCache, MeasurementSession
from ..hpc.recording import TraceRecording
from ..nn.model import Sequential
from ..obs import distributed
from ..obs import runtime as obs
from ..obs.runtime import TelemetryConfig
from ..parallel.executor import resolve_context
from ..resilience.supervisor import ChunkSupervisor
from ..stats.mutual_information import binned_mutual_information, max_leakage_bits
from ..trace.recorder import TraceConfig
from ..trace.traced_model import TracedInference
from .attacker import profile_and_attack
from .features import profile_attack_vectors
from .flush_reload import FlushReloadAttacker, weight_lines
from .prime_probe import PrimeProbeAttacker
from .trace_store import TraceStore

__all__ = [
    "ATTACKERS",
    "COUNTERMEASURES",
    "TournamentCell",
    "TournamentReport",
    "run_tournament",
    "write_tournament_report",
]

#: Attacker identifiers, in canonical order.
ATTACKERS: Tuple[str, ...] = ("hpc", "prime-probe", "flush-reload")

#: Countermeasure identifiers, in canonical order.
COUNTERMEASURES: Tuple[str, ...] = (
    "baseline", "constant-footprint", "noise-injection",
)

#: Default profiled classifier per attacker (each attack's own default).
_CLASSIFIER_FOR = {
    "hpc": "gaussian-nb",
    "prime-probe": "lda",
    "flush-reload": "gaussian-nb",
}


@dataclass(frozen=True)
class TournamentCell:
    """One (dataset, attacker, countermeasure) outcome.

    Attributes:
        dataset: Model-zoo entry attacked.
        attacker: ``"hpc"``, ``"prime-probe"`` or ``"flush-reload"``.
        countermeasure: Defense deployed on the victim.
        accuracy: Input-category recovery accuracy on held-out samples.
        chance_level: 1 / #categories.
        advantage: ``(accuracy - chance) / (1 - chance)``.
        mi_bits: Mutual information between the attacker's observable and
            the input category (bits; HPC cells report the leakiest event).
        leakage_fraction: ``mi_bits / log2(#categories)``.
        runtime_cost: Victim slowdown factor of the countermeasure
            (baseline = 1.0).
        classifier_name: Profiled classifier used.
        n_train: Profiling samples.
        n_test: Attacked samples.
        wall_seconds: Cell evaluation wall-clock (replay + profiling; trace
            collection is shared and reported separately).  The first HPC
            cell of a trace variant (baseline, constant-footprint) carries
            that variant's one microarchitecture replay; the
            noise-injection cell only draws noise on the baseline's clean
            counts.
    """

    dataset: str
    attacker: str
    countermeasure: str
    accuracy: float
    chance_level: float
    advantage: float
    mi_bits: float
    leakage_fraction: float
    runtime_cost: float
    classifier_name: str
    n_train: int
    n_test: int
    wall_seconds: float

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable mapping of the cell."""
        return {
            "dataset": self.dataset,
            "attacker": self.attacker,
            "countermeasure": self.countermeasure,
            "accuracy": self.accuracy,
            "chance_level": self.chance_level,
            "advantage": self.advantage,
            "mi_bits": self.mi_bits,
            "leakage_fraction": self.leakage_fraction,
            "runtime_cost": self.runtime_cost,
            "classifier": self.classifier_name,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "wall_seconds": self.wall_seconds,
        }


def _rank_key(cell: TournamentCell) -> Tuple:
    # Most leakage first; deterministic tie-break on the cell coordinates.
    return (-cell.advantage, -cell.mi_bits,
            cell.dataset, cell.attacker, cell.countermeasure)


@dataclass(frozen=True)
class TournamentReport:
    """Ranked outcome of one full tournament run.

    Attributes:
        cells: All evaluated cells, most-leaky first (advantage, then MI,
            then cell coordinates for determinism).
        datasets: Model-zoo entries covered.
        attackers: Attackers entered.
        countermeasures: Countermeasures entered.
        samples_per_category: Attack-pool size per category.
        epochs: Temporal resolution of the cache attackers.
        workers: Process-pool width used for trace collection.
        trace_seconds: Wall-clock spent collecting (or loading) the
            trace matrix.  Runs without a cache attacker have no matrix;
            their HPC cells trace the pool themselves.
        wall_seconds: Total tournament wall-clock.
    """

    cells: Tuple[TournamentCell, ...]
    datasets: Tuple[str, ...]
    attackers: Tuple[str, ...]
    countermeasures: Tuple[str, ...]
    samples_per_category: int
    epochs: int
    workers: int
    trace_seconds: float
    wall_seconds: float

    def ranked(self) -> List[TournamentCell]:
        """Cells ordered most-leaky first."""
        return sorted(self.cells, key=_rank_key)

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable mapping of the whole report."""
        return {
            "kind": "leakage-tournament",
            "datasets": list(self.datasets),
            "attackers": list(self.attackers),
            "countermeasures": list(self.countermeasures),
            "samples_per_category": self.samples_per_category,
            "epochs": self.epochs,
            "workers": self.workers,
            "trace_seconds": self.trace_seconds,
            "wall_seconds": self.wall_seconds,
            "ranking": [cell.to_json() for cell in self.ranked()],
        }

    def summary(self) -> str:
        """Human-readable ranked table."""
        lines = [
            f"leakage tournament: {len(self.datasets)} model(s) x "
            f"{len(self.attackers)} attacker(s) x "
            f"{len(self.countermeasures)} countermeasure(s), "
            f"{self.samples_per_category} samples/category "
            f"({self.wall_seconds:.1f}s total, "
            f"{self.trace_seconds:.1f}s tracing, workers={self.workers})",
            f"{'#':>2}  {'dataset':<8} {'attacker':<13} "
            f"{'countermeasure':<18} {'accuracy':>8} {'advantage':>9} "
            f"{'MI(bits)':>8} {'cost':>6}",
        ]
        for rank, cell in enumerate(self.ranked(), start=1):
            lines.append(
                f"{rank:>2}  {cell.dataset:<8} {cell.attacker:<13} "
                f"{cell.countermeasure:<18} {cell.accuracy:>8.1%} "
                f"{cell.advantage:>9.1%} {cell.mi_bits:>8.3f} "
                f"{cell.runtime_cost:>5.2f}x"
            )
        return "\n".join(lines)


def write_tournament_report(report: TournamentReport,
                            path: Union[str, Path]) -> Path:
    """Write the report artifact atomically; returns the written path."""
    path = Path(path)
    payload = json.dumps(report.to_json(), indent=2) + "\n"
    return atomic_write_text(path, payload)


# ---------------------------------------------------------------------------
# Parallel trace collection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TraceChunk:
    """One (job, category) traced pass for the supervised pool.

    ``start`` is a globally unique job index: the supervisor keys results
    by ``(category, start)``, and different jobs can share a category.
    """

    category: int
    start: int
    stop: int
    job: str


# Worker-process state: {(job, category): (model, trace_config, images)}.
_TRACE_JOBS: Optional[Dict] = None


def _init_trace_worker(jobs, telemetry, parent_context) -> None:
    """Pool initializer: install the job table and per-worker telemetry."""
    global _TRACE_JOBS
    obs.configure(telemetry or TelemetryConfig(enabled=False),
                  parent_context=parent_context)
    _TRACE_JOBS = jobs


def _trace_chunk(spec: _TraceChunk):
    """Trace one (job, category) image batch.

    Returns the full ``(prediction, trace)`` pair of every image: the
    parent records them for the HPC cells, which replay every op, not just
    the memory ops a :class:`TraceStore` entry keeps.
    """
    if _TRACE_JOBS is None:  # pragma: no cover - initializer contract
        raise MeasurementError("trace worker used before initialization")
    model, trace_config, images = _TRACE_JOBS[(spec.job, spec.category)]
    capture = obs.is_enabled()
    if capture:
        distributed.start_chunk_capture()
    with obs.span("tournament.trace_chunk", job=spec.job,
                  category=spec.category, samples=len(images),
                  pid=os.getpid()):
        traced = TracedInference(model, trace_config)
        pairs = [traced.trace_sample(sample) for sample in images]
        obs.inc("tournament.traced", len(images),
                job=spec.job, category=spec.category)
    payload = distributed.worker_payload() if capture else None
    return spec.job, spec.category, pairs, payload


class _ModelTracers:
    """One model's tracer and recording per trace variant, for one pass.

    ``"base"`` traces the model as configured, ``"hardened"`` through the
    constant-footprint kernels.  Building a tracer lays out the address
    space and prepares every layer's line tables, so every user in a pass
    — the runtime-cost probe, the serial trace matrix, the Flush+Reload
    weight lines and the HPC backends — takes its tracer from here.  The
    variant's :class:`~repro.hpc.recording.TraceRecording` (see the module notes)
    is built on first use too.
    """

    def __init__(self, model: Sequential, config: ExperimentConfig):
        base = config.trace_config or TraceConfig()
        self.model = model
        self.engine = config.engine
        self.cpu_config = config.cpu_config
        self.configs: Dict[str, TraceConfig] = {
            "base": base, "hardened": constant_footprint_config(base)}
        self._built: Dict[str, TracedInference] = {}
        self._recordings: Dict[str, TraceRecording] = {}

    def __getitem__(self, variant: str) -> TracedInference:
        traced = self._built.get(variant)
        if traced is None:
            traced = self._built[variant] = TracedInference(
                self.model, self.configs[variant], engine=self.engine)
        return traced

    def recording(self, variant: str) -> TraceRecording:
        """The pass's recording of ``variant``'s traced pool images."""
        recording = self._recordings.get(variant)
        if recording is None:
            recording = self._recordings[variant] = TraceRecording(
                self[variant], self.cpu_config)
        return recording


def _variant_of(countermeasure: str) -> str:
    """The trace variant a countermeasure's victim executes."""
    return "hardened" if countermeasure == "constant-footprint" else "base"


@dataclass(frozen=True)
class _TraceJob:
    """One trace variant of one model: what to trace and how to key it."""

    name: str                      # "<dataset>/<variant>"
    tracers: _ModelTracers
    variant: str
    dataset_name: str
    tag: str
    categories: Tuple[int, ...]
    images_by_category: Dict[int, np.ndarray]

    @property
    def model(self) -> Sequential:
        return self.tracers.model

    @property
    def trace_config(self) -> TraceConfig:
        return self.tracers.configs[self.variant]


def _collect_trace_matrix(jobs: Sequence[_TraceJob], samples: int,
                          workers: int, store: Optional[TraceStore],
                          progress: Optional[Callable[[str], None]] = None
                          ) -> Dict[str, Tuple[List, np.ndarray]]:
    """Traces for every job, store-first, fanning misses over a pool.

    Returns:
        ``{job.name: (traces, labels)}`` with traces in category order.
    """
    collected: Dict[Tuple[str, int], List] = {}
    missing: List[Tuple[_TraceJob, int]] = []
    for job in jobs:
        for category in job.categories:
            cached = None
            if store is not None:
                key = TraceStore.key_for(job.model, job.trace_config,
                                         job.dataset_name, category,
                                         samples, job.tag)
                cached = store.get(key)
            if cached is not None and len(cached) == samples:
                collected[(job.name, category)] = cached
            else:
                missing.append((job, category))

    if missing and workers > 1:
        job_table = {}
        by_name = {job.name: job for job in jobs}
        chunks = []
        for index, (job, category) in enumerate(missing):
            job_table[(job.name, category)] = (
                job.model, job.trace_config,
                job.images_by_category[category],
            )
            chunks.append(_TraceChunk(category=category, start=index,
                                      stop=index + 1, job=job.name))
        worker_telemetry = None
        parent_context = None
        if obs.is_enabled():
            active = obs.active().config
            worker_telemetry = TelemetryConfig(
                enabled=True, console=False, jsonl_path="",
                profile=active.profile)
            parent_context = obs.current_context()
        supervisor = ChunkSupervisor(
            resolve_context("fork"), min(workers, len(chunks)),
            initializer=_init_trace_worker,
            initargs=(job_table, worker_telemetry, parent_context))
        with obs.span("tournament.trace_matrix", chunks=len(chunks),
                      workers=min(workers, len(chunks))) as span:
            results = supervisor.run(_trace_chunk, chunks)
            for key in sorted(results):
                name, category, pairs, payload = results[key]
                distributed.merge_worker_payload(
                    payload, parent_span=span if obs.is_enabled() else None)
                job = by_name[name]
                recording = job.tracers.recording(job.variant)
                for image, (prediction, trace) in zip(
                        job.images_by_category[category], pairs):
                    recording.add(image, prediction, trace)
                traces = [trace for _prediction, trace in pairs]
                collected[(name, category)] = traces
                if store is not None:
                    store.put(TraceStore.key_for(job.model, job.trace_config,
                                                 job.dataset_name, category,
                                                 samples, job.tag), traces)
                if progress is not None:
                    progress(f"traced {name} category {category}")
    else:
        for job, category in missing:
            recording = job.tracers.recording(job.variant)
            traces = [recording.trace(sample)[1]
                      for sample in job.images_by_category[category]]
            collected[(job.name, category)] = traces
            if store is not None:
                store.put(TraceStore.key_for(job.model, job.trace_config,
                                             job.dataset_name, category,
                                             samples, job.tag), traces)
            if progress is not None:
                progress(f"traced {job.name} category {category}")

    matrix: Dict[str, Tuple[List, np.ndarray]] = {}
    for job in jobs:
        traces: List = []
        labels: List[int] = []
        for category in job.categories:
            traces.extend(collected[(job.name, category)])
            labels.extend([category] * samples)
        matrix[job.name] = (traces, np.asarray(labels))
    return matrix


# ---------------------------------------------------------------------------
# Scoring helpers
# ---------------------------------------------------------------------------

def _vector_mi(x: np.ndarray, y: np.ndarray) -> float:
    """MI (bits) between an attack-vector summary and the category.

    The per-sample observable is the total probe/reload activity — the one
    scalar a rate-limited attacker gets per classification.
    """
    observable = np.asarray(x, dtype=np.float64).sum(axis=1)
    values = {int(c): observable[y == c] for c in np.unique(y)}
    return binned_mutual_information(values)


def _hpc_mi(distributions) -> float:
    """MI (bits) of the leakiest single HPC event."""
    best = 0.0
    for event in distributions.events:
        values = {int(c): distributions.values(c, event)
                  for c in distributions.categories}
        best = max(best, binned_mutual_information(values))
    return best


def _runtime_costs(countermeasures: Sequence[str], tracers: _ModelTracers,
                   noise_amplitude: float) -> Dict[str, float]:
    """Victim slowdown factor of each countermeasure on one model."""
    costs = {}
    for countermeasure in countermeasures:
        if countermeasure == "constant-footprint":
            costs[countermeasure] = footprint_overhead(
                tracers.model, tracers.configs["base"],
                sparse=tracers["base"], hardened=tracers["hardened"])
        elif countermeasure == "noise-injection":
            # Dummy work scales each counter by ~(1 + amplitude) on average.
            costs[countermeasure] = 1.0 + noise_amplitude
        else:
            costs[countermeasure] = 1.0
    return costs


# ---------------------------------------------------------------------------
# The tournament
# ---------------------------------------------------------------------------

def run_tournament(configs: Sequence[ExperimentConfig],
                   attackers: Sequence[str] = ATTACKERS,
                   countermeasures: Sequence[str] = COUNTERMEASURES,
                   attack_samples: Optional[int] = None,
                   epochs: int = 8,
                   workers: Optional[int] = None,
                   noise_amplitude: float = 0.25,
                   flush_reload_layer: str = "fc",
                   store: Optional[TraceStore] = None,
                   models: Optional[Dict[str, Sequential]] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> TournamentReport:
    """Run the attacker x countermeasure x model-zoo matrix.

    Args:
        configs: One experiment configuration per model-zoo entry (their
            ``dataset`` fields must be distinct).  Backends are forced to
            the simulator — the tournament replays recorded traces.
        attackers: Subset of :data:`ATTACKERS` to enter.
        countermeasures: Subset of :data:`COUNTERMEASURES` to deploy.
        attack_samples: Attack-pool size per category (default:
            ``min(20, samples_per_category)`` per config; must be >= 2).
        epochs: Temporal resolution of the cache attackers.
        workers: Trace-collection pool width (default: the max configured
            ``workers`` across ``configs``).
        noise_amplitude: Noise-injection dummy-work amplitude.
        flush_reload_layer: Layer whose weight lines Flush+Reload monitors.
        store: Shared trace store (default: first config's cache dir).
        models: Pre-trained models keyed by dataset name (skips
            :func:`prepare_model`; used by tests).
        progress: Optional callback receiving one line per finished step.

    Returns:
        The ranked :class:`TournamentReport`.
    """
    configs = [replace(config, backend="sim") for config in configs]
    datasets = tuple(config.dataset for config in configs)
    if len(set(datasets)) != len(datasets):
        raise MeasurementError(f"duplicate datasets in tournament: {datasets}")
    attackers = tuple(attackers)
    countermeasures = tuple(countermeasures)
    for name in attackers:
        if name not in ATTACKERS:
            raise MeasurementError(
                f"unknown attacker {name!r}; choose from {list(ATTACKERS)}")
    for name in countermeasures:
        if name not in COUNTERMEASURES:
            raise MeasurementError(
                f"unknown countermeasure {name!r}; "
                f"choose from {list(COUNTERMEASURES)}")
    if not attackers or not countermeasures:
        raise MeasurementError("tournament needs >= 1 attacker and "
                               ">= 1 countermeasure")
    if workers is None:
        workers = max(config.workers for config in configs)
    if store is None:
        for config in configs:
            if config.cache_dir:
                store = TraceStore(Path(config.cache_dir) / "traces")
                break

    samples = (attack_samples
               if attack_samples is not None
               else min(20, min(config.samples_per_category
                                for config in configs)))
    if samples < 2:
        raise MeasurementError(
            f"attack_samples must be >= 2 (profiling needs a split), "
            f"got {samples}")

    started = time.perf_counter()
    cells: List[TournamentCell] = []
    with obs.span("tournament.run", datasets=list(datasets),
                  attackers=list(attackers),
                  countermeasures=list(countermeasures), samples=samples):
        # -- Model zoo + attack pools --------------------------------------
        zoo = []
        runtime_costs: Dict[str, Dict[str, float]] = {}
        for config in configs:
            if models is not None and config.dataset in models:
                model = models[config.dataset]
            else:
                model, _ = prepare_model(config)
            pool_seed = config.eval_seed + 500
            pool = config.generator().generate(
                samples, seed=pool_seed, categories=list(config.categories))
            tracers = _ModelTracers(model, config)
            zoo.append((config, tracers, pool, pool_seed))
            runtime_costs[config.dataset] = _runtime_costs(
                countermeasures, tracers, noise_amplitude)
            if progress is not None:
                progress(f"model ready: {config.dataset}")

        # -- Trace variants (deduplicated) ---------------------------------
        cache_attackers = [a for a in attackers if a != "hpc"]
        jobs: List[_TraceJob] = []
        if cache_attackers:
            for config, tracers, pool, pool_seed in zoo:
                variants = sorted({_variant_of(countermeasure)
                                   for countermeasure in countermeasures})
                for variant in variants:
                    jobs.append(_TraceJob(
                        name=f"{config.dataset}/{variant}",
                        tracers=tracers,
                        variant=variant,
                        dataset_name=pool.name,
                        tag=f"gen{GENERATOR_VERSION}-pool-seed={pool_seed}",
                        categories=tuple(config.categories),
                        images_by_category={
                            c: pool.category(c).images[:samples]
                            for c in config.categories},
                    ))
        trace_started = time.perf_counter()
        matrix = _collect_trace_matrix(jobs, samples, workers, store,
                                       progress=progress)
        trace_seconds = time.perf_counter() - trace_started

        # -- Cache-attacker cells ------------------------------------------
        # Cells that share (dataset, attacker, trace variant) see identical
        # traces, so their attack vectors are replayed and scored once and
        # reused — noise injection perturbs counters, never the memory
        # stream, and profiling is deterministic given the vectors.
        scored: Dict[Tuple[str, str, str], Tuple] = {}
        for config, tracers, pool, pool_seed in zoo:
            for attacker_name in cache_attackers:
                for countermeasure in countermeasures:
                    variant = _variant_of(countermeasure)
                    traces, labels = matrix[f"{config.dataset}/{variant}"]
                    cell_started = time.perf_counter()
                    with obs.span("tournament.cell",
                                  dataset=config.dataset,
                                  attacker=attacker_name,
                                  countermeasure=countermeasure):
                        vector_key = (config.dataset, attacker_name, variant)
                        if vector_key not in scored:
                            if attacker_name == "prime-probe":
                                attacker = PrimeProbeAttacker()
                                x = attacker.probe_vectors(
                                    traces, epochs=epochs).astype(float)
                            else:
                                attacker = FlushReloadAttacker(weight_lines(
                                    tracers[variant], flush_reload_layer))
                                x = attacker.observe_batch(
                                    traces, epochs=epochs).astype(float)
                            scored[vector_key] = (
                                profile_attack_vectors(
                                    x, labels,
                                    classifier=_CLASSIFIER_FOR[attacker_name],
                                    seed=config.eval_seed),
                                _vector_mi(x, labels))
                        outcome, mi = scored[vector_key]
                    cells.append(TournamentCell(
                        dataset=config.dataset,
                        attacker=attacker_name,
                        countermeasure=countermeasure,
                        accuracy=outcome.accuracy,
                        chance_level=outcome.chance_level,
                        advantage=outcome.advantage,
                        mi_bits=mi,
                        leakage_fraction=min(
                            1.0,
                            mi / max_leakage_bits(len(config.categories))),
                        runtime_cost=runtime_costs[config.dataset][
                            countermeasure],
                        classifier_name=outcome.classifier_name,
                        n_train=outcome.n_train,
                        n_test=outcome.n_test,
                        wall_seconds=time.perf_counter() - cell_started,
                    ))
                    obs.inc("tournament.cells", dataset=config.dataset,
                            attacker=attacker_name)
                    if progress is not None:
                        progress(f"cell done: {config.dataset} "
                                 f"{attacker_name} vs {countermeasure}")

        # -- HPC cells ------------------------------------------------------
        if "hpc" in attackers:
            for config, tracers, pool, pool_seed in zoo:
                for countermeasure in countermeasures:
                    variant = _variant_of(countermeasure)
                    # Every HPC cell of a variant shares its recording:
                    # traced once (by the trace matrix when there is one),
                    # replayed once, each cell drawing its own noise.
                    recording = tracers.recording(variant)
                    # The constant-footprint victim is the configured one
                    # with hardened kernels (what harden_backend builds).
                    backend = make_backend(
                        replace(config,
                                trace_config=tracers.configs[variant]),
                        tracers.model, traced=tracers[variant],
                        recording=recording)
                    if countermeasure == "noise-injection":
                        backend = NoiseInjectionBackend(
                            backend, amplitude=noise_amplitude,
                            seed=config.noise_seed)
                    cache = (MeasurementCache(Path(config.cache_dir))
                             if config.cache_dir else None)
                    session = MeasurementSession(backend, cache=cache,
                                                 retry=config.retry_policy())
                    # The noise backend draws from one sequential stream
                    # (no per-sample keys), so its cells measure in-process.
                    hpc_workers = (workers
                                   if getattr(backend, "supports_noise_keys",
                                              False) and workers > 1
                                   else None)
                    cell_started = time.perf_counter()
                    with obs.span("tournament.cell",
                                  dataset=config.dataset, attacker="hpc",
                                  countermeasure=countermeasure):
                        # One replay of the variant's recorded pool, here
                        # in the parent, also before keyed workers fork.
                        recording.settle()
                        distributions = session.collect(
                            pool, config.categories, samples,
                            cache_tag=(f"tournament-gen{GENERATOR_VERSION}"
                                       f"-pool-seed={pool_seed}"),
                            workers=hpc_workers)
                        outcome = profile_and_attack(
                            distributions,
                            classifier=_CLASSIFIER_FOR["hpc"],
                            seed=config.eval_seed)
                        mi = _hpc_mi(distributions)
                    cells.append(TournamentCell(
                        dataset=config.dataset,
                        attacker="hpc",
                        countermeasure=countermeasure,
                        accuracy=outcome.accuracy,
                        chance_level=outcome.chance_level,
                        advantage=outcome.advantage,
                        mi_bits=mi,
                        leakage_fraction=min(
                            1.0,
                            mi / max_leakage_bits(len(config.categories))),
                        runtime_cost=runtime_costs[config.dataset][
                            countermeasure],
                        classifier_name=outcome.classifier_name,
                        n_train=outcome.n_train,
                        n_test=outcome.n_test,
                        wall_seconds=time.perf_counter() - cell_started,
                    ))
                    obs.inc("tournament.cells", dataset=config.dataset,
                            attacker="hpc")
                    if progress is not None:
                        progress(f"cell done: {config.dataset} hpc "
                                 f"vs {countermeasure}")

    return TournamentReport(
        cells=tuple(sorted(cells, key=_rank_key)),
        datasets=datasets,
        attackers=attackers,
        countermeasures=countermeasures,
        samples_per_category=samples,
        epochs=epochs,
        workers=int(workers or 1),
        trace_seconds=trace_seconds,
        wall_seconds=time.perf_counter() - started,
    )
