"""Simulated HPC backend.

Wraps a :class:`repro.trace.TracedInference` and a
:class:`repro.uarch.CpuModel` behind the backend interface and adds a
measurement-noise model: real ``perf`` readings jitter by a fraction of a
percent (timer interrupts, kernel entry/exit, unrelated kernel threads on
the core), which we model as seeded multiplicative Gaussian noise plus a
small additive floor per event.
"""

from __future__ import annotations

import hashlib
import time
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import BackendError
from ..obs import runtime as obs
from ..nn.model import Sequential
from ..trace.recorder import Trace, TraceConfig
from ..trace.traced_model import TracedInference, reuse_tracer
from ..uarch.cpu import CpuConfig, CpuModel
from ..uarch.engine import MeasurementPlan
from ..uarch.events import EventCounts, HpcEvent
from .backend import HpcBackend, Measurement

if TYPE_CHECKING:  # the recording module imports this one
    from .recording import TraceRecording

#: Default relative noise per event.  Cycle-domain events jitter the most
#: (they directly absorb OS interference); counted events jitter less.
DEFAULT_NOISE_PROFILE: Dict[HpcEvent, float] = {
    HpcEvent.CYCLES: 0.004,
    HpcEvent.REF_CYCLES: 0.004,
    HpcEvent.BUS_CYCLES: 0.004,
    HpcEvent.INSTRUCTIONS: 0.001,
    HpcEvent.BRANCHES: 0.001,
    HpcEvent.BRANCH_MISSES: 0.006,
    HpcEvent.CACHE_REFERENCES: 0.003,
    HpcEvent.CACHE_MISSES: 0.003,
}

#: Additive noise floor (counts) — interrupt handlers touch a few lines and
#: branches regardless of workload size.
DEFAULT_NOISE_FLOOR: Dict[HpcEvent, float] = {
    HpcEvent.CYCLES: 2000.0,
    HpcEvent.REF_CYCLES: 2000.0,
    HpcEvent.BUS_CYCLES: 70.0,
    HpcEvent.INSTRUCTIONS: 800.0,
    HpcEvent.BRANCHES: 150.0,
    HpcEvent.BRANCH_MISSES: 10.0,
    HpcEvent.CACHE_REFERENCES: 8.0,
    HpcEvent.CACHE_MISSES: 4.0,
}


#: Supported measurement-noise schemes (see :class:`SimBackend`).
NOISE_SCHEMES = ("per-sample", "stream")


def _count_replayed(ops: int, mem_accesses: int) -> None:
    """Emit the ``trace.*`` counters of traces replayed through the plan.

    The per-sample path emits these from ``Trace.replay``, once per
    measurement; keeping the data-derived totals identical makes the
    deterministic-telemetry contract hold whichever path (and whatever
    chunking) replayed a trace, and whether the plan replayed it or a
    :class:`~repro.hpc.recording.TraceRecording` served its counts.
    """
    obs.inc("trace.ops", ops)
    obs.inc("trace.mem_accesses", mem_accesses)


def _replay_traced(plan: MeasurementPlan,
                   pairs: Sequence[Tuple[int, Trace]]
                   ) -> List[Tuple[int, Mapping[HpcEvent, int]]]:
    """``(prediction, clean counts)`` of freshly traced samples."""
    traces = [trace for _prediction, trace in pairs]
    counts_list = plan.replay_batch(traces)
    if obs.is_enabled():
        _count_replayed(sum(len(trace.ops) for trace in traces),
                        sum(trace.memory_accesses for trace in traces))
    return [(prediction, counts)
            for (prediction, _trace), counts in zip(pairs, counts_list)]


class SimBackend(HpcBackend):
    """Measures classifications on the simulated CPU.

    Args:
        model: Built (and typically trained) classifier.
        trace_config: Trace-generation knobs (defaults preserve sparsity).
        cpu_config: Microarchitecture parameters.
        noise_scale: Global multiplier on the per-event noise profile
            (0 disables measurement noise entirely — useful in unit tests).
        noise_profile: Optional per-event relative-noise overrides.
        seed: Seed of the measurement noise.
        noise_scheme: ``"per-sample"`` (default) derives an independent
            generator per ``(seed, category, sample_index)`` noise key, so a
            measurement's noise depends only on *which* sample it is — never
            on how many measurements ran before it.  That makes
            distributions identical whether samples are measured
            sequentially or fanned out across worker processes in any
            order (see :mod:`repro.parallel`).  ``"stream"`` restores the
            legacy behavior of one sequential generator shared by all
            measurements.
        engine: Forward-pass implementation behind the tracers —
            ``"compiled"`` (default) or ``"layers"``; see
            :class:`repro.trace.TracedInference`.  The engine never
            changes measured values (and therefore does not enter
            :meth:`fingerprint`), only how fast they are produced.
        traced: Optional prebuilt tracer of ``model`` under
            ``trace_config`` and ``engine``, shared with other users of
            the same pair instead of building a second one; a mismatched
            tracer raises :class:`~repro.errors.ConfigError`.
        recording: Optional
            :class:`~repro.hpc.recording.TraceRecording` of ``model`` under
            ``trace_config`` and ``cpu_config``, shared with other backends
            of one pass: inside the plan's envelope, :meth:`measure_batch`
            and :meth:`measure_clean_batch` take their clean counts from it
            instead of tracing and replaying again (readouts are
            unchanged).  Its tracer is used when ``traced`` is None; a
            recording of another model or config raises
            :class:`~repro.errors.ConfigError`.
    """

    name = "sim"

    def __init__(self, model: Sequential,
                 trace_config: Optional[TraceConfig] = None,
                 cpu_config: Optional[CpuConfig] = None,
                 noise_scale: float = 1.0,
                 noise_profile: Optional[Dict[HpcEvent, float]] = None,
                 seed: int = 0,
                 noise_scheme: str = "per-sample",
                 engine: str = "compiled",
                 traced: Optional[TracedInference] = None,
                 recording: Optional[TraceRecording] = None):
        if noise_scale < 0:
            raise BackendError(f"noise_scale must be >= 0, got {noise_scale}")
        if noise_scheme not in NOISE_SCHEMES:
            raise BackendError(
                f"noise_scheme must be one of {NOISE_SCHEMES}, "
                f"got {noise_scheme!r}"
            )
        self.model = model
        self.trace_config = trace_config or TraceConfig()
        self.cpu_config = cpu_config or CpuConfig()
        self.noise_scale = noise_scale
        self.noise_profile = dict(DEFAULT_NOISE_PROFILE)
        if noise_profile:
            self.noise_profile.update(noise_profile)
        self.seed = seed
        self.noise_scheme = noise_scheme
        self.engine = engine
        if recording is not None:
            recording.check(model, self.trace_config, self.cpu_config)
            if traced is None:
                traced = recording.traced
        self.traced = reuse_tracer(traced, model, self.trace_config,
                                   engine=engine)
        self.recording = recording
        self.cpu = CpuModel(self.cpu_config, seed=seed)
        self._noise_seed = seed
        self._rng = np.random.default_rng(seed)
        self._auto_index = 0
        self._plan: Optional[MeasurementPlan] = None
        self._noise_coeffs: Dict[Tuple[HpcEvent, ...],
                                 Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def supports_noise_keys(self) -> bool:
        """True when measurement noise is a pure function of the noise key.

        Required by :mod:`repro.parallel`: only keyed noise makes
        distributions independent of measurement order and worker count.
        """
        return self.noise_scheme == "per-sample"

    def reset_noise(self, seed: Optional[int] = None) -> None:
        """Restart the noise source (defaults to the construction seed).

        Under the ``"stream"`` scheme this reseeds the sequential
        generator; under ``"per-sample"`` it rewinds the auto-assigned
        sample index of unkeyed :meth:`measure` calls (and optionally
        replaces the noise seed), so a repeated call sequence reproduces
        the same readouts either way.
        """
        self._noise_seed = self.seed if seed is None else seed
        self._rng = np.random.default_rng(self._noise_seed)
        self._auto_index = 0

    def _keyed_rng(self, category: int, index: int) -> np.random.Generator:
        """Independent noise generator for one ``(category, index)`` key."""
        digest = hashlib.sha256(
            f"{self._noise_seed}:{category}:{index}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:16], "little"))

    def _noisy(self, counts: Mapping[HpcEvent, int],
               noise_key: Optional[Tuple[int, int]] = None) -> EventCounts:
        """Noisy readout of one measurement's ground-truth counts.

        The generator is the keyed one of ``noise_key`` under the
        ``"per-sample"`` scheme (unkeyed calls auto-assign
        ``(-1, 0)``, ``(-1, 1)``, ...) and the sequential stream under
        ``"stream"``.  Each event gets a relative Gaussian jitter and
        then a half-normal offset, in event order, from one
        ``Generator.normal`` call; events whose relative noise or floor
        is zero are left out of the draw, so the generator's bit stream
        advances exactly as per-event scalar draws with that skip
        pattern would advance it.
        """
        if self.noise_scale == 0.0:
            return (counts if isinstance(counts, EventCounts)
                    else EventCounts(counts))
        if self.noise_scheme == "per-sample":
            if noise_key is None:
                noise_key = (-1, self._auto_index)
                self._auto_index += 1
            rng = self._keyed_rng(*noise_key)
        else:
            rng = self._rng
        events = tuple(counts)
        coeffs = self._noise_coeffs.get(events)
        if coeffs is None:
            rels = np.array([self.noise_profile.get(e, 0.002)
                             * self.noise_scale for e in events])
            floors = np.array([DEFAULT_NOISE_FLOOR.get(e, 0.0)
                               * self.noise_scale for e in events])
            coeffs = (rels, floors)
            self._noise_coeffs[events] = coeffs
        rels, floors = coeffs
        n = len(events)
        values = np.array([float(counts[e]) for e in events])
        scales = np.empty(2 * n)
        scales[0::2] = rels * values          # jitter, then offset,
        scales[1::2] = floors                 # in event order
        drawn = np.empty(2 * n, dtype=bool)
        drawn[0::2] = rels != 0.0
        drawn[1::2] = floors != 0.0
        draws = np.zeros(2 * n)
        draws[drawn] = rng.normal(0.0, scales[drawn])
        adjusted = values + draws[0::2] + np.abs(draws[1::2])
        noisy = np.maximum(0, np.round(adjusted)).astype(np.int64)
        return EventCounts(dict(zip(events, (int(v) for v in noisy))))

    def measure_batch(self, samples: Sequence[np.ndarray],
                      noise_keys: Optional[Sequence[Tuple[int, int]]] = None
                      ) -> List[Measurement]:
        """Measure a batch of classifications through the compiled engine.

        Bit-identical to calling :meth:`measure` once per sample in
        order: traces come from the same per-sample tracer, the batched
        replay (:class:`repro.uarch.MeasurementPlan`) is exact, and
        noise is drawn with the same generators in the same draw order.
        Configurations outside the plan's exact-vectorization envelope
        (non-LRU replacement, prefetchers, warm tasks, custom
        predictors) transparently fall back to the per-sample path.
        With a :attr:`recording` attached, the clean counts come from it:
        only images it has no counts for are traced (if unrecorded) and
        replayed.

        Args:
            samples: Inputs to classify, one measurement each.
            noise_keys: Optional per-sample ``(category, index)`` noise
                keys, same semantics as :meth:`measure`.
        """
        samples = list(samples)
        if noise_keys is not None:
            if self.noise_scheme != "per-sample":
                raise BackendError(
                    "noise_key requires noise_scheme='per-sample' "
                    f"(got scheme {self.noise_scheme!r})"
                )
            if len(noise_keys) != len(samples):
                raise BackendError(
                    f"got {len(noise_keys)} noise keys for "
                    f"{len(samples)} samples"
                )
        if not samples:
            return []
        if not MeasurementPlan.supports(self.cpu_config,
                                        cold_start=self.cpu.cold_start):
            if noise_keys is None:
                return [self.measure(sample) for sample in samples]
            return [self.measure(sample, noise_key=key)
                    for sample, key in zip(samples, noise_keys)]
        enabled = obs.is_enabled()
        start = time.perf_counter_ns() if enabled else 0
        if self.recording is not None:
            replayed = self.recording.replay(samples)
        else:
            if self._plan is None:
                self._plan = MeasurementPlan(self.cpu_config)
            replayed = _replay_traced(
                self._plan,
                [self.traced.trace_sample(sample) for sample in samples])
        if enabled:
            obs.observe("backend.measure_batch_ns",
                        time.perf_counter_ns() - start, backend=self.name)
            obs.inc("backend.measurements", len(samples),
                    backend=self.name)
        keys = noise_keys if noise_keys is not None else [None] * len(samples)
        return [Measurement(prediction, self._noisy(counts, key))
                for (prediction, counts), key in zip(replayed, keys)]

    def record(self, samples: Sequence[np.ndarray]) -> None:
        """Trace and replay ``samples`` into the attached :attr:`recording`.

        For passes measured by forked workers: the parent records the
        images first, since what a worker records dies with it.  A no-op
        without a recording or outside the batched plan's envelope, where
        :meth:`measure_batch` does not read the recording.
        """
        if self.recording is not None and MeasurementPlan.supports(
                self.cpu_config, cold_start=self.cpu.cold_start):
            self.recording.record(samples)
            self.recording.settle()

    def measure(self, sample: np.ndarray,
                noise_key: Optional[Tuple[int, int]] = None) -> Measurement:
        """Run one traced classification and return its noisy readout.

        Args:
            sample: Input image.
            noise_key: Optional ``(category, sample_index)`` identity of
                this measurement under the ``"per-sample"`` scheme; unkeyed
                calls auto-assign ``(-1, 0)``, ``(-1, 1)``, ... in call
                order.  Rejected under the ``"stream"`` scheme, whose noise
                is inherently sequential.
        """
        if noise_key is not None and self.noise_scheme != "per-sample":
            raise BackendError(
                "noise_key requires noise_scheme='per-sample' "
                f"(got scheme {self.noise_scheme!r})"
            )
        if not obs.is_enabled():
            prediction, counts = self.traced.run(sample, self.cpu)
            return Measurement(prediction, self._noisy(counts, noise_key))
        start = time.perf_counter_ns()
        prediction, counts = self.traced.run(sample, self.cpu)
        obs.observe("backend.measure_ns", time.perf_counter_ns() - start,
                    backend=self.name)
        obs.inc("backend.measurements", backend=self.name)
        return Measurement(prediction, self._noisy(counts, noise_key))

    def measure_clean(self, sample: np.ndarray) -> Measurement:
        """Like :meth:`measure` but without measurement noise."""
        prediction, counts = self.traced.run(sample, self.cpu)
        return Measurement(prediction, counts)

    def measure_clean_batch(self, samples) -> list:
        """Noise-free measurements of a whole batch, one per sample.

        Runs the reference forward pass once for the batch (see
        :meth:`repro.trace.TracedInference.run_batch`), amortizing the
        per-sample layer-dispatch overhead — the fast path for warm-up
        classifications and clean baseline collection.  Inside the
        plan's exact-vectorization envelope the traces replay through
        :class:`repro.uarch.MeasurementPlan` (exact, so the counts equal
        the scalar replay's); otherwise each replays on :attr:`cpu`.
        Inside the envelope a :attr:`recording`, when attached, serves
        the counts of the per-sample traces :meth:`measure_batch` uses.
        """
        batch = np.asarray(samples, dtype=np.float64)
        if not MeasurementPlan.supports(self.cpu_config,
                                        cold_start=self.cpu.cold_start):
            return [Measurement(prediction, counts)
                    for prediction, counts in self.traced.run_batch(batch,
                                                                    self.cpu)]
        if self.recording is not None:
            replayed = self.recording.replay(batch)
        else:
            if self._plan is None:
                self._plan = MeasurementPlan(self.cpu_config)
            replayed = _replay_traced(self._plan,
                                      self.traced.trace_batch(batch))
        return [Measurement(prediction, EventCounts(counts))
                for prediction, counts in replayed]

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.model.weights_fingerprint().encode())
        digest.update(repr(self.trace_config).encode())
        digest.update(repr(self.cpu_config).encode())
        digest.update(f"{self.noise_scale}:{self.seed}".encode())
        digest.update(repr(sorted(
            (e.value, v) for e, v in self.noise_profile.items())).encode())
        if self.noise_scheme != "stream":
            # The noise scheme changes the measured values, so it must
            # change the cache key; "stream" keeps the legacy fingerprint
            # so caches written before schemes existed stay valid.
            digest.update(f"noise-scheme={self.noise_scheme}".encode())
        return f"sim-{digest.hexdigest()[:16]}"

    def describe(self) -> str:
        return "\n".join([
            f"sim backend (noise_scale={self.noise_scale}, "
            f"seed={self.seed}, noise_scheme={self.noise_scheme})",
            self.traced.describe(),
            self.cpu.describe(),
        ])
