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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BackendError
from ..obs import runtime as obs
from ..nn.model import Sequential
from ..trace.recorder import TraceConfig
from ..trace.traced_model import TracedInference, reuse_tracer
from ..uarch.cpu import CpuConfig, CpuModel
from ..uarch.engine import MeasurementPlan
from ..uarch.events import EventCounts, HpcEvent
from .backend import HpcBackend, Measurement

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


def _count_replayed(traces) -> None:
    """Emit the ``trace.*`` counters of traces replayed through the plan.

    The per-sample path emits these from ``Trace.replay``, once per
    measurement; keeping the data-derived totals identical makes the
    deterministic-telemetry contract hold whichever path (and whatever
    chunking) replayed a trace.
    """
    obs.inc("trace.ops", sum(len(trace.ops) for trace in traces))
    obs.inc("trace.mem_accesses",
            sum(trace.memory_accesses for trace in traces))


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
                 traced: Optional[TracedInference] = None):
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
        self.traced = reuse_tracer(traced, model, self.trace_config,
                                   engine=engine)
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

    def _noisy(self, counts: EventCounts,
               noise_key: Optional[Tuple[int, int]] = None) -> EventCounts:
        if self.noise_scale == 0.0:
            return counts
        if self.noise_scheme == "per-sample":
            if noise_key is None:
                noise_key = (-1, self._auto_index)
                self._auto_index += 1
            rng = self._keyed_rng(*noise_key)
        else:
            rng = self._rng
        noisy = {}
        for event in counts:
            value = float(counts[event])
            rel = self.noise_profile.get(event, 0.002) * self.noise_scale
            floor = DEFAULT_NOISE_FLOOR.get(event, 0.0) * self.noise_scale
            jitter = rng.normal(0.0, rel * value) if rel else 0.0
            offset = abs(rng.normal(0.0, floor)) if floor else 0.0
            noisy[event] = max(0, int(round(value + jitter + offset)))
        return EventCounts(noisy)

    def _noisy_packed(self, counts: Dict[HpcEvent, int],
                      rng: np.random.Generator) -> EventCounts:
        """Vectorized :meth:`_noisy`: one batched draw per measurement.

        Bit-identical to the per-event loop: a single
        ``Generator.normal`` call with an array of scales consumes the
        underlying bit stream exactly like the equivalent sequence of
        scalar draws, and events whose relative noise or floor is zero
        are excluded from the draw (never drawn-and-discarded), matching
        the loop's skip pattern.
        """
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
        if self._plan is None:
            self._plan = MeasurementPlan(self.cpu_config)
        predictions = []
        traces = []
        for sample in samples:
            prediction, trace = self.traced.trace_sample(sample)
            predictions.append(prediction)
            traces.append(trace)
        counts_list = self._plan.replay_batch(traces)
        if enabled:
            obs.observe("backend.measure_batch_ns",
                        time.perf_counter_ns() - start, backend=self.name)
            obs.inc("backend.measurements", len(samples),
                    backend=self.name)
            _count_replayed(traces)
        results: List[Measurement] = []
        for i, (prediction, counts) in enumerate(
                zip(predictions, counts_list)):
            if self.noise_scale == 0.0:
                results.append(Measurement(prediction, EventCounts(counts)))
                continue
            if self.noise_scheme == "per-sample":
                if noise_keys is None:
                    key = (-1, self._auto_index)
                    self._auto_index += 1
                else:
                    key = noise_keys[i]
                rng = self._keyed_rng(*key)
            else:
                rng = self._rng
            results.append(Measurement(prediction,
                                       self._noisy_packed(counts, rng)))
        return results

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
        """
        batch = np.asarray(samples, dtype=np.float64)
        if not MeasurementPlan.supports(self.cpu_config,
                                        cold_start=self.cpu.cold_start):
            return [Measurement(prediction, counts)
                    for prediction, counts in self.traced.run_batch(batch,
                                                                    self.cpu)]
        if self._plan is None:
            self._plan = MeasurementPlan(self.cpu_config)
        pairs = self.traced.trace_batch(batch)
        traces = [trace for _prediction, trace in pairs]
        counts_list = self._plan.replay_batch(traces)
        if obs.is_enabled():
            _count_replayed(traces)
        return [Measurement(prediction, EventCounts(counts))
                for (prediction, _trace), counts in zip(pairs, counts_list)]

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
