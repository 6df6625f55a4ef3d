"""Recordings: each image of one measurement pass, traced and replayed once.

A pass that measures the same images through several simulated backends —
the leakage tournament's trace matrix and its HPC cells — shares one
:class:`TraceRecording` per (model, trace config) between them instead of
tracing and replaying every image once per backend.  The audit and serve
paths attach none, so their backends never hash an image.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..nn.model import Sequential
from ..obs import runtime as obs
from ..trace.recorder import Trace, TraceConfig
from ..trace.traced_model import TracedInference, reuse_tracer
from ..uarch.cpu import CpuConfig
from ..uarch.engine import MeasurementPlan
from ..uarch.events import HpcEvent
from .sim_backend import _count_replayed

__all__ = ["TraceRecording"]


class _Recorded:
    """One recorded image: its prediction and trace, then its clean counts."""

    __slots__ = ("prediction", "trace", "counts", "ops", "mem_accesses")

    def __init__(self, prediction: int, trace: Trace):
        self.prediction = prediction
        self.trace: Optional[Trace] = trace
        self.counts: Optional[Mapping[HpcEvent, int]] = None
        self.ops = 0
        self.mem_accesses = 0

    def settle(self, counts: Mapping[HpcEvent, int]) -> None:
        """Keep the replayed counts and the trace's totals; drop the trace."""
        self.counts = counts
        self.ops = len(self.trace.ops)
        self.mem_accesses = self.trace.memory_accesses
        self.trace = None


class TraceRecording:
    """Each image of one measurement pass, traced once and replayed once.

    A pass that measures the same images through several backends — the
    leakage tournament's trace matrix and its baseline and noise-injection
    HPC cells — records them here: each image, keyed by a digest of its
    content, maps to its :meth:`~repro.trace.TracedInference.trace_sample`
    result and, after its first :class:`~repro.uarch.MeasurementPlan`
    replay, to its clean counts.  A replayed image keeps only its counts
    and its trace's ``trace.*`` totals, not the trace.

    A :class:`SimBackend` built with ``recording=`` takes the clean counts
    of its batched measurements from here and draws its noise on top as it
    would on fresh counts, so every readout is the one an unrecorded
    backend returns.  The recording holds clean counts only: noisy
    readouts are never shared between backends.

    Args:
        traced: Tracer of the recorded (model, trace config) pair.
        cpu_config: The simulated CPU the clean counts are replayed on
            (None means ``CpuConfig()``).
    """

    def __init__(self, traced: TracedInference,
                 cpu_config: Optional[CpuConfig] = None):
        self.traced = traced
        self.cpu_config = cpu_config or CpuConfig()
        self._entries: Dict[bytes, _Recorded] = {}
        self._plan: Optional[MeasurementPlan] = None

    @staticmethod
    def _key(sample: np.ndarray) -> bytes:
        sample = np.ascontiguousarray(sample, dtype=np.float64)
        digest = hashlib.blake2b(repr(sample.shape).encode(), digest_size=16)
        digest.update(sample)
        return digest.digest()

    def check(self, model: Sequential, trace_config: TraceConfig,
              cpu_config: CpuConfig) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless this recording
        traces ``model`` under ``trace_config`` on ``cpu_config``."""
        reuse_tracer(self.traced, model, trace_config)
        if self.cpu_config != cpu_config:
            raise ConfigError(f"recording replays on {self.cpu_config!r}, "
                              f"expected {cpu_config!r}")

    def trace(self, sample: np.ndarray) -> Tuple[int, Trace]:
        """``trace_sample(sample)``, traced once per image and recorded."""
        key = self._key(sample)
        entry = self._entries.get(key)
        if entry is not None and entry.trace is not None:
            return entry.prediction, entry.trace
        prediction, trace = self.traced.trace_sample(sample)
        if entry is None:
            self._entries[key] = _Recorded(prediction, trace)
        return prediction, trace

    def record(self, samples: Sequence[np.ndarray]) -> None:
        """Trace every sample not recorded yet (:meth:`settle` replays
        them)."""
        for sample in samples:
            key = self._key(sample)
            if key not in self._entries:
                self._entries[key] = _Recorded(
                    *self.traced.trace_sample(sample))

    def add(self, sample: np.ndarray, prediction: int, trace: Trace) -> None:
        """Record a full ``trace_sample`` result made by another tracer of
        the same pair (a trace-pool worker's)."""
        self._entries.setdefault(self._key(sample),
                                 _Recorded(prediction, trace))

    def _settle(self, entries: Sequence[_Recorded]) -> None:
        if self._plan is None:
            self._plan = MeasurementPlan(self.cpu_config)
        counts_list = self._plan.replay_batch(
            [entry.trace for entry in entries])
        for entry, counts in zip(entries, counts_list):
            entry.settle(counts)

    def settle(self) -> None:
        """Replay every recorded image that has no counts yet, in one
        ``replay_batch`` call (none outside the plan's envelope).

        Settling before a pool of keyed-noise workers forks lets every
        worker read the counts instead of replaying its share again.
        """
        pending = [entry for entry in self._entries.values()
                   if entry.counts is None]
        if pending and MeasurementPlan.supports(self.cpu_config):
            self._settle(pending)

    def replay(self, samples: Sequence[np.ndarray]
               ) -> List[Tuple[int, Mapping[HpcEvent, int]]]:
        """``(prediction, clean counts)`` of every sample, in order.

        Images never recorded are traced now; images without counts yet
        replay together in one ``replay_batch`` call.  Emits the
        ``trace.*`` counters of every sample, served or replayed.
        """
        entries: List[_Recorded] = []
        pending: Dict[int, _Recorded] = {}
        for sample in samples:
            key = self._key(sample)
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Recorded(
                    *self.traced.trace_sample(sample))
            if entry.counts is None:
                pending[id(entry)] = entry
            entries.append(entry)
        if pending:
            self._settle(list(pending.values()))
        if obs.is_enabled():
            _count_replayed(sum(entry.ops for entry in entries),
                            sum(entry.mem_accesses for entry in entries))
        return [(entry.prediction, entry.counts) for entry in entries]
