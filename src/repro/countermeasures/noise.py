"""Noise-injection countermeasure.

An alternative (weaker) defense: instead of making the footprint constant,
inflate the within-category variance until the t-tests lose power — e.g. by
scheduling dummy work of random size alongside each classification.  This
module models that as a backend decorator adding seeded random counts to
every event, and is primarily used by the countermeasure-comparison bench.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import BackendError
from ..hpc.backend import HpcBackend, Measurement
from ..uarch.events import EventCounts, HpcEvent


class NoiseInjectionBackend(HpcBackend):
    """Wraps a backend, adding dummy-work noise to every measurement.

    Args:
        inner: The real backend.
        amplitude: Noise scale as a fraction of each event's typical count
            (estimated online from a running mean); the injected value is
            ``|N(0, amplitude * running_mean)|`` — dummy work only ever adds
            counts.
        seed: Noise stream seed.
    """

    name = "noise-injection"

    def __init__(self, inner: HpcBackend, amplitude: float = 0.05,
                 seed: int = 0):
        if amplitude < 0:
            raise BackendError(f"amplitude must be >= 0, got {amplitude}")
        self.inner = inner
        self.amplitude = amplitude
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._running_mean: Dict[HpcEvent, float] = {}
        self._count = 0

    @property
    def events(self) -> Tuple[HpcEvent, ...]:
        return self.inner.events

    def _update_means(self, counts: EventCounts) -> None:
        self._count += 1
        for event in counts:
            previous = self._running_mean.get(event, float(counts[event]))
            self._running_mean[event] = (
                previous + (counts[event] - previous) / self._count)

    def _inject(self, measurement: Measurement) -> Measurement:
        """Fold one readout into the running means and add its noise."""
        counts = measurement.counts
        self._update_means(counts)
        if self.amplitude == 0:
            return measurement
        noisy = {}
        for event in counts:
            scale = self.amplitude * self._running_mean[event]
            injected = abs(self._rng.normal(0.0, scale)) if scale > 0 else 0.0
            noisy[event] = counts[event] + int(round(injected))
        return Measurement(measurement.prediction, EventCounts(noisy))

    def measure(self, sample: np.ndarray) -> Measurement:
        return self._inject(self.inner.measure(sample))

    def measure_batch(self, samples: Sequence[np.ndarray]
                      ) -> List[Measurement]:
        """Measure a batch, bit-identical to :meth:`measure` in order.

        The inner backend's ``measure_batch`` measures the whole batch;
        the running means and noise draws are then applied readout by
        readout in sample order.  The dummy-work stream is independent
        of the inner backend's noise, so deferring it past the inner
        batch consumes both streams exactly as the per-sample loop does.

        Args:
            samples: Inputs to classify, one measurement each.
        """
        return [self._inject(measurement)
                for measurement in self.inner.measure_batch(list(samples))]

    def fingerprint(self) -> str:
        return (f"noise-{self.amplitude}-{self.seed}-"
                f"{self.inner.fingerprint()}")

    def describe(self) -> str:
        return (f"noise-injection (amplitude={self.amplitude}, "
                f"seed={self.seed}) over {self.inner.describe()}")
