"""Shared pieces of the workloads: outcomes, timing, percentiles, memory."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

#: The per-workload end-to-end metrics every untraced run reports, with
#: their units.  ``setup_s`` and ``peak_rss_mb`` are filled in by the
#: runner; the rest come from the workload's :class:`Outcome`.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "rounds_per_s": "1/s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "matrix_s": "s",
}


@dataclass
class Timing:
    """One timed pass: its wall-clock, samples and round latencies."""

    seconds: float
    samples: int
    round_ms: List[float]


@dataclass
class Outcome:
    """What one timed phase did.

    Attributes:
        attempted: Operations offered (audit samples, fleet rounds,
            tournament attack samples).
        failed: Operations that did not complete.
        timings: One :class:`Timing` per whole pass (one audit, one fleet
            session, one tournament).
        evidence: Workload-specific results the correctness checks read.
    """

    attempted: int
    failed: int
    timings: List[Timing]
    evidence: object = None

    @property
    def samples(self) -> int:
        """Classifications measured or ingested over all passes."""
        return sum(t.samples for t in self.timings)

    @property
    def round_ms(self) -> List[float]:
        """Latency of every completed round, in milliseconds."""
        return [ms for t in self.timings for ms in t.round_ms]

    @property
    def matrix_s(self) -> List[float]:
        """Wall-clock of every pass, in seconds."""
        return [t.seconds for t in self.timings]

    def metrics(self) -> Dict[str, float]:
        """The timed-phase end-to-end metrics (all but set-up and memory).

        Every metric is a median over passes of a per-pass figure, so no
        figure depends on how many passes a run made.
        """
        return {
            "samples_per_s": statistics.median(
                t.samples / t.seconds for t in self.timings),
            "rounds_per_s": statistics.median(
                len(t.round_ms) / t.seconds for t in self.timings),
            "round_p50_ms": statistics.median(
                percentile(t.round_ms, 50) for t in self.timings),
            "round_p90_ms": statistics.median(
                percentile(t.round_ms, 90) for t in self.timings),
            "matrix_s": statistics.median(self.matrix_s),
        }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty series."""
    if len(values) == 0:
        raise ValueError("percentile of an empty series")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def repeat_for(seconds: float, operation: Callable[[], None],
               min_passes: int = 1) -> None:
    """Call ``operation()`` until ``seconds`` have passed.

    Always at least ``min_passes`` times, and always whole operations: the
    run ends after the first operation that finishes past the deadline.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        operation()
        passes += 1
        if passes >= min_passes and time.perf_counter() - start >= seconds:
            return


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checks(checks: Dict[str, Callable[[object, object], Optional[str]]],
               state: object, outcome: Outcome) -> Dict[str, Optional[str]]:
    """Run every named check; maps name -> None (pass) or the failure."""
    return {name: check(state, outcome.evidence)
            for name, check in checks.items()}
