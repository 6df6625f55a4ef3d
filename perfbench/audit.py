"""``audit-cifar``: the paper's batch audit on the CIFAR-10 case study.

Set-up trains the classifier from a fixed seed (no model cache) and
generates the held-out inputs of all ten categories from the run seed.
One operation of the timed phase is one audit, made of the calls
``run_experiment`` makes after training: a fresh ``SimBackend``, then
``MeasurementSession.collect`` (batched ``MeasurementPlan`` replay,
measurement-cache writes) and ``Evaluator.evaluate`` to the alarm.  Each
audit uses its own cache tag, so every audit measures and none is a cache
hit.  A round is one category's measurement batch; a sample is one
measured classification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from scipy import stats as scipy_stats

from repro.core.evaluator import Evaluator
from repro.core.experiment import (
    GENERATOR_VERSION, ExperimentConfig, cifar_experiment, make_backend,
    prepare_model)
from repro.core.leakage import LeakageReport
from repro.hpc.session import MeasurementCache, MeasurementSession
from repro.uarch.events import HpcEvent

from . import layers
from .harness import Outcome, Timing, repeat_for

NAME = "audit-cifar"
TAG = "audit"
TARGETS = layers.AUDIT
#: Layers the timed phase calls into: the traced run reports each one's
#: self time and call count per pass.
TIMED_LAYERS = ("trace", "uarch", "hpc", "core")
MIN_PASSES = 1

CATEGORIES = tuple(range(10))
#: Size presets: measured samples per category, training set and epochs.
SIZES = {
    "full": {"samples": 30, "train_per_class": 40, "epochs": 6},
    "tiny": {"samples": 8, "train_per_class": 10, "epochs": 1},
}
#: Per-sample readouts re-measured outside the timed phase, as fractions
#: of the category list and of the per-category sample count.
SPOT_CHECKS = ((0.0, 0.0), (0.5, 0.5), (0.99, 0.99))


@dataclass
class State:
    config: ExperimentConfig
    model: object
    pool: object
    cache_dir: Path
    #: Audits made so far in this process: each gets its own cache tag,
    #: so no audit, in any phase of the run, is a cache hit.
    audits: int = 0


@dataclass
class Audit:
    report: LeakageReport
    category_s: List[float]
    seconds: float


def setup(seed: int, size: str, workdir: Path) -> State:
    preset = SIZES[size]
    config = cifar_experiment(
        categories=CATEGORIES,
        samples_per_category=preset["samples"],
        train_samples_per_class=preset["train_per_class"],
        epochs=preset["epochs"],
        eval_seed=10_000 + seed,
        noise_seed=seed,
        workers=1,
        cache_dir="",
    )
    model, _ = prepare_model(config)
    pool = config.generator().generate(config.samples_per_category,
                                       seed=config.eval_seed,
                                       categories=list(CATEGORIES))
    return State(config, model, pool, workdir / "cache")


def audit(state: State) -> Audit:
    """One audit: fresh backend and session, collect, evaluate, alarm."""
    config = state.config
    state.audits += 1
    backend = make_backend(config, state.model)
    session = MeasurementSession(backend, warmup=0,
                                 cache=MeasurementCache(state.cache_dir),
                                 retry=config.retry_policy())
    landed: List[float] = []
    start = time.perf_counter()
    distributions = session.collect(
        state.pool, list(config.categories), config.samples_per_category,
        cache_tag=(f"gen{GENERATOR_VERSION}-eval-seed={config.eval_seed}"
                   f"-audit={state.audits}"),
        workers=1,
        on_batch=lambda category, readings: landed.append(
            time.perf_counter()))
    report = Evaluator(confidence=config.confidence).evaluate(distributions)
    report.alarm  # the verdict is part of the timed work
    end = time.perf_counter()
    marks = [start] + landed
    return Audit(report, [b - a for a, b in zip(marks, marks[1:])],
                 end - start)


def measure(state: State, seconds: float,
            min_passes: int = MIN_PASSES) -> Outcome:
    audits: List[Audit] = []
    repeat_for(seconds, lambda: audits.append(audit(state)), min_passes)
    per_audit = len(CATEGORIES) * state.config.samples_per_category
    return Outcome(
        attempted=per_audit * len(audits),
        failed=0,
        timings=[Timing(a.seconds, per_audit,
                        [s * 1e3 for s in a.category_s]) for a in audits],
        evidence=audits,
    )


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed phase)
# ---------------------------------------------------------------------------

def check_ttests(state: State, audits: List[Audit]) -> Optional[str]:
    """Every pairwise t and p agrees with scipy's Welch test."""
    for number, item in enumerate(audits):
        report = item.report
        expected = len(report.events) * len(CATEGORIES) * (
            len(CATEGORIES) - 1) // 2
        if len(report.results) != expected:
            return (f"audit {number}: {len(report.results)} pairwise "
                    f"results, expected {expected}")
        for result in report.results:
            a = report.distributions.values(result.category_a, result.event)
            b = report.distributions.values(result.category_b, result.event)
            reference = scipy_stats.ttest_ind(a, b, equal_var=False)
            t, p = float(reference.statistic), float(reference.pvalue)
            if not (np.isclose(result.ttest.statistic, t, rtol=1e-6,
                               atol=1e-9)
                    and np.isclose(result.ttest.p_value, p, rtol=1e-5,
                                   atol=1e-12)):
                return (f"audit {number}: {result.event.value} "
                        f"{result.category_a}-{result.category_b}: "
                        f"t={result.ttest.statistic} p={result.ttest.p_value}"
                        f", scipy t={t} p={p}")
            if result.distinguishable != (p < 1.0 - report.confidence):
                if not np.isclose(p, 1.0 - report.confidence, rtol=1e-6):
                    return (f"audit {number}: verdict of {result.event.value}"
                            f" {result.category_a}-{result.category_b} is "
                            f"{result.distinguishable} at scipy p={p}")
    return None


def check_readouts(state: State, audits: List[Audit]) -> Optional[str]:
    """Batched counts equal the per-sample ``SimBackend.measure`` readout."""
    backend = make_backend(state.config, state.model)
    samples = state.config.samples_per_category
    for number, item in enumerate(audits):
        distributions = item.report.distributions
        for cat_frac, index_frac in SPOT_CHECKS:
            category = CATEGORIES[int(cat_frac * len(CATEGORIES))]
            index = int(index_frac * samples)
            image = state.pool.category(category).images[index]
            counts = backend.measure(image, noise_key=(category, index)).counts
            for event in distributions.events:
                batched = distributions.values(category, event)[index]
                if batched != counts[event]:
                    return (f"audit {number}: ({category}, {index}) "
                            f"{event.value}: batched {batched}, "
                            f"per-sample {counts[event]}")
        if number == 0:
            continue
        first = audits[0].report.distributions
        for category in CATEGORIES:
            for event in first.events:
                if not np.array_equal(first.values(category, event),
                                      distributions.values(category, event)):
                    return (f"audit {number} measured other values than "
                            f"audit 0 for ({category}, {event.value})")
    return None


def check_alarm(state: State, audits: List[Audit]) -> Optional[str]:
    """The Evaluator raises the alarm on every audit."""
    for number, item in enumerate(audits):
        if not item.report.alarm:
            return f"audit {number}: no alarm"
    return None


def check_asymmetry(state: State, audits: List[Audit]) -> Optional[str]:
    """``cache-misses`` separates most pairs and ``branches`` few.

    Over seeds 100-129 at 30 samples per category, cache-misses separated
    37-42 of the 45 pairs and branches 0-8.
    """
    for number, item in enumerate(audits):
        pairs = len(CATEGORIES) * (len(CATEGORIES) - 1) // 2
        misses = item.report.rejection_count(HpcEvent.CACHE_MISSES)
        branches = item.report.rejection_count(HpcEvent.BRANCHES)
        if not (2 * misses > pairs and 3 * branches < pairs):
            return (f"audit {number}: cache-misses separates {misses} and "
                    f"branches {branches} of {pairs} pairs")
    return None


CHECKS = {
    "ttests_match_scipy": check_ttests,
    "batched_equals_per_sample": check_readouts,
    "alarm_fires": check_alarm,
    "miss_branch_asymmetry": check_asymmetry,
}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(setup_tracer, tracer, outcome: Outcome
                  ) -> Dict[str, float]:
    """Per-layer figures of one traced timed phase."""
    metrics = layers.measurement_metrics(setup_tracer, tracer,
                                         len(outcome.timings))
    metrics["core.evaluate_ms"] = tracer.mean_ms("core.evaluate")
    # The measurement path as a whole: every traced second of the timed
    # phase (spans with no traced parent), per sample.
    metrics["path_ms_per_sample"] = tracer.root_s() * 1e3 / outcome.samples
    return metrics
