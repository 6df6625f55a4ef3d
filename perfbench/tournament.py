"""``tournament-mnist``: the CLI's default attacker x countermeasure matrix.

Set-up trains the MNIST classifier from a fixed seed (no model cache).
One pass of the timed phase is one ``run_tournament`` call with the CLI
defaults (3 attackers x 3 countermeasures, categories 1-4, 20 attack
traces per category, one worker), from the start of the matrix to the
ranked report.  Every pass gets a private, empty trace store and
measurement cache, so every pass traces and measures.  The attack pool is
generated inside ``run_tournament`` from the run seed; it is not an input
the benchmark can hand over.  A round is one cell; a sample is one attack
trace scored by one cell (9 cells x 4 categories x 20 traces per pass).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.attack.flush_reload import FlushReloadAttacker, weight_lines
from repro.attack.prime_probe import PrimeProbeAttacker
from repro.attack.tournament import (
    ATTACKERS, COUNTERMEASURES, TournamentReport, run_tournament)
from repro.attack.trace_store import TraceStore
from repro.core.experiment import (
    ExperimentConfig, mnist_experiment, prepare_model)
from repro.countermeasures import constant_footprint_config
from repro.trace.recorder import TraceConfig
from repro.trace.traced_model import TracedInference

from . import layers
from .harness import Outcome, Timing, repeat_for

NAME = "tournament-mnist"
TAG = "tourn"
TARGETS = layers.TOURNAMENT
#: Layers the timed phase calls into: the traced run reports each one's
#: self time and call count per pass.
TIMED_LAYERS = ("datasets", "trace", "uarch", "hpc", "attack",
                "countermeasures")
#: A pass takes about as long as a run's ``--seconds``; the median of
#: two passes damps the host's pass-to-pass swings in the run's figures.
MIN_PASSES = 2

EPOCHS = 8
SIZES = {
    "full": {"attack_samples": 20, "train_per_class": 40, "epochs": 6},
    "tiny": {"attack_samples": 10, "train_per_class": 10, "epochs": 1},
}
#: Traces per category re-observed per trace variant by the batched-vs-
#: per-trace check.
SPOT_TRACES = 3


@dataclass
class State:
    config: ExperimentConfig
    model: object
    attack_samples: int
    workdir: Path
    passes: int = 0


@dataclass
class Pass:
    report: TournamentReport
    seconds: float


def setup(seed: int, size: str, workdir: Path) -> State:
    preset = SIZES[size]
    config = mnist_experiment(
        samples_per_category=100,
        train_samples_per_class=preset["train_per_class"],
        epochs=preset["epochs"],
        eval_seed=10_000 + seed,
        noise_seed=seed,
        workers=1,
        cache_dir="",
    )
    model, _ = prepare_model(config)
    return State(config, model, preset["attack_samples"], workdir)


def tournament(state: State) -> Pass:
    """One matrix with its own empty trace store and measurement cache."""
    state.passes += 1
    directory = state.workdir / f"matrix-{state.passes}"
    config = replace(state.config, cache_dir=str(directory))
    start = time.perf_counter()
    report = run_tournament(
        [config], attack_samples=state.attack_samples, epochs=EPOCHS,
        workers=1, store=TraceStore(directory / "traces"),
        models={config.dataset: state.model})
    report.ranked()  # the ranked report is part of the timed work
    seconds = time.perf_counter() - start
    shutil.rmtree(directory, ignore_errors=True)
    return Pass(report, seconds)


def measure(state: State, seconds: float,
            min_passes: int = MIN_PASSES) -> Outcome:
    passes: List[Pass] = []
    repeat_for(seconds, lambda: passes.append(tournament(state)), min_passes)
    cells = len(ATTACKERS) * len(COUNTERMEASURES)
    per_pass = cells * len(state.config.categories) * state.attack_samples
    return Outcome(
        attempted=per_pass * len(passes),
        failed=0,
        timings=[Timing(p.seconds, per_pass,
                        [cell.wall_seconds * 1e3 for cell in p.report.cells])
                 for p in passes],
        evidence=passes,
    )


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed phase)
# ---------------------------------------------------------------------------

def _cell(report: TournamentReport, attacker: str, countermeasure: str):
    for cell in report.cells:
        if (cell.attacker, cell.countermeasure) == (attacker, countermeasure):
            return cell
    return None


def check_vectors(state: State, passes: List[Pass]) -> Optional[str]:
    """Batched attack vectors equal the per-trace loops on a subset."""
    config = state.config
    pool = config.generator().generate(
        state.attack_samples, seed=config.eval_seed + 500,
        categories=list(config.categories))
    base = config.trace_config or TraceConfig()
    for variant, trace_config in (("base", base),
                                  ("hardened",
                                   constant_footprint_config(base))):
        traced = TracedInference(state.model, trace_config)
        traces = [traced.trace_sample(image)[1]
                  for category in config.categories
                  for image in pool.category(category).images[:SPOT_TRACES]]
        prime_probe = PrimeProbeAttacker()
        batched = prime_probe.probe_vectors(traces, epochs=EPOCHS)
        looped = np.stack([prime_probe.probe_vector(trace, epochs=EPOCHS)
                           for trace in traces])
        if not np.array_equal(batched, looped):
            return f"{variant}: probe_vectors differs from probe_vector loop"
        flush_reload = FlushReloadAttacker(weight_lines(traced, "fc"))
        batched = flush_reload.observe_batch(traces, epochs=EPOCHS)
        looped = np.stack([flush_reload.observe(trace, epochs=EPOCHS)
                           for trace in traces])
        if not np.array_equal(batched, looped):
            return f"{variant}: observe_batch differs from observe loop"
    return None


def check_defense(state: State, passes: List[Pass]) -> Optional[str]:
    """Cache attackers sit at chance with zero MI against constant-footprint
    and beat chance against the baseline."""
    for number, item in enumerate(passes):
        for attacker in ("prime-probe", "flush-reload"):
            hardened = _cell(item.report, attacker, "constant-footprint")
            baseline = _cell(item.report, attacker, "baseline")
            if hardened is None or baseline is None:
                return f"pass {number}: {attacker} cells missing"
            if abs(hardened.advantage) > 1e-12 or hardened.mi_bits > 1e-12:
                return (f"pass {number}: {attacker} vs constant-footprint "
                        f"advantage {hardened.advantage}, MI "
                        f"{hardened.mi_bits} bits")
            if not baseline.accuracy > baseline.chance_level:
                return (f"pass {number}: {attacker} vs baseline accuracy "
                        f"{baseline.accuracy} <= chance "
                        f"{baseline.chance_level}")
    return None


def check_ranking(state: State, passes: List[Pass]) -> Optional[str]:
    """Every cell appears once, most leaky first, and every pass agrees."""
    expected = {(a, c) for a in ATTACKERS for c in COUNTERMEASURES}
    first = None
    for number, item in enumerate(passes):
        cells = item.report.cells
        found = [(cell.attacker, cell.countermeasure) for cell in cells]
        if sorted(found) != sorted(expected):
            return f"pass {number}: cells {found}"
        for upper, lower in zip(cells, cells[1:]):
            if (upper.advantage, upper.mi_bits) < (lower.advantage,
                                                   lower.mi_bits):
                return (f"pass {number}: {upper.attacker}/"
                        f"{upper.countermeasure} ranked above "
                        f"{lower.attacker}/{lower.countermeasure}")
        verdicts = [(c.attacker, c.countermeasure, c.accuracy, c.mi_bits)
                    for c in cells]
        if first is None:
            first = verdicts
        elif verdicts != first:
            return f"pass {number} scored other cells than pass 0"
    return None


CHECKS = {
    "batched_vectors_equal_loops": check_vectors,
    "cache_attackers_vs_defense": check_defense,
    "cells_in_rank_order": check_ranking,
}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(setup_tracer, tracer, outcome: Outcome
                  ) -> Dict[str, float]:
    """Per-layer figures of one traced timed phase."""
    passes: List[Pass] = outcome.evidence
    count = len(passes)
    scalar = layers.scalar_samples(tracer)
    metrics = layers.measurement_metrics(setup_tracer, tracer, count)
    metrics.update({
        "uarch.scalar_ms_per_sample":
            tracer.self_s("uarch.scalar_run", "uarch.scalar_run_batch") * 1e3
            / max(scalar, 1),
        "uarch.scalar_samples": scalar / count,
        "attack.probe_vectors_s":
            tracer.total_s("attack.probe_vectors") / count,
        "attack.observe_batch_s":
            tracer.total_s("attack.observe_batch") / count,
        "attack.profile_s": tracer.total_s("attack.profile") / count,
        "attack.trace_store_s": tracer.total_s("attack.trace_store") / count,
        "countermeasures.noise_measure_s":
            tracer.total_s("countermeasures.noise_measure") / count,
    })
    for attacker in ATTACKERS:
        for countermeasure in COUNTERMEASURES:
            metrics[f"cell_s.{attacker}.{countermeasure}"] = sum(
                _cell(p.report, attacker, countermeasure).wall_seconds
                for p in passes) / count
    return metrics
