"""Run one workload of the Evaluator benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit-cifar --seed 1 --seconds 20 \\
        --trace 0

``--workload`` is ``audit-cifar``, ``serve-fleet``, ``tournament-mnist``
or ``all`` (each workload in its own fresh process, one after another).
With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it runs the traced run instead: every workload, each in its
own process, with wrappers around the program's public calls, and prints
the per-layer metrics.  The last line of standard output is always one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the seed, ``cpu_count``, the git
commit and the outcome of every correctness check.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy can load: on two cores the
# default two-thread pool made a 200x200 matmul loop vary up to 20-fold
# between runs (see README).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "audit-cifar": "perfbench.audit",
    "serve-fleet": "perfbench.fleet",
    "tournament-mnist": "perfbench.tournament",
}
#: Set-up runs at least this many times per run, and until
#: ``SETUP_BUDGET_S`` has passed; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
#: Share of ``--seconds`` each process of the traced run measures for.
TRACE_PHASE_SHARE = 1.0 / 3.0
#: Wall-clock limit of the traced run, all its child processes included.
CHILDREN_TIMEOUT_S = 170.0
RUNS_DIR = ROOT / ".perfbench_runs"
SPANS_DIR = ROOT / ".perfbench_out"


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` (only)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {source / 'repro'}")
    sys.path.insert(0, str(source))
    sys.path.insert(1, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {source}")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` ('unknown' without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of a part of its name
    (``trace.sample_ms``, ``cell_s.hpc.baseline``, ``serve.ticks``)."""
    for part in name.split("."):
        for suffix, unit in (("_pct", "%"), ("_fraction", "ratio"),
                             ("_bytes", "bytes"), ("_ms", "ms"),
                             ("_ms_per_sample", "ms"), ("_s", "s")):
            if part.endswith(suffix):
                return unit
    return "count"


def emit(info: Dict, correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]]) -> None:
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()


def print_table(title: str, metrics: Dict[str, Dict[str, object]],
                checks: Dict[str, Optional[str]]) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    for name, problem in checks.items():
        print(f"  check {name:<38} {'ok' if problem is None else 'FAILED: '}"
              f"{problem or ''}")


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, size: str,
                 min_passes: Optional[int] = None) -> int:
    from perfbench.harness import END_TO_END_UNITS, peak_rss_mb, run_checks
    workload = importlib.import_module(WORKLOADS[name])
    if min_passes is None:
        min_passes = workload.MIN_PASSES
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "repro_cache")
    try:
        setup_times = []
        while (len(setup_times) < SETUP_REPEATS
               or sum(setup_times) < SETUP_BUDGET_S):
            start = time.perf_counter()
            state = workload.setup(seed, size, workdir)
            setup_times.append(time.perf_counter() - start)
        outcome = workload.measure(state, seconds, min_passes)
        checks = run_checks(workload.CHECKS, state, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": peak_rss_mb(), **outcome.metrics()}
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END_UNITS.items()}
    correct = all(problem is None for problem in checks.values())
    print_table(f"{name} seed={seed} seconds={seconds:g} size={size}",
                metrics, checks)
    print(f"  passes {len(outcome.matrix_s)} "
          f"({', '.join(f'{t:.3f}' for t in outcome.matrix_s)} s)  "
          f"attempted {outcome.attempted}  failed {outcome.failed}")
    emit(info(name, seed, seconds, size, checks,
              setup_runs=[round(t, 6) for t in setup_times]),
         correct, outcome.attempted, outcome.failed, metrics)
    return 0


def run_traced_workload(name: str, seed: int, seconds: float,
                        size: str, min_passes: Optional[int] = None) -> int:
    """Set up and measure one workload with every layer call traced."""
    from perfbench.harness import run_checks
    from perfbench.tracing import Tracer, span_cost_ns
    workload = importlib.import_module(WORKLOADS[name])
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-traced-", dir=RUNS_DIR))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "repro_cache")
    try:
        with Tracer().install(workload.TARGETS) as setup_tracer:
            state = workload.setup(seed, size, workdir)
        with Tracer().install(workload.TARGETS) as tracer:
            outcome = workload.measure(state, seconds, min_passes or 1)
        checks = run_checks(workload.CHECKS, state, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = workload.layer_metrics(setup_tracer, tracer, outcome)
    passes = len(outcome.matrix_s)
    layer_table = tracer.layers()
    for layer in workload.TIMED_LAYERS:
        calls, self_s = layer_table.get(layer, (0, 0.0))
        values[f"layer.{layer}.self_s"] = self_s / passes
        values[f"layer.{layer}.calls"] = calls / passes
    values["traced_ms_per_sample"] = 1e3 / outcome.metrics()["samples_per_s"]
    values["span_overhead_pct"] = (len(tracer.spans) * span_cost_ns()
                                   / (sum(outcome.matrix_s) * 1e9) * 100.0)
    metrics = {f"{workload.TAG}.{key}": {"value": float(value),
                                         "unit": unit_for(key)}
               for key, value in values.items()}
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
    setup_tracer.dump(spans, "setup")
    tracer.dump(spans, "timed", mode="a")
    correct = all(problem is None for problem in checks.values())
    print_table(f"{name} traced seed={seed} seconds={seconds:g} size={size}"
                f" spans={len(setup_tracer.spans) + len(tracer.spans)} -> "
                f"{spans.relative_to(ROOT)}", metrics, checks)
    emit(info(name, seed, seconds, size, checks), correct,
         outcome.attempted, outcome.failed, metrics)
    return 0


def info(name: str, seed: int, seconds: float, size: str,
         checks: Dict[str, Optional[str]], **extra) -> Dict:
    return {"info": {"workload": name, "seed": seed, "seconds": seconds,
                     "size": size, "cpu_count": os.cpu_count(),
                     "git_sha": git_sha(), "python": sys.version.split()[0],
                     "checks": {k: v or "ok" for k, v in checks.items()},
                     **extra}}


# ---------------------------------------------------------------------------
# Several workloads, each in a fresh child process
# ---------------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, size: str,
              traced: bool, deadline: Optional[float] = None,
              min_passes: Optional[int] = None) -> Dict:
    """Run one workload in a fresh process; returns its result object.

    The child is killed (and waited for) if it is still running at
    ``deadline``, a ``time.monotonic()`` value.
    """
    timeout = (None if deadline is None
               else max(deadline - time.monotonic(), 1.0))
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--size", size,
               "--trace", "1" if traced else "0", "--in-process"]
    if min_passes is not None:
        command += ["--min-passes", str(min_passes)]
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name} did not finish within "
                             f"{CHILDREN_TIMEOUT_S:g} s of the run") from exc
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise BenchmarkError(f"{name} exited with {child.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload, untraced, each in a fresh process."""
    results = {name: run_child(name, seed, seconds, size, traced=False)
               for name in WORKLOADS}
    metrics = {f"{name}.{key}": entry for name, result in results.items()
               for key, entry in result["metrics"].items()}
    emit(info("all", seed, seconds, size, {}),
         all(result["correct"] for result in results.values()),
         sum(result["attempted"] for result in results.values()),
         sum(result["failed"] for result in results.values()), metrics)
    return 0


def run_traced(report: str, seed: int, seconds: float, size: str) -> int:
    """The traced run: per-layer metrics of every workload.

    Each workload runs twice, each time in a fresh process, for a third
    of ``seconds`` and at least one pass: untraced, then traced.  The
    difference between the two per-sample times is the tracing overhead.
    The result's ``attempted`` and ``failed`` are those of the traced
    ``report`` workload; ``correct`` covers every process.
    """
    phase = seconds * TRACE_PHASE_SHARE
    deadline = time.monotonic() + CHILDREN_TIMEOUT_S
    correct = True
    metrics: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        tag = importlib.import_module(WORKLOADS[name]).TAG
        plain = run_child(name, seed, phase, size, False, deadline, 1)
        traced = run_child(name, seed, phase, size, True, deadline, 1)
        correct = correct and plain["correct"] and traced["correct"]
        metrics.update(traced["metrics"])
        untraced_ms = 1e3 / plain["metrics"]["samples_per_s"]["value"]
        traced_ms = traced["metrics"][
            f"{tag}.traced_ms_per_sample"]["value"]
        metrics[f"{tag}.untraced_ms_per_sample"] = {
            "value": untraced_ms, "unit": "ms"}
        metrics[f"{tag}.tracing_overhead_pct"] = {
            "value": (traced_ms / untraced_ms - 1.0) * 100.0, "unit": "%"}
        if name == report:
            attempted, failed = traced["attempted"], traced["failed"]
    emit(info("traced", seed, seconds, size, {}), correct, attempted,
         failed, metrics)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload (self-test)")
    parser.add_argument("--in-process", action="store_true",
                        help="run only --workload, in this process")
    parser.add_argument("--min-passes", type=int, default=None,
                        help="timed passes at least (default: the "
                             "workload's own minimum)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all" and (args.trace or args.in_process):
        parser.error("--workload all runs untraced, in child processes")
    try:
        import_program()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.size)
        if args.trace and not args.in_process:
            return run_traced(args.workload, args.seed, args.seconds,
                              args.size)
        runner = run_traced_workload if args.trace else run_workload
        return runner(args.workload, args.seed, args.seconds, args.size,
                      args.min_passes)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
