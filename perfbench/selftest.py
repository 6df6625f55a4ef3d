"""Self-test of the benchmark at a tiny size.

Checks the output form of an untraced run of every workload and of the
traced run against ``BENCHMARK.json``, then shows that every correctness
check passes on a real result and rejects a deliberately corrupted one.
Run from the repository root (about two minutes on two cores)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (sets BLAS threads first)

SEED = 3
SECONDS = 0.5
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def invoke(*args: str) -> dict:
    command = [sys.executable, str(bench.ROOT / "perfbench" / "run.py"),
               "--seed", str(SEED), "--seconds", str(SECONDS),
               "--size", "tiny", "--min-passes", "1", *args]
    child = subprocess.run(command, cwd=bench.ROOT, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, (command, child.stderr[-2000:])
    return json.loads(child.stdout.strip().splitlines()[-1])


def check_form(result: dict, declared: list, label: str) -> None:
    assert set(result) == RESULT_KEYS, (label, sorted(result))
    assert result["correct"] is True, (label, "checks failed")
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    names = {entry["name"]: entry["unit"] for entry in declared}
    assert set(result["metrics"]) == set(names), (
        label, sorted(set(result["metrics"]) ^ set(names)))
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, (label, name)
        assert entry["unit"] == names[name], (label, name, entry["unit"])
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            label, name, value)


def test_output_form() -> None:
    declared = spec()
    for workload in declared["workloads"]:
        result = invoke("--workload", workload["name"], "--trace", "0")
        check_form(result, declared["end_to_end"], workload["name"])
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, (workload["name"], name)
        print(f"form ok: {workload['name']} untraced")
    result = invoke("--workload", "serve-fleet", "--trace", "1")
    check_form(result, declared["per_layer"], "traced")
    print("form ok: traced run")


# ---------------------------------------------------------------------------
# Each check rejects a corrupted result
# ---------------------------------------------------------------------------

def _flip_verdict(audits):
    report = audits[0].report
    first = report.results[0]
    report.results[0] = dataclasses.replace(
        first, distinguishable=not first.distinguishable)
    return audits


def _shift_readout(audits):
    from repro.hpc.distributions import EventDistributions
    report = audits[0].report
    data = {c: {e: report.distributions.values(c, e).copy()
                for e in report.distributions.events}
            for c in report.distributions.categories}
    event = report.distributions.events[0]
    data[report.distributions.categories[0]][event][0] += 1
    report.distributions = EventDistributions(data)
    return audits


def _silence(audits):
    report = audits[0].report
    report.results = [dataclasses.replace(r, distinguishable=False)
                      for r in report.results]
    return audits


def _branches_separate(audits):
    from repro.uarch.events import HpcEvent
    report = audits[0].report
    report.results = [
        dataclasses.replace(r, distinguishable=True)
        if r.event == HpcEvent.BRANCHES else r for r in report.results]
    return audits


def _drop_round(sessions):
    tenant = sorted(sessions[0].delivered)[0]
    del sessions[0].delivered[tenant][5]
    return sessions


def _miss_detection(sessions):
    tenant = sorted(sessions[0].first)[0]
    first = sessions[0].first[tenant]
    sessions[0].first[tenant] = dataclasses.replace(
        first, new_detections=first.new_detections[1:])
    return sessions


def _no_first_alarm(sessions):
    tenant = sorted(sessions[0].first)[0]
    sessions[0].first[tenant] = dataclasses.replace(
        sessions[0].first[tenant], leakage_alarm=None)
    return sessions


def _early_drift(sessions):
    tenant = sorted(sessions[0].drift_rounds)[0]
    sessions[0].drift_rounds[tenant].insert(0, 3)
    return sessions


def _skew_moments(sessions):
    tenant = sorted(sessions[0].snapshots)[0]
    snapshot = sessions[0].snapshots[tenant]
    count, mean, variance = snapshot[0]
    snapshot[0] = (count, mean * (1 + 1e-6), variance)
    return sessions


def _other_fault(sessions):
    tenant = sorted(sessions[0].causes)[0]
    sessions[0].causes[tenant] = RuntimeError("consumer crashed")
    return sessions


def _leaky_defense(passes):
    report = passes[0].report
    cells = [dataclasses.replace(c, mi_bits=0.5)
             if (c.attacker, c.countermeasure)
             == ("prime-probe", "constant-footprint") else c
             for c in report.cells]
    passes[0] = dataclasses.replace(
        passes[0], report=dataclasses.replace(report, cells=tuple(cells)))
    return passes


def _reverse_ranking(passes):
    report = passes[0].report
    passes[0] = dataclasses.replace(
        passes[0], report=dataclasses.replace(
            report, cells=tuple(reversed(report.cells))))
    return passes


class _BrokenProbeEngine:
    """Makes the batched Prime+Probe engine miscount one probe."""

    def __enter__(self):
        from repro.attack.prime_probe import PrimeProbeAttacker
        self.owner = PrimeProbeAttacker
        self.original = PrimeProbeAttacker.probe_vectors

        def broken(attacker, traces, epochs=8):
            vectors = self.original(attacker, traces, epochs=epochs).copy()
            vectors[0, 0] += 1
            return vectors
        PrimeProbeAttacker.probe_vectors = broken
        return self

    def __exit__(self, *exc):
        self.owner.probe_vectors = self.original


CORRUPTIONS = {
    "audit-cifar": {
        "ttests_match_scipy": _flip_verdict,
        "batched_equals_per_sample": _shift_readout,
        "alarm_fires": _silence,
        "miss_branch_asymmetry": _branches_separate,
    },
    "serve-fleet": {
        "outcomes_once_in_order": _drop_round,
        "tick1_matches_scipy": _miss_detection,
        "alarm_on_first_tick": _no_first_alarm,
        "drift_only_after_shift": _early_drift,
        "moments_match_numpy": _skew_moments,
        "failures_are_named_fault": _other_fault,
    },
    "tournament-mnist": {
        "batched_vectors_equal_loops": None,  # broken engine, see below
        "cache_attackers_vs_defense": _leaky_defense,
        "cells_in_rank_order": _reverse_ranking,
    },
}


def test_checks_reject_corruption() -> None:
    bench.import_program()
    for name, corruptions in CORRUPTIONS.items():
        workload = importlib.import_module(bench.WORKLOADS[name])
        assert set(corruptions) == set(workload.CHECKS), name
        bench.RUNS_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-",
                                        dir=bench.RUNS_DIR))
        try:
            state = workload.setup(SEED, "tiny", workdir)
            outcome = workload.measure(state, SECONDS, 1)
            for check_name, check in workload.CHECKS.items():
                problem = check(state, outcome.evidence)
                assert problem is None, (name, check_name, problem)
                corrupt = corruptions[check_name]
                if corrupt is None:
                    with _BrokenProbeEngine():
                        problem = check(state, outcome.evidence)
                else:
                    evidence = corrupt(copy.deepcopy(outcome.evidence))
                    problem = check(state, evidence)
                assert problem is not None, (name, check_name,
                                             "accepted a corrupted result")
                print(f"check rejects corruption: {name} {check_name}: "
                      f"{problem}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_without_program(tmp: Path) -> None:
    """Without the program's source the run fails and prints no result."""
    shutil.copytree(bench.ROOT / "perfbench", tmp / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp / "BENCHMARK.json").write_text(
        (bench.ROOT / "BENCHMARK.json").read_text())
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-cifar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp, capture_output=True, text=True, timeout=180)
    assert child.returncode != 0 and not child.stdout.strip(), (
        child.returncode, child.stdout[-500:])
    print("refuses without program source: exit", child.returncode)


def main() -> int:
    test_output_form()
    test_checks_reject_corruption()
    with tempfile.TemporaryDirectory(dir=bench.RUNS_DIR) as tmp:
        test_refuses_without_program(Path(tmp))
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
