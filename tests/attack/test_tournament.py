"""Leakage-tournament tests: matrix coverage, ranking, artifacts, reuse."""

import collections
import json

import numpy as np
import pytest

from repro.attack.tournament import (
    ATTACKERS,
    COUNTERMEASURES,
    run_tournament,
    write_tournament_report,
)
from repro.attack.trace_store import TraceStore
from repro.core.experiment import mnist_experiment
from repro.errors import MeasurementError


def tiny_config(tmp_path, **overrides):
    defaults = dict(samples_per_category=4, categories=(1, 2),
                    cache_dir=str(tmp_path / "cache"), workers=1)
    defaults.update(overrides)
    return mnist_experiment(**defaults)


@pytest.fixture(scope="module")
def full_report(tmp_path_factory, tiny_trained_model):
    tmp_path = tmp_path_factory.mktemp("tournament")
    config = tiny_config(tmp_path)
    return run_tournament([config], attack_samples=4, epochs=4,
                          models={"mnist": tiny_trained_model})


def test_full_matrix_coverage(full_report):
    assert len(full_report.cells) == len(ATTACKERS) * len(COUNTERMEASURES)
    coordinates = {(c.attacker, c.countermeasure) for c in full_report.cells}
    assert coordinates == {(a, cm) for a in ATTACKERS
                           for cm in COUNTERMEASURES}
    assert full_report.datasets == ("mnist",)
    assert full_report.samples_per_category == 4


def test_cells_are_scored_and_ranked(full_report):
    ranked = full_report.ranked()
    keys = [(-c.advantage, -c.mi_bits) for c in ranked]
    assert keys == sorted(keys)
    for cell in ranked:
        assert 0.0 <= cell.accuracy <= 1.0
        assert cell.chance_level == pytest.approx(0.5)
        assert cell.mi_bits >= 0.0
        assert 0.0 <= cell.leakage_fraction <= 1.0 + 1e-9
        assert cell.runtime_cost >= 1.0
        assert cell.n_train > 0 and cell.n_test > 0
        assert cell.wall_seconds >= 0.0
    baseline = {c.countermeasure: c for c in ranked}
    assert baseline["constant-footprint"].runtime_cost > 1.0
    assert baseline["noise-injection"].runtime_cost > 1.0


def test_countermeasure_defeats_cache_attacks(full_report):
    # Constant-footprint kernels erase the data-dependent footprint, so
    # both cache attackers drop to (at most) chance against them.
    for cell in full_report.cells:
        if (cell.attacker in ("prime-probe", "flush-reload")
                and cell.countermeasure == "constant-footprint"):
            baseline = next(c for c in full_report.cells
                            if c.attacker == cell.attacker
                            and c.countermeasure == "baseline")
            assert cell.accuracy <= baseline.accuracy
            assert cell.mi_bits <= baseline.mi_bits + 1e-9


def test_noise_injection_leaves_traces_unchanged(full_report):
    # Dummy-work noise perturbs counters, not the memory stream: the cache
    # attackers' observables are identical to baseline by construction.
    for attacker in ("prime-probe", "flush-reload"):
        baseline = next(c for c in full_report.cells
                        if c.attacker == attacker
                        and c.countermeasure == "baseline")
        noisy = next(c for c in full_report.cells
                     if c.attacker == attacker
                     and c.countermeasure == "noise-injection")
        assert noisy.accuracy == pytest.approx(baseline.accuracy)
        assert noisy.mi_bits == pytest.approx(baseline.mi_bits)


def test_report_artifact_roundtrip(full_report, tmp_path):
    path = write_tournament_report(full_report, tmp_path / "REPORT.json")
    payload = json.loads(path.read_text())
    assert payload["kind"] == "leakage-tournament"
    assert payload["datasets"] == ["mnist"]
    assert len(payload["ranking"]) == len(full_report.cells)
    first = payload["ranking"][0]
    assert {"dataset", "attacker", "countermeasure", "accuracy",
            "advantage", "mi_bits", "runtime_cost"} <= set(first)
    assert not list(tmp_path.glob("*.tmp-*"))


def test_trace_store_shared_across_runs(tmp_path, tiny_trained_model):
    store = TraceStore(tmp_path / "traces")
    config = tiny_config(tmp_path, cache_dir="")
    first = run_tournament([config], attackers=("prime-probe",),
                           countermeasures=("baseline",), attack_samples=4,
                           epochs=4, store=store,
                           models={"mnist": tiny_trained_model})
    entries = sorted(p.name for p in (tmp_path / "traces").glob("*.npz"))
    assert entries  # traces were persisted
    second = run_tournament([config], attackers=("flush-reload",),
                            countermeasures=("baseline",), attack_samples=4,
                            epochs=4, store=store,
                            models={"mnist": tiny_trained_model})
    # The second attacker reused the first run's traces: same entries.
    assert sorted(p.name for p in (tmp_path / "traces").glob("*.npz")) \
        == entries
    assert first.cells[0].attacker == "prime-probe"
    assert second.cells[0].attacker == "flush-reload"


def test_parallel_matches_sequential(tmp_path, tiny_trained_model):
    config = tiny_config(tmp_path, cache_dir="")
    kwargs = dict(attackers=("prime-probe", "flush-reload"),
                  attack_samples=4, epochs=4,
                  models={"mnist": tiny_trained_model})
    sequential = run_tournament([config], workers=1, **kwargs)
    parallel = run_tournament([config], workers=2, **kwargs)
    for seq, par in zip(sequential.ranked(), parallel.ranked()):
        assert (seq.dataset, seq.attacker, seq.countermeasure) \
            == (par.dataset, par.attacker, par.countermeasure)
        assert par.accuracy == pytest.approx(seq.accuracy)
        assert par.mi_bits == pytest.approx(seq.mi_bits)


def test_input_validation(tmp_path, tiny_trained_model):
    config = tiny_config(tmp_path)
    models = {"mnist": tiny_trained_model}
    with pytest.raises(MeasurementError):
        run_tournament([config], attackers=("nope",), models=models)
    with pytest.raises(MeasurementError):
        run_tournament([config], countermeasures=("nope",), models=models)
    with pytest.raises(MeasurementError):
        run_tournament([config], attackers=(), models=models)
    with pytest.raises(MeasurementError):
        run_tournament([config], attack_samples=1, models=models)
    with pytest.raises(MeasurementError):
        run_tournament([config, config], models=models)


def _verdicts(report):
    return [(c.dataset, c.attacker, c.countermeasure, c.accuracy,
             c.advantage, c.mi_bits, c.leakage_fraction, c.runtime_cost,
             c.n_train, c.n_test) for c in report.ranked()]


def test_hpc_cells_never_replay_on_the_scalar_cpu(tmp_path, monkeypatch,
                                                  tiny_trained_model):
    # Every HPC cell — noise injection and warm-up included — measures
    # through the batched MeasurementPlan; the scalar CpuModel replay
    # (TracedInference.run / run_batch) must not run at all.
    from repro.hpc import session as session_module
    from repro.trace.traced_model import TracedInference
    from repro.uarch.engine import MeasurementPlan

    models = {"mnist": tiny_trained_model}
    calls = []
    run, run_batch = TracedInference.run, TracedInference.run_batch

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TracedInference, "run", counted(run))
    monkeypatch.setattr(TracedInference, "run_batch", counted(run_batch))
    batched = run_tournament([tiny_config(tmp_path / "batched")],
                             attack_samples=4, epochs=4, models=models)
    assert calls == []

    # Reference: the per-sample session path on the scalar CPU model.
    monkeypatch.setattr(session_module, "_chain_batch", lambda backend: None)
    monkeypatch.setattr(MeasurementPlan, "supports",
                        staticmethod(lambda config, cold_start=True: False))
    scalar = run_tournament([tiny_config(tmp_path / "scalar")],
                            attack_samples=4, epochs=4, models=models)
    assert calls  # the reference really took the scalar path
    assert _verdicts(batched) == _verdicts(scalar)


def test_one_tracer_per_trace_variant(tmp_path, monkeypatch,
                                      tiny_trained_model):
    # The runtime-cost probe, the trace matrix, the Flush+Reload weight
    # lines and the HPC backends all share one tracer per (model, trace
    # config) pair: base and hardened.
    from repro.attack import tournament as tournament_module
    from repro.trace.traced_model import TracedInference

    models = {"mnist": tiny_trained_model}
    built = []
    init = TracedInference.__init__

    def counted(self, model, config=None, *args, **kwargs):
        built.append(config)
        init(self, model, config, *args, **kwargs)

    monkeypatch.setattr(TracedInference, "__init__", counted)
    shared = run_tournament([tiny_config(tmp_path / "shared")],
                            attack_samples=4, epochs=4, models=models)
    assert len(built) <= 2
    assert len(set(built)) == len(built)

    # Reference: every user builds its own tracer, as before sharing.
    def fresh(self, variant):
        return TracedInference(self.model, self.configs[variant],
                               engine=self.engine)

    monkeypatch.setattr(tournament_module._ModelTracers, "__getitem__",
                        fresh)
    built.clear()
    unshared = run_tournament([tiny_config(tmp_path / "unshared")],
                              attack_samples=4, epochs=4, models=models)
    assert len(built) > 2  # the reference really built per user
    assert _verdicts(shared) == _verdicts(unshared)


def _collected(monkeypatch):
    """Record the distributions every HPC cell's session collects."""
    from repro.hpc.session import MeasurementSession

    collected = []
    collect = MeasurementSession.collect

    def recorded(self, *args, **kwargs):
        distributions = collect(self, *args, **kwargs)
        collected.append(distributions)
        return distributions

    monkeypatch.setattr(MeasurementSession, "collect", recorded)
    return collected


def _same_distributions(want, got):
    return (want.categories == got.categories and want.events == got.events
            and all(np.array_equal(want.values(category, event),
                                   got.values(category, event))
                    for category in want.categories
                    for event in want.events))


@pytest.mark.parametrize("kwargs", [
    {},
    {"attackers": ("hpc",)},
    {"countermeasures": ("noise-injection",)},
    {"workers": 2},
], ids=["default", "hpc-only", "noise-injection", "workers-2"])
def test_recorded_hpc_cells_match_unrecorded(tmp_path, monkeypatch,
                                             tiny_trained_model, kwargs):
    # The HPC cells read the pass's recordings; with the handle taken away
    # from every backend, each cell traces and replays the pool itself.
    # Every cell — and every HPC cell's distributions — must agree.
    from repro.attack import tournament as tournament_module
    from repro.core.experiment import make_backend

    models = {"mnist": tiny_trained_model}
    collected = _collected(monkeypatch)
    recorded = run_tournament([tiny_config(tmp_path / "recorded")],
                              attack_samples=4, epochs=4, models=models,
                              **kwargs)
    with_recording = list(collected)
    collected.clear()

    def unrecorded(config, model, traced=None, recording=None):
        return make_backend(config, model, traced=traced)

    monkeypatch.setattr(tournament_module, "make_backend", unrecorded)
    bypassed = run_tournament([tiny_config(tmp_path / "bypassed")],
                              attack_samples=4, epochs=4, models=models,
                              **kwargs)
    assert _verdicts(recorded) == _verdicts(bypassed)
    assert with_recording and len(with_recording) == len(collected)
    for want, got in zip(collected, with_recording):
        assert _same_distributions(want, got)


def test_each_pool_image_traced_and_replayed_once(tmp_path, monkeypatch,
                                                  tiny_trained_model):
    # A default serial pass traces each (trace variant, pool image) once —
    # plus the runtime-cost probe once per variant — and the HPC cells,
    # warm-up included, replay each of those traces at most once.
    from repro.trace.traced_model import TracedInference
    from repro.uarch.engine import MeasurementPlan

    traced = collections.Counter()   # (trace config, image) -> traces
    origin = {}                      # id(trace) -> (key, trace)
    replayed = collections.Counter()
    trace_sample = TracedInference.trace_sample
    replay_batch = MeasurementPlan.replay_batch

    def counted_trace(self, sample):
        prediction, trace = trace_sample(self, sample)
        image = np.ascontiguousarray(sample, dtype=np.float64).tobytes()
        key = (repr(self.config), image)
        traced[key] += 1
        origin[id(trace)] = (key, trace)  # keeps the trace (and its id)
        return prediction, trace

    def counted_replay(self, traces):
        for trace in traces:
            replayed[origin.get(id(trace), ("untraced", None))[0]] += 1
        return replay_batch(self, traces)

    monkeypatch.setattr(TracedInference, "trace_sample", counted_trace)
    monkeypatch.setattr(MeasurementPlan, "replay_batch", counted_replay)
    report = run_tournament([tiny_config(tmp_path)], attack_samples=4,
                            epochs=4, models={"mnist": tiny_trained_model})
    assert len(report.cells) == len(ATTACKERS) * len(COUNTERMEASURES)
    pool_images = 2 * 4  # categories x attack samples
    assert sum(traced.values()) == 2 * pool_images + 2
    assert set(traced.values()) == {1}
    assert "untraced" not in replayed
    assert len(replayed) == 2 * pool_images
    assert set(replayed.values()) == {1}


def test_hpc_only_workers_trace_what_the_serial_pass_traces(
        tmp_path, monkeypatch, tiny_trained_model):
    # With no trace matrix, the keyed HPC cells record their pool in the
    # parent before the measurement workers fork, so a two-worker pass
    # traces each (trace variant, pool image) once, as the serial pass
    # does.  Calls are logged to a file so the workers' count as well.
    import os

    from repro.trace.traced_model import TracedInference

    trace_sample = TracedInference.trace_sample
    log = tmp_path / "trace_sample.log"

    def logged_trace(self, sample):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return trace_sample(self, sample)

    monkeypatch.setattr(TracedInference, "trace_sample", logged_trace)
    traced, verdicts = {}, {}
    for workers in (1, 2):
        log.write_text("")
        report = run_tournament(
            [tiny_config(tmp_path / f"workers{workers}")],
            attackers=("hpc",), attack_samples=4, epochs=4,
            workers=workers, models={"mnist": tiny_trained_model})
        pids = log.read_text().split()
        traced[workers] = (len(pids), set(pids) == {str(os.getpid())})
        verdicts[workers] = _verdicts(report)
    pool_images = 2 * 4  # categories x attack samples
    assert traced[1] == traced[2] == (2 * pool_images + 2, True)
    assert verdicts[1] == verdicts[2]
