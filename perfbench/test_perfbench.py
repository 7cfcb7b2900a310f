"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import tickcopula.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import Calibrate, Day, Estimators  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "day": lambda wd: Day(wd, n_ticks=500),
    "calibrate": lambda wd: Calibrate(wd, k=5, n_rep=50, n_ticks=100, n_tau=2),
    "estimators": lambda wd: Estimators(wd, n_rep=2),
}


@pytest.fixture
def workdir():
    path = run.OUT / "test-work"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_run(name, workdir, trace=False, digests=None, min_ops=1):
    return run.measure(TINY[name](workdir), seed=3, seconds=0.01, trace=trace, import_s=0.0,
                       digests=digests or {}, probes=0, min_ops=min_ops)[0]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, workdir):
    result = tiny_run(name, workdir, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())


def _shift_kendall(monkeypatch):
    original = tickcopula.cli.kendall_tau

    def shifted(*a, **k):
        est = original(*a, **k)
        return dataclasses.replace(est, tau_hat=est.tau_hat + 1e-6)

    monkeypatch.setattr(tickcopula.cli, "kendall_tau", shifted)


def _widen_quantile_interval(monkeypatch):
    original = tickcopula.cli.interval_quantile
    monkeypatch.setattr(tickcopula.cli, "interval_quantile",
                        lambda *a, **k: dataclasses.replace(original(*a, **k), hi=1.0))


def _swap_estimator_means(monkeypatch):
    original = tickcopula.cli.gaussian_estimator_study

    def swapped(*a, **k):
        rows = original(*a, **k)
        for row in rows:
            row["corrected_mean"], row["refresh_mean"] = row["refresh_mean"], row["corrected_mean"]
        return rows

    monkeypatch.setattr(tickcopula.cli, "gaussian_estimator_study", swapped)


@pytest.mark.parametrize("name, perturb", [("day", _shift_kendall), ("calibrate", _widen_quantile_interval),
                                           ("estimators", _swap_estimator_means)])
def test_perturbed_output_counts_as_failure(name, perturb, workdir, monkeypatch):
    perturb(monkeypatch)
    result = tiny_run(name, workdir)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_reference_mismatch_counts_as_failure(workdir):
    digests = {"estimators": {str(run.CANARY_SEED): "0" * 64}}
    result = tiny_run("estimators", workdir, digests=digests)
    assert not result["correct"] and result["failed"] == 1


def test_traced_counts_repeat_for_a_seed(workdir):
    first, second = (tiny_run("day", workdir, trace=True, min_ops=2)["metrics"] for _ in range(2))
    counts = [m for m, unit in tracing.PER_LAYER_UNITS.items() if unit == "count"]
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert first["market_data.ticks_read"]["value"] == 1000


def test_spans_account_for_the_op_and_bindings_are_restored(workdir):
    workload = TINY["estimators"](workdir)
    workload.prepare(5)
    tracer = tracing.Tracer()
    tracer.begin_op()
    with tracer:
        workload.run()
    assert not hasattr(tickcopula.cli.main, "__wrapped__")
    assert not hasattr(tickcopula.tables.simulate, "__wrapped__")
    names = {span[0] for span in tracer.spans}
    # reached only through names that tables.py imported with ``from .x import y``
    assert {"synthesis.simulate", "pairing.pair_ticks", "estimators.corrected_correlation"} <= names
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == -1)
    assert sum(tracer.self_times()[0].values()) == pytest.approx(roots, rel=1e-9)
    assert min(s for s in tracer.self_times()[0].values()) >= 0.0


def test_exits_without_result_when_program_is_absent():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "day", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
