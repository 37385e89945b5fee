"""Tests of the benchmark itself: every workload at a tiny size, metric
names against BENCHMARK.json, and corrupted outputs counted as failures.

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from qnnwitness import learning, witness  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
with open(SPEC_PATH) as _fh:
    SPEC = json.load(_fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    for key, value in run.THREAD_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setenv("QNNWITNESS_CONFIG", run.CONFIG_FILE)


@pytest.fixture
def tiny():
    def make(name, seed=0):
        return workloads.WORKLOADS[name](np.random.default_rng(seed),
                                         tiny=True)
    return make


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_reports_every_metric(name, trace):
    result, lines = run.run(name, seed=1, seconds=0.01, trace=trace,
                            tiny=True)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(m[k] for k in set(spans.SELF_TIME_METRIC.values()))
        assert self_sum == pytest.approx(m["trace.op_ms"], rel=1e-9)
        assert m["trace.untraced_op_ms"] + m["trace.overhead_ms"] == \
            pytest.approx(m["trace.op_ms"], rel=1e-9)
        superop = m["superop.adjoint.ms"] + m["superop.forward.ms"]
        assert (superop > 0) == (name == "train")
    else:
        for value in result["metrics"].values():
            assert value["value"] > 0


def test_tracer_restores_the_program():
    originals = {(m, a): getattr(__import__(f"qnnwitness.{m}",
                                            fromlist=[a]), a)
                 for m, a, _ in spans.WRAPPED}
    run.run("train", seed=0, seconds=0.01, trace=1, tiny=True)
    for (m, a), fn in originals.items():
        assert getattr(__import__(f"qnnwitness.{m}", fromlist=[a]), a) is fn


def test_spans_of_sweep_reach_the_imported_evolve(tiny):
    tracer = spans.Tracer()
    workload = tiny("sweep")
    with tracer.root("bench.op", 0):
        workload.op(0)
    names = {s[0] for s in tracer.spans}
    assert {"witness.sweep", "witness.evaluate_many", "propagate.evolve",
            "states.catalog", "states.mix"} <= names
    layers = spans.layer_metrics(tracer.spans, 1)
    assert layers["propagate.evolve.state_steps"] == 25 * 1200


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 31))) == (20, pytest.approx(200 / 3))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_matmul_count_follows_binary_powering():
    schedule = workloads.hamiltonian.resolve_schedule("trained_set1")
    performed, useful = spans.matmul64_per_epoch(schedule, 0.25)
    # 300 steps: 9 bits, 4 set -> 13 products in _pow, 39 in the weight
    assert performed == 4 * (3 + 13 + 39 + 6)
    assert useful == performed - 4 * 13


def test_same_seed_same_inputs(tiny):
    a, b, c = tiny("evaluate", 5), tiny("evaluate", 5), tiny("evaluate", 6)
    assert [r[:2] for r in a.requests] == [r[:2] for r in b.requests]
    assert [r[:2] for r in a.requests] != [r[:2] for r in c.requests]


def test_corrupted_train_outputs_fail(tiny):
    w = tiny("train")
    trained, history = w.op(0)
    assert w.check(0, (trained, history)) is None
    bad = history.copy()
    bad[-1] = np.nan
    assert w.check(0, (trained, bad))
    assert w.check(0, (trained, history + 1e-6))
    assert w.check(0, (trained, history[::-1].copy()))
    chunks = trained.chunks.copy()
    chunks[0, 0] = np.nan
    assert w.check(0, (workloads.Schedule(chunks), history))


def test_corrupted_sweep_outputs_fail(tiny):
    w = tiny("sweep")
    grid = w.op(0)
    assert w.check(0, grid) is None

    def with_outputs(values):
        return witness.SweepGrid(grid.family, grid.alphas, grid.betas,
                                 values, grid.crossing)

    out = grid.outputs.copy()
    out[2, 3, 1] = np.nan
    assert w.check(0, with_outputs(out))
    out = grid.outputs.copy().reshape(-1, 4)
    out[w.cells[0], 0] += 1e-4
    assert w.check(0, with_outputs(out.reshape(grid.outputs.shape)))
    out = grid.outputs.copy()
    out[0, 0, 0] = 1.5
    assert w.check(0, with_outputs(out))
    short = witness.SweepGrid(grid.family, grid.alphas, grid.betas,
                              grid.outputs,
                              tuple(r for r in grid.crossing if r[0] != 0.5))
    assert w.check(0, short)


def test_corrupted_evaluate_outputs_fail(tiny):
    w = tiny("evaluate")
    code, out, err = w.op(0)
    assert w.check(0, (code, out, err)) is None
    doc = json.loads(out)
    assert w.check(0, (1, out, "error"))
    doc["outputs"]["AB"] = float("nan")
    assert w.check(0, (0, json.dumps(doc), ""))
    doc = json.loads(out)
    doc["outputs"]["ABC"] += 1e-4
    assert w.check(0, (0, json.dumps(doc), ""))
    assert w.check(0, (0, "not json", ""))


def test_corrupted_gradients_fail(tiny):
    w = tiny("gradcheck")
    exact, numeric = w.op(0)
    assert w.check(0, (exact, numeric)) is None
    bad = exact.copy()
    bad[5] = np.nan
    assert w.check(0, (bad, numeric))
    assert w.check(0, (exact * (1 + 1e-5), numeric))


def test_a_broken_program_is_counted_not_timed(monkeypatch):
    real = witness.evaluate_many
    monkeypatch.setattr(witness, "evaluate_many",
                        lambda *a, **k: real(*a, **k) * np.nan)
    result, _ = run.run("sweep", seed=0, seconds=0.01, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_an_exception_is_a_failed_operation(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(learning, "fd_gradient", broken)
    workload = workloads.GradCheck(np.random.default_rng(0), tiny=True)
    latencies, outputs, _, _ = run.measure(workload, 0.01)
    failures = run.check_all(workload, outputs)
    assert len(failures) == len(outputs) and "injected" in failures[0]


def _command(*args):
    return [sys.executable, "perfbench/run.py", *args]


def test_command_prints_the_result_last(tmp_path):
    done = subprocess.run(
        _command("--workload", "train", "--seed", "3", "--seconds", "1",
                 "--trace", "0"),
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and "machine" in done.stdout


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        _command("--workload", "train", "--seed", "0", "--seconds", "1",
                 "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_named_state_oracle_matches_the_catalog():
    for name, rho in workloads.NAMED_DENSITY.items():
        np.testing.assert_allclose(
            workloads.states.mix(workloads.states.catalog(name)), rho,
            atol=1e-12, err_msg=name)


def test_a_wrong_catalog_state_fails_the_evaluate_check(tiny, monkeypatch):
    w = tiny("evaluate")
    i = next(i for i, (_, text, _) in enumerate(w.requests)
             if text in workloads.NAMED_DENSITY and text != "M")
    name = w.requests[i][1]
    builder, required, defaults = workloads.states._CATALOG[name]
    # one more basis ket in the superposition
    monkeypatch.setitem(workloads.states._CATALOG, name,
                        (lambda *a: builder(*a) + np.eye(8)[3], required,
                         defaults))
    assert w.check(i, w.op(i))
