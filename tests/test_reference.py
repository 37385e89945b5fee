"""Fixed values of what the program computes, checked route by route.

reference_values.json holds the squared outputs of stepped
propagate.evolve plus ops.readout for every named state and both sweep
families, the set2 RMS error computed from those outputs, and the
reference adjoint gradients of three fixed pairs. Each production route,
the training engine's loss and gradient included, must reproduce them
within 1e-11, and the gradients within 1e-11 of their largest component,
whatever forward code the route runs on. The file changes only with a
CHANGES.md entry that says what moved and why.

Regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_reference.py
"""
import json
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qnnwitness import superop, witness
from qnnwitness.cli import main
from qnnwitness.hamiltonian import resolve_schedule
from qnnwitness.learning import (TrainingPair, backprop_gradient, load_dataset,
                                 resolve_state, rms_error)
from qnnwitness.ops import OBSERVABLE_IDS, readout
from qnnwitness.propagate import IntegratorConfig, evolve
from qnnwitness.states import CATALOG_NAMES, FAMILIES, catalog, mix

PATH = Path(__file__).with_name("reference_values.json")
COMMAND = "PYTHONPATH=src python tests/test_reference.py"
TOL = 1e-11

SCHEDULES = ("trained_set1", "trained_set2")
DTS = ("0.25", "0.05")
# every catalog name at its defaults, then three argument cases
STATES = [(name, ()) for name in CATALOG_NAMES if name not in FAMILIES] + [
    ("Cr_AB", (0.3,)), ("EPR_BC", (-1.0,)), ("Pprime_AC", (-1.0,))]
TEXTS = [name + (f"({', '.join(f'{a:g}' for a in args)})" if args else "")
         for name, args in STATES]
GRID_N = 5
# (state text, targets, schedule) of the gradient pairs, all at dt 0.25
PAIRS = (("Bell_AB", {"AB": 1.0, "AC": 0.0, "BC": 0.0}, "initial"),
         ("W", {"AB": 0.0, "AC": 0.0, "BC": 0.0, "ABC": 0.0}, "set1"),
         ("mix{0.5: |000>, 0.5: |111>}", {"ABC": 1.0}, "trained_set2"))


def state_stack():
    return np.stack([mix(catalog(name, *args)) for name, args in STATES])


def grid_stack(family):
    """The sweep's n x n densities in its (beta, alpha) order."""
    axis = np.linspace(0.0, 1.0, GRID_N)
    return np.stack([mix(catalog(family, alpha, beta))
                     for beta in axis for alpha in axis])


def pair_gradient(text, targets, schedule):
    return backprop_gradient(TrainingPair(resolve_state(text), targets),
                             resolve_schedule(schedule),
                             IntegratorConfig(0.25))


@pytest.fixture(scope="module")
def ref():
    return json.loads(PATH.read_text())


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("dt", DTS)
def test_evaluate_many_matches_reference(ref, schedule, dt):
    got = witness.evaluate_many(state_stack(), resolve_schedule(schedule),
                                IntegratorConfig(float(dt)))
    want = np.array([ref["states"][schedule][dt][t] for t in TEXTS])
    assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("dt", DTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_matches_reference(ref, schedule, dt, family):
    grid = witness.sweep(family, GRID_N, resolve_schedule(schedule),
                         IntegratorConfig(float(dt)))
    want = np.array(ref["grids"][schedule][dt][family])
    assert np.abs(grid.outputs.reshape(-1, 4) - want).max() <= TOL


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_cli_evaluate_matches_reference(ref, schedule, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.setenv("QNNWITNESS_CONFIG", str(tmp_path / "config.json"))
    for text in TEXTS:
        code = main(["evaluate", "--params", schedule, "--state", text,
                     "--dt", "0.25", "--json"])
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert code == 0
        got = np.array([outputs[key] for key in OBSERVABLE_IDS])
        want = ref["states"][schedule]["0.25"][text]
        assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize("dt", DTS)
def test_rms_error_matches_reference(ref, dt):
    got = rms_error(load_dataset("set2"), resolve_schedule("trained_set2"),
                    IntegratorConfig(float(dt)))
    assert abs(got - ref["rms_error"][dt]) <= TOL


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_gradients_match_reference(ref, index):
    want = np.array(ref["gradients"][index])
    got = pair_gradient(*PAIRS[index])
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


@pytest.mark.parametrize("dt", DTS)
def test_training_engine_rms_matches_reference(ref, dt):
    """The engine that train runs, read as sqrt(2E / graded outputs)."""
    rhos, targets, mask = load_dataset("set2").arrays()
    energy, _, _ = superop.dataset_loss_grad(
        rhos, targets, mask, resolve_schedule("trained_set2"), float(dt))
    assert abs(np.sqrt(2 * energy / mask.sum()) - ref["rms_error"][dt]) <= TOL


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_training_engine_gradients_match_reference(ref, index):
    text, targets, schedule = PAIRS[index]
    rho, target, mask = TrainingPair(resolve_state(text), targets).arrays()
    _, got, _ = superop.dataset_loss_grad(
        rho[None], target[None], mask[None], resolve_schedule(schedule), 0.25)
    want = np.array(ref["gradients"][index])
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


def generate() -> dict:
    """Every reference value, from stepped evolve plus readout (and, for
    the gradients, the stepped reference adjoint)."""
    def outputs(rhos, schedule, dt):
        rho_f, _ = evolve(rhos, resolve_schedule(schedule),
                          IntegratorConfig(float(dt)))
        return readout(rho_f) ** 2

    states, grids = {}, {}
    for schedule in SCHEDULES:
        for dt in DTS:
            states.setdefault(schedule, {})[dt] = dict(zip(
                TEXTS, outputs(state_stack(), schedule, dt).tolist()))
            grids.setdefault(schedule, {})[dt] = {
                family: outputs(grid_stack(family), schedule, dt).tolist()
                for family in FAMILIES}
    rhos, targets, mask = load_dataset("set2").arrays()
    rms = {}
    for dt in DTS:
        resid = (targets - outputs(rhos, "trained_set2", dt)) * mask
        rms[dt] = float(np.sqrt((resid ** 2).sum() / mask.sum()))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=PATH.parent).stdout.strip()
    return {
        "about": {"commit": commit, "numpy": np.__version__,
                  "command": COMMAND,
                  "route": "stepped propagate.evolve, ops.readout squared"},
        "states": states,
        "grids": grids,
        "rms_error": rms,
        "gradients": [pair_gradient(*pair).tolist() for pair in PAIRS],
    }


if __name__ == "__main__":
    text = json.dumps(generate(), indent=1)
    # one line per innermost list of numbers
    text = re.sub(r"\[([^\[\]{}]*)\]",
                  lambda m: "[" + " ".join(m[1].split()) + "]", text)
    PATH.write_text(text + "\n")
