"""Every route on the bundled schedules, at the default step and at a
finer one. The CLI runs each command under np.errstate, which hides
numpy's warnings; these call the routes directly, where the test
configuration raises each RuntimeWarning as an error, so an overflow or
NaN on the way to an output or a gradient fails at the line that makes
it, not later as a DivergenceError or a plausible number."""

import numpy as np
import pytest

from qnnwitness.hamiltonian import bundled_schedule
from qnnwitness.learning import (TrainConfig, TrainingPair, backprop_gradient,
                                 fd_gradient, resolve_state, rms_error, train)
from qnnwitness.propagate import IntegratorConfig
from qnnwitness.witness import calibrate, evaluate, sweep


@pytest.mark.parametrize("dataset, schedule", [("set1", "initial"),
                                               ("set2", "trained_set1")])
@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_training_on_bundled_schedules(dataset, schedule, dt):
    cfg = TrainConfig(epochs=20, learning_rate=3e-3, momentum=0.9, dt=dt)
    trained, history = train(dataset, bundled_schedule(schedule), cfg)
    assert len(history) == 20 and np.isfinite(history).all()
    assert np.isfinite(trained.chunks).all()


@pytest.mark.parametrize("schedule", ["set1", "trained_set2"])
@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_stepped_routes_on_bundled_schedules(schedule, dt):
    s, cfg = bundled_schedule(schedule), IntegratorConfig(dt)
    assert np.isfinite(list(evaluate("W", s, cfg).outputs.values())).all()
    grid = sweep("fig2", 5, s, cfg)
    assert grid.outputs.shape == (5, 5, 4)
    assert np.isfinite(grid.outputs).all()
    pair = TrainingPair(resolve_state("W"), {"AB": 0.5, "ABC": 0.5})
    exact = backprop_gradient(pair, s, cfg)
    numeric = fd_gradient(pair, s, cfg)
    # the CLI grad-check's rule
    assert (np.abs(exact - numeric) <= 1e-6 * np.abs(numeric) + 1e-9).all()
    for dataset in ("set1", "set2"):
        assert np.isfinite(rms_error(dataset, s, cfg))
    assert np.isfinite(list(calibrate(s, cfg).scores.values())).all()


@pytest.mark.parametrize("state, dt", [
    ("W", 0.01),  # 30 000 steps: 8.0e-13 from dt 0.05
    # 75 ns at dt 0.000075 is 10^6 steps a chunk, MAX_STEPS_PER_CHUNK:
    # 1.8e-10 from dt 0.05
    ("GHZ_minus", 0.000075),
])
def test_a_finer_step_agrees_with_the_default(state, dt):
    s = bundled_schedule("trained_set2")
    coarse = evaluate(state, s, IntegratorConfig(0.05)).outputs
    fine = evaluate(state, s, IntegratorConfig(dt)).outputs
    assert fine.keys() == coarse.keys() and len(fine) == 4
    assert max(abs(fine[k] - coarse[k]) for k in coarse) <= 1e-9
