"""The vectorized one-step map used by training must agree with the direct
integrator and with the stage-level reverse pass; both comparisons stay in
the suite so neither route can silently drift."""

import numpy as np
import pytest

from qnnwitness.hamiltonian import PLAIN, Schedule, bundled_schedule
from qnnwitness.learning import (
    IntegratorConfig,
    TrainingPair,
    backprop_gradient,
    load_dataset,
    loss,
)
from qnnwitness.ops import readout
from qnnwitness.propagate import evolve, rk4_step
from qnnwitness.states import catalog, mix
from qnnwitness.superop import (
    _pow,
    _pow_with_weight,
    dataset_loss_grad,
    propagate_vec,
    step_operator,
)

RNG = np.random.default_rng(17)


def random_h():
    v = RNG.uniform(-6.0, 6.0, size=9)
    from qnnwitness.hamiltonian import build_hamiltonian
    return build_hamiltonian(v, PLAIN)


def test_step_operator_reproduces_rk4():
    h = random_h()
    rho = mix(catalog("W"))
    t, *_ = step_operator(h, 0.25)
    via_map = (t @ rho.reshape(64)).reshape(8, 8)
    assert np.abs(via_map - rk4_step(rho, h, 0.25)).max() < 1e-14


def test_binary_powering():
    t = RNG.normal(size=(6, 6))
    ref = np.linalg.matrix_power(t, 13)
    assert np.abs(_pow(t, 13) - ref).max() < np.abs(ref).max() * 1e-12


def test_powering_with_directional_weight():
    """_pow_with_weight(T, C, n) must return sum_j T^j C T^(n-1-j), the
    derivative of T^n along dT = C."""
    t = RNG.normal(size=(5, 5)) * 0.3
    c = RNG.normal(size=(5, 5))
    n = 11
    tn, w = _pow_with_weight(t, c, n)
    assert np.abs(tn - np.linalg.matrix_power(t, n)).max() < 1e-12
    ref = sum(np.linalg.matrix_power(t, j) @ c @ np.linalg.matrix_power(t, n - 1 - j)
              for j in range(n))
    assert np.abs(w - ref).max() < np.abs(ref).max() * 1e-11


def test_propagate_vec_matches_direct_integration():
    s = bundled_schedule("set1")
    names = ("Bell_AB", "W", "GHZ_minus")
    rhos = np.stack([mix(catalog(n)) for n in names])
    mats, _ = propagate_vec(rhos, s, 0.25)
    direct, _ = evolve(rhos, s, IntegratorConfig(0.25))
    final = mats[-1]  # 64 x batch
    for i in range(len(names)):
        assert np.abs(final[:, i].reshape(8, 8) - direct[i]).max() < 1e-12


def test_outputs_match_squared_expectations():
    """The training route reads the diagonal rows of the vectorized state;
    its outputs must equal the squared readout of the stepped route."""
    s = bundled_schedule("trained_set1")
    ds = load_dataset("set1")
    rhos, targets, mask = ds.arrays()
    _, _, out = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    rho_f, _ = evolve(rhos, s, IntegratorConfig(0.25))
    assert np.abs(out - readout(rho_f) ** 2).max() < 1e-12
    bell_ab = next(i for i, p in enumerate(ds.pairs)
                   if p.state == catalog("Bell_AB"))
    assert out[bell_ab, 0] == pytest.approx(0.9954, abs=1e-3)


def test_dataset_loss_grad_agrees_with_stagewise_route():
    s = bundled_schedule("set1")
    ds = load_dataset("set1")
    rhos, targets, mask = ds.arrays()
    energy, grad, outputs = dataset_loss_grad(rhos, targets, mask, s, 0.25)

    cfg = IntegratorConfig(0.25)
    ref_energy = 0.0
    ref_grad = np.zeros(36)
    for pair in ds.pairs:
        ref_energy += loss(pair, s, cfg).loss
        ref_grad += backprop_gradient(pair, s, cfg)

    assert energy == pytest.approx(ref_energy, rel=1e-12)
    scale = np.maximum(np.abs(ref_grad), 1e-12)
    assert (np.abs(grad - ref_grad) / scale).max() < 1e-9
    assert outputs.shape == (len(ds.pairs), 4)


def test_dataset_loss_grad_dt_invariance():
    # the one-step map is the exact RK4 polynomial at any dt, so halving
    # dt must leave loss and gradient essentially unchanged
    s = bundled_schedule("set1")
    rhos, targets, mask = load_dataset("set1").arrays()
    e1, g1, _ = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    e2, g2, _ = dataset_loss_grad(rhos, targets, mask, s, 0.125)
    assert e1 == pytest.approx(e2, rel=1e-9)
    assert np.abs(g1 - g2).max() < 1e-9
