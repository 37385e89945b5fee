"""The eigenbasis chunk maps used by training must agree with the direct
integrator and with the stage-level reverse pass; both comparisons stay in
the suite so neither route can silently drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule, bundled_schedule
from qnnwitness.learning import (
    IntegratorConfig,
    backprop_gradient,
    load_dataset,
    rms_error,
)
from qnnwitness.ops import readout
from qnnwitness.propagate import evolve, evolve_expm, rhs
from qnnwitness.states import catalog, mix
from qnnwitness.superop import (
    _geometric_sum,
    chunk_operators,
    dataset_loss_grad,
    propagate_vec,
)

RNG = np.random.default_rng(17)


def classical_rk4_step(rho, h, dt):
    """One RK4 step of rho' = -i[h, rho] on any 8 x 8 matrix, by the
    general two-product rhs; the package's stepped routes take one product
    per stage, which holds for Hermitian matrices only."""
    k1 = rhs(h, rho)
    k2 = rhs(h, rho + (dt / 2) * k1)
    k3 = rhs(h, rho + (dt / 2) * k2)
    k4 = rhs(h, rho + dt * k3)
    return rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def test_chunk_map_reproduces_rk4():
    """One chunk's map V (t^n o V^T rho V) V^T is n classical RK4 steps,
    also on a non-Hermitian matrix, on a step large enough that RK4
    visibly differs from exp."""
    values = RNG.uniform(-6.0, 6.0, size=(1, 9))
    s = Schedule(values, 75.0, ANGULAR)
    dt, n = 1.5, 50
    h = s.hamiltonians()[0]
    rho = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    (v, _, _, tn), steps = chunk_operators(s, dt)
    assert steps == n
    via_map = v[0] @ (tn[0] * (v[0].T @ rho @ v[0])) @ v[0].T
    stepped = rho
    for _ in range(n):
        stepped = classical_rk4_step(stepped, h, dt)
    assert np.abs(via_map - stepped).max() < 1e-12
    assert np.abs(via_map - evolve_expm(rho, s)).max() > 1e-8


@pytest.mark.parametrize("n", [1, 2, 13, 300])
def test_geometric_sum(n):
    """_geometric_sum(x, y, n) is sum_m x^m y^(n-1-m), also where x == y
    or |x - y| = 1e-12, where (x^n - y^n)/(x - y) would cancel."""
    x = np.exp(1j * RNG.uniform(-0.5, 0.5, size=6)) * RNG.uniform(0.9, 1.0, size=6)
    y = np.concatenate([x[:2], x[2:4] + 1e-12, RNG.normal(size=2) * 0.5])
    ref = np.array([sum(a ** m * b ** (n - 1 - m) for m in range(n))
                    for a, b in zip(x, y)])
    got = _geometric_sum(x, y, n)
    assert np.abs(got - ref).max() < np.abs(ref).max() * 1e-12
    assert np.abs(got[:2] - n * x[:2] ** (n - 1)).max() < n * 1e-12


def summed_stagewise(ds, s, cfg):
    """Loss from the stepped rms_error, gradient summed over per-pair
    stage-level reverse passes."""
    n_out = sum(len(p.targets) for p in ds.pairs)
    energy = 0.5 * n_out * rms_error(ds, s, cfg) ** 2
    grad = sum(backprop_gradient(pair, s, cfg) for pair in ds.pairs)
    return energy, grad


# schedules whose chunk Hamiltonians have degenerate spectra
DEGENERATE = {
    "zero": np.zeros(9),
    "eps_only": [0, 0, 0, 4.0, 4.0, -2.0, 0, 0, 0],
    "equal_K": [3.0, 3.0, 3.0, 0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_spectra_agree_with_stagewise_route(name):
    s = Schedule(np.tile(DEGENERATE[name], (2, 1)), 75.0, PLAIN)
    w = np.linalg.eigvalsh(s.hamiltonians()[0])
    assert np.min(np.diff(w)) < 1e-12
    ds = load_dataset("set1")
    rhos, targets, mask = ds.arrays()
    cfg = IntegratorConfig(0.25)
    energy, grad, _ = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    ref_energy, ref_grad = summed_stagewise(ds, s, cfg)
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max() + 1e-15


def test_propagate_vec_matches_direct_integration():
    s = bundled_schedule("set1")
    names = ("Bell_AB", "W", "GHZ_minus")
    rhos = np.stack([mix(catalog(n)) for n in names])
    mats, _ = propagate_vec(rhos, s, 0.25)
    direct, _ = evolve(rhos, s, IntegratorConfig(0.25))
    final = mats[-1]  # batch x 8 x 8
    for i in range(len(names)):
        assert np.abs(final[i] - direct[i]).max() < 1e-12


@pytest.mark.parametrize("dt", [0.4, 0.07])
def test_engine_refuses_a_step_that_does_not_divide_the_chunk(dt):
    """75 ns is 187.5 steps of 0.4 ns and 1071.4 of 0.07 ns; a rounded
    step count would integrate 75.2 ns or 74.97 ns per chunk and return a
    plausible answer."""
    s = bundled_schedule("set1")
    rhos, targets, mask = load_dataset("set1").arrays()
    with pytest.raises(ValueError, match="integer multiple"):
        propagate_vec(rhos, s, dt)
    with pytest.raises(ValueError, match="integer multiple"):
        dataset_loss_grad(rhos, targets, mask, s, dt)


def test_outputs_match_squared_expectations():
    """The training route's outputs, read by ops.loss_terms from the
    eigenbasis engine's final states, must equal the squared readout of
    the stepped route."""
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

    ref_energy, ref_grad = summed_stagewise(ds, s, IntegratorConfig(0.25))
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    scale = np.maximum(np.abs(ref_grad), 1e-12)
    assert (np.abs(grad - ref_grad) / scale).max() < 1e-9
    assert outputs.shape == (len(ds.pairs), 4)


def test_dataset_loss_grad_dt_invariance():
    # P(dt F)^(75/dt) depends on dt, but RK4's error per step is
    # O((dt dw)^5), dw the largest eigenvalue gap of a chunk Hamiltonian,
    # and dt dw is below 0.004 on set1 at dt 0.25, so halving dt must
    # leave loss and gradient essentially unchanged
    s = bundled_schedule("set1")
    rhos, targets, mask = load_dataset("set1").arrays()
    e1, g1, _ = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    e2, g2, _ = dataset_loss_grad(rhos, targets, mask, s, 0.125)
    assert e1 == pytest.approx(e2, rel=1e-9)
    assert np.abs(g1 - g2).max() < 1e-9


@settings(max_examples=4, deadline=None)
@given(arrays(float, (4, 9), elements=st.floats(-6.0, 6.0)))
def test_random_schedules_agree_with_stepped_routes(values):
    s = Schedule(values, 75.0, PLAIN)
    ds = load_dataset("set1")
    rhos, targets, mask = ds.arrays()
    cfg = IntegratorConfig(0.25)
    energy, grad, outputs = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    rho_f, _ = evolve(rhos, s, cfg)
    assert np.abs(outputs - readout(rho_f) ** 2).max() < 1e-12
    ref_energy, ref_grad = summed_stagewise(ds, s, cfg)
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max()
