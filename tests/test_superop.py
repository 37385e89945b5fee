"""The eigenbasis engine's own structure: its chunk map, its powering walk,
what its states keep, what it refuses, and how its loss and gradient
move with dt. Its final states, and its loss, outputs and gradient, are
rows of tests/routes.py, held there to the textbook RK4 loop and its
tangent."""

import numpy as np
import pytest
from conftest import DEGENERATE, classical_rk4, densities, pure_kets
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule, bundled_schedule
from qnnwitness.learning import load_dataset
from qnnwitness.ops import dagger
from qnnwitness.propagate import evolve_expm
from qnnwitness.superop import (
    _PAIR,
    _geometric_sum,
    chunk_operators,
    dataset_loss_grad,
    propagate_vec,
)


def test_chunk_map_reproduces_rk4():
    """One chunk's map V (t^n o V^T rho V) V^T is n classical RK4 steps,
    also on a non-Hermitian matrix, on a step large enough that RK4
    visibly differs from exp."""
    rng = np.random.default_rng(17)
    values = rng.uniform(-6.0, 6.0, size=(1, 9))
    s = Schedule(values, 75.0, ANGULAR)
    dt, n = 1.5, 50
    h = s.hamiltonians()[0]
    rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    (v, _, _, tn, _), steps = chunk_operators(s, dt)
    assert steps == n
    via_map = v[0] @ (tn[0] * (v[0].T @ rho @ v[0])) @ v[0].T
    stepped = classical_rk4(rho, h, dt, n)
    assert np.abs(via_map - stepped).max() < 1e-12
    assert np.abs(via_map - evolve_expm(rho, s)).max() > 1e-8


@pytest.mark.parametrize("n", [1, 2, 13, 300])
def test_geometric_sum(n):
    """_geometric_sum(t, n) is sum_m x^m y^(n-1-m) over the pairs (x, y)
    = (t_j, t_l), j <= l, also where x == y or |x - y| = 1e-12, where
    (x^n - y^n)/(x - y) would cancel; and its walk's last power is t^n."""
    rng = np.random.default_rng(18)
    x = np.exp(1j * rng.uniform(-0.5, 0.5, size=4)) * rng.uniform(0.9, 1.0, size=4)
    t = np.concatenate([x[:1], x[:1], x[1:2], x[1:2] + 1e-12, x[2:],
                        rng.normal(size=2) * 0.5])
    got, tn = _geometric_sum(t, n)
    assert got.shape == (36,)
    ref = np.array([[sum(a ** m * b ** (n - 1 - m) for m in range(n))
                     for b in t] for a in t])
    assert np.abs(got[_PAIR] - ref).max() < np.abs(ref).max() * 1e-12
    for j, l in [(0, 1), (5, 5)]:
        assert abs(got[_PAIR[j, l]] - n * t[j] ** (n - 1)) < n * 1e-12
    assert np.abs(tn - t ** n).max() < np.abs(t ** n).max() * 1e-12


# uniform(-6, 6) chunks mixed with the degenerate ones, in either unit
# convention
chunk_rows = st.one_of(arrays(float, 9, elements=st.floats(-6.0, 6.0)),
                       st.sampled_from(sorted(DEGENERATE.values(), key=str)))
schedules = st.builds(
    lambda rows, convention: Schedule(np.array(rows, dtype=float), 75.0,
                                      convention),
    st.lists(chunk_rows, min_size=1, max_size=4),
    st.sampled_from([PLAIN, ANGULAR]))


def chunk_ends(s, dt, seed):
    """Each chunk's state at its start and at its end, in its eigenbasis;
    the state at its end in the lab frame, after the crossing (the next
    chunk's start rotated back, or the final state); the chunk's t^n."""
    states, final, ((v, _, _, tn, _), _) = propagate_vec(
        densities(pure_kets(3, range(8), True, seed)), s, dt)
    crossed = v[1:, None] @ states[1:] @ v[1:].transpose(0, 2, 1)[:, None]
    return (states, tn[:, None] * states,
            np.concatenate([crossed, final[None]]), tn)


@settings(max_examples=25, deadline=None)
@given(schedules, st.sampled_from([0.25, 0.05]), st.integers(0, 2 ** 32 - 1))
def test_engine_states_keep_trace_and_hermiticity(s, dt, seed):
    """Every state the engine holds, at a chunk's start and end and after
    each crossing, has trace 1 and is Hermitian."""
    starts, ends, crossed, _ = chunk_ends(s, dt, seed)
    for rho in (starts, ends, crossed):
        assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1).max() < 1e-12
        assert np.abs(rho - dagger(rho)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(schedules, st.sampled_from([0.25, 0.05]), st.integers(0, 2 ** 32 - 1))
def test_engine_conserves_each_chunks_energy(s, dt, seed):
    """tr(rho H_k) = sum_j w_kj rho~_jj is the same at chunk k's start and
    end, since the map multiplies the diagonal by P(0)^n = 1, and the
    crossing to the next chunk's eigenbasis keeps it."""
    starts, ends, crossed, _ = chunk_ends(s, dt, seed)
    hs = s.hamiltonians()
    w = np.linalg.eigvalsh(hs)
    energy = [np.einsum("cbjj,cj->cb", rho, w).real for rho in (starts, ends)]
    energy.append(np.einsum("cbjk,ckj->cb", crossed, hs).real)
    assert np.abs(energy[1] - energy[0]).max() < 1e-12
    assert np.abs(energy[2] - energy[0]).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(schedules, st.sampled_from([0.25, 0.05]), st.integers(0, 2 ** 32 - 1))
def test_engine_never_raises_the_purity_of_pure_inputs(s, dt, seed):
    """Purity is sum |rho~_jk|^2 in any eigenbasis, and inside RK4's
    stability limit every |t_jk^n| <= 1."""
    starts, ends, _, tn = chunk_ends(s, dt, seed)
    assert np.abs(tn).max() <= 1 + 1e-12
    purity = [(np.abs(rho) ** 2).sum(axis=(-2, -1)) for rho in (starts, ends)]
    assert np.abs(purity[0][0] - 1).max() < 1e-12
    assert (purity[1] <= purity[0] + 1e-12).all()
    assert (purity[0][1:] <= purity[1][:-1] + 1e-12).all()


def test_engine_only_reads_its_inputs():
    """propagate_vec and dataset_loss_grad never write through rhos,
    targets or mask. Dataset.arrays' stack is already contiguous complex,
    so np.ascontiguousarray hands the engine that very array, and an
    in-place first product would corrupt the training set between epochs
    while every output stayed plausible. On read-only inputs a write
    raises; two calls must also agree bit for bit and leave the inputs
    as they were."""
    rhos, targets, mask = load_dataset("set2").arrays()
    kept = [a.copy() for a in (rhos, targets, mask)]
    for a in (rhos, targets, mask):
        a.flags.writeable = False
    s = bundled_schedule("trained_set1")
    for dt in (0.25, 0.05):
        first, second = (propagate_vec(rhos, s, dt) for _ in range(2))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        first, second = (dataset_loss_grad(rhos, targets, mask, s, dt)
                         for _ in range(2))
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[2], second[2])
    for a, b in zip((rhos, targets, mask), kept):
        assert np.array_equal(a, b)


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
