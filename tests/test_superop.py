"""The eigenbasis engine's own structure: its chunk map, its powering walk,
what its states keep and what it refuses; and, on set1's pairs at the
bundled chunk length, its outputs, energy and gradient against the stepped
routes. Its final states and gradient are also rows of tests/routes.py."""

import numpy as np
import pytest
from conftest import DEGENERATE, classical_rk4, densities, pure_kets
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule, bundled_schedule
from qnnwitness.learning import (
    IntegratorConfig,
    backprop_gradient,
    load_dataset,
    rms_error,
)
from qnnwitness.ops import dagger, readout
from qnnwitness.propagate import evolve, evolve_expm
from qnnwitness.states import catalog, mix
from qnnwitness.superop import (
    _PAIR,
    _geometric_sum,
    chunk_operators,
    dataset_loss_grad,
    propagate_vec,
)

RNG = np.random.default_rng(17)


def test_chunk_map_reproduces_rk4():
    """One chunk's map V (t^n o V^T rho V) V^T is n classical RK4 steps,
    also on a non-Hermitian matrix, on a step large enough that RK4
    visibly differs from exp."""
    values = RNG.uniform(-6.0, 6.0, size=(1, 9))
    s = Schedule(values, 75.0, ANGULAR)
    dt, n = 1.5, 50
    h = s.hamiltonians()[0]
    rho = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
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
    x = np.exp(1j * RNG.uniform(-0.5, 0.5, size=4)) * RNG.uniform(0.9, 1.0, size=4)
    t = np.concatenate([x[:1], x[:1], x[1:2], x[1:2] + 1e-12, x[2:],
                        RNG.normal(size=2) * 0.5])
    got, tn = _geometric_sum(t, n)
    assert got.shape == (36,)
    ref = np.array([[sum(a ** m * b ** (n - 1 - m) for m in range(n))
                     for b in t] for a in t])
    assert np.abs(got[_PAIR] - ref).max() < np.abs(ref).max() * 1e-12
    for j, l in [(0, 1), (5, 5)]:
        assert abs(got[_PAIR[j, l]] - n * t[j] ** (n - 1)) < n * 1e-12
    assert np.abs(tn - t ** n).max() < np.abs(t ** n).max() * 1e-12


def summed_stagewise(ds, s, cfg):
    """Loss from the stepped rms_error, gradient summed over per-pair
    stage-level reverse passes."""
    n_out = sum(len(p.targets) for p in ds.pairs)
    energy = 0.5 * n_out * rms_error(ds, s, cfg) ** 2
    grad = sum(backprop_gradient(pair, s, cfg) for pair in ds.pairs)
    return energy, grad


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


@settings(max_examples=4, deadline=None)
@given(schedules)
@example(Schedule(np.array([DEGENERATE["eps_only"]]), 75.0, ANGULAR))
def test_walks_of_one_to_four_chunks_agree_with_stagewise_route(s):
    """The crossing walk, forward and back, at every length the schedules
    take. With one chunk the walk back from the seed has no inner
    crossing: its only step is the seed's crossing into the chunk's
    eigenbasis."""
    ds = load_dataset("set1")
    rhos, targets, mask = ds.arrays()
    energy, grad, _ = dataset_loss_grad(rhos, targets, mask, s, 0.25)
    ref_energy, ref_grad = summed_stagewise(ds, s, IntegratorConfig(0.25))
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max() + 1e-15


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
    """The per-chunk eigenbasis states, rotated back to the lab frame, are
    the stepped loop's states at every chunk boundary, and the final
    state is its last."""
    rhos = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_minus")])
    for name in ("set1", "trained_set2"):
        s = bundled_schedule(name)
        for dt in (0.25, 0.05):
            states, final, ((v, *_), steps) = propagate_vec(rhos, s, dt)
            _, traj = evolve(rhos, s, IntegratorConfig(dt), record=True)
            lab = v[:, None] @ states @ v.transpose(0, 2, 1)[:, None]
            assert np.abs(lab - traj.states[:-1:steps]).max() < 1e-12
            assert np.abs(final - traj.states[-1]).max() < 1e-12


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
