import math
import re

import numpy as np
import pytest
from conftest import classical_rk4, densities, pure_kets, random_schedule
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness import propagate
from qnnwitness.errors import DivergenceError, NonFinite
from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule, bundled_schedule
from qnnwitness.learning import load_dataset
from qnnwitness.propagate import (
    DEFAULT_DT_NS,
    MAX_STEPS_PER_CHUNK,
    RK4_STABLE_THETA,
    IntegratorConfig,
    _TIMES_1,
    _TIMES_I,
    _right_factor,
    _stepped,
    check_stable,
    evolve,
    evolve_batch_h,
    evolve_expm,
)
from qnnwitness.ops import dagger
from qnnwitness.states import CATALOG_NAMES, FAMILIES, catalog, mix
from qnnwitness.superop import _quartic
from qnnwitness.witness import evaluate_many

EPS = np.finfo(float).eps

SET1 = bundled_schedule("set1")
TRAINED_SET2 = bundled_schedule("trained_set2")
BELL = mix(catalog("Bell_AB"))
# the 25 fixed catalog states, one batch
CATALOG_BATCH = np.stack([mix(catalog(n)) for n in CATALOG_NAMES
                          if n not in FAMILIES])


def test_config_validates_step():
    assert IntegratorConfig(0.25).steps_per_chunk(75.0) == 300
    assert IntegratorConfig().dt == DEFAULT_DT_NS
    with pytest.raises(ValueError):
        IntegratorConfig(0.4).steps_per_chunk(75.0)  # 187.5 steps
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive finite"):
            IntegratorConfig(dt)
    # 1e308 / 0.01 overflows to inf, which round() cannot take
    with pytest.raises(ValueError, match=r"chunk duration 1e\+308 ns over "
                       r"dt = 0\.01 ns is not a finite number of steps"):
        IntegratorConfig(0.01).steps_per_chunk(1e308)
    # a finite but huge step count would step for ever; the limit itself
    # is accepted
    assert IntegratorConfig(0.01).steps_per_chunk(1e4) == MAX_STEPS_PER_CHUNK
    for duration in ("10000.01", "1e+300"):
        with pytest.raises(ValueError, match=(
                f"chunk duration {re.escape(duration)} ns over dt = 0\\.01 "
                f"ns is more than the limit of 1000000 steps per chunk")):
            IntegratorConfig(0.01).steps_per_chunk(float(duration))


def test_single_qubit_drive_matches_rabi_formula():
    """A lone transverse term rotates the driven qubit at omega = u*K, so
    the excited population follows sin^2(omega t) exactly."""
    k_mhz = 3.0
    chunks = np.zeros((1, 9))
    chunks[0, 0] = k_mhz
    s = Schedule(chunks, 75.0, PLAIN)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    rho_f, traj = evolve(rho0, s, IntegratorConfig(0.25), record=True)
    omega = PLAIN.omega_per_MHz * k_mhz
    times = 0.25 * np.arange(len(traj.states))
    for t, rho in zip(times[::40], traj.states[::40]):
        assert rho[4, 4].real == pytest.approx(np.sin(omega * t) ** 2,
                                               abs=1e-9)


def test_evolution_matches_matrix_exponential():
    rho_rk4, _ = evolve(BELL, SET1, IntegratorConfig(0.05))
    rho_exact = evolve_expm(BELL, SET1)
    assert np.abs(rho_rk4 - rho_exact).max() < 1e-8


def test_trace_and_hermiticity_preserved():
    rho_f, traj = evolve(BELL, SET1, IntegratorConfig(0.25), record=True)
    assert abs(np.trace(rho_f).real - 1.0) < 1e-9
    assert np.abs(rho_f - rho_f.conj().T).max() == 0.0
    traces = np.array([np.trace(r).real for r in traj.states])
    assert np.abs(traces - 1.0).max() < 1e-9


def test_purity_preserved_for_pure_input():
    rho_f, _ = evolve(BELL, SET1, IntegratorConfig(0.05))
    purity = np.trace(rho_f @ rho_f).real
    assert abs(purity - 1.0) < 1e-8


def test_energy_constant_within_each_chunk():
    s = random_schedule(13)
    hs = s.hamiltonians()
    cfg = IntegratorConfig(0.25)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    _, traj = evolve(BELL, s, cfg, record=True)
    for k in range(s.n_chunks):
        seg = traj.states[k * steps:(k + 1) * steps + 1]
        energies = np.array([np.trace(r @ hs[k]).real for r in seg])
        assert np.abs(energies - energies[0]).max() < 1e-10


def test_reversibility():
    s = random_schedule(14)
    backward = Schedule(-s.chunks[::-1], s.chunk_duration, s.convention)
    cfg = IntegratorConfig(0.25)
    mid, _ = evolve(BELL, s, cfg)
    back, _ = evolve(mid, backward, cfg)
    assert np.abs(back - BELL).max() < 1e-9


def test_step_size_self_convergence():
    coarse, _ = evolve(BELL, SET1, IntegratorConfig(0.25))
    fine, _ = evolve(BELL, SET1, IntegratorConfig(0.05))
    assert np.abs(coarse - fine).max() < 1e-8


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rk4_error_falls_sixteenfold_when_dt_halves(seed):
    """RK4 is fourth order: from dt 0.25 to 0.125 the stepped loop's
    distance from the exact exponential, 1e-8 to 1e-6 on uniform(-6, 6)
    MHz angular schedules and so far above round-off, falls by about
    2^4."""
    values = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(4, 9))
    s = Schedule(values, 75.0, ANGULAR)
    rhos = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_minus")])
    exact = evolve_expm(rhos, s)
    errors = []
    for dt in (0.25, 0.125):
        stepped, _ = evolve(rhos, s, IntegratorConfig(dt))
        errors.append(np.abs(stepped - exact).max())
    assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_evolve_is_batch_transparent():
    rhos = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_plus")])
    batch, _ = evolve(rhos, SET1, IntegratorConfig(0.25))
    for i in range(3):
        single, _ = evolve(rhos[i], SET1, IntegratorConfig(0.25))
        assert np.abs(batch[i] - single).max() < 1e-14


def random_hamiltonians(n, seed):
    """n real symmetric 8 x 8 matrices drawn from their own seed."""
    g = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 8, 8))
    return g + g.swapaxes(-1, -2)


def test_stepped_states_are_exactly_hermitian():
    cfg = IntegratorConfig(0.25)
    rho_f, traj = evolve(CATALOG_BATCH, SET1, cfg, record=True)
    assert np.array_equal(rho_f, dagger(rho_f))
    assert np.array_equal(traj.states, dagger(traj.states))
    hs = SET1.hamiltonians()[:, None] + 0.1 * random_hamiltonians(
        len(CATALOG_BATCH), 15)
    out = evolve_batch_h(CATALOG_BATCH, hs, cfg.dt,
                         cfg.steps_per_chunk(SET1.chunk_duration))
    assert np.array_equal(out, dagger(out))


def test_one_product_stages_match_the_two_product_step():
    """Over one chunk at dt 0.25, the stacked product agrees with the
    classical two-product RK4 when every state has a different H, a case
    the rows of tests/routes.py, one H per chunk, cannot take."""
    dt, steps = 0.25, IntegratorConfig(0.25).steps_per_chunk(75.0)
    hs = SET1.hamiltonians()[0] + 0.5 * random_hamiltonians(
        len(CATALOG_BATCH), 16)
    stepped = evolve_batch_h(CATALOG_BATCH, hs[None], dt, steps)
    assert np.abs(stepped - classical_rk4(CATALOG_BATCH, hs, dt, steps)
                  ).max() < 1e-13


@pytest.mark.parametrize("unit", [_TIMES_1, _TIMES_I], ids=["one", "i"])
@pytest.mark.parametrize("shape", [(3, 5), (5, 8, 8)],
                         ids=["matrix", "stack"])
def test_right_factor_is_the_kronecker_product(unit, shape):
    """_right_factor fills kron(m, unit) in place, with the same products
    np.kron makes, for one matrix and for a stack; its float product is
    the complex product by m, or by i m."""
    rng = np.random.default_rng(29)
    m = rng.normal(size=shape)
    r = _right_factor(m, unit)
    assert np.array_equal(r, np.kron(m, unit))
    x = rng.normal(size=shape[:-2] + (4, shape[-2], 2)).view(complex)[..., 0]
    z = 1.0 if unit is _TIMES_1 else 1j
    assert np.allclose((x.view(float) @ r).view(complex), x @ (z * m),
                       rtol=0, atol=1e-13)


def one_product(x, m):
    """-i c [H, x] for Hermitian x and m = _right_factor(c H, _TIMES_I),
    built as _stepped builds it: B = x (i c H) is x's float view times m,
    one product over the whole batch when a single m serves it, and the
    result is B + B+."""
    xf = np.ascontiguousarray(x).view(float)
    if m.ndim == 2:
        b = (xf.reshape(-1, xf.shape[-1]) @ m).reshape(xf.shape)
    else:
        b = xf @ m
    b = b.view(complex)
    return b + dagger(b)


def flow_loop(rho, hs, dt, steps):
    """The stepped loop written from one_product, each step Horner's form
    rho + F_1 (rho + F_2 (rho + F_3 (rho + F_4 rho))) of the quartic, with
    F_j = (dt/j) F; returns every state from the Hermitized input on."""
    shape = np.broadcast_shapes(np.shape(rho), np.shape(hs)[1:])
    rho = np.broadcast_to(rho, shape)
    rho = 0.5 * (rho + dagger(rho))
    states = [rho]
    for h in hs:
        ms = [_right_factor((dt / j) * h, _TIMES_I) for j in (4, 3, 2, 1)]
        for _ in range(steps):
            x = rho
            for m in ms:
                x = rho + one_product(x, m)
            rho = x
            states.append(rho)
    return np.stack(states)


# two chunks of SET1; the last case gives each of 5 states its own H
STEPPED_CASES = [
    (BELL, SET1.hamiltonians()[:2]),
    (CATALOG_BATCH[:1], SET1.hamiltonians()[:2]),
    (CATALOG_BATCH[:13], SET1.hamiltonians()[:2]),
    (CATALOG_BATCH[:5],
     SET1.hamiltonians()[:2, None] + 0.1 * random_hamiltonians(5, 17)),
]


@pytest.mark.parametrize("rho, hs", STEPPED_CASES,
                         ids=["8x8", "1x8x8", "13x8x8", "stacked_h"])
@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_stepped_is_the_flow_loop_bit_for_bit(rho, hs, dt):
    """_stepped's prebuilt views and in-place stages change no operation
    and no order of a sum: with recording on and off it gives the same
    bits as the loop written from one_product, which forms each product
    as _stepped does."""
    steps = 3
    ref = flow_loop(rho, hs, dt, steps)
    assert np.array_equal(_stepped(rho, hs, dt, steps), ref[-1])
    states = np.empty_like(ref)
    assert np.array_equal(_stepped(rho, hs, dt, steps, states), ref[-1])
    assert np.array_equal(states, ref)


@pytest.mark.parametrize("rho, hs", STEPPED_CASES[1:3],
                         ids=["1x8x8", "13x8x8"])
def test_stepped_bits_do_not_depend_on_the_input_layout(rho, hs):
    c_order = _stepped(rho, hs, 0.25, 3)
    transposed = np.ascontiguousarray(rho.swapaxes(-1, -2)).swapaxes(-1, -2)
    for same in (np.asfortranarray(rho), transposed):
        assert not same.flags.c_contiguous
        assert np.array_equal(_stepped(same, hs, 0.25, 3), c_order)


def test_evolve_never_writes_into_its_input():
    cfg = IntegratorConfig(0.25)
    rho0 = CATALOG_BATCH.copy()
    rho0[0] += 1e-3 * (1 + 1j) * np.triu(np.ones((8, 8)), 1)  # not Hermitian
    before = rho0.copy()
    for record in (False, True):
        evolve(rho0, SET1, cfg, record=record)
        assert np.array_equal(rho0, before)
    # a read-only broadcast, like the one fd_gradient passes
    shared = np.broadcast_to(BELL, (3, 8, 8))
    single, _ = evolve(BELL, SET1, cfg)
    hs = np.repeat(SET1.hamiltonians()[:, None], 3, axis=1)
    for out in (evolve(shared, SET1, cfg)[0],
                evolve_batch_h(shared, hs, cfg.dt, cfg.steps_per_chunk(75.0))):
        assert np.abs(out - single).max() < 1e-13


@pytest.fixture
def stepped_rows(monkeypatch):
    """The number of states in each call evolve makes to _stepped."""
    rows, stepped = [], propagate._stepped

    def counting(rho, *args, **kwargs):
        rows.append(math.prod(np.shape(rho)[:-2]))
        return stepped(rho, *args, **kwargs)

    monkeypatch.setattr(propagate, "_stepped", counting)
    return rows


def direct(rho, s, dt):
    """The stepped loop on every state of rho, as evolve records it."""
    steps = IntegratorConfig(dt).steps_per_chunk(s.chunk_duration)
    return _stepped(rho, s.hamiltonians(), dt, steps)


FIG2_GRID = np.stack([mix(catalog("fig2", a, b))
                      for b in np.linspace(0, 1, 21)
                      for a in np.linspace(0, 1, 21)]).reshape(21, 21, 8, 8)
ONE_CHUNK = Schedule(bundled_schedule("trained_set2").chunks[:1])


def test_a_recorded_grid_is_stepped_as_it_is(stepped_rows):
    """A recorded fig2 grid is stepped as it is: its 21 x 21 states in one
    _stepped call, bit for bit the stepped loop, in the grid's shape and
    exactly Hermitian, with the last recorded state the result."""
    rho_f, traj = evolve(FIG2_GRID, ONE_CHUNK, IntegratorConfig(0.25),
                         record=True)
    assert stepped_rows == [441]
    assert np.array_equal(rho_f, direct(FIG2_GRID, ONE_CHUNK, 0.25))
    assert np.array_equal(rho_f, dagger(rho_f))
    assert traj.states.shape == (301,) + FIG2_GRID.shape
    assert np.array_equal(traj.states[-1], rho_f)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("hermitian", [False, True],
                         ids=["any", "hermitian"])
def test_the_coordinates_rebuild_the_hermitized_batch(real, hermitian):
    """On seeded random batches of 70, sum_i c_i _BASIS[i] is the
    Hermitized batch bit for bit, as a sum over the nonzero coordinates
    and as _matrices, the one real product with _BASIS's float view that
    evolve and fd_gradient take: each of its floats is one coordinate, or
    its negation, times 1. A
    complex batch uses all 64 coordinates and a real one only the 36 of
    its real symmetric part, in table order."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(70, 8, 8))
    if not real:
        x = x + 1j * rng.normal(size=(70, 8, 8))
    if hermitian:
        x = x + dagger(x)
    c = propagate._coordinates(x)
    used = np.flatnonzero(c.any(axis=0))
    assert np.array_equal(used, np.arange(36 if real else 64))
    hermitized = (x + dagger(x)) / 2
    assert np.array_equal(np.tensordot(c[:, used], propagate._BASIS[used], 1),
                          hermitized)
    assert np.array_equal(propagate._matrices(c), hermitized)


SET2_STATES = load_dataset("set2").arrays()[0]


@pytest.mark.parametrize("rho, s, bound", [
    (BELL, ONE_CHUNK, 1e-13), (CATALOG_BATCH[:1], ONE_CHUNK, 1e-13),
    (np.stack([mix(catalog(n))
               for n in ("Bell_AB", "flat_AC", "W", "GHZ_minus", "M")]),
     ONE_CHUNK, 1e-13),
    (SET2_STATES, ONE_CHUNK, 1e-13), (SET2_STATES, TRAINED_SET2, 1e-13),
    (FIG2_GRID, ONE_CHUNK, 1e-14)],
    ids=["8x8", "1x8x8", "gate_5", "set2_13", "set2_13_four_chunks",
         "fig2_grid_21x21"])
def test_evolve_steps_only_the_basis_once_a_chunk(stepped_rows, rho, s,
                                                  bound):
    """Without recording, no state of the batch is stepped: one _stepped
    step of the 64 basis matrices, which span every Hermitian state,
    builds each chunk's step matrix, and the batch's coordinates go
    through the chunk's steps as one product with their powered
    increment. The result is the stepped loop's to round-off, in the
    batch's shape and exactly Hermitian."""
    rho_f, _ = evolve(rho, s, IntegratorConfig(0.25))
    assert stepped_rows == [64] * s.n_chunks
    assert rho_f.shape == rho.shape
    assert np.abs(rho_f - direct(rho, s, 0.25)).max() < bound
    assert np.array_equal(rho_f, dagger(rho_f))


@pytest.mark.parametrize("convention", [PLAIN, ANGULAR],
                         ids=["plain", "angular"])
@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_the_step_matrix_is_one_stepped_step_of_the_basis(convention, dt):
    """Each chunk's step matrix, mapped back through _BASIS, is one
    _stepped step of the 64 basis matrices bit for bit: evolve's
    powering takes RK4's step arithmetic from _stepped alone."""
    s = Schedule(bundled_schedule("trained_set1").chunks, 75.0, convention)
    basis = propagate._BASIS.reshape(64, 64).view(float)
    for h in s.hamiltonians():
        x = propagate._step_matrix(h, dt) @ basis
        assert np.array_equal(x.view(complex).reshape(64, 8, 8),
                              _stepped(propagate._BASIS, (h,), dt, 1))


@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_the_powered_increment_is_the_walk_of_the_step_matrix(dt):
    """For every step count n from 1 to 40, and at 300, 1 500 and 7 500
    (other bit patterns), I + _power_increment(D, n) is n products with a
    trained_set1 chunk's step matrix S = I + D to round-off: a few ulp a
    product, the walk's own. At n = 1 it is D bit for bit."""
    h = bundled_schedule("trained_set1").hamiltonians()[0]
    s = propagate._step_matrix(h, dt)
    d = s - np.eye(64)
    assert np.array_equal(propagate._power_increment(d, 1), d)
    walked = np.eye(64)
    for n in range(1, 7501):
        walked = walked @ s
        if n <= 40 or n in (300, 1500, 7500):
            powered = np.eye(64) + propagate._power_increment(d, n)
            assert np.abs(powered - walked).max() < 4 * EPS * n


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 80), st.sets(st.integers(0, 7), min_size=1),
       st.booleans(), st.sampled_from([PLAIN, ANGULAR]),
       st.integers(0, 2 ** 32 - 1))
def test_evolve_keeps_every_state_hermitian_and_lets_a_nan_through(
        kets, support, complex_amplitudes, convention, seed):
    """Kets on a random subset of the basis, real or complex, in batches on
    both sides of the 64 coordinates: evolve's states are exactly
    Hermitian, and a NaN in one state still reaches the readout."""
    rho = densities(pure_kets(kets, sorted(support), complex_amplitudes,
                              seed))
    s = Schedule(bundled_schedule("trained_set1").chunks[:1], 75.0,
                 convention)
    rho_f, _ = evolve(rho, s, IntegratorConfig(0.25))
    assert np.array_equal(rho_f, dagger(rho_f))
    rho[seed % kets, 0, 0] = np.nan
    with pytest.raises(NonFinite):
        evaluate_many(rho, s, IntegratorConfig(0.25))


def test_recorded_states_are_not_aliased():
    rho0 = CATALOG_BATCH[:2].copy()
    rho_f, traj = evolve(rho0, SET1, IntegratorConfig(0.25), record=True)
    assert not np.shares_memory(rho_f, traj.states)
    assert not np.shares_memory(rho0, traj.states)
    rows = list(traj.states)
    assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:]))
    final = traj.states[-1].copy()
    rho_f += 1.0
    assert np.array_equal(traj.states[-1], final)


def test_rk4_step_accuracy_against_exact_rotation():
    h = SET1.hamiltonians()[0]
    w, v = np.linalg.eigh(h)
    dt = 0.05
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    exact = u @ BELL @ u.conj().T
    stepped = _stepped(BELL, (h,), dt, 1)
    assert np.abs(stepped - exact).max() < 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("theta", [0.05, 0.5, 1.5, RK4_STABLE_THETA])
def test_a_step_multiplies_each_eigen_component_by_the_quartic(seed, theta):
    """In H's eigenbasis V, one step scales rho's component (j, k) by
    P(-i dt (w_j - w_k)), the factor check_stable and the superop engine
    read: V^T step(rho) V = _quartic(dt (w_j - w_k)) o V^T rho V, at
    dt (w_max - w_min) = theta up to the stability limit."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=(8, 8))
    h = g + g.T
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    w, v = np.linalg.eigh(h)
    dt = theta / (w[-1] - w[0])
    factor = _quartic(dt * (w[:, None] - w[None, :]))
    got = v.T @ _stepped(rho, (h,), dt, 1) @ v
    assert np.abs(got - factor * (v.T @ rho @ v)).max() < 4e-15


def test_trajectory_recording():
    cfg = IntegratorConfig(0.25)
    rho_f, traj = evolve(BELL, SET1, cfg, record=True)
    n_steps = 4 * cfg.steps_per_chunk(75.0)
    assert traj.states.shape == (n_steps + 1, 8, 8)
    assert np.array_equal(traj.states[0], BELL)
    assert np.array_equal(traj.states[-1], rho_f)


def test_recorded_states_are_rk4_steps():
    """Each recorded state is the RK4 step of the one before it, under the
    Hamiltonian of the chunk that step lies in."""
    cfg = IntegratorConfig(0.25)
    steps = cfg.steps_per_chunk(75.0)
    _, traj = evolve(BELL, SET1, cfg, record=True)
    hs = SET1.hamiltonians()
    for n in (0, 1, steps - 1, steps, 4 * steps - 1):
        assert np.array_equal(traj.states[n + 1],
                              _stepped(traj.states[n], (hs[n // steps],),
                                       cfg.dt, 1))


@pytest.mark.parametrize("n", [1, 7])
def test_rk4_step_adjoint_is_the_step_under_minus_h(n):
    """<A, T^n B> = <T'^n A, B> for T one RK4 step under H and T' one
    under -H: the identity the reference adjoint steps its state back by."""
    rng = np.random.default_rng(18)
    g = rng.normal(size=(8, 8))
    h = g + g.T
    a, b = (m + m.conj().T for m in (rng.normal(size=(2, 8, 8))
                                     + 1j * rng.normal(size=(2, 8, 8))))
    forward, backward, same_sign = b, a, a
    for _ in range(n):
        forward = _stepped(forward, (h,), 0.1, 1)
        backward = _stepped(backward, (-h,), 0.1, 1)
        same_sign = _stepped(same_sign, (h,), 0.1, 1)
    lhs = np.trace(a @ forward).real
    assert lhs == pytest.approx(np.trace(backward @ b).real, abs=1e-12)
    assert abs(lhs - np.trace(same_sign @ b).real) > 1e-3


def one_call_gradient(states, seed, hs, dt):
    """The reference adjoint as one _stepped call through every chunk,
    recording the whole adjoint trajectory before any chain runs."""
    xs = states[:-1].reshape(len(hs), -1, 8, 8)
    lams = np.empty_like(states)
    _stepped(seed, -hs[::-1], dt, xs.shape[1], lams[::-1])
    y2, y3, y4, b = np.empty((4,) + xs.shape[1:], dtype=complex)
    work = b.view(float).reshape(-1, 16), b, b.swapaxes(-1, -2)
    cs = np.empty((len(hs), 8, 8), dtype=complex)
    for k, (h, x, a) in enumerate(zip(hs, xs, lams[1:].reshape(xs.shape))):
        m1, m2, m3, m4 = propagate._stage_factors(h, dt)
        for u, m, y in ((x, m4, y4), (y4, m3, y3), (y3, m2, y2)):
            propagate._flow(u.view(float).reshape(-1, 16), m, work, y)
            y += x
        cs[k] = dt * np.tensordot(y2, a, ((0, 2), (0, 1)))
        for j, m, u in ((2, m1, y3), (3, m2, y4), (4, m3, x)):
            propagate._flow(a.view(float).reshape(-1, 16), -m, work, a)
            cs[k] += (dt / j) * np.tensordot(u, a, ((0, 2), (0, 1)))
    return 2 * cs.imag


@pytest.mark.parametrize("dt", [0.25, 0.05])
def test_the_adjoint_walks_back_chunk_by_chunk_bit_for_bit(dt):
    """Walking the adjoint state back one chunk at a time, each chunk from
    the last one's boundary state, gives the one-call walk's gradient bit
    for bit, on random schedules and on trained_set2."""
    rng = np.random.default_rng(31)
    cfg = IntegratorConfig(dt)
    for name, s in (
            ("Bell_AB", Schedule(rng.uniform(-6.0, 6.0, size=(4, 9)))),
            ("W", TRAINED_SET2)):
        _, traj = evolve(mix(catalog(name)), s, cfg, record=True)
        seed = rng.normal(size=(8, 8))
        seed = seed + seed.T
        hs = s.hamiltonians()
        assert np.array_equal(
            propagate._stepped_gradient(traj.states, seed, hs, dt),
            one_call_gradient(traj.states, seed, hs, dt))


def test_stability_limit_is_where_a_step_starts_to_grow():
    """|P(i theta)| of one RK4 step is 1 at theta = 2*sqrt(2), below it
    just under and above it just over; check_stable accepts the limit
    itself and names the first chunk past it, over any batch axes."""
    theta = RK4_STABLE_THETA
    assert abs(_quartic(-theta)) == pytest.approx(1.0, abs=1e-14)
    assert abs(_quartic(-theta * 0.99)) < 1.0 < abs(_quartic(-theta * 1.01))
    w = np.zeros((3, 8))
    w[:, -1] = [1.0, theta, 4.0]
    check_stable(w[:2], 1.0)
    for stack in (w, np.stack([w, 0.5 * w], axis=1)):
        with pytest.raises(DivergenceError, match=r"chunk 2: dt 1\.0 ns .* "
                           r"largest stable dt is 0\.7071 ns"):
            check_stable(stack, 1.0)
