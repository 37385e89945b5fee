import numpy as np
import pytest

from qnnwitness.hamiltonian import PLAIN, Schedule, bundled_schedule
from qnnwitness.propagate import (
    DEFAULT_DT_NS,
    IntegratorConfig,
    evolve,
    evolve_batch_h,
    evolve_expm,
    rk4_step,
)
from qnnwitness.states import catalog, mix

RNG = np.random.default_rng(13)

SET1 = bundled_schedule("set1")
BELL = mix(catalog("Bell_AB"))


def random_schedule(scale=6.0):
    return Schedule(RNG.uniform(-scale, scale, size=(4, 9)), 75.0, PLAIN)


def test_config_validates_step():
    assert IntegratorConfig(0.25).steps_per_chunk(75.0) == 300
    assert IntegratorConfig().dt == DEFAULT_DT_NS
    with pytest.raises(ValueError):
        IntegratorConfig(0.4).steps_per_chunk(75.0)  # 187.5 steps
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive finite"):
            IntegratorConfig(dt)


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
    for t, rho in zip(traj.times[::40], traj.states[::40]):
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
    s = random_schedule()
    hs = s.hamiltonians()
    cfg = IntegratorConfig(0.25)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    _, traj = evolve(BELL, s, cfg, record=True)
    for k in range(s.n_chunks):
        seg = traj.states[k * steps:(k + 1) * steps + 1]
        energies = np.array([np.trace(r @ hs[k]).real for r in seg])
        assert np.abs(energies - energies[0]).max() < 1e-10


def test_reversibility():
    s = random_schedule()
    backward = Schedule(-s.chunks[::-1], s.chunk_duration, s.convention)
    cfg = IntegratorConfig(0.25)
    mid, _ = evolve(BELL, s, cfg)
    back, _ = evolve(mid, backward, cfg)
    assert np.abs(back - BELL).max() < 1e-9


def test_step_size_self_convergence():
    coarse, _ = evolve(BELL, SET1, IntegratorConfig(0.25))
    fine, _ = evolve(BELL, SET1, IntegratorConfig(0.05))
    assert np.abs(coarse - fine).max() < 1e-8


def test_evolve_is_batch_transparent():
    rhos = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_plus")])
    batch, _ = evolve(rhos, SET1, IntegratorConfig(0.25))
    for i in range(3):
        single, _ = evolve(rhos[i], SET1, IntegratorConfig(0.25))
        assert np.abs(batch[i] - single).max() < 1e-14


def test_batched_per_element_hamiltonians():
    s = random_schedule()
    cfg = IntegratorConfig(0.25)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    hs = np.repeat(s.hamiltonians()[:, None], 2, axis=1)
    rho0 = np.broadcast_to(BELL, (2, 8, 8))
    out = evolve_batch_h(rho0, hs, cfg.dt, steps)
    ref, _ = evolve(BELL, s, cfg)
    assert np.abs(out - ref).max() < 1e-13


def test_rk4_step_accuracy_against_exact_rotation():
    h = SET1.hamiltonians()[0]
    w, v = np.linalg.eigh(h)
    dt = 0.05
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    exact = u @ BELL @ u.conj().T
    stepped = rk4_step(BELL, h, dt)
    assert np.abs(stepped - exact).max() < 1e-12


def test_trajectory_recording():
    cfg = IntegratorConfig(0.25)
    rho_f, traj = evolve(BELL, SET1, cfg, record=True)
    n_steps = 4 * cfg.steps_per_chunk(75.0)
    assert len(traj.times) == n_steps + 1
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(300.0)
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
                              rk4_step(traj.states[n], hs[n // steps], cfg.dt))
