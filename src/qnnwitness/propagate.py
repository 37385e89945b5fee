"""Fixed-step RK4 integration of the density-matrix equation of motion.

drho/dt = -i [H/hbar, rho]

Steps never straddle a chunk boundary (chunk_duration/dt must be an
integer), so every step sees a constant H and each 75 ns sub-integration
is autonomous. The state is re-Hermitized after every step; the trace is
deliberately NOT renormalized, so trace drift stays visible as a
correctness signal.

All stepping routines broadcast over leading batch axes of rho (and of h,
when given a matching stack), which keeps parameter scans and
finite-difference sweeps cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hamiltonian import Schedule
from .ops import dagger

DEFAULT_DT_NS = 0.05


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = DEFAULT_DT_NS

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def steps_per_chunk(self, chunk_duration: float) -> int:
        ratio = chunk_duration / self.dt
        steps = round(ratio)
        if abs(ratio - steps) > 1e-9 or steps < 1:
            raise ValueError(
                f"chunk duration {chunk_duration} ns is not an integer "
                f"multiple of dt = {self.dt} ns")
        return steps


@dataclass
class Trajectory:
    """Recorded states at every step boundary, t = 0 through t_f.

    When stage recording is on, ``stages[n]`` holds the four RK4 slopes
    (k1..k4) of step n, which the discrete adjoint needs to be exact.
    """

    times: np.ndarray
    states: np.ndarray
    stages: Optional[np.ndarray] = None


def rhs(h_over_hbar: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-i [H/hbar, rho]; Hermitian whenever rho is."""
    return -1j * (h_over_hbar @ rho - rho @ h_over_hbar)


def _rk4_stages(rho, h, dt):
    k1 = rhs(h, rho)
    k2 = rhs(h, rho + (dt / 2) * k1)
    k3 = rhs(h, rho + (dt / 2) * k2)
    k4 = rhs(h, rho + dt * k3)
    return k1, k2, k3, k4


def rk4_step(rho: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step with H constant over the step."""
    k1, k2, k3, k4 = _rk4_stages(rho, h, dt)
    return rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rehermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + dagger(rho))


def evolve(rho0, s: Schedule, cfg: IntegratorConfig = IntegratorConfig(),
           record: bool = False, stages: bool = False):
    """Propagate rho0 through the whole schedule.

    Returns (rho_f, Trajectory or None). rho0 may carry leading batch
    axes. Recording stores every step boundary; stage recording
    additionally keeps the RK4 slopes for the adjoint pass.
    """
    rho = np.asarray(rho0, dtype=complex)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    hs = s.hamiltonians()
    total = steps * s.n_chunks

    times = states = stage_log = None
    if record:
        times = np.arange(total + 1) * cfg.dt
        states = np.empty((total + 1,) + rho.shape, dtype=complex)
        states[0] = rho
        if stages:
            stage_log = np.empty((total, 4) + rho.shape, dtype=complex)

    n = 0
    for h in hs:
        for _ in range(steps):
            k1, k2, k3, k4 = _rk4_stages(rho, h, cfg.dt)
            rho = _rehermitize(rho + (cfg.dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
            n += 1
            if record:
                states[n] = rho
                if stages:
                    stage_log[n - 1] = (k1, k2, k3, k4)
    traj = Trajectory(times, states, stage_log) if record else None
    return rho, traj


def evolve_batch_h(rho0: np.ndarray, hs: np.ndarray, dt: float,
                   steps_per_chunk: int) -> np.ndarray:
    """Forward-only evolution where every batch element has its own H.

    hs has shape (n_chunks, ...batch, 8, 8) matching rho0's batch axes.
    Used by the finite-difference gradient, which perturbs one schedule
    entry per batch element.
    """
    rho = np.asarray(rho0, dtype=complex)
    for h in hs:
        for _ in range(steps_per_chunk):
            rho = _rehermitize(rk4_step(rho, h, dt))
    return rho


def evolve_expm(rho0, s: Schedule) -> np.ndarray:
    """Exact per-chunk propagation U rho U+ with U = exp(-i H dt).

    Eigendecomposition of the real-symmetric H; serves as the oracle the
    RK4 path is tested against.
    """
    rho = np.asarray(rho0, dtype=complex)
    for h in s.hamiltonians():
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * s.chunk_duration)) @ v.conj().T
        rho = u @ rho @ u.conj().T
    return rho
