"""Fixed-step RK4 integration of the density-matrix equation of motion.

drho/dt = -i [H/hbar, rho]

Steps never straddle a chunk boundary (chunk_duration/dt must be an
integer), so every step sees a constant H and each 75 ns sub-integration
is autonomous. The state is re-Hermitized after every step; the trace is
deliberately NOT renormalized, so trace drift stays visible as a
correctness signal.

evolve and evolve_batch_h share one stepping loop, which refuses a dt past
RK4's stability limit, holds the RK4 stage arithmetic and broadcasts over
leading batch axes of rho (and of h, when given a matching stack), so
parameter scans and finite-difference sweeps run as one batch. A recorded
trajectory keeps only the states at the step boundaries: the reference
adjoint recomputes each step's RK4 stages from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .hamiltonian import Schedule
from .ops import dagger

DEFAULT_DT_NS = 0.05
RK4_STABLE_THETA = 2 * math.sqrt(2)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = DEFAULT_DT_NS

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(
                f"dt must be a positive finite number of ns, got {self.dt}")

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
    """Recorded states at every step boundary, t = 0 through t_f."""

    states: np.ndarray


def check_stable(w, dt: float) -> None:
    """Refuse a dt past RK4's stability limit in any chunk; w holds each
    chunk's ascending eigenvalues, shape (n_chunks, ..., 8). A step scales
    rho's eigen-component (j, k) by P(-i dt (w_j - w_k)), and |P(i theta)|^2
    = 1 - theta^6/72 + theta^8/576 exceeds 1 exactly when |theta| > 2 sqrt(2)
    (Hairer & Wanner, Solving ODEs II, IV.2)."""
    spread = w[..., -1] - w[..., 0]
    if dt * spread.max(initial=0.0) <= RK4_STABLE_THETA:
        return
    for k, gap in enumerate(spread.reshape(len(spread), -1).max(axis=1)):
        if not dt * gap <= RK4_STABLE_THETA:
            raise DivergenceError(
                f"chunk {k}: dt {dt} ns is past RK4's stability limit "
                f"(dt*(w_max - w_min) = {dt * gap:.4g} > 2*sqrt(2)); the "
                f"largest stable dt is {RK4_STABLE_THETA / gap:.4g} ns")


def rhs(h_over_hbar: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-i [H/hbar, rho]; Hermitian whenever rho is."""
    return -1j * (h_over_hbar @ rho - rho @ h_over_hbar)


def _rehermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + dagger(rho))


def _stepped(rho, hs, dt, steps_per_chunk, states=None):
    """steps_per_chunk re-Hermitized RK4 steps under each H of hs in turn;
    step n's result goes to states[n + 1] when states is given.

    The stages are computed here rather than in a per-step call so that
    k1..k4 stay bound until the next step replaces them. Freeing all four
    at every step boundary lets the C allocator return large-batch
    buffers to the OS and fault them in again on the next step, which
    makes batched sweeps measurably slower.
    """
    check_stable(np.linalg.eigvalsh(np.asarray(hs)), dt)
    n = 0
    for h in np.asarray(hs, dtype=complex):  # one cast, not one per product
        for _ in range(steps_per_chunk):
            k1 = rhs(h, rho)
            k2 = rhs(h, rho + (dt / 2) * k1)
            k3 = rhs(h, rho + (dt / 2) * k2)
            k4 = rhs(h, rho + dt * k3)
            rho = _rehermitize(rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
            n += 1
            if states is not None:
                states[n] = rho
    return rho


def evolve(rho0, s: Schedule, cfg: IntegratorConfig = IntegratorConfig(),
           record: bool = False):
    """Propagate rho0 through the whole schedule.

    Returns (rho_f, Trajectory or None). rho0 may carry leading batch
    axes; callers must pass Hermitian, trace-1, positive semidefinite
    density matrices, which this hot path does not check. Recording stores
    every step boundary, which is all the reference adjoint in learning.py
    needs.
    """
    rho = np.asarray(rho0, dtype=complex)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    hs = s.hamiltonians()
    if not record:
        return _stepped(rho, hs, cfg.dt, steps), None
    total = steps * s.n_chunks
    states = np.empty((total + 1,) + rho.shape, dtype=complex)
    states[0] = rho
    rho = _stepped(rho, hs, cfg.dt, steps, states)
    return rho, Trajectory(states)


def evolve_batch_h(rho0: np.ndarray, hs: np.ndarray, dt: float,
                   steps_per_chunk: int) -> np.ndarray:
    """Forward-only evolution where every batch element has its own H.

    hs has shape (n_chunks, ...batch, 8, 8) matching rho0's batch axes.
    Used by the finite-difference gradient, which perturbs one schedule
    entry per batch element.
    """
    return _stepped(np.asarray(rho0, dtype=complex), hs, dt, steps_per_chunk)


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
