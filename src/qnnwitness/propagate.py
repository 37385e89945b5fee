"""Fixed-step RK4 integration of the density-matrix equation of motion.

drho/dt = -i [H/hbar, rho]

Steps never straddle a chunk boundary (chunk_duration/dt must be an
integer), so every step sees a constant H and each 75 ns sub-integration
is autonomous. The input is Hermitized once, into a fresh array; from
there every RK4 stage is exactly Hermitian by construction (see _flow),
so no step needs re-Hermitizing. The trace is deliberately NOT
renormalized, so trace drift stays visible as a correctness signal.

evolve and evolve_batch_h share one stepping loop, which refuses a dt past
RK4's stability limit, holds the RK4 stage arithmetic and broadcasts over
leading batch axes of rho (and of h, when given a matching stack), so a
parameter scan runs as one batch, and finite differences as one batch per
chunk. A recorded trajectory keeps only the states at the step
boundaries: the reference adjoint recomputes each step's RK4 stages from
them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .hamiltonian import Schedule
from .ops import dagger

DEFAULT_DT_NS = 0.05
RK4_STABLE_THETA = 2 * math.sqrt(2)
# a bound on the steps of one chunk, so that a huge but finite chunk
# duration is refused instead of stepped for ever; 75 ns at dt 0.05 is
# 1 500 steps, at dt 0.01 7 500
MAX_STEPS_PER_CHUNK = 10 ** 6


def real_setting(value, field: str):
    """value if it is a real number, else a ValueError naming the field;
    a bool is refused, although Python counts it as a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = DEFAULT_DT_NS

    def __post_init__(self):
        if not (math.isfinite(real_setting(self.dt, "dt")) and self.dt > 0):
            raise ValueError(
                f"dt must be a positive finite number of ns, got {self.dt}")

    def steps_per_chunk(self, chunk_duration: float) -> int:
        ratio = chunk_duration / self.dt
        if not math.isfinite(ratio):
            raise ValueError(
                f"chunk duration {chunk_duration} ns over dt = {self.dt} ns "
                f"is not a finite number of steps")
        steps = round(ratio)
        if steps > MAX_STEPS_PER_CHUNK:
            raise ValueError(
                f"chunk duration {chunk_duration} ns over dt = {self.dt} ns "
                f"is more than the limit of {MAX_STEPS_PER_CHUNK} steps per "
                f"chunk")
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
    """-i [H/hbar, rho] for any rho, by two products; Hermitian whenever
    rho is. The stepped loop takes the one-product _flow instead."""
    return -1j * (h_over_hbar @ rho - rho @ h_over_hbar)


def _right_i(ch):
    """The real (2n, 2n) matrix m with x.view(float) @ m equal to
    (x @ (i ch)).view(float), for real ch of shape (..., n, n) and any
    complex x: multiplying by i maps each (re, im) pair to (-im, re)."""
    return np.kron(ch, [[0.0, 1.0], [-1.0, 0.0]])


def _float_view(a, flat):
    """a's float view as _flow's m multiplies it: one (rows, 2n) matrix
    when a single m multiplies the whole batch (flat), else stacked."""
    af = a.view(float)
    return af.reshape(-1, af.shape[-1]) if flat else af


def _work(b, flat):
    """The three views _flow takes of its C-contiguous work array b: the
    float view that m's product is written to, b and b's transpose."""
    return _float_view(b, flat), b, b.swapaxes(-1, -2)


def _flow(x, m, b=None, out=None):
    """-i c [H, x] for Hermitian x, given m = _right_i(c H) for real
    symmetric H, from one product.

    With B = x (i c H), B+ = -i c H x, so the commutator is B + B+ where
    rhs takes two products. The sum is exactly Hermitian in floating
    point, since entry (j, k) and the conjugate of entry (k, j) add the
    same two numbers. B is one real product on x's float view, faster than
    the complex one: a single m multiplies the whole batch as one
    (batch*n, 2n) gemm, and a stack of m matching x's batch axes is a
    stacked product.

    At batch 1, building the views costs over a third as much as the three
    ufunc calls, so the stepped loop builds every view once per call: it
    passes x as _float_view(x, flat), b as _work(b, flat) of its work
    array b, and out, a C-contiguous array of x's shape. Without b and
    out, x is any Hermitian array and the rest is built here.
    """
    if out is None:
        x = np.ascontiguousarray(x, dtype=complex)
        out = np.empty_like(x)
        flat = m.ndim == 2
        b, x = _work(np.empty_like(out), flat), _float_view(x, flat)
    bf, b, bt = b
    np.matmul(x, m, out=bf)
    np.conjugate(bt, out=out)
    out += b
    return out


def _stepped(rho, hs, dt, steps_per_chunk, states=None):
    """steps_per_chunk RK4 steps under each H of hs in turn; the Hermitized
    input goes to states[0] and step n's result to states[n + 1] when
    states is given.

    rho is Hermitized once, into a fresh array, so neither the caller's
    array nor a recorded row is ever written through. Each stage is one
    _flow, and the stage sums are real combinations of Hermitian arrays,
    so every step stays exactly Hermitian. The stages work in four buffers
    allocated once per call and updated in place: a freshly allocated
    large-batch array at every stage would be returned to the OS and
    faulted in again at the next, which makes batched sweeps measurably
    slower. The views each stage takes of them are built once per call as
    well, and so are 2m per chunk and the factor 1/3, so a step is its 21
    ufunc calls and nothing else: at batch 1 each view or scalar
    conversion costs a good part of a ufunc call. 2 h2 is taken as
    h2 + h2, which is exactly 2 h2 without k *= 2's conversion of the 2.
    """
    hs = np.asarray(hs)
    check_stable(np.linalg.eigvalsh(hs), dt)
    shape = np.broadcast_shapes(np.shape(rho), hs.shape[1:])
    x, b, k, acc = (np.empty(shape, dtype=complex) for _ in range(4))
    rho = np.add(rho, dagger(rho), out=np.empty(shape, dtype=complex))
    rho *= 0.5
    if states is not None:
        states[0] = rho
    flat = hs.ndim == 3  # one H, so one m, over the whole batch
    rho_f, x_f = _float_view(rho, flat), _float_view(x, flat)
    work = _work(b, flat)
    # acc /= 3 is a complex division; numpy divides by 3+0j as
    # (re + im*0) * fl(1/3), so the real multiply gives the same values
    # (up to the sign of a zero) at a fraction of the cost
    acc_f, third = acc.view(float), np.float64(1 / 3)
    n = 0
    for m in _right_i((dt / 2) * hs):
        m2 = 2 * m
        for _ in range(steps_per_chunk):
            # with h_i = (dt/2) k_i, the step adds
            # (((h1 + 2 h2) + 2 h3) + h4) / 3, summed in that order
            _flow(rho_f, m, work, acc)  # h1
            np.add(rho, acc, out=x)
            _flow(x_f, m, work, k)  # h2
            np.add(rho, k, out=x)
            k += k
            acc += k
            _flow(x_f, m2, work, k)  # 2 h3
            np.add(rho, k, out=x)
            acc += k
            _flow(x_f, m, work, k)  # h4
            acc += k
            acc_f *= third
            rho += acc
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
    rho = np.asarray(rho0)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    hs = s.hamiltonians()
    if not record:
        return _stepped(rho, hs, cfg.dt, steps), None
    total = steps * s.n_chunks
    states = np.empty((total + 1,) + rho.shape, dtype=complex)
    rho = _stepped(rho, hs, cfg.dt, steps, states)
    return rho, Trajectory(states)


def evolve_batch_h(rho0: np.ndarray, hs: np.ndarray, dt: float,
                   steps_per_chunk: int) -> np.ndarray:
    """Forward-only evolution where every batch element has its own H.

    hs has shape (n_chunks, ...batch, 8, 8) matching rho0's batch axes.
    The finite-difference gradient calls it once per chunk, with one
    parameter set per batch element: each set's own H for that chunk.
    """
    return _stepped(np.asarray(rho0), hs, dt, steps_per_chunk)


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
