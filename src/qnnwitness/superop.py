"""Superoperator fast path used by the training loop.

For a constant H the equation of motion is linear in the vectorized
state, v = vec(rho), with generator F = -i (H x I - I x H) (row-major
vec, H real symmetric). One RK4 step is then exactly the degree-4
Taylor polynomial of exp(dt F):

    T = I + h F + h^2 F^2/2 + h^3 F^3/6 + h^4 F^4/24

so the whole-chunk map is T^n, computable by binary powering, and the
chunk-local adjoint weight sum

    W = sum_{j=0}^{n-1} T^j C T^{n-1-j}

comes from powering the block matrix [[T, C], [0, T]]. This reproduces
the stepped RK4 forward values and the stage-level adjoint gradient to
rounding error at a small fixed cost per epoch, independent of dt.

Everything here treats the batch of training inputs as the columns of a
64 x B matrix. Only the training loop uses this module; the propagator
and the stage-level adjoint remain the reference implementations that
tests compare against.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import GENERATORS, Schedule
from .ops import SIGNS

E8 = np.eye(8)
E64 = np.eye(64)


def step_operator(h: np.ndarray, dt: float):
    """One-step RK4 transfer matrix on vec(rho), plus powers of F."""
    f = -1j * (np.kron(h, E8) - np.kron(E8, h))
    f2 = f @ f
    f3 = f2 @ f
    t = (E64 + dt * f + (dt**2 / 2) * f2 + (dt**3 / 6) * f3
         + (dt**4 / 24) * (f3 @ f))
    return t, f, f2, f3


def _pow(t: np.ndarray, n: int) -> np.ndarray:
    out = np.eye(t.shape[0], dtype=complex)
    p = t
    while n:
        if n & 1:
            out = p @ out
        p = p @ p
        n >>= 1
    return out


def _pow_with_weight(t: np.ndarray, c: np.ndarray, n: int):
    """(T^n, sum_j T^j C T^{n-1-j}) via block-triangular powering."""
    m = t.shape[0]
    rt = np.eye(m, dtype=complex)
    rd = np.zeros((m, m), dtype=complex)
    pt, pd = t, c
    while n:
        if n & 1:
            rt, rd = pt @ rt, pt @ rd + pd @ rt
        pt, pd = pt @ pt, pt @ pd + pd @ pt
        n >>= 1
    return rt, rd


def chunk_operators(s: Schedule, dt: float):
    """Per-chunk (T, F, F2, F3, T^steps) for the schedule at this dt."""
    steps = round(s.chunk_duration / dt)
    ops = []
    for h in s.hamiltonians():
        t, f, f2, f3 = step_operator(h, dt)
        ops.append((t, f, f2, f3, _pow(t, steps)))
    return ops, steps


def propagate_vec(rhos: np.ndarray, s: Schedule, dt: float):
    """Evolve a (B, 8, 8) stack; returns chunk-boundary 64 x B matrices."""
    v = np.asarray(rhos, dtype=complex).reshape(-1, 64).T
    ops, _ = chunk_operators(s, dt)
    boundaries = [v]
    for *_, tn in ops:
        v = tn @ v
        boundaries.append(v)
    return boundaries, ops


def dataset_loss_grad(rhos: np.ndarray, targets: np.ndarray,
                      mask: np.ndarray, s: Schedule, dt: float):
    """Loss, flattened gradient, and outputs for a whole training batch.

    targets and mask are (B, 4) in OBSERVABLE_IDS order; mask zeroes the
    outputs a pair does not train on. Rows v[::9] of the 64 x B state
    are the diagonals of the density matrices, the only entries the
    diagonal observables read.
    """
    steps = round(s.chunk_duration / dt)
    boundaries, ops = propagate_vec(rhos, s, dt)
    y = SIGNS @ boundaries[-1][::9].real     # (4, B) pre-squared
    outputs = (y.T) ** 2
    resid = (targets - outputs) * mask
    loss = 0.5 * float(np.sum(resid * resid))

    # seed dE/dv at t_f: sum_j -2 resid_j y_j vec(P_j), per batch column
    lam = np.zeros_like(boundaries[-1])      # (64, B)
    lam[::9] = SIGNS.T @ (-2.0 * resid * y.T).T

    u = s.convention.omega_per_MHz
    c1, c2, c3, c4 = dt, dt**2 / 2, dt**3 / 6, dt**4 / 24
    grad = np.empty((s.n_chunks, 9))
    for k in range(s.n_chunks - 1, -1, -1):
        t, f, f2, f3, tn = ops[k]
        c = boundaries[k] @ lam.conj().T     # sum_b v_start lam_end^dag
        _, w = _pow_with_weight(t, c, steps)
        z1 = f @ w
        z2 = f2 @ w
        z3 = f3 @ w
        b0 = c1 * w + c2 * z1 + c3 * z2 + c4 * z3
        b1 = c2 * w + c3 * z1 + c4 * z2
        b2 = c3 * w + c4 * z1
        b3 = c4 * w
        y_mat = b0 + ((b3 @ f + b2) @ f + b1) @ f
        yr = y_mat.reshape(8, 8, 8, 8)
        left = np.einsum("cbab->ca", yr)
        right = np.einsum("adab->db", yr)
        tr_left = np.einsum("qac,ca->q", GENERATORS, left)
        tr_right = np.einsum("qac,ca->q", GENERATORS, right)
        grad[k] = u * (tr_left - tr_right).imag
        lam = tn.conj().T @ lam
    return loss, grad.reshape(-1), outputs
