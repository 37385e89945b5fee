"""Chunk propagators of the training loop, exact in each chunk's eigenbasis.

Within a chunk H is constant and real symmetric, H = V diag(w) V^T. For
the linear equation of motion rho' = F rho, F rho = -i (H rho - rho H),
one RK4 step is exactly the degree-4 Taylor polynomial

    T = P(dt F),   P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

F is diagonal on the matrix units V e_j e_k^T V^T, with eigenvalue
-i (w_j - w_k), so T^n is elementwise there:

    rho -> V (t^n o V^T rho V) V^T,   t_jk = P(mu_jk),  mu_jk = -i dt (w_j - w_k),

and the adjoint state goes back through lam -> V (conj(t^n) o V^T lam V) V^T.
One 8 x 8 eigh per chunk thus reproduces the n stepped RK4 steps to
rounding error, at any dt within RK4's stability limit (checked on w).

The gradient is the divided-difference (Daleckii-Krein) form of the
derivative of T^n = f(F), f(z) = P(dt z)^n. In the eigenbasis
d(T^n) = Phi o dF, with, for index pairs a = (j, k) and b,

    Phi_ab = (t_a^n - t_b^n) / (d_a - d_b) = dt P[mu_a, mu_b] S_n(t_a, t_b),

where P[x, y] is the divided difference of the quartic and
S_n(x, y) = sum_m x^m y^(n-1-m); both are written without division, so
degenerate spectra need no special case. A generator G enters dF as
-i u (g x I - I x g) with g = V^T G V, so only the faces
Phi[(j,k),(l,k)] and Phi[(j,k),(j,m)] enter, contracted with lam and rho
into L and R. V is real and lam, rho are Hermitian (a real diagonal seed,
inputs from mix, and a map with t_kj = conj(t_jk)), so R = conj(L) and
V (L - R) V^T = 2i V (Im L) V^T: one face and one contraction suffice.

This is the discrete adjoint of the stepped integrator, not of the exact
exponential. Only the training loop uses this module; the stepped
propagator and the stage-level reverse pass in learning.py remain the
references that the tests compare against.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import GENERATORS, Schedule
from .ops import loss_terms
from .propagate import IntegratorConfig, check_stable


def _quartic(z):
    return 1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24)))


def _quartic_divided_difference(x, y):
    """(P(x) - P(y)) / (x - y), expanded so that x == y needs no limit."""
    return (1 + (x + y) / 2 + (x * x + x * y + y * y) / 6
            + (x + y) * (x * x + y * y) / 24)


def _geometric_sum(x, y, n: int):
    """sum_{m<n} x^m y^(n-1-m) elementwise, by binary powering of the
    upper-triangular pair [[x, 1], [0, y]], whose n-th power carries it."""
    px, py = np.broadcast_arrays(x, y)
    ps = np.ones_like(px)
    total = np.zeros_like(px)
    ry = np.ones_like(px)
    while n:
        if n & 1:
            total = px * total + ps * ry
            ry = py * ry
        ps = px * ps + ps * py
        px, py = px * px, py * py
        n >>= 1
    return total


def chunk_operators(s: Schedule, dt: float):
    """Per-chunk (V, mu, t, t^n), each (n_chunks, 8, 8), and n = steps."""
    steps = IntegratorConfig(dt).steps_per_chunk(s.chunk_duration)
    w, v = np.linalg.eigh(s.hamiltonians())
    check_stable(w, dt)
    mu = -1j * dt * (w[:, :, None] - w[:, None, :])
    t = _quartic(mu)
    return (v, mu, t, t ** steps), steps


def propagate_vec(rhos: np.ndarray, s: Schedule, dt: float):
    """Evolve a (B, 8, 8) stack; returns the (n_chunks + 1, B, 8, 8)
    states at the chunk boundaries and chunk_operators' result."""
    rho = np.asarray(rhos, dtype=complex)
    ops = chunk_operators(s, dt)
    (v, _, _, tn), _ = ops
    boundaries = [rho]
    for vk, tk in zip(v, tn):
        rho = vk @ (tk * (vk.T @ rho @ vk)) @ vk.T
        boundaries.append(rho)
    return np.stack(boundaries), ops


def dataset_loss_grad(rhos: np.ndarray, targets: np.ndarray,
                      mask: np.ndarray, s: Schedule, dt: float):
    """Loss, flattened gradient, and outputs for a whole training batch.

    targets and mask are (B, 4) in OBSERVABLE_IDS order; mask zeroes the
    outputs a pair does not train on. Loss, outputs and the adjoint seed
    all come from ops.loss_terms.
    """
    boundaries, ((v, mu, t, tn), steps) = propagate_vec(rhos, s, dt)
    energies, outputs, seed = loss_terms(boundaries[-1], targets, mask)
    lam = seed[:, :, None] * np.eye(8)
    vt = v.transpose(0, 2, 1)
    lam_eig = np.empty((s.n_chunks,) + lam.shape, dtype=complex)
    for k in range(s.n_chunks - 1, -1, -1):
        lam_eig[k] = vt[k] @ lam @ v[k]
        lam = v[k] @ (tn[k].conj() * lam_eig[k]) @ vt[k]
    rho_eig = vt[:, None] @ boundaries[:-1] @ v[:, None]

    # face [c, j, l, k] = Phi[(j,k),(l,k)]; the other face's contraction
    # is the conjugate of this one, so V (L - R) V^T = 2i V (Im L) V^T
    phi = (dt * _quartic_divided_difference(mu[:, :, None], mu[:, None])
           * _geometric_sum(t[:, :, None], t[:, None], steps))
    left = np.einsum("cjlk,cbjk,cblk->cjl", phi, lam_eig.conj(), rho_eig)
    dm = v @ left.imag @ vt
    grad = 2 * s.convention.omega_per_MHz * np.einsum(
        "qac,kac->kq", GENERATORS, dm)
    return float(energies.sum()), grad.reshape(-1), outputs
