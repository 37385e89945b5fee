"""Chunk propagators of the training loop, exact in each chunk's eigenbasis.

Within a chunk H is constant and real symmetric, H = V diag(w) V^T. For
the linear equation of motion rho' = F rho, F rho = -i (H rho - rho H),
one RK4 step is exactly the degree-4 Taylor polynomial

    T = P(dt F),   P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

F is diagonal on the matrix units V e_j e_k^T V^T, with eigenvalue
-i (w_j - w_k), so in the chunk's eigenbasis T^n is elementwise:

    rho~ -> t^n o rho~,   t_jk = P(mu_jk),  mu_jk = -i dt (w_j - w_k).

One 8 x 8 eigh per chunk thus reproduces the n stepped RK4 steps to
rounding error, at any dt within RK4's stability limit (checked on w).

Each state lives in the eigenbasis of the chunk it is in. One walk
carries a (B, 8, 8) stack through the n_chunks + 1 crossings
A_k = V_k^T V_{k-1}, with V = I before the first chunk and after the
last, so that the walk enters chunk 0's basis, crosses every chunk
boundary by a real 8 x 8 overlap and returns to the lab frame:

    x_0 = A_0 x A_0^T,   x_k = A_k (t_{k-1}^n o x_{k-1}) A_k^T.

Run forward from the inputs, it gives rho~ at each chunk's start and,
last, the lab-frame final state for ops.loss_terms. Run back from
diag(seed) through the transposed crossings A_k^T, last first, with
conj(t^n), it gives lam~ of each chunk, its first crossing being
lam~ = V^T diag(seed) V of the last chunk. So the per-chunk rho~ and lam~
that the gradient contracts come out of the walk as they are. Each
crossing is two real products on the states' float view, written into
arrays each walk allocates once; the inputs are only read.

The gradient is the divided-difference (Daleckii-Krein) form of the
derivative of T^n = f(F), f(z) = P(dt z)^n. In the eigenbasis
d(T^n) = Phi o dF, with, for index pairs a = (j, k) and b,

    Phi_ab = (t_a^n - t_b^n) / (d_a - d_b) = dt P[mu_a, mu_b] S_n(t_a, t_b),

where P[x, y] is the divided difference of the quartic and
S_n(x, y) = sum_m x^m y^(n-1-m); both are written without division, so
degenerate spectra need no special case. S_n comes from one binary
powering walk over a (2, n_chunks, 8, 36) pair array: for every chunk,
row k and pair j <= l it holds the powers (t^m at (j,k), t^m at (l,k)),
squared and multiplied in place, and its pairs (j, j) end as the t^n the
propagation needs. A generator G enters dF as -i u (g x I - I x g) with
g = V^T G V, so only the faces Phi[(j,k),(l,k)] and Phi[(j,k),(j,m)]
enter, contracted with lam and rho into L and R. V is real and lam, rho
are Hermitian (a real diagonal seed, inputs from mix, and a map with
t_kj = conj(t_jk)), so R = conj(L) and V (L - R) V^T = 2i V (Im L) V^T:
one face and one contraction suffice. The face is symmetric in j and l,
so its 36 pairs j <= l per row are computed and then spread.

Per call, chunk_operators makes one eigh of all the chunks' H, evaluates
the quartic and its divided difference in real arithmetic, and runs the
powering walk once; dataset_loss_grad conjugates t^n once for the walk
back from the seed.
Nothing is kept from one call to the next.

This is the discrete adjoint of the stepped integrator, not of the exact
exponential. Only the training loop uses this module; the stepped
propagator, which takes the same quartic in Horner's form, and the
reverse pass through that form beside it in propagate.py are the other
routes to the same numbers, and tests/routes.py holds every route to the
textbook RK4 loop.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import Schedule, parameter_gradient
from .ops import loss_terms
from .propagate import IntegratorConfig, _TIMES_1, _right_factor, check_stable


def _quartic(a):
    """P(-i a) for real a, in real arithmetic: its real part 1 - a^2/2 +
    a^4/24 is even in a and its imaginary part a (a^2/6 - 1) odd, so
    P(i a) is exactly the conjugate of P(-i a)."""
    a2 = a * a
    out = np.empty(np.shape(a), dtype=complex)
    real = np.multiply(a2, a2 / 24 - 1 / 2, out=out.real)
    real += 1
    np.multiply(a, a2 / 6 - 1, out=out.imag)
    return out


def _quartic_divided_difference(s, q, scale):
    """scale (P(x) - P(y)) / (x - y) for x = -i a and y = -i b on the
    imaginary axis, from s = a + b and q = a^2 + b^2. Expanded, it is
    1 + (x + y)/2 + (x^2 + xy + y^2)/6 + (x + y)(x^2 + y^2)/24
    = 1 - (s^2 + q)/12 - i s (1/2 - q/24), so x == y needs no limit."""
    out = np.empty(s.shape, dtype=complex)
    np.add((s * s + q) * (-scale / 12), scale, out=out.real)
    np.multiply(s, q * (scale / 24) - scale / 2, out=out.imag)
    return out


# The face is symmetric in its two indices, so it is computed on the 36
# pairs j <= l of a row and then spread to (8, 8) through _PAIR. _JL holds
# the two indices of every pair, _DIAG the pairs (j, j). A row x of 8
# values gives its pairs' sums x_j + x_l as the real product
# x @ _INCIDENCE, the 0/1 incidence of values in pairs.
_JL = np.array([(j, l) for j in range(8) for l in range(j, 8)]).T
_PAIR = np.empty((8, 8), dtype=int)
_PAIR[_JL[0], _JL[1]] = _PAIR[_JL[1], _JL[0]] = range(_JL.shape[1])
_DIAG = _PAIR[range(8), range(8)]
_INCIDENCE = np.eye(8)[:, _JL[0]] + np.eye(8)[:, _JL[1]]
# the lab frame, before the first chunk and after the last
_LAB = np.eye(8)[None]


def _geometric_sum(t, n: int):
    """S_n(t_j, t_l) = sum_{m<n} t_j^m t_l^(n-1-m) for every pair (j, l),
    j <= l, of the last axis of a (..., 8) t, as (..., 36); and t^n.

    Walks the bits of n from the top, with S_2m = S_m (x^m + y^m) and
    S_(m+1) = x S_m + y^m, on one contiguous (2, ..., 36) array of the
    pairs' powers (x^m, y^m), squared and multiplied in place; t^n is
    read from the pairs (j, j) at the end."""
    base = t[..., _JL].transpose(-2, *range(t.ndim - 1), -1).copy()
    powers = base.copy()
    xm, ym = powers
    total = np.ones(xm.shape, dtype=complex)
    both = np.empty_like(total)
    for bit in bin(n)[3:]:
        total *= np.add(xm, ym, out=both)
        powers *= powers
        if bit == "1":
            total *= base[0]
            total += ym
            powers *= base
    return total, xm[..., _DIAG]


def chunk_operators(s: Schedule, dt: float):
    """Per-chunk operators and n = steps.

    Returns, stacked over chunks:
    - V, the eigenvectors;
    - the n_chunks + 1 crossings A_k = V_k^T V_{k-1}, with V = I before
      the first chunk and after the last: into chunk 0's eigenbasis, the
      overlaps between chunks, and back to the lab frame;
    - their real factors _right_factor(A_k^T, _TIMES_1), for products on
      the right;
    - t^n;
    - the face Phi in the layout [c, k, j, l] = Phi[(j,k),(l,k)] of
      chunk c. Its row k pairs mu_jk with mu_lk, so it is built from
      row k of mu^T.
    """
    steps = IntegratorConfig(dt).steps_per_chunk(s.chunk_duration)
    w, v = np.linalg.eigh(s.hamiltonians())
    check_stable(w, dt)
    a = dt * (w[:, None, :] - w[:, :, None])  # i mu^T
    face, tn = _geometric_sum(_quartic(a), steps)
    face *= _quartic_divided_difference(a @ _INCIDENCE, (a * a) @ _INCIDENCE,
                                        dt)
    frames = np.concatenate([_LAB, v, _LAB])
    crossings = frames[1:].transpose(0, 2, 1) @ frames[:-1]
    right = _right_factor(crossings.transpose(0, 2, 1), _TIMES_1)
    # the powering walk gives t^n in the layout of mu^T; t^n is conjugate
    # symmetric, so its transpose is its conjugate
    return (v, crossings, right, tn.conj(), face[..., _PAIR]), steps


def _walk(x, crossings, right, t, out):
    """Walk a C-contiguous (B, 8, 8) complex stack x through the n
    crossings a_i into out, (n, B, 8, 8) and C-contiguous but for the
    sign of its first stride: out[0] = a_0 x a_0^T and
    out[i] = a_i (t[i-1] o out[i-1]) a_i^T, for real a_i and right[i] =
    _right_factor(a_i^T, _TIMES_1). Each crossing is a real left product
    on the (B, 8, 16) float view and one (B*8, 16) gemm on the right, into
    work arrays allocated once per walk; x is only read."""
    work = np.empty_like(x)
    half = np.empty(x.shape[:-1] + (16,))
    rows = out.view(float).reshape(len(out), -1, 16)
    half_rows, work_f = half.reshape(-1, 16), work.view(float)
    x = x.view(float)
    for i, (a, r, row) in enumerate(zip(crossings, right, rows)):
        if i:
            np.multiply(t[i - 1], out[i - 1], out=work)
        np.matmul(a, x, out=half)
        np.matmul(half_rows, r, out=row)
        x = work_f


def propagate_vec(rhos: np.ndarray, s: Schedule, dt: float):
    """Evolve a (B, 8, 8) stack. Returns the (n_chunks, B, 8, 8) states
    at each chunk's start in that chunk's eigenbasis, the lab-frame
    (B, 8, 8) final states, and chunk_operators' result. The states are
    one walk of rhos through all n_chunks + 1 crossings, with every
    crossing and the t^n of every chunk from chunk_operators; its last
    row is the final states. rhos is only read."""
    ops = chunk_operators(s, dt)
    (_, crossings, right, tn, _), _ = ops
    x = np.ascontiguousarray(rhos, dtype=complex)
    states = np.empty((len(crossings),) + x.shape, dtype=complex)
    _walk(x, crossings, right, tn, states)
    return states[:-1], states[-1], ops


def dataset_loss_grad(rhos: np.ndarray, targets: np.ndarray,
                      mask: np.ndarray, s: Schedule, dt: float):
    """Loss, flattened gradient, and outputs for a whole training batch.

    targets and mask are (B, 4) in OBSERVABLE_IDS order; mask zeroes the
    outputs a pair does not train on. Loss, outputs and the adjoint seed
    all come from ops.loss_terms.
    """
    rho_eig, final, ((v, crossings, right, tn, face), _) = propagate_vec(
        rhos, s, dt)
    energies, outputs, seed = loss_terms(final, targets, mask)
    # the adjoint walks back from diag(seed) through the transposed
    # crossings, the seed's first crossing into the last chunk included
    lam_eig = np.empty_like(rho_eig)
    x = np.zeros(final.shape, dtype=complex)
    x.reshape(-1, 64)[:, ::9] = seed
    _walk(x, crossings[:0:-1].transpose(0, 2, 1),
          right[:0:-1].transpose(0, 2, 1), tn[:0:-1].conj(), lam_eig[::-1])

    # L[c, j, l] = sum_k Phi[(j,k),(l,k)] sum_b conj(lam_b)_jk (rho_b)_lk,
    # with conj(lam_b)_jk = (lam_b)_kj: a product over b for each (c, k).
    # The other face's contraction is the conjugate of this one, so
    # V (L - R) V^T = 2i V (Im L) V^T
    lam_rho = lam_eig.transpose(0, 2, 3, 1) @ rho_eig.transpose(0, 3, 1, 2)
    left = np.multiply(face, lam_rho, out=lam_rho).sum(axis=1)
    dm = v @ left.imag @ v.transpose(0, 2, 1)
    grad = parameter_gradient(2 * dm, s.convention)
    return float(energies.sum()), grad.reshape(-1), outputs
