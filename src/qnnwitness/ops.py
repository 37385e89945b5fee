"""Operator zoo for three qubits in the charge basis.

Basis ordering is |q_A q_B q_C> -> index 4*q_A + 2*q_B + q_C, so qubit A is
the leftmost (most significant) tensor factor and |000> sits at index 0.
All operators are dense 8x8; at this dimension sparsity buys nothing.
"""
from __future__ import annotations

import numpy as np

from .errors import ImaginaryTraceError, NonFinite

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
E2 = np.eye(2)

QUBITS = ("A", "B", "C")

HERM_TOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the |q_A q_B q_C> index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron3(a, b, c) -> np.ndarray:
    return np.kron(np.kron(np.asarray(a), np.asarray(b)), np.asarray(c))


def embed_pauli(axis: str, qubit: str) -> np.ndarray:
    """8x8 matrix with the named 2x2 Pauli at one tensor slot.

    axis is "x" or "z", qubit is "A", "B" or "C".
    """
    pauli = {"x": SX, "z": SZ}[axis]
    slot = QUBITS.index(qubit)
    factors = [E2, E2, E2]
    factors[slot] = pauli
    return kron3(*factors)


# The four measured correlation operators. All diagonal with entries +-1,
# so they commute pairwise and their expectations live in [-1, 1].
OBSERVABLES = {
    "AB": kron3(SZ, SZ, E2),
    "AC": kron3(SZ, E2, SZ),
    "BC": kron3(E2, SZ, SZ),
    "ABC": kron3(SZ, SZ, SZ),
}

OBSERVABLE_IDS = ("AB", "AC", "BC", "ABC")

# diagonals of the observables, row k for OBSERVABLE_IDS[k]: the (4, 8)
# sign matrix through which every output is read
SIGNS = np.stack([np.diag(OBSERVABLES[k]) for k in OBSERVABLE_IDS])


def readout(rho: np.ndarray) -> np.ndarray:
    """(..., 8, 8) -> (..., 4): Re tr(rho P_k) in OBSERVABLE_IDS order.

    Every P_k is diagonal, so tr(rho P_k) = diag(rho) . SIGNS[k]. A
    non-finite value means the integration diverged, a non-negligible
    imaginary part a corrupted (non-Hermitian) state.
    """
    tr = np.einsum("...ii,ki->...k", rho, SIGNS)
    if not np.all(np.isfinite(tr)):
        raise NonFinite(
            "non-finite correlation: the integration diverged "
            "(dt*|w_j - w_k| above RK4's 2*sqrt(2) stability limit)")
    worst = np.max(np.abs(tr.imag))
    if worst >= HERM_TOL:
        raise ImaginaryTraceError(
            f"imaginary trace {worst:.3e} exceeds {HERM_TOL:.0e}")
    return tr.real


def dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.asarray(m), -1, -2).conj()
