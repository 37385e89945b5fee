"""References and inputs shared by the test modules, out of the package.

classical_rk4 writes an RK4 step as its four textbook stages, while the
package steps Horner's form of the same quartic; the two agree to
round-off, which pins the package's form to the textbook one."""

import numpy as np


def rhs(h, rho):
    """-i [h, rho] for any rho, by two products; Hermitian whenever rho
    is."""
    return -1j * (h @ rho - rho @ h)


def classical_rk4(rho, h, dt, steps=1):
    """steps RK4 steps of rho' = -i [h, rho] on any matrices, by the
    general two-product rhs: the reference for the package's stepped
    routes, which take one product per stage and so hold for Hermitian
    matrices only. h may be one H or a stack matching rho's batch axes."""
    for _ in range(steps):
        k1 = rhs(h, rho)
        k2 = rhs(h, rho + (dt / 2) * k1)
        k3 = rhs(h, rho + (dt / 2) * k2)
        k4 = rhs(h, rho + dt * k3)
        rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


# chunk rows whose Hamiltonians have degenerate spectra
DEGENERATE = {
    "zero": [0.0] * 9,
    "eps_only": [0, 0, 0, 4.0, 4.0, -2.0, 0, 0, 0],
    "equal_K": [3.0, 3.0, 3.0, 0, 0, 0, 0, 0, 0],
}


def pure_kets(kets, support, complex_amplitudes, seed):
    """kets random normalized kets, nonzero on support only."""
    rng = np.random.default_rng(seed)
    psi = np.zeros((kets, 8), dtype=complex)
    psi[:, support] = rng.normal(size=(kets, len(support)))
    if complex_amplitudes:
        psi[:, support] += 1j * rng.normal(size=(kets, len(support)))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def densities(kets):
    return kets[:, :, None] * kets[:, None, :].conj()
