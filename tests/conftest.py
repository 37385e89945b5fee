"""References shared by the test modules, kept out of the package.

classical_rk4 writes an RK4 step as its four textbook stages, while the
package steps Horner's form of the same quartic; the two agree to
round-off, which pins the package's form to the textbook one."""


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
