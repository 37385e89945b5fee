"""A forward-mode oracle for both exact gradients.

RK4 stepped on the block upper-triangular pair H~ = [[H, dH], [0, H]],
rho~ = [[rho, 0], [0, rho]] carries the exact derivative of the discrete
RK4 map along dH in its upper-right block: every stage is a polynomial in
the commutator with H~, and a polynomial of a block-triangular operator
has the Frechet derivative of the polynomial as its corner (Van Loan, IEEE
Trans. Autom. Control 23, 395 (1978); Goodwin & Kuprov, J. Chem. Phys.
143, 084113 (2015)). It shares no code with either adjoint, and it
resolves a defect far below the ~1e-6 that central differences can.
"""

import numpy as np
from conftest import classical_rk4
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule, build_hamiltonian
from qnnwitness.learning import (
    IntegratorConfig,
    TrainingPair,
    backprop_gradient,
)
from qnnwitness.ops import OBSERVABLE_IDS, loss_terms
from qnnwitness.states import CATALOG_NAMES, FAMILIES, catalog
from qnnwitness.superop import dataset_loss_grad

# short chunks keep the 16 x 16 stepping cheap: 30 steps a chunk
CHUNK_NS, DT = 7.5, 0.25


def tangent_gradient(pair, s, dt):
    """dE/dp for every flattened parameter p, by stepping all 9 n_chunks
    directions from t = 0 as one batch of 16 x 16 blocks. Direction q of
    chunk k has the corner dH/dp_q, the generator build_hamiltonian gives
    the unit vector e_q, in chunk k only.

    Also returns the largest entry of any drho/dp. Where the seed
    -2 resid y is small, each route's own round-off in y moves it, and so
    the gradient, by up to ~1e-15 of drho whatever the gradient's size.
    """
    rho, targets, mask = pair.arrays()
    steps = IntegratorConfig(dt).steps_per_chunk(s.chunk_duration)
    n = 9 * s.n_chunks
    x = np.zeros((n, 16, 16), dtype=complex)
    x[:, :8, :8] = x[:, 8:, 8:] = rho
    generators = build_hamiltonian(np.eye(9), s.convention)
    for k, h in enumerate(s.hamiltonians()):
        h_pair = np.zeros((n, 16, 16))
        h_pair[:, :8, :8] = h_pair[:, 8:, 8:] = h
        h_pair[9 * k:9 * (k + 1), :8, 8:] = generators
        x = classical_rk4(x, h_pair, dt, steps)
    _, _, seed = loss_terms(x[0, :8, :8], targets, mask)
    # E depends on rho_f through its diagonal only, with dE/drho_ii = seed_i
    drho = x[:, :8, 8:]
    gradient = np.einsum("i,nii->n", seed, drho).real
    return gradient, np.abs(drho).max()


# a row is uniform(-6, 6) MHz, all zero, or the row before it repeated (all
# zero when it is the first)
rows = st.lists(st.one_of(arrays(float, 9, elements=st.floats(-6.0, 6.0)),
                          st.just("zero"), st.just("repeat")),
                min_size=1, max_size=4)
FIXED = [n for n in CATALOG_NAMES if n not in FAMILIES]


def schedule_of(chunk_rows, convention):
    chunks = []
    for row in chunk_rows:
        if isinstance(row, str):
            row = chunks[-1] if row == "repeat" and chunks else np.zeros(9)
        chunks.append(row)
    return Schedule(np.array(chunks), CHUNK_NS, convention)


@settings(max_examples=20, deadline=None)
@given(rows, st.sampled_from([PLAIN, ANGULAR]), st.sampled_from(FIXED),
       st.lists(st.sampled_from(OBSERVABLE_IDS), min_size=1, unique=True),
       st.integers(0, 2 ** 32 - 1))
@example([np.linspace(-6.0, 6.0, 9), "zero", np.full(9, 2.5), "repeat"],
         ANGULAR, "W", ["AB", "ABC"], 0)
def test_both_exact_gradients_are_the_tangent(chunk_rows, convention, name,
                                              graded, seed):
    """The stepped reverse pass and the engine's divided-difference adjoint
    both match the forward-mode derivative within 1e-12 of its largest
    component, plus 1e-14 of drho for the round-off in a small seed, on
    schedules with all-zero and repeated chunks, whose spectra are
    degenerate."""
    s = schedule_of(chunk_rows, convention)
    targets = np.random.default_rng(seed).uniform(0.0, 1.0, len(graded))
    pair = TrainingPair(catalog(name), dict(zip(graded, targets)))
    tangent, drho = tangent_gradient(pair, s, DT)
    bound = 1e-12 * np.abs(tangent).max() + 1e-14 * drho
    exact = backprop_gradient(pair, s, IntegratorConfig(DT))
    assert np.abs(exact - tangent).max() <= bound
    rho, targets, mask = pair.arrays()
    _, engine, _ = dataset_loss_grad(rho[None], targets[None], mask[None], s,
                                     DT)
    assert np.abs(engine - tangent).max() <= bound
