"""The route table, where every route to the same numbers is compared
(McKeeman, Digital Technical Journal 10(1), 100 (1998)), on
generated problems (MacIver & Hatfield-Dodds, JOSS 4(43), 1891 (2019)).
A FORWARD row maps (rhos, schedule, dt) to final states, held to the
textbook RK4 loop of conftest run chunk by chunk; a GRADIENT row maps
(pairs, schedule, dt) to dE/dp summed over the pairs, held to the tangent
below. Each bound has the largest gap measured beside it. Add a route as
a row; retire one by deleting its row."""

import numpy as np
from conftest import DEGENERATE, classical_rk4, densities, pure_kets
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import (ANGULAR, PLAIN, Schedule,
                                    build_hamiltonian, bundled_schedule)
from qnnwitness.learning import (Dataset, IntegratorConfig, TrainingPair,
                                 backprop_gradient, fd_gradient, load_dataset)
from qnnwitness.ops import OBSERVABLE_IDS, loss_terms
from qnnwitness.propagate import RK4_STABLE_THETA, evolve, evolve_batch_h
from qnnwitness.states import CATALOG_NAMES, FAMILIES, StateSpec, catalog, mix
from qnnwitness.superop import dataset_loss_grad, propagate_vec


def steps_of(s, dt):
    return IntegratorConfig(dt).steps_per_chunk(s.chunk_duration)


# name: (route, bound on the entry gap to textbook given the step count)
FORWARD = {
    # the recorded loop, _stepped: 2.2e-14
    "evolve, recorded": (lambda rhos, s, dt: evolve(
        rhos, s, IntegratorConfig(dt), record=True)[0], lambda steps: 1e-13),
    # the coordinate walk, whose gap grows with the step count, most where
    # a step is near the identity: 5.6e-14 at 150 steps, 9.7e-14 at 600,
    # 2.7e-13 at 6 000
    "evolve": (lambda rhos, s, dt: evolve(rhos, s, IntegratorConfig(dt))[0],
               lambda steps: 5e-14 + 1.5e-16 * steps),
    # _stepped's stacked product, each state its own copy of H: 2.2e-14
    "evolve_batch_h": (lambda rhos, s, dt: evolve_batch_h(rhos, np.repeat(
        s.hamiltonians()[:, None], len(rhos), axis=1), dt, steps_of(s, dt)),
        lambda steps: 1e-13),
    # the eigenbasis engine: 1.4e-13 near the stability limit at dt 0.05
    "propagate_vec": (lambda rhos, s, dt: propagate_vec(rhos, s, dt)[1],
                      lambda steps: 5e-13),
}


def tangent_gradient(pairs, s, dt):
    """dE/dp summed over the pairs by forward mode through the textbook
    loop, and the sum over the pairs of the largest entry of drho/dp.
    RK4 on H~ = [[H, dH], [0, H]], rho~ = [[rho, 0], [0, rho]] carries the
    derivative of the RK4 map along dH in its upper-right block, as every
    stage is a polynomial in the commutator with H~ (Van Loan, IEEE Trans.
    Autom. Control 23, 395 (1978)). Direction q of chunk k, with corner
    dH/dp_q there only, starts at chunk k from the plain state, row 0."""
    rhos, targets, mask = Dataset("drawn", tuple(pairs)).arrays()
    generators = build_hamiltonian(np.eye(9), s.convention)
    x = np.zeros((1,) + rhos.shape[:-2] + (16, 16), dtype=complex)
    x[..., :8, :8] = x[..., 8:, 8:] = rhos
    for h in s.hamiltonians():
        x = np.concatenate([x, np.repeat(x[:1], 9, axis=0)])
        h_pair = np.zeros((len(x), 1, 16, 16), dtype=complex)
        h_pair[..., :8, :8] = h_pair[..., 8:, 8:] = h
        h_pair[-9:, 0, :8, 8:] = generators
        x = classical_rk4(x, h_pair, dt, steps_of(s, dt))
    _, _, seed = loss_terms(x[0, :, :8, :8], targets, mask)
    # E depends on rho_f through its diagonal only, with dE/drho_ii = seed_i
    drho = x[1:, :, :8, 8:]
    gradient = np.einsum("bi,nbii->n", seed, drho).real
    return gradient, np.abs(drho).max(axis=(0, 2, 3)).sum()


def summed(route):
    return lambda pairs, s, dt: sum(route(p, s, IntegratorConfig(dt))
                                    for p in pairs)


# name: (route, allowed gap to the tangent in each component, given the
# route's gradient g and the exact bound: 2e-14 of the largest component a
# step of a chunk, as the engine's face sums n powers of modulus <= 1 that
# may cancel, plus 1e-13 of drho, for the round-off that a small seed
# -2 resid y carries from the route's final states)
GRADIENT = {
    # the stepped reverse pass, pair by pair: 1.1e-13 of the largest;
    # 8.8e-15 of drho on a gradient of 2e-3 of it
    "backprop_gradient": (summed(backprop_gradient), lambda g, exact: exact),
    # the engine, the pairs as one batch: 7.1e-15 of the largest a step,
    # 1.1e-12 at 150; 3.2e-14 of drho on a gradient of 9e-4 of it
    "dataset_loss_grad": (lambda pairs, s, dt: dataset_loss_grad(
        *Dataset("drawn", tuple(pairs)).arrays(), s, dt)[1],
        lambda g, exact: exact),
    # central differences, pair by pair, on the CLI grad-check's rule: 1e-6
    # of each component plus 1e-9 for their own round-off, which reached
    # 9.4e-13 on a component of 1.9e-10
    "fd_gradient": (summed(fd_gradient),
                    lambda g, exact: 1e-6 * np.abs(g) + 1e-9),
}

# a chunk is uniform(-6, 6) MHz, a row with a degenerate spectrum, all
# zero among them, or the chunk before it repeated
chunk_rows = st.lists(
    st.one_of(arrays(float, 9, elements=st.floats(-6.0, 6.0)),
              st.sampled_from(list(DEGENERATE.values())), st.just("repeat")),
    min_size=1, max_size=4)
# short chunks keep the textbook loop cheap: 30 steps a chunk at dt 0.25
CHUNK_NS = 7.5


@st.composite
def problems(draw):
    """(schedule, dt): 7.5 ns chunks in either convention at dt 0.25 or
    0.05, scaled if drawn so to put the fastest at up to 0.9 of RK4's
    stability limit."""
    chunks = []
    for row in draw(chunk_rows):
        if isinstance(row, str):
            row = chunks[-1] if chunks else DEGENERATE["zero"]
        chunks.append(row)
    s = Schedule(np.array(chunks, dtype=float), CHUNK_NS,
                 draw(st.sampled_from([PLAIN, ANGULAR])))
    dt = draw(st.sampled_from([0.25, 0.05]))
    fraction = draw(st.one_of(st.none(), st.floats(0.1, 0.9)))
    w = np.linalg.eigvalsh(s.hamiltonians())
    spread = (w[:, -1] - w[:, 0]).max()
    if fraction is not None and spread > 0:
        scale = fraction * RK4_STABLE_THETA / (dt * spread)
        s = Schedule(scale * s.chunks, CHUNK_NS, s.convention)
    return s, dt


FIXED = [n for n in CATALOG_NAMES if n not in FAMILIES]
ZERO_TARGETS = dict.fromkeys(OBSERVABLE_IDS, 0.0)
supports = st.sets(st.integers(0, 7), min_size=1).map(sorted)
seeds = st.integers(0, 2 ** 32 - 1)
# catalog states, or 1 to 80 random pure kets, real or complex, on a random
# support: the coordinate walk splits a batch on either side of 64
batches = st.one_of(
    st.lists(st.sampled_from(FIXED), min_size=1, unique=True).map(
        lambda names: np.stack([mix(catalog(n)) for n in names])),
    st.builds(lambda *args: densities(pure_kets(*args)), st.integers(1, 80),
              supports, st.booleans(), seeds))
TRAINED_SET2 = bundled_schedule("trained_set2")
THREE = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_minus")])


@settings(max_examples=10, deadline=None)
@given(problems(), batches)
# the bundled length, 300 steps a chunk: one chunk of set1 on the 25 fixed
# catalog states, and one of trained_set1 on 70 complex kets, a split walk
@example((Schedule(bundled_schedule("set1").chunks[:1]), 0.25),
         np.stack([mix(catalog(n)) for n in FIXED]))
@example((Schedule(bundled_schedule("trained_set1").chunks[:1], 75.0,
                   ANGULAR), 0.25),
         densities(pure_kets(70, list(range(8)), True, 5)))
# four random chunks of 600 steps; W and set2's 13 states in 6 000 steps
@example((Schedule(np.random.default_rng(26).uniform(-6.0, 6.0, (4, 9)),
                   75.0, ANGULAR), 0.125), THREE)
@example((TRAINED_SET2, 0.05),
         np.concatenate([THREE[1:2], load_dataset("set2").arrays()[0]]))
def test_forward_routes(problem, rhos):
    s, dt = problem
    steps, ref = s.n_chunks * steps_of(s, dt), rhos
    for h in s.hamiltonians():
        ref = classical_rk4(ref, h, dt, steps_of(s, dt))
    failed = {}
    for name, (route, bound) in FORWARD.items():
        gap = np.abs(route(rhos, s, dt) - ref).max()
        if not gap <= bound(steps):
            failed[name] = gap
    assert not failed, f"{failed} over {steps} steps"


# one pair: a catalog state or random pure ket, random targets on some outputs
one_pair = st.builds(
    lambda state, targets: [TrainingPair(state, targets)],
    st.one_of(st.sampled_from(FIXED).map(catalog), st.builds(
        lambda *args: StateSpec.pure(pure_kets(1, *args)[0]), supports,
        st.booleans(), seeds)),
    st.dictionaries(st.sampled_from(OBSERVABLE_IDS), st.floats(0.0, 1.0),
                    min_size=1))


@settings(max_examples=10, deadline=None)
@given(problems(), one_pair)
# all-zero and repeated chunks, and each degenerate row twice
@example((Schedule(np.array([np.linspace(-6.0, 6.0, 9), np.zeros(9),
                             np.full(9, 2.5), np.full(9, 2.5)]),
                   CHUNK_NS, ANGULAR), 0.25),
         [TrainingPair(catalog("W"), {"AB": 0.64, "ABC": 0.27})])
@example((Schedule(np.repeat(list(DEGENERATE.values()), 2, axis=0),
                   CHUNK_NS), 0.25), [load_dataset("set1").pairs[0]])
# one chunk, where the walk back from the seed has no inner crossing, on
# two pairs of set1 taken as one batch
@example((Schedule(np.array([DEGENERATE["eps_only"]]), CHUNK_NS, ANGULAR),
          0.05), list(load_dataset("set1").pairs[6::3]))
# the bundled length: the engine's powering walk over 9-bit step counts
@example((TRAINED_SET2, 0.25), [TrainingPair(catalog("W"), ZERO_TARGETS)])
# a gradient of 2e-3 of drho at half the stability limit
@example((Schedule(np.array([[942.80904158, 1885.61808316] + [0.0] * 7]),
                   CHUNK_NS), 0.25),
         [TrainingPair(catalog("Cr_AB"), {"AB": 0.0, "AC": 1.0})])
def test_gradient_routes(problem, pairs):
    s, dt = problem
    tangent, drho = tangent_gradient(pairs, s, dt)
    exact = 2e-14 * steps_of(s, dt) * np.abs(tangent).max() + 1e-13 * drho
    failed = {}
    for name, (route, allowed) in GRADIENT.items():
        g = route(pairs, s, dt)
        excess = (np.abs(g - tangent) - allowed(g, exact)).max()
        if not excess <= 0:
            failed[name] = excess
    assert not failed, f"excess {failed} over an exact bound of {exact:.3g}"
