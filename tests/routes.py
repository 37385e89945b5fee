"""The route table, where every route to the same numbers is compared
(McKeeman, Digital Technical Journal 10(1), 100 (1998)), on
generated problems (MacIver & Hatfield-Dodds, JOSS 4(43), 1891 (2019)).
A FORWARD row maps (rhos, schedule, dt) to final states, held to the
textbook RK4 loop of conftest run chunk by chunk; a GRADIENT row maps
(pairs, schedule, dt) to dE/dp summed over the pairs, held to the tangent
below, and its loss and outputs, where it gives them, to the tangent's.
Each bound has the largest gap measured beside it.

forward_failures and gradient_failures run a table's rows on one problem
and return those that fail, each with its excess over its bounds or what
it raised. The two properties below assert that none fails, and
tests/test_mutants.py that each planted fault fails exactly the rows it
names. Add a route as a row; retire one by deleting its row, its name
from the mutant rows, and each mutant row that fails that route alone.

A mutant row is (module, function, text, replacement, the rows that must
fail): the function's source with the text, which must occur in it
exactly once, replaced, and patched into every module that binds the
function. Add one for each fault the table must catch. If no row fails
it, add an example here on which one does; never drop the mutant or
loosen a bound."""

import numpy as np
from conftest import DEGENERATE, classical_rk4, densities, pure_kets
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.hamiltonian import (ANGULAR, PLAIN, Schedule,
                                    build_hamiltonian, bundled_schedule)
from qnnwitness.learning import (Dataset, IntegratorConfig, TrainingPair,
                                 backprop_gradient, fd_gradient, load_dataset)
from qnnwitness.ops import OBSERVABLE_IDS, SIGNS
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
    # each chunk's step matrix powered to its step count: 7.4e-15 at 150
    # steps, 3.5e-14 at 600, 3.7e-14 at 1 500 near the identity, 5.4e-14
    # at 6 000
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


def failures(table, excess):
    """{row: its excess over its bounds, or what it raised} for each row
    of the table on which excess(route, bound) is not <= 0."""
    failed = {}
    for name, (route, bound) in table.items():
        try:
            over = excess(route, bound)
        except Exception as exc:
            failed[name] = exc
        else:
            if not over <= 0:
                failed[name] = over
    return failed


def forward_failures(problem, rhos):
    """The failures of the FORWARD rows, against the textbook loop."""
    s, dt = problem
    steps, ref = s.n_chunks * steps_of(s, dt), rhos
    for h in s.hamiltonians():
        ref = classical_rk4(ref, h, dt, steps_of(s, dt))
    return failures(FORWARD, lambda route, bound: np.abs(
        route(rhos, s, dt) - ref).max() - bound(steps))


def tangent_gradient(pairs, s, dt):
    """dE/dp summed over the pairs by forward mode through the textbook
    loop; the sum over the pairs of the largest entry of drho/dp; and the
    loss E and the outputs y^2 of the loop's final states, written here
    from their definitions, as a reference apart from ops.loss_terms,
    which every route reads them from.
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
    # y = tr(rho_f P), E = 1/2 sum resid^2 with resid = mask (target - y^2):
    # E depends on rho_f through its diagonal only, with dE/drho_ii = seed_i
    y = np.einsum("bii,ki->bk", x[0, :, :8, :8], SIGNS).real
    resid = (targets - y * y) * mask
    seed = (-2 * resid * y) @ SIGNS
    drho = x[1:, :, :8, 8:]
    gradient = np.einsum("bi,nbii->n", seed, drho).real
    return (gradient, np.abs(drho).max(axis=(0, 2, 3)).sum(),
            0.5 * (resid * resid).sum(), y * y)


def summed(route, pairs, s, dt):
    """(None, route's gradient summed over the pairs, None), for a route
    that gives no loss and no outputs."""
    return None, sum(route(p, s, IntegratorConfig(dt)) for p in pairs), None


# name: (route, allowed gap to the tangent in each component, given the
# route's gradient g and the exact bound: 2e-14 of the largest component a
# step of a chunk, as the engine's face sums n powers of modulus <= 1 that
# may cancel, plus 1e-13 of drho, for the round-off that a small seed
# -2 resid y carries from the route's final states). A route maps (pairs,
# schedule, dt) to (E, dE/dp, outputs), E and outputs None where it gives
# none, and each row names its route only when it is called, so that a
# route patched in this module is the one the row runs
GRADIENT = {
    # the stepped reverse pass, its chunks side by side, pair by pair:
    # 6.4e-14 of the largest; 8.9e-15 of drho on a gradient of 2e-3 of it
    "backprop_gradient": (
        lambda pairs, s, dt: summed(backprop_gradient, pairs, s, dt),
        lambda g, exact: exact),
    # the engine, the pairs as one batch: 7.1e-15 of the largest a step,
    # 1.1e-12 at 150; 3.2e-14 of drho on a gradient of 9e-4 of it
    "dataset_loss_grad": (lambda pairs, s, dt: dataset_loss_grad(
        *Dataset("drawn", tuple(pairs)).arrays(), s, dt),
        lambda g, exact: exact),
    # central differences, pair by pair, on the CLI grad-check's rule: 1e-6
    # of each component plus 1e-9 for their own round-off, which reached
    # 9.4e-13 on a component of 1.9e-10
    "fd_gradient": (lambda pairs, s, dt: summed(fd_gradient, pairs, s, dt),
                    lambda g, exact: 1e-6 * np.abs(g) + 1e-9),
}
# a route's loss, per graded output, and each of its outputs against the
# tangent's: 16 times propagate_vec's bound, as an output y^2 moves by at
# most 2 |y| sum_i |drho_ii|, and E by at most |resid| <= 1 times each
# graded output's move; 6.6e-15 and 2.4e-14 measured
LOSS_BOUND, OUTPUT_BOUND = 1e-11, 1e-11


def gradient_failures(problem, pairs):
    """The failures of the GRADIENT rows, against the tangent."""
    s, dt = problem
    tangent, drho, energy, outputs = tangent_gradient(pairs, s, dt)
    exact = 2e-14 * steps_of(s, dt) * np.abs(tangent).max() + 1e-13 * drho
    graded = sum(len(p.targets) for p in pairs)

    def excess(route, allowed):
        e, g, y2 = route(pairs, s, dt)
        over = (np.abs(g - tangent) - allowed(g, exact)).max()
        if e is None:
            return over
        assert y2.shape == outputs.shape, f"outputs {y2.shape}"
        return max(over, abs(e - energy) - LOSS_BOUND * graded,
                   np.abs(y2 - outputs).max() - OUTPUT_BOUND)
    return failures(GRADIENT, excess)


# a chunk is uniform(-6, 6) MHz, a row with a degenerate spectrum, all
# zero among them, or the chunk before it repeated
chunk_rows = st.lists(
    st.one_of(arrays(float, 9, elements=st.floats(-6.0, 6.0)),
              st.sampled_from(list(DEGENERATE.values())), st.just("repeat")),
    min_size=1, max_size=4)
# short chunks keep the textbook loop cheap: 30 steps a chunk at dt 0.25
CHUNK_NS = 7.5


def make_problem(rows, convention, dt, fraction):
    """(schedule, dt): 7.5 ns chunks of the rows, "repeat" for the row
    before, scaled if a fraction is given so to put the fastest at that
    fraction of RK4's stability limit. A spread too small for the scale
    to be finite (near the smallest normal float) is left as it is."""
    chunks = []
    for row in rows:
        if isinstance(row, str):
            row = chunks[-1] if chunks else DEGENERATE["zero"]
        chunks.append(row)
    s = Schedule(np.array(chunks, dtype=float), CHUNK_NS, convention)
    w = np.linalg.eigvalsh(s.hamiltonians())
    spread = float((w[:, -1] - w[:, 0]).max())
    if fraction is not None and spread > 0:
        scale = fraction * RK4_STABLE_THETA / (dt * spread)
        if np.isfinite(scale):
            s = Schedule(scale * s.chunks, CHUNK_NS, s.convention)
    return s, dt


@st.composite
def problems(draw):
    """make_problem of drawn rows, convention, dt and fraction."""
    return make_problem(draw(chunk_rows),
                        draw(st.sampled_from([PLAIN, ANGULAR])),
                        draw(st.sampled_from([0.25, 0.05])),
                        draw(st.one_of(st.none(), st.floats(0.1, 0.9))))


FIXED = [n for n in CATALOG_NAMES if n not in FAMILIES]
ZERO_TARGETS = dict.fromkeys(OBSERVABLE_IDS, 0.0)
supports = st.sets(st.integers(0, 7), min_size=1).map(sorted)
seeds = st.integers(0, 2 ** 32 - 1)
# catalog states, or 1 to 80 random pure kets, real or complex, on a random
# support: batches on either side of the 64 Hermitian coordinates
batches = st.one_of(
    st.lists(st.sampled_from(FIXED), min_size=1, unique=True).map(
        lambda names: np.stack([mix(catalog(n)) for n in names])),
    st.builds(lambda *args: densities(pure_kets(*args)), st.integers(1, 80),
              supports, st.booleans(), seeds))
TRAINED_SET2 = bundled_schedule("trained_set2")
THREE = np.stack([mix(catalog(n)) for n in ("Bell_AB", "W", "GHZ_minus")])
# the problem of tests/test_mutants.py, with THREE or W_PAIR: two random
# plain chunks at half the stability limit, 30 steps each
MUTANT_PROBLEM = make_problem(
    list(np.random.default_rng(0).uniform(-6.0, 6.0, (2, 9))), PLAIN, 0.25,
    0.5)
W_PAIR = [TrainingPair(catalog("W"), {"AB": 0.3, "ABC": 0.6})]


@settings(max_examples=10, deadline=None)
@given(problems(), batches)
# the bundled length, 300 steps a chunk: one chunk of set1 on the 25 fixed
# catalog states (evolve 1.5e-14), and one of trained_set1 on 70 complex
# kets, more states than coordinates (3.7e-15)
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
# a step near the identity, 1 500 steps of a plain equal_K row at dt 0.05,
# on 26 complex kets (evolve 3.7e-14)
@example((Schedule(np.array([DEGENERATE["equal_K"]]), 75.0, PLAIN), 0.05),
         densities(pure_kets(26, list(range(8)), True, 1)))
# a row of 1e-305 MHz, whose spread of ~1e-307 no finite scale brings to
# the stability limit
@example(make_problem([np.full(9, 1e-305)], PLAIN, 0.05, 0.9), THREE)
@example(MUTANT_PROBLEM, THREE)
def test_forward_routes(problem, rhos):
    failed = forward_failures(problem, rhos)
    assert not failed, failed


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
# all-zero and repeated chunks, on W and on the mixed state M; and each
# degenerate row twice
@example((Schedule(np.array([np.linspace(-6.0, 6.0, 9), np.zeros(9),
                             np.full(9, 2.5), np.full(9, 2.5)]),
                   CHUNK_NS, ANGULAR), 0.25),
         [TrainingPair(catalog("W"), {"AB": 0.64, "ABC": 0.27}),
          TrainingPair(catalog("M"), ZERO_TARGETS)])
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
@example(MUTANT_PROBLEM, W_PAIR)
def test_gradient_routes(problem, pairs):
    failed = gradient_failures(problem, pairs)
    assert not failed, failed
