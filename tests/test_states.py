import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness.errors import (
    ArityError,
    InvalidWeights,
    NonFinite,
    UnknownState,
    ZeroVector,
)
from qnnwitness.hamiltonian import bundled_schedule
from qnnwitness.propagate import IntegratorConfig
from qnnwitness.states import (
    CATALOG_NAMES,
    FAMILIES,
    WEIGHT_TOL,
    StateSpec,
    catalog,
    mix,
    normalize,
)
from qnnwitness.witness import evaluate

S2 = 1.0 / np.sqrt(2.0)


def ket_to_density(ket):
    ket = np.asarray(ket, dtype=complex).reshape(8)
    return np.outer(ket, ket.conj())


def amplitudes(name, *args):
    spec = catalog(name, *args)
    assert spec.is_pure
    return spec.ket


def test_basis_index_orders_qubit_a_most_significant():
    """Index 4*q_A + 2*q_B + q_C: a product state is the Kronecker product
    of its qubits in the order A, B, C."""
    expected = np.kron(np.kron([0.8, 1.0], [0.0, 1.0]), [1.0, 0.7])
    assert np.allclose(amplitudes("F3"), expected / np.linalg.norm(expected))
    # fig1 puts beta on |001>, fig2 alpha on |110> and beta on |111>
    for args, support in ((("fig1", 0.0, 0.5), [1, 2, 4]),
                          (("fig2", 0.5, 0.0), [0, 6]),
                          (("fig2", 0.0, 0.5), [0, 7])):
        assert list(np.flatnonzero(amplitudes(*args))) == support


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(8))


def test_normalize_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf, 1e200):
        amps = np.ones(8, dtype=complex)
        amps[3] = bad
        with pytest.raises(NonFinite):
            normalize(amps)


def linalg_normalize(raw):
    """normalize as np.linalg.norm divided twice: the oracle for the
    inlined norm."""
    amps = np.asarray(raw, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise NonFinite("amplitudes must be finite, with a norm below ~1e154")
    if norm < 1e-150:
        raise ZeroVector("cannot normalize the zero vector")
    amps = amps.reshape(8) / norm
    return amps / np.linalg.norm(amps)


@st.composite
def scaled_kets(draw):
    """8 amplitudes in the unit square times 10^-160..10^160, which spans
    both refusals by size, sometimes with one non-finite entry."""
    parts = draw(arrays(float, 16, elements=st.floats(-1.0, 1.0)))
    ket = (parts[:8] + 1j * parts[8:]) * 10.0 ** draw(st.integers(-160, 160))
    bad = draw(st.sampled_from(
        [None, None, None, np.nan, np.inf, -np.inf, complex(0.0, np.nan)]))
    if bad is not None:
        ket[draw(st.integers(0, 7))] = bad
    return ket


@settings(max_examples=300, deadline=None)
@given(scaled_kets())
@example(np.full(8, 1e-140 + 0j)).via("the smallest scale kept")
@example(np.full(8, 1e150 + 0j)).via("the largest scale kept")
@example(np.full(8, 1e200 + 0j)).via("the overflow")
def test_normalize_is_the_twice_divided_linalg_norm(ket):
    try:
        want = linalg_normalize(ket)
    except (NonFinite, ZeroVector) as refusal:
        with pytest.raises(type(refusal), match=f"^{re.escape(str(refusal))}$"):
            normalize(ket)
    else:
        assert normalize(ket).tobytes() == want.tobytes()


def test_direct_construction_normalizes_every_ket():
    ket = np.zeros(8)
    ket[[0, 3]] = 0.6  # 0.6 (|000> + |011>)
    spec = StateSpec(weights=(1.0,), kets=(tuple(ket),))
    bell = catalog("Bell_BC")
    assert np.abs(mix(spec) - mix(bell)).max() <= 1e-15
    s, cfg = bundled_schedule("trained_set1"), IntegratorConfig(0.25)
    got, want = evaluate(spec, s, cfg), evaluate(bell, s, cfg)
    assert got.labels == want.labels
    assert got.outputs == pytest.approx(want.outputs, abs=1e-12)


def test_direct_construction_refuses_bad_kets():
    with pytest.raises(ZeroVector):
        StateSpec(weights=(1.0,), kets=(tuple(np.zeros(8)),))
    with pytest.raises(ValueError, match="8 amplitudes, got 3"):
        StateSpec(weights=(1.0,), kets=((1.0, 0.0, 0.0),))
    with pytest.raises(ZeroVector):
        StateSpec.mixture([(0.5, np.eye(8)[0]), (0.5, np.zeros(8))])
    with pytest.raises(InvalidWeights, match="one weight per component"):
        StateSpec(weights=(1.0,), kets=())


def test_ket_to_density_is_projector():
    psi = normalize(np.arange(1.0, 9.0))
    rho = ket_to_density(psi)
    assert np.allclose(rho @ rho, rho)
    assert np.trace(rho) == pytest.approx(1.0)


def test_global_phase_leaves_density_alone():
    psi = amplitudes("W")
    assert np.allclose(ket_to_density(psi * np.exp(1.234j)),
                       ket_to_density(psi))


def test_catalog_states_are_normalized():
    for name in CATALOG_NAMES:
        rho = mix(catalog(name, *((0.3, 0.8) if name in FAMILIES else ())))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12), name
        assert np.allclose(rho, rho.conj().T), name


def test_bell_pairs_occupy_expected_basis_states():
    psi = amplitudes("Bell_AB")
    assert psi[0] == pytest.approx(S2)
    assert psi[0b110] == pytest.approx(S2)
    psi = amplitudes("Bell_AC")
    assert psi[0b101] == pytest.approx(S2)
    psi = amplitudes("Bell_BC")
    assert psi[0b011] == pytest.approx(S2)


def test_epr_spectator_is_balanced():
    """The unpaired qubit sits in an even superposition, so the reduced
    state of the pair is a proper singlet/triplet mix."""
    psi = amplitudes("EPR_AB")
    nz = np.flatnonzero(np.abs(psi) > 1e-12)
    assert len(nz) == 4
    assert np.allclose(np.abs(psi[nz]), 0.5)


# name, argument -> {basis index: amplitude} before normalization; Cr is
# gamma|10> + |11> on the pair with the spectator in |0>, EPR |01> + s|10>
# and Pprime |00> + |01> + s|10> with the spectator in |0> + |1>
PAIRWISE_AT_AN_ARGUMENT = [
    ("Cr_AB", 0.3, {4: 0.3, 6: 1}),
    ("Cr_AC", 0.3, {4: 0.3, 5: 1}),
    ("Cr_BC", 0.3, {2: 0.3, 3: 1}),
    ("EPR_AB", -1.0, {2: 1, 3: 1, 4: -1, 5: -1}),
    ("EPR_AC", -1.0, {1: 1, 3: 1, 4: -1, 6: -1}),
    ("EPR_BC", -1.0, {1: 1, 5: 1, 2: -1, 6: -1}),
    ("Pprime_AB", -1.0, {0: 1, 1: 1, 2: 1, 3: 1, 4: -1, 5: -1}),
    ("Pprime_AC", -1.0, {0: 1, 2: 1, 1: 1, 3: 1, 4: -1, 6: -1}),
    ("Pprime_BC", -1.0, {0: 1, 4: 1, 1: 1, 5: 1, 2: -1, 6: -1}),
]


@pytest.mark.parametrize("name, arg, support", PAIRWISE_AT_AN_ARGUMENT)
def test_pairwise_states_at_an_argument(name, arg, support):
    expected = np.zeros(8)
    expected[list(support)] = list(support.values())
    assert np.allclose(amplitudes(name, arg),
                       expected / np.linalg.norm(expected), atol=1e-15)


def test_ghz_signs():
    plus = amplitudes("GHZ_plus")
    minus = amplitudes("GHZ_minus")
    assert plus[0] == pytest.approx(S2) and plus[7] == pytest.approx(S2)
    assert minus[0] == pytest.approx(S2) and minus[7] == pytest.approx(-S2)


def test_w_state_uniform_over_single_excitations():
    psi = amplitudes("W")
    support = {0b001, 0b010, 0b100}
    assert set(np.flatnonzero(np.abs(psi) > 1e-12)) == support
    assert np.allclose(psi[sorted(support)], 1.0 / np.sqrt(3.0))


def test_mixed_reference_state_is_even_classical_mixture():
    spec = catalog("M")
    assert not spec.is_pure
    rho = mix(spec)
    expected = np.zeros((8, 8))
    expected[0, 0] = 0.5
    expected[7, 7] = 0.5
    assert np.allclose(rho, expected)


def test_family_one_limits():
    # alpha scales |000>, beta scales |001>; at (0, 1) the three
    # single-excitation-or-less terms become the W pattern
    w = amplitudes("fig1", 0.0, 1.0)
    assert np.allclose(np.abs(w), np.abs(amplitudes("W")))
    edge = amplitudes("fig1", 0.7, 1.0)
    assert edge[1] == pytest.approx(edge[2]) and edge[2] == pytest.approx(edge[4])


def test_family_two_limits():
    ghz = amplitudes("fig2", 0.0, 1.0)
    assert np.allclose(ghz, amplitudes("GHZ_plus"))
    lone = amplitudes("fig2", 0.0, 0.0)
    assert lone[0] == pytest.approx(1.0)


def test_mixture_reads_any_iterable_of_pairs_once():
    weights, kets = (0.5, 0.5), (np.eye(8)[0], np.eye(8)[7])
    spec = StateSpec.mixture(tuple(zip(weights, kets)))
    assert StateSpec.mixture(zip(weights, kets)) == spec
    assert StateSpec.mixture((w, k) for w, k in zip(weights, kets)) == spec
    assert catalog("M") == spec


def test_mixture_weights_validated():
    psi = amplitudes("GHZ_plus")
    with pytest.raises(InvalidWeights):
        StateSpec.mixture([(0.6, psi), (0.6, psi)])
    with pytest.raises(InvalidWeights):
        StateSpec.mixture([(-0.5, psi), (1.5, psi)])
    e0 = tuple(np.eye(8)[0])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidWeights):
            StateSpec(weights=(bad,), kets=(e0,))
        with pytest.raises(InvalidWeights):
            StateSpec.mixture([(0.5, psi), (bad, psi)])
        with pytest.raises(NonFinite):
            StateSpec(weights=(1.0,), kets=((bad,) + e0[1:],))


@pytest.mark.parametrize("build", [
    lambda weights, kets: StateSpec(weights=weights, kets=kets),
    lambda weights, kets: StateSpec.mixture(zip(weights, kets)),
], ids=["direct", "mixture"])
@pytest.mark.parametrize("weight, message", [
    (None, "mixture weights must be finite, got [nan  1.]"),
    (0.5j, "mixture weight 0.5j is not a real number"),
    (np.complex128(0.5),
     "mixture weight np.complex128(0.5+0j) is not a real number"),
    ("abc", "mixture weight 'abc' is not a real number"),
    (True, "mixture weight True is not a real number"),
    (False, "mixture weight False is not a real number"),
    (np.bool_(True), "mixture weight np.True_ is not a real number"),
    ([0.5], "mixture weight [0.5] is not a real number"),
    (10 ** 400, "mixture weight 1" + "0" * 39 + " is not a real number"),
    ("0.5", None),
    (np.float32(0.5), None),
], ids=["None", "complex", "numpy_complex", "text", "True", "False",
        "numpy_bool", "list", "huge_int", "numeric_text", "float32"])
def test_both_constructors_read_each_weight_alike(build, weight, message):
    """Each weight is read once, in StateSpec, as numpy reads a float:
    a bool, a complex number or anything numpy does not read as one float
    is refused by name, whichever constructor is given it."""
    kets = (np.eye(8)[0], np.eye(8)[7])
    if message is None:
        assert build((weight, 0.5), kets).weights == (0.5, 0.5)
        return
    with pytest.raises(InvalidWeights) as raised:
        build((weight, 1.0), kets)
    assert str(raised.value) == message


def numpy_weight_refusal(weights):
    """StateSpec's weight checks as numpy reductions, the oracle for its
    float checks: the refusal's message, or None to accept."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        return f"mixture weights must be finite, got {w}"
    if np.any(w < 0):
        return f"negative mixture weight {w.min()}"
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        return f"mixture weights sum to {float(w.sum())!r}, not 1"
    return None


@st.composite
def weight_tuples(draw):
    """1 to 10 weights: any mix of [-1, 1], NaN and +-inf, or positive
    weights scaled to sum to 1, or to 1 +- about WEIGHT_TOL."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        weight = st.one_of(st.floats(-1.0, 1.0),
                           st.sampled_from([np.nan, np.inf, -np.inf]))
        return tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    off = draw(st.sampled_from([0.0, 1.0, -1.0]))
    off *= WEIGHT_TOL * draw(st.floats(0.999, 1.001))
    return tuple(x / sum(raw) * (1.0 + off) for x in raw)


@settings(max_examples=300, deadline=None)
@given(weight_tuples())
@example(()).via("no weights")
@example((-0.0,)).via("a negative zero")
@example((0.1,) * 10).via("numpy's own sum")
@example(("0.5", "0.5")).via("numbers written as strings")
@example((np.float32(0.25), np.float32(0.75))).via("single precision")
def test_weights_are_checked_as_the_numpy_reductions_did(weights):
    """An accepted spec keeps its weights as the Python floats it checked,
    and its kets as Python complex numbers, and mix weights each
    projector by them; a refused one fails as the numpy reductions
    would."""
    kets = tuple(np.eye(8)[k % 8] for k in range(len(weights)))
    refusal = numpy_weight_refusal(weights)
    if refusal is None:
        spec = StateSpec(weights=weights, kets=kets)
        floats = np.asarray(weights, dtype=float)
        assert spec.weights == tuple(floats.tolist())
        assert all(type(w) is float for w in spec.weights)
        assert all(type(a) is complex for k in spec.kets for a in k)
        assert np.array_equal(mix(spec), sum(
            w * ket_to_density(k) for w, k in zip(floats, kets)))
    else:
        with pytest.raises(InvalidWeights) as raised:
            StateSpec(weights=weights, kets=kets)
        assert (raised.type, str(raised.value)) == (InvalidWeights, refusal)


def test_mixture_density_is_weighted_sum():
    a = amplitudes("GHZ_plus")
    b = amplitudes("W")
    spec = StateSpec.mixture([(0.25, a), (0.75, b)])
    assert np.allclose(mix(spec),
                       0.25 * ket_to_density(a) + 0.75 * ket_to_density(b))


@pytest.mark.parametrize("with_mixtures", [True, False],
                         ids=["with_mixtures", "all_pure"])
def test_mix_is_the_loop_over_components(with_mixtures):
    """mix equals, bit for bit, the loop that adds each weighted projector
    to a zero density in component order: for every catalog state and
    mixtures of one to three kets, and for the pure states alone."""
    rng = np.random.default_rng(8)
    specs = [catalog(n, *((0.3, 0.8) if n in FAMILIES else ()))
             for n in CATALOG_NAMES]
    if not with_mixtures:
        specs = [spec for spec in specs if spec.is_pure]
    for parts in (1, 2, 3) if with_mixtures else ():
        kets = rng.normal(size=(parts, 8)) + 1j * rng.normal(size=(parts, 8))
        specs.append(StateSpec.mixture(
            list(zip(rng.dirichlet(np.ones(parts)), kets))))
    for spec in specs:
        rho = np.zeros((8, 8), dtype=complex)
        for w, ket in spec.components():
            rho += w * ket_to_density(ket)
        # bytes, not values: a -0.0 part where the loop has +0.0 is a change
        assert mix(spec).tobytes() == rho.tobytes()


def test_catalog_rejects_unknown_and_bad_arity():
    with pytest.raises(UnknownState):
        catalog("Bell_CA")
    with pytest.raises(ArityError):
        catalog("fig1")
    with pytest.raises(ArityError):
        catalog("W", 0.3)

