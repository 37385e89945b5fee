import numpy as np
import pytest

from qnnwitness.errors import ArityError, InvalidWeights, UnknownState, ZeroVector
from qnnwitness.states import (
    CATALOG_NAMES,
    StateSpec,
    basis_index,
    catalog,
    fig1,
    fig2,
    ket_to_density,
    mix,
    normalize,
)

S2 = 1.0 / np.sqrt(2.0)


def amplitudes(name, *args):
    spec = catalog(name, *args)
    assert spec.is_pure
    return spec.ket


def test_basis_index_orders_qubit_a_most_significant():
    assert basis_index(0, 0, 0) == 0
    assert basis_index(0, 0, 1) == 1
    assert basis_index(0, 1, 0) == 2
    assert basis_index(1, 0, 0) == 4
    assert basis_index(1, 1, 1) == 7


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(8))


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
        try:
            spec = catalog(name)
        except ArityError:
            spec = catalog(name, 0.3, 0.8)
        rho = mix(spec)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12), name
        assert np.allclose(rho, rho.conj().T), name


def test_bell_pairs_occupy_expected_basis_states():
    psi = amplitudes("Bell_AB")
    assert psi[0] == pytest.approx(S2)
    assert psi[basis_index(1, 1, 0)] == pytest.approx(S2)
    psi = amplitudes("Bell_AC")
    assert psi[basis_index(1, 0, 1)] == pytest.approx(S2)
    psi = amplitudes("Bell_BC")
    assert psi[basis_index(0, 1, 1)] == pytest.approx(S2)


def test_epr_spectator_is_balanced():
    """The unpaired qubit sits in an even superposition, so the reduced
    state of the pair is a proper singlet/triplet mix."""
    psi = amplitudes("EPR_AB")
    nz = np.flatnonzero(np.abs(psi) > 1e-12)
    assert len(nz) == 4
    assert np.allclose(np.abs(psi[nz]), 0.5)


def test_ghz_signs():
    plus = amplitudes("GHZ_plus")
    minus = amplitudes("GHZ_minus")
    assert plus[0] == pytest.approx(S2) and plus[7] == pytest.approx(S2)
    assert minus[0] == pytest.approx(S2) and minus[7] == pytest.approx(-S2)


def test_w_state_uniform_over_single_excitations():
    psi = amplitudes("W")
    support = {basis_index(0, 0, 1), basis_index(0, 1, 0), basis_index(1, 0, 0)}
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
    w = normalize(fig1(0.0, 1.0))
    assert np.allclose(np.abs(w), np.abs(amplitudes("W")))
    edge = normalize(fig1(0.7, 1.0))
    assert edge[1] == pytest.approx(edge[2]) and edge[2] == pytest.approx(edge[4])


def test_family_two_limits():
    ghz = normalize(fig2(0.0, 1.0))
    assert np.allclose(ghz, amplitudes("GHZ_plus"))
    lone = normalize(fig2(0.0, 0.0))
    assert lone[0] == pytest.approx(1.0)


def test_mixture_weights_validated():
    psi = amplitudes("GHZ_plus")
    with pytest.raises(InvalidWeights):
        StateSpec.mixture([(0.6, psi), (0.6, psi)])
    with pytest.raises(InvalidWeights):
        StateSpec.mixture([(-0.5, psi), (1.5, psi)])


def test_mixture_density_is_weighted_sum():
    a = amplitudes("GHZ_plus")
    b = amplitudes("W")
    spec = StateSpec.mixture([(0.25, a), (0.75, b)])
    assert np.allclose(mix(spec),
                       0.25 * ket_to_density(a) + 0.75 * ket_to_density(b))


def test_catalog_rejects_unknown_and_bad_arity():
    with pytest.raises(UnknownState):
        catalog("Bell_CA")
    with pytest.raises(ArityError):
        catalog("fig1")
    with pytest.raises(ArityError):
        catalog("W", 0.3)

