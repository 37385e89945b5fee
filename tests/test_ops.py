import numpy as np
import pytest

from qnnwitness.errors import ImaginaryTraceError, NonFinite
from qnnwitness.ops import (
    OBSERVABLE_IDS,
    OBSERVABLES,
    SIGNS,
    SX,
    SZ,
    dagger,
    embed_pauli,
    kron3,
    readout,
)

RNG = np.random.default_rng(7)


def random_density(rng=RNG):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_pauli_algebra():
    assert np.allclose(SX @ SX, np.eye(2))
    assert np.allclose(SZ @ SZ, np.eye(2))
    assert np.allclose(SX @ SZ + SZ @ SX, 0)


def test_embed_acts_on_named_qubit_only():
    # |000> flipped on B lands on |010>, index 2
    psi = np.zeros(8)
    psi[0] = 1.0
    flipped = embed_pauli("x", "B") @ psi
    assert flipped[2] == 1.0 and np.count_nonzero(flipped) == 1


def test_observables_are_parity_products():
    assert set(OBSERVABLE_IDS) == set(OBSERVABLES)
    zz = np.kron(SZ, SZ)
    assert np.allclose(OBSERVABLES["AB"], np.kron(zz, np.eye(2)))
    assert np.allclose(OBSERVABLES["BC"], np.kron(np.eye(2), zz))
    assert np.allclose(OBSERVABLES["ABC"], kron3(SZ, SZ, SZ))
    for k, key in enumerate(OBSERVABLE_IDS):
        obs = OBSERVABLES[key]
        assert np.array_equal(obs, dagger(obs))
        assert np.allclose(obs @ obs, np.eye(8))
        assert np.array_equal(obs, np.diag(SIGNS[k]))


def test_expectation_is_real_diagonal_sum():
    """readout is Re tr(rho P_k) for each sign row, on single states and
    batches alike, including non-Hermitian input with a real trace."""
    rhos = np.stack([random_density() for _ in range(5)])
    # off-diagonal junk leaves tr(rho P) real, so the guard stays quiet
    skewed = rhos + random_complex((5, 8, 8)) * (1 - np.eye(8))
    for batch in (rhos, skewed):
        out = readout(batch)
        assert out.shape == (5, 4) and out.dtype == float
        for i, rho in enumerate(batch):
            assert np.array_equal(readout(rho), out[i])
            for k in range(4):
                ref = np.trace(rho @ np.diag(SIGNS[k]))
                assert out[i, k] == pytest.approx(ref.real, abs=1e-14)
    signs_ab = np.array([1, 1, -1, -1, -1, -1, 1, 1])
    assert readout(rhos[0])[0] == pytest.approx(
        float(np.sum(signs_ab * np.diag(rhos[0]).real)))


def test_expectation_rejects_complex_trace():
    rho = random_density()
    e0, e7 = np.diag(np.eye(8)[0]), np.diag(np.eye(8)[7])
    readout(rho + 1e-11j * e0)  # below the 1e-10 guard
    for bad in (rho + 1.0j * e0,  # imaginary population
                random_complex((8, 8)),
                np.stack([rho, rho + 1e-9j * e7])):
        with pytest.raises(ImaginaryTraceError):
            readout(bad)


def test_readout_rejects_non_finite_correlations():
    # NaN fails every comparison, so the imaginary-part guard alone let a
    # diverged state through as NaN outputs
    rho = random_density()
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        bad = rho.copy()
        bad[3, 3] = value
        for batch in (bad, np.stack([rho, bad])):
            with pytest.raises(NonFinite, match="diverged"):
                readout(batch)


def test_commutator_of_commuting_operators_vanishes():
    for a in OBSERVABLES.values():
        for b in OBSERVABLES.values():
            assert np.array_equal(a @ b, b @ a)


def test_dagger_handles_batches():
    batch = RNG.normal(size=(5, 8, 8)) + 1j * RNG.normal(size=(5, 8, 8))
    out = dagger(batch)
    for i in range(5):
        assert np.array_equal(out[i], batch[i].conj().T)
