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
    loss_terms,
    readout,
)

def random_density(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_complex(shape, rng):
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
    rng = np.random.default_rng(7)
    rhos = np.stack([random_density(rng) for _ in range(5)])
    # off-diagonal junk leaves tr(rho P) real, so the guard stays quiet
    skewed = rhos + random_complex((5, 8, 8), rng) * (1 - np.eye(8))
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
    rng = np.random.default_rng(8)
    rho = random_density(rng)
    e0, e7 = np.diag(np.eye(8)[0]), np.diag(np.eye(8)[7])
    readout(rho + 1e-11j * e0)  # below the 1e-10 guard
    for bad in (rho + 1.0j * e0,  # imaginary population
                random_complex((8, 8), rng),
                np.stack([rho, rho + 1e-9j * e7])):
        with pytest.raises(ImaginaryTraceError):
            readout(bad)


def test_readout_rejects_non_finite_correlations():
    rng = np.random.default_rng(9)
    # NaN fails every comparison, so the imaginary-part guard alone let a
    # diverged state through as NaN outputs
    rho = random_density(rng)
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        bad = rho.copy()
        bad[3, 3] = value
        for batch in (bad, np.stack([rho, bad])):
            with pytest.raises(NonFinite, match="diverged"):
                readout(batch)


# correlator signs from the bits of each basis index 4 q_A + 2 q_B + q_C:
# sz reads +1 on bit 0 and -1 on bit 1
PAIR_QUBITS = {"AB": (0, 1), "AC": (0, 2), "BC": (1, 2), "ABC": (0, 1, 2)}
PARITY_SIGNS = np.array([[(-1.0) ** sum((i >> (2 - q)) & 1
                                        for q in PAIR_QUBITS[k])
                          for i in range(8)] for k in OBSERVABLE_IDS])


def written_out_energy(diag, targets, mask):
    """1/2 sum_k mask_k (target_k - y_k^2)^2, y_k = sum_i sign_ki diag_i."""
    total = 0.0
    for k in range(4):
        y = sum(PARITY_SIGNS[k, i] * diag[i] for i in range(8))
        total += 0.5 * mask[k] * (targets[k] - y * y) ** 2
    return total


def test_loss_terms_match_written_out_arithmetic():
    """Energies and outputs are the explicit diag(rho) . sign sums, and
    the seed is the derivative of the energy in diag(rho), by central
    differences, on a random masked batch with two leading axes."""
    rng = np.random.default_rng(10)
    rhos = np.stack([random_density(rng) for _ in range(6)]).reshape(2, 3, 8, 8)
    targets = rng.uniform(0.0, 1.0, size=(2, 3, 4))
    mask = (rng.random((2, 3, 4)) < 0.6).astype(float)
    assert 0 < mask.sum() < mask.size
    energies, outputs, seed = loss_terms(rhos, targets, mask)
    assert (energies.shape, outputs.shape, seed.shape) == (
        (2, 3), (2, 3, 4), (2, 3, 8))
    step = 1e-6
    for idx in np.ndindex(2, 3):
        diag = np.diag(rhos[idx]).real
        for k in range(4):
            y = sum(PARITY_SIGNS[k, i] * diag[i] for i in range(8))
            assert outputs[idx][k] == pytest.approx(y * y, abs=1e-14)
        assert energies[idx] == pytest.approx(
            written_out_energy(diag, targets[idx], mask[idx]), abs=1e-14)
        for j, step_j in enumerate(step * np.eye(8)):
            numeric = (written_out_energy(diag + step_j, targets[idx],
                                          mask[idx])
                       - written_out_energy(diag - step_j, targets[idx],
                                            mask[idx])) / (2 * step)
            assert seed[idx][j] == pytest.approx(numeric, abs=1e-8)


def test_commutator_of_commuting_operators_vanishes():
    for a in OBSERVABLES.values():
        for b in OBSERVABLES.values():
            assert np.array_equal(a @ b, b @ a)


def test_dagger_handles_batches():
    rng = np.random.default_rng(11)
    batch = random_complex((5, 8, 8), rng)
    out = dagger(batch)
    for i in range(5):
        assert np.array_equal(out[i], batch[i].conj().T)
