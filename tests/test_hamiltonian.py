import json
import re

import numpy as np
import pytest
from conftest import DEGENERATE

from qnnwitness.errors import QnnError
from qnnwitness.hamiltonian import (
    ANGULAR,
    BUNDLED_SCHEDULES,
    CONVENTIONS,
    DEFAULT_CHUNK_NS,
    GENERATORS,
    PARAM_NAMES,
    PLAIN,
    Schedule,
    build_hamiltonian,
    bundled_schedule,
    parameter_gradient,
    resolve_schedule,
    save_schedule,
    unflatten,
)
from qnnwitness.ops import SX, SZ, kron3

E2 = np.eye(2)


def test_generator_stack_matches_parameter_names():
    assert GENERATORS.shape == (9, 8, 8)
    assert len(PARAM_NAMES) == 9
    assert np.allclose(GENERATORS[0], kron3(SX, E2, E2))   # K_A
    assert np.allclose(GENERATORS[5], kron3(E2, E2, SZ))   # eps_C
    assert np.allclose(GENERATORS[6], kron3(SZ, SZ, E2))   # zeta_AB
    assert np.allclose(GENERATORS[8], kron3(E2, SZ, SZ))   # zeta_BC
    for g in GENERATORS:
        assert np.allclose(g, g.conj().T)


def test_build_hamiltonian_is_linear_in_parameters():
    rng = np.random.default_rng(11)
    v1 = rng.normal(size=9)
    v2 = rng.normal(size=9)
    h1 = build_hamiltonian(v1, PLAIN)
    h2 = build_hamiltonian(v2, PLAIN)
    assert np.allclose(build_hamiltonian(v1 + 2.0 * v2, PLAIN), h1 + 2.0 * h2)


def test_convention_scales_frequency():
    rng = np.random.default_rng(12)
    v = rng.normal(size=9)
    ratio = ANGULAR.omega_per_MHz / PLAIN.omega_per_MHz
    assert ratio == pytest.approx(2.0 * np.pi)
    assert np.allclose(build_hamiltonian(v, ANGULAR),
                       ratio * build_hamiltonian(v, PLAIN))


@pytest.mark.parametrize("convention", [PLAIN, ANGULAR])
def test_parameter_gradient_is_the_transpose_of_build_hamiltonian(convention):
    """<T(M), p> = <M, H(p)> for the linear map H = build_hamiltonian and
    its transpose T = parameter_gradient, on random stacks."""
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = rng.normal(size=(4, 9))
        m = rng.normal(size=(4, 8, 8))
        lhs = np.sum(parameter_gradient(m, convention) * p)
        rhs = np.sum(m * build_hamiltonian(p, convention))
        assert abs(lhs - rhs) <= 1e-14
    assert parameter_gradient(m[0], convention).shape == (9,)


def test_build_hamiltonian_broadcasts_over_chunks():
    rng = np.random.default_rng(14)
    chunks = rng.normal(size=(4, 9))
    stacked = build_hamiltonian(chunks, PLAIN)
    assert stacked.shape == (4, 8, 8)
    for k in range(4):
        assert np.allclose(stacked[k], build_hamiltonian(chunks[k], PLAIN))
    # the rows the tests take for degenerate spectra have them
    w = np.linalg.eigvalsh(build_hamiltonian(
        np.array(list(DEGENERATE.values())), PLAIN))
    assert (np.diff(w).min(axis=1) < 1e-12).all()


def test_schedule_rejects_non_finite_values_and_bad_duration():
    rng = np.random.default_rng(15)
    chunks = rng.normal(size=(4, 9))
    for duration in (0.0, -75.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="chunk_duration_ns"):
            Schedule(chunks, duration, PLAIN)
    with pytest.raises(ValueError, match="chunks must hold at least one row"):
        Schedule(chunks[:0], DEFAULT_CHUNK_NS, PLAIN)
    for bad in (np.nan, np.inf):
        corrupt = chunks.copy()
        corrupt[2, 5] = bad
        s = Schedule(corrupt, DEFAULT_CHUNK_NS, PLAIN)
        with pytest.raises(QnnError):
            s.hamiltonians()
        with pytest.raises(QnnError):
            build_hamiltonian(corrupt[None], PLAIN)


def test_schedule_refuses_chunks_that_are_not_n_by_9():
    """Chunks of another shape are refused, never reshaped into rows of 9."""
    for bad in (np.arange(36.0).reshape(9, 4), np.zeros(18),
                np.zeros((1, 4, 9))):
        with pytest.raises(ValueError, match=re.escape(
                f"chunks must have shape (n_chunks, 9), got {bad.shape}")):
            Schedule(bad, DEFAULT_CHUNK_NS, PLAIN)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(16)
    s = Schedule(rng.normal(size=(4, 9)), DEFAULT_CHUNK_NS, PLAIN)
    flat = s.flatten()
    assert flat.shape == (36,)
    back = unflatten(flat, s)
    assert np.allclose(back.chunks, s.chunks)
    assert back.convention is s.convention


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    s = Schedule(rng.normal(size=(4, 9)), DEFAULT_CHUNK_NS, PLAIN)
    path = tmp_path / "sched.json"
    save_schedule(s, path)
    back = resolve_schedule(path)
    assert np.allclose(back.chunks, s.chunks)
    assert back.chunk_duration == s.chunk_duration
    assert back.convention.name == "plain"


def test_load_applies_caller_default_convention(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"chunk_duration_ns": 75.0,
                                "chunks": [[0.0] * 9] * 4}))
    assert resolve_schedule(path).convention.name == "plain"
    angular = resolve_schedule(path, "angular")
    assert angular.convention is CONVENTIONS["angular"]
    with pytest.raises(ValueError, match="one of angular, plain, got 'hertz'"):
        resolve_schedule(path, "hertz")


def test_bundled_schedules_present_and_well_formed():
    for name in BUNDLED_SCHEDULES:
        s = bundled_schedule(name)
        assert s.chunks.shape == (4, 9)
        assert s.chunk_duration == pytest.approx(75.0)
        assert s.convention.name == "plain"


def test_resolve_schedule_accepts_all_three_forms(tmp_path):
    s = bundled_schedule("set1")
    assert resolve_schedule(s) is s
    assert np.allclose(resolve_schedule("set1").chunks, s.chunks)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert np.allclose(resolve_schedule(str(path)).chunks, s.chunks)


def test_trained_schedules_differ_from_starting_point():
    init = bundled_schedule("initial")
    for name in ("trained_set1", "trained_set2"):
        trained = bundled_schedule(name)
        assert not np.allclose(trained.chunks, init.chunks)
