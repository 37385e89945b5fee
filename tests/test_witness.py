import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnnwitness import witness
from qnnwitness.cli import EXIT_CODES
from qnnwitness.errors import (
    CalibrationInconclusive,
    DivergenceError,
    InvalidWeights,
    UnphysicalState,
)
from qnnwitness.hamiltonian import PLAIN, Schedule, bundled_schedule
from qnnwitness.ops import OBSERVABLE_IDS, readout
from qnnwitness.propagate import IntegratorConfig, evolve
from qnnwitness.states import FAMILIES, StateSpec, catalog, mix
from qnnwitness.witness import (
    BELL_REFERENCE,
    MAX_SWEEP_N,
    SweepGrid,
    calibrate,
    classify,
    crossing_csv,
    evaluate,
    evaluate_many,
    sweep,
    sweep_csv,
)

FAST = IntegratorConfig(0.25)


def test_classify_thresholds():
    labels = classify({"AB": 0.05, "AC": 0.3, "BC": 0.95, "ABC": 0.1})
    assert labels == {"AB": "none", "AC": "partial",
                      "BC": "strong", "ABC": "partial"}


def test_evaluate_accepts_name_spec_and_expression():
    s = bundled_schedule("trained_set1")
    by_name = evaluate("Bell_AB", s, FAST)
    by_spec = evaluate(catalog("Bell_AB"), s, FAST)
    by_expr = evaluate("|000> + |110>", s, FAST)
    for key in by_name.outputs:
        assert by_name.outputs[key] == pytest.approx(by_spec.outputs[key])
        assert by_name.outputs[key] == pytest.approx(by_expr.outputs[key])


def test_evaluate_refuses_a_nan_weight():
    # a NaN mixture weight used to give NaN outputs labelled "none"
    with pytest.raises(InvalidWeights):
        evaluate(StateSpec(weights=(np.nan,), kets=(tuple(np.eye(8)[0]),)),
                 bundled_schedule("trained_set1"), FAST)


def test_trained_network_flags_the_right_pair():
    s = bundled_schedule("trained_set1")
    rep = evaluate("Bell_AC", s, FAST)
    assert rep.labels["AC"] == "strong"
    assert rep.labels["AB"] == "none"
    assert rep.labels["BC"] == "none"


def test_evaluate_many_matches_single_calls():
    s = bundled_schedule("trained_set2")
    names = ("GHZ_plus", "W")
    rhos = np.stack([mix(catalog(n)) for n in names])
    outs = evaluate_many(rhos, s, FAST)
    for i, name in enumerate(names):
        single = evaluate(name, s, FAST).outputs
        for j, key in enumerate(("AB", "AC", "BC", "ABC")):
            assert outs[i, j] == pytest.approx(single[key])


def test_evaluate_many_of_no_states_is_empty():
    """An empty stack is no states to check or step: (0, 4) outputs."""
    outs = evaluate_many(np.empty((0, 8, 8)), bundled_schedule("trained_set2"),
                         FAST)
    assert outs.shape == (0, 4)


@pytest.mark.parametrize("probe, what", [
    (np.eye(8, k=1), r"\|rho - rho\+\| = 1 "),  # trace 0, not Hermitian
    (3 * np.eye(8), r"\|tr rho - 1\| = 23 "),
    (np.diag([-1.0, 2.0, 0, 0, 0, 0, 0, 0]), r"eigenvalue\) = 1 "),
], ids=["non_hermitian", "trace_24", "negative_eigenvalue"])
def test_evaluate_many_refuses_an_unphysical_state(probe, what):
    """A matrix that is not Hermitian, not of trace 1 or not positive
    semidefinite is refused with the CLI's exit 1, naming the state and
    the check, instead of giving plausible outputs."""
    rhos = np.stack([mix(catalog("W")), probe])
    with pytest.raises(UnphysicalState, match="state 1 .*" + what) as info:
        evaluate_many(rhos, bundled_schedule("trained_set2"), FAST)
    assert next(code for kind, code in EXIT_CODES
                if isinstance(info.value, kind)) == 1


def test_final_density_is_linear_in_the_input():
    """Mixing two inputs mixes their final densities, so every signed
    final-time expectation is the weighted sum of the parts."""
    s = bundled_schedule("trained_set2")
    a = mix(catalog("GHZ_plus"))
    b = mix(catalog("W"))
    blend = 0.3 * a + 0.7 * b
    finals, _ = evolve(np.stack([a, b, blend]), s, FAST)
    ea, eb, eblend = readout(finals)
    assert np.abs(eblend - (0.3 * ea + 0.7 * eb)).max() < 1e-10


@settings(max_examples=12, deadline=None)
@given(arrays(float, (2, 2, 8), elements=st.floats(-1.0, 1.0)),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_outputs_are_bounded_phase_free_and_linear_in_weights(
        parts, weight, phase):
    kets = parts[:, 0] + 1j * parts[:, 1]
    assume(np.linalg.norm(kets, axis=1).min() > 1e-3)
    a, b = (StateSpec.pure(k) for k in kets)
    blend = StateSpec.mixture([(weight, kets[0]), (1.0 - weight, kets[1])])
    rhos = np.stack([mix(a), mix(b), mix(blend),
                     mix(StateSpec.pure(a.ket * np.exp(1j * phase)))])
    s = bundled_schedule("trained_set2")

    out = evaluate_many(rhos, s, FAST)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.abs(out[3] - out[0]).max() <= 1e-12

    finals, _ = evolve(rhos[:3], s, FAST)
    ea, eb, eblend = readout(finals)
    assert np.abs(eblend - (weight * ea + (1.0 - weight) * eb)).max() <= 1e-12


# index of each qubit pair in the zeta block of PARAM_NAMES and in the
# pairwise part of OBSERVABLE_IDS alike
PAIR_INDEX = {(0, 1): 0, (0, 2): 1, (1, 2): 2}


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(3)),
       arrays(float, (4, 9), elements=st.floats(-6.0, 6.0)),
       arrays(float, (2, 8), elements=st.floats(-1.0, 1.0)))
def test_relabelling_the_qubits_permutes_the_outputs(perm, params, parts):
    """New qubit i is old qubit perm[i]: with K, eps and zeta relabelled
    to match, each pairwise output moves with its pair and ABC stays."""
    ket = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(ket) > 1e-3)
    rho = mix(StateSpec.pure(ket))
    p = np.array(perm)
    moved = [PAIR_INDEX[tuple(sorted(p[[i, j]]))] for i, j in PAIR_INDEX]
    columns = np.concatenate([p, 3 + p, 6 + np.array(moved)])
    axes = np.concatenate([p, 3 + p])
    rho_relabelled = rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)

    out = evaluate_many(rho[None], Schedule(params), FAST)[0]
    got = evaluate_many(rho_relabelled[None], Schedule(params[:, columns]),
                        FAST)[0]
    assert np.abs(got - out[moved + [3]]).max() <= 1e-10


def test_calibration_selects_matching_convention():
    result = calibrate(bundled_schedule("set1"), cfg=FAST)
    assert set(result.scores) == {"plain", "angular"}
    assert result.convention.name == "plain"
    assert result.scores["plain"] == pytest.approx(0.1393, abs=2e-3)
    assert result.scores["angular"] == pytest.approx(0.4376, abs=2e-3)
    assert result.scores["plain"] < 0.2


def test_calibration_inconclusive_for_nonsense_parameters():
    scrambled = Schedule(np.full((4, 9), 20.0), 75.0,
                         bundled_schedule("set1").convention)
    with pytest.raises(CalibrationInconclusive):
        calibrate(scrambled, cfg=FAST)


def test_calibration_reference_shape():
    assert len(BELL_REFERENCE) == 3
    assert all(0.9 < v <= 1.0 for v in BELL_REFERENCE)


def test_sweep_grid_shape_and_corners():
    s = bundled_schedule("trained_set2")
    grid = sweep("fig2", 5, s, FAST)
    assert grid.outputs.shape == (5, 5, 4)
    assert np.allclose(grid.alphas, np.linspace(0.0, 1.0, 5))
    # the (alpha=0, beta=1) corner is the trained three-way state
    corner = dict(zip(OBSERVABLE_IDS, grid.outputs[4, 0]))
    direct = evaluate("GHZ_plus", s, FAST).outputs
    assert corner["ABC"] == pytest.approx(direct["ABC"], abs=1e-9)
    # the (0, 0) corner collapses to a product state: nothing fires
    null = dict(zip(OBSERVABLE_IDS, grid.outputs[0, 0]))
    assert max(null["AB"], null["AC"], null["BC"]) < 0.05


def test_sweep_validates_arguments(monkeypatch):
    # the sweep families are the catalog rows that require arguments
    assert FAMILIES == ("fig1", "fig2")
    s = bundled_schedule("trained_set2")
    for family in ("fig3", "W", "Cr_AB"):
        with pytest.raises(ValueError, match="unknown sweep family"):
            sweep(family, 5, s, FAST)
    with pytest.raises(ValueError):
        sweep("fig2", 1, s, FAST)
    # a float or a string is refused by name, not by a TypeError from
    # np.linspace or from the comparison with 2
    for n in (2.0, "3", None, True):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            sweep("fig2", n, s, FAST)
    # a grid past the limit is refused before its first state is built
    def no_state(*args):
        pytest.fail("a sweep state was built for a grid past the limit")

    monkeypatch.setattr(witness, "catalog", no_state)
    for n in (MAX_SWEEP_N + 1, 100_000):
        with pytest.raises(ValueError, match=rf"^n = {n} is more than the "
                           rf"limit of {MAX_SWEEP_N} grid points per axis"):
            sweep("fig2", n, s, FAST)
    # and so is a grid that could not be stepped: a dt that does not
    # divide the chunk, or one past RK4's stability limit at 1 150 MHz
    with pytest.raises(ValueError, match="not an integer multiple of dt"):
        sweep("fig2", MAX_SWEEP_N, s, IntegratorConfig(0.4))
    fast = Schedule(np.full((4, 9), 1150.0), 75.0, PLAIN)
    with pytest.raises(DivergenceError,
                       match=r"chunk 0: dt 0\.25 ns is past RK4's stability"):
        sweep("fig2", MAX_SWEEP_N, fast, FAST)


def test_fig1_sweep_has_no_crossing_locus():
    s = bundled_schedule("trained_set1")
    grid = sweep("fig1", 3, s, FAST)
    assert grid.crossing == ()


def test_fig1_symmetry_at_full_mixing():
    """With beta = 1 the family is symmetric under swapping the roles of
    the first two qubits, so the AB and AC outputs coincide."""
    s = bundled_schedule("trained_set1")
    grid = sweep("fig1", 3, s, FAST)
    ab, ac = grid.outputs[2, 1, :2]  # beta = 1, alpha = 0.5
    assert ab == pytest.approx(ac, abs=0.05)


def test_crossing_rows_interpolate_between_grid_points():
    s = bundled_schedule("trained_set2")
    grid = sweep("fig2", 9, s, FAST)
    assert len(grid.crossing) > 0
    for beta, alpha_star in grid.crossing:
        assert 0.0 <= alpha_star <= 1.0
        assert beta in grid.betas
    # the locus tracks the diagonal
    mids = [(b, a) for b, a in grid.crossing if 0.2 <= b <= 0.9]
    assert mids and max(abs(a - b) for b, a in mids) < 0.15


def crossing_of(diff):
    """The locus of one beta row whose out_AB - out_ABC is diff, over
    evenly spaced alphas in [0, 1]."""
    outputs = np.zeros((1, len(diff), 4))
    outputs[0, :, 0] = diff
    return witness._crossing_locus(np.linspace(0.0, 1.0, len(diff)),
                                   np.array([0.5]), outputs)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_a_zero_difference_crosses_at_its_own_alpha(sign):
    """A zero at the first, a middle or the last sample is a crossing at
    that alpha, whichever side the row comes from; a sign change between
    samples is interpolated, and a row that keeps one sign has none."""
    for diff, alpha in (([0.0, 0.1, 0.2], 0.0), ([0.2, 0.0, -0.1], 0.5),
                        ([0.2, 0.0, 0.1], 0.5), ([0.2, 0.1, 0.0], 1.0),
                        ([0.75, -0.25, -0.5], 0.375)):
        assert crossing_of(sign * np.array(diff)) == ((0.5, alpha),)
    assert crossing_of(sign * np.array([0.3, 0.2, 0.1])) == ()


def test_sweep_csv_layout(tmp_path):
    s = bundled_schedule("trained_set2")
    grid = sweep("fig2", 3, s, FAST)
    gpath = tmp_path / "grid.csv"
    cpath = tmp_path / "cross.csv"
    sweep_csv(grid, gpath)
    crossing_csv(grid, cpath)

    lines = gpath.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,out_AB,out_AC,out_BC,out_ABC"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    clines = cpath.read_text().strip().splitlines()
    assert clines[0] == "beta,alpha_star"
    assert len(clines) == 1 + len(grid.crossing)

    # exact bytes, rows ending in \n, of a grid whose values are known
    grid = SweepGrid("fig2", np.array([0.0, 1.0]), np.array([0.0, 0.5]),
                     np.arange(16).reshape(2, 2, 4) / 8, ((0.5, 1 / 3),))
    sweep_csv(grid, gpath)
    crossing_csv(grid, cpath)
    assert gpath.read_bytes() == (b"alpha,beta,out_AB,out_AC,out_BC,out_ABC\n"
                                  b"0,0,0,0.125,0.25,0.375\n"
                                  b"1,0,0.5,0.625,0.75,0.875\n"
                                  b"0,0.5,1,1.125,1.25,1.375\n"
                                  b"1,0.5,1.5,1.625,1.75,1.875\n")
    assert cpath.read_bytes() == b"beta,alpha_star\n0.5,0.333333333333\n"
