import numpy as np
import pytest

from qnnwitness.errors import CalibrationInconclusive, InvalidWeights
from qnnwitness.hamiltonian import Schedule, bundled_schedule
from qnnwitness.propagate import IntegratorConfig
from qnnwitness.states import StateSpec, catalog, mix
from qnnwitness.witness import (
    BELL_REFERENCE,
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


def test_classify_custom_thresholds():
    labels = classify({"AB": 0.5}, partial=0.2, strong=0.6)
    assert labels["AB"] == "partial"


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


def test_final_density_is_linear_in_the_input():
    """Mixing two inputs mixes their final densities, so every signed
    final-time expectation is the weighted sum of the parts."""
    from qnnwitness.ops import readout
    from qnnwitness.propagate import evolve
    s = bundled_schedule("trained_set2")
    a = mix(catalog("GHZ_plus"))
    b = mix(catalog("W"))
    blend = 0.3 * a + 0.7 * b
    finals, _ = evolve(np.stack([a, b, blend]), s, FAST)
    ea, eb, eblend = readout(finals)
    assert np.abs(eblend - (0.3 * ea + 0.7 * eb)).max() < 1e-10


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
    corner = grid.cell(4, 0)
    direct = evaluate("GHZ_plus", s, FAST).outputs
    assert corner["ABC"] == pytest.approx(direct["ABC"], abs=1e-9)
    # the (0, 0) corner collapses to a product state: nothing fires
    null = grid.cell(0, 0)
    assert max(null["AB"], null["AC"], null["BC"]) < 0.05


def test_sweep_validates_arguments():
    s = bundled_schedule("trained_set2")
    with pytest.raises(ValueError):
        sweep("fig3", 5, s, FAST)
    with pytest.raises(ValueError):
        sweep("fig2", 1, s, FAST)


def test_fig1_sweep_has_no_crossing_locus():
    s = bundled_schedule("trained_set1")
    grid = sweep("fig1", 3, s, FAST)
    assert grid.crossing == ()


def test_fig1_symmetry_at_full_mixing():
    """With beta = 1 the family is symmetric under swapping the roles of
    the first two qubits, so the AB and AC outputs coincide."""
    s = bundled_schedule("trained_set1")
    grid = sweep("fig1", 3, s, FAST)
    row = grid.cell(2, 1)  # beta = 1, alpha = 0.5
    assert row["AB"] == pytest.approx(row["AC"], abs=0.05)


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
