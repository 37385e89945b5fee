import json

import numpy as np
import pytest

from qnnwitness.cli import main
from qnnwitness.errors import ArityError, KetSyntaxError
from qnnwitness.hamiltonian import bundled_schedule
from qnnwitness.ketexpr import render
from qnnwitness.learning import resolve_state
from qnnwitness.propagate import IntegratorConfig
from qnnwitness.states import StateSpec, catalog, mix
from qnnwitness.witness import evaluate


@pytest.fixture
def isolated_config(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    monkeypatch.setenv("QNNWITNESS_CONFIG", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_every_named_state(isolated_config, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("Bell_AB", "GHZ_minus", "W", "M", "fig2"):
        assert name in out


def test_evaluate_text_output(isolated_config, capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set1",
                       "--state", "Bell_AB", "--dt", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("AB") and "strong" in lines[0]
    assert "none" in lines[3]


def test_evaluate_json_output(isolated_config, capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set2",
                       "--state", "GHZ_minus", "--dt", "0.25", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"]["ABC"] == "strong"
    assert doc["outputs"]["ABC"] > 0.9
    assert "|000>" in doc["state"]


def test_evaluate_parametric_state_argument(isolated_config, capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set2",
                       "--state", "fig2(0.0, 1.0)", "--dt", "0.25", "--json")
    assert code == 0
    ref_code, ref_out, _ = run(capsys, "evaluate", "--params", "trained_set2",
                               "--state", "GHZ_plus", "--dt", "0.25", "--json")
    ref = json.loads(ref_out)["outputs"]
    for key, value in json.loads(out)["outputs"].items():
        assert value == pytest.approx(ref[key], abs=1e-12)


def test_evaluate_expression_state(isolated_config, capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set1",
                       "--state", "sqrt(0.5)*|000> + sqrt(0.5)*|110>",
                       "--dt", "0.25")
    assert code == 0
    assert "strong" in out


def test_exit_codes(isolated_config, capsys):
    # bad mixture weights: domain error
    code, _, err = run(capsys, "evaluate", "--params", "set1",
                       "--state", "mix{0.3: |000>, 0.3: |111>}")
    assert code == 1 and "weights" in err

    # unparseable expression: usage error
    code, _, err = run(capsys, "evaluate", "--params", "set1",
                       "--state", "|00>")
    assert code == 2

    # unknown catalog name: usage error with a hint
    code, _, err = run(capsys, "evaluate", "--params", "set1",
                       "--state", "Bell_XY")
    assert code == 2 and "catalog" in err

    # non-finite catalog arguments: usage error
    for text in ("fig1(nan, 0)", "Cr_AB(inf)"):
        code, out, err = run(capsys, "evaluate", "--params", "set1",
                             "--state", text)
        assert code == 2 and out == "" and "finite" in err

    # over-long coefficient that overflows to inf: usage error
    code, out, err = run(capsys, "evaluate", "--params", "set1",
                         "--state", "9" * 400 + "*|000> + |001>")
    assert code == 2 and out == "" and "finite" in err
    code, out, err = run(capsys, "evaluate", "--params", "set1",
                         "--state", "mix{1/sqrt(0): |000>, 0.5: |001>}")
    assert code == 2 and out == "" and "finite" in err

    # a schedule that makes stepped RK4 overflow at dt 0.25: domain error,
    # not NaN outputs labelled "none"
    huge = isolated_config.parent / "huge.json"
    huge.write_text(json.dumps({"chunks": [[2000.0] * 9] * 4}))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "evaluate", "--params", str(huge),
                             "--state", "W", "--dt", "0.25")
    assert code == 1 and out == "" and "diverged" in err

    # config values that are not finite or out of range: usage error
    for argv, field in ((("train", "--dataset", "set1", "--lr", "nan"),
                         "learning_rate"),
                        (("train", "--dataset", "set1", "--epochs", "-3"),
                         "epochs"),
                        (("evaluate", "--params", "set1", "--state", "W",
                          "--dt", "nan"), "dt")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and field in err

    # missing file: failure exit
    code, _, err = run(capsys, "evaluate", "--params", "/no/such/file.json",
                       "--state", "W")
    assert code == 1

    # argparse usage failures surface as SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--state", "W"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "fig9", "--n", "5",
              "--params", "set1", "--out", "x.csv"])
    assert exc.value.code == 2
    # a finite-difference step that is not a positive finite number
    for step in ("0", "-1e-4", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--params", "set1", "--state", "W",
                  f"--h={step}"])
        assert exc.value.code == 2
        assert "positive finite" in capsys.readouterr().err


# state text -> the state it names, or (API error, CLI exit code, stderr word)
STATE_TEXTS = [
    ("W", catalog("W")),
    ("fig2(0.0, 1.0)", catalog("GHZ_plus")),
    (" Cr_AB( 0.3 ) ", catalog("Cr_AB", 0.3)),
    ("Cr_AB()", catalog("Cr_AB")),
    ("|001> + |010> - |100>", StateSpec.pure([0, 1, 1, 0, -1, 0, 0, 0])),
    ("mix{0.5: |000>, 0.5: |111>}", catalog("M")),
    ("Bell_XY", (KetSyntaxError, 2, "catalog")),
    ("W(1)", (ArityError, 1, "argument")),
    ("fig1(a, b)", (KetSyntaxError, 2, "numbers")),
]


@pytest.mark.parametrize("text, expected", STATE_TEXTS)
def test_state_text_means_the_same_in_api_and_cli(isolated_config, capsys,
                                                  text, expected):
    code, out, err = run(capsys, "evaluate", "--params", "trained_set2",
                         "--state", text, "--dt", "0.25", "--json")
    if isinstance(expected, StateSpec):
        spec = resolve_state(text)
        assert np.abs(mix(spec) - mix(expected)).max() < 1e-15
        report = evaluate(spec, bundled_schedule("trained_set2"),
                          IntegratorConfig(0.25))
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"] == report.outputs
        assert doc["state"] == render(spec)
    else:
        error, exit_code, word = expected
        with pytest.raises(error):
            resolve_state(text)
        assert code == exit_code and word in err


def test_train_writes_schedule_and_history(isolated_config, tmp_path, capsys):
    out_path = tmp_path / "trained.json"
    hist_path = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "train", "--dataset", "set1",
                       "--epochs", "5", "--lr", "0.003", "--dt", "0.25",
                       "--out", str(out_path), "--history", str(hist_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert np.array(doc["chunks"]).shape == (4, 9)
    lines = hist_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,rms"
    assert len(lines) == 6
    assert "rms" in out


def test_train_divergence_exit(isolated_config, capsys):
    code, _, err = run(capsys, "train", "--dataset", "set1",
                       "--epochs", "500", "--lr", "50.0", "--dt", "0.25")
    assert code == 1
    assert "learning rate" in err


def test_sweep_writes_grid_and_crossing(isolated_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "sweep", "--family", "fig2", "--n", "5",
                       "--params", "trained_set2", "--out", str(grid_path),
                       "--dt", "0.25")
    assert code == 0
    assert grid_path.exists()
    cross = tmp_path / "grid.crossing.csv"
    assert cross.exists()
    assert cross.read_text().startswith("beta,alpha_star")
    rows = grid_path.read_text().strip().splitlines()
    assert len(rows) == 1 + 25


def test_sweep_fig1_skips_crossing_file(isolated_config, tmp_path, capsys):
    grid_path = tmp_path / "g1.csv"
    code, *_ = run(capsys, "sweep", "--family", "fig1", "--n", "3",
                   "--params", "trained_set1", "--out", str(grid_path),
                   "--dt", "0.25")
    assert code == 0
    assert grid_path.exists()
    assert not (tmp_path / "g1.crossing.csv").exists()


def test_grad_check_passes_on_healthy_build(isolated_config, capsys):
    code, out, _ = run(capsys, "grad-check", "--params", "set1",
                       "--state", "W", "--dt", "0.25")
    assert code == 0
    assert "passed" in out
    assert "max rel deviation" in out


def test_calibrate_records_convention(isolated_config, capsys):
    code, out, _ = run(capsys, "calibrate", "--dt", "0.25")
    assert code == 0
    assert "plain" in out
    doc = json.loads(isolated_config.read_text())
    assert doc["convention"] == "plain"


def test_config_supplies_training_defaults(isolated_config, capsys):
    isolated_config.write_text(json.dumps({"epochs": 2, "dt": 0.25,
                                           "learning_rate": 0.003}))
    code, out, _ = run(capsys, "train", "--dataset", "set1")
    assert code == 0
    assert "2 epochs" in out

    # flags still win over the config file
    code, out, _ = run(capsys, "train", "--dataset", "set1", "--epochs", "1")
    assert code == 0
    assert "1 epochs" in out


def test_six_significant_digit_rendering(isolated_config, capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set1",
                       "--state", "Bell_AB", "--dt", "0.25")
    first = out.strip().splitlines()[0].split()
    value = first[1]
    digits = value.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) <= 6
