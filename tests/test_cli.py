import json
import re
import warnings

import numpy as np
import pytest

from qnnwitness import learning, propagate, witness
from qnnwitness.cli import main
from qnnwitness.errors import ArityError, DivergenceError, KetSyntaxError
from qnnwitness.hamiltonian import (
    PARAM_NAMES,
    PLAIN,
    Schedule,
    bundled_schedule,
    save_schedule,
)
from qnnwitness.ketexpr import render
from qnnwitness.learning import (
    TrainConfig,
    TrainingPair,
    backprop_gradient,
    fd_gradient,
    resolve_state,
    train,
)
from qnnwitness.propagate import IntegratorConfig
from qnnwitness.states import StateSpec, catalog, mix
from qnnwitness.witness import evaluate, sweep


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
    isolated_config.write_text("{")  # catalog never reads the config
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("Bell_AB", "GHZ_minus", "W", "M", "fig2"):
        assert name in out
    lines = out.splitlines()
    for line in (
        "Bell_AB    0.707106781186548*|000> + 0.707106781186548*|110>",
        "GHZ_minus  0.707106781186548*|000> - 0.707106781186548*|111>",
        "EPR_AC     0.5*|001> + 0.5*|011> + 0.5*|100> + 0.5*|110>",
        "W          0.577350269189626*|001> + 0.577350269189626*|010>"
        " + 0.577350269189626*|100>",
        "F3         0.511770123546744*|010> + 0.358239086482721*|011>"
        " + 0.63971265443343*|110> + 0.447798858103401*|111>",
        "M          mix{0.5: |000>, 0.5: |111>}",
    ):
        assert line in lines


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


def test_evaluate_json_renders_every_part_it_can_print(isolated_config,
                                                      capsys):
    code, out, _ = run(capsys, "evaluate", "--params", "trained_set1",
                       "--state", "|000> + 0.0000000000005*|011>",
                       "--dt", "0.25", "--json")
    assert code == 0
    assert json.loads(out)["state"] == "|000> + 0.0000000000005*|011>"


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


def test_exit_codes(isolated_config, capsys, monkeypatch):
    # bad mixture weights: domain error
    code, _, err = run(capsys, "evaluate", "--params", "set1",
                       "--state", "mix{0.3: |000>, 0.3: |111>}")
    assert code == 1 and "weights" in err

    # unparseable expression: usage error, a malformed ket named as one
    for text in ("|00>", "|0000>", "|012>", "0.5*|00> + |111>"):
        code, _, err = run(capsys, "evaluate", "--params", "set1",
                           "--state", text)
        assert code == 2
        assert "a basis ket is '|' followed by three 0/1 digits" in err

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

    # a schedule that makes RK4 overflow at dt 0.25: domain error, not NaN
    # outputs labelled "none", and no numpy warning on the way there
    huge = isolated_config.parent / "huge.json"
    huge.write_text(json.dumps({"chunks": [[2000.0] * 9] * 4}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "evaluate", "--params", str(huge),
                             "--state", "W", "--dt", "0.25")
        assert code == 1 and out == "" and "stability" in err
        code, out, err = run(capsys, "grad-check", "--params", str(huge),
                             "--state", "W", "--dt", "0.25")
        assert code == 1 and out == "" and "stability" in err
        code, out, err = run(capsys, "train", "--dataset", "set1", "--init",
                             str(huge), "--dt", "0.25", "--epochs", "3")
        assert code == 1 and out == "" and "stability" in err

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
    # a finite-difference step that is not a positive finite number:
    # usage error, refused before any evolution
    def no_evolution(*args):
        pytest.fail("an evolution ran with an invalid finite-difference step")

    monkeypatch.setattr(propagate, "_stepped", no_evolution)
    for step in ("0", "-1e-4", "nan", "inf"):
        code, out, err = run(capsys, "grad-check", "--params", "set1",
                             "--state", "W", f"--h={step}")
        assert code == 2 and out == "" and "positive finite" in err


def test_a_step_that_moves_no_parameter_is_refused(isolated_config, capsys,
                                                   monkeypatch):
    """p + h rounds to p for h = 1e-300 and every nonzero set1 value, so
    each difference would read 0 and the adjoint look wrong: grad-check
    refuses the step as a usage error naming h, before any evolution,
    instead of reporting a failed check."""
    def no_evolution(*args):
        pytest.fail("an evolution ran with a step that moves no parameter")

    monkeypatch.setattr(propagate, "_stepped", no_evolution)
    code, out, err = run(capsys, "grad-check", "--params", "set1",
                         "--state", "W", "--dt", "0.25", "--h", "1e-300")
    assert code == 2 and out == ""
    assert "h = 1e-300 MHz leaves a parameter unmoved" in err
    pair = TrainingPair(catalog("W"), {"AB": 0.0})
    # 1 - 1e-16 moves 1, but 1 + 1e-16 rounds to 1
    s = Schedule(np.ones((1, 9)), 75.0, PLAIN)
    with pytest.raises(ValueError, match=r"h = 1e-16 MHz"):
        fd_gradient(pair, s, IntegratorConfig(0.25), h=1e-16)


@pytest.mark.parametrize("mhz", [1100.0, 1120.0, 1150.0])
def test_steps_past_rk4_stability_are_refused(isolated_config, tmp_path,
                                              capsys, mhz):
    """dt 0.25 with every value at these MHz puts dt*(w_max - w_min) at
    2.86-2.99, past 2*sqrt(2): every route, on the API and the CLI alike,
    refuses it before integrating and names the chunk and the dt."""
    s = Schedule(np.full((4, 9), mhz), 75.0, PLAIN)
    cfg = IntegratorConfig(0.25)
    pair = TrainingPair(catalog("W"), {"AB": 0.0})
    for route in (lambda: evaluate("W", s, cfg),
                  lambda: sweep("fig2", 3, s, cfg),
                  lambda: fd_gradient(pair, s, cfg),
                  lambda: backprop_gradient(pair, s, cfg)):
        with pytest.raises(DivergenceError,
                           match=r"chunk 0: dt 0\.25 .* largest stable dt"):
            route()
    with pytest.raises(DivergenceError, match="epoch 0: chunk 0"):
        train("set1", s, TrainConfig(epochs=3, dt=0.25))

    path = tmp_path / "fast.json"
    save_schedule(s, path)
    grid = tmp_path / "grid.csv"
    for argv in (("evaluate", "--params", path, "--state", "W"),
                 ("sweep", "--family", "fig2", "--n", "3", "--params", path,
                  "--out", grid),
                 ("grad-check", "--params", path, "--state", "W"),
                 ("train", "--dataset", "set1", "--init", path,
                  "--epochs", "3")):
        code, out, err = run(capsys, *map(str, argv), "--dt", "0.25")
        assert code == 1 and out == "" and "stability limit" in err
    assert not grid.exists()
    # the same values at dt 0.05 are well inside the limit
    assert run(capsys, "evaluate", "--params", str(path), "--state", "W",
               "--dt", "0.05")[0] == 0


def test_a_later_chunk_past_the_stability_limit_is_named(isolated_config,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    """Only chunk 2 is past the limit at dt 0.25: both gradient routes and
    grad-check refuse the schedule naming chunk 2, before any stepping
    call returns, although the earlier chunks could be stepped."""
    chunks = np.zeros((4, 9))
    chunks[2] = 1150.0
    s = Schedule(chunks, 75.0, PLAIN)
    path = tmp_path / "late.json"
    save_schedule(s, path)
    returned = []

    def stepped(*args):
        out = original(*args)
        returned.append(out)
        return out

    original = propagate._stepped
    monkeypatch.setattr(propagate, "_stepped", stepped)
    pair = TrainingPair(catalog("W"), {"AB": 0.0})
    message = r"chunk 2: dt 0\.25 .* largest stable dt"
    for route in (fd_gradient, backprop_gradient):
        with pytest.raises(DivergenceError, match=message):
            route(pair, s, IntegratorConfig(0.25))
    code, out, err = run(capsys, "grad-check", "--params", str(path),
                         "--state", "W", "--dt", "0.25")
    assert code == 1 and out == "" and re.search(message, err)
    assert returned == []


ROW = [0.0] * 9
# an unknown convention reads the same in the config and in a schedule
HERTZ = "convention must be one of angular, plain, got 'hertz'"

# schedules that parse but cannot be run, and the field each error names
BAD_SCHEDULES = [
    ({"chunks": []}, "chunks"),
    ({"chunks": [ROW] * 4, "chunk_duration_ns": -5}, "chunk_duration_ns"),
    ({"chunks": [ROW, [float("nan")] + ROW[1:]]}, "chunk value"),
    ({"chunks": [ROW, [float("-inf")] + ROW[1:]]}, "chunk value"),
    ({"chunks": [ROW, [10 ** 400] + ROW[1:]]}, "chunk value"),
]

# (kind, file option, document or raw file text, field or file the error
# names): each is a usage error (exit 2) with nothing on stdout, never a
# traceback or a silent reading of a missing or wrong-typed value
MISTYPED_FILES = [
    ("config", None, {"dt": None}, "dt"),
    ("config", None, {"dt": [0.25]}, "dt"),
    ("config", None, {"dt": True}, "dt"),
    ("config", None, [], "config file"),
    ("config", None, {"convention": ["plain"]}, "convention"),
    ("config", None, {"epochs": 2.7}, "epochs"),
    ("config", None, {"epochs": True}, "epochs"),
    ("config", None, {"learning_rate": "0.003"}, "learning_rate"),
    ("schedule", "--init", [], "schedule"),
    ("schedule", "--init", {"chunks": [ROW] * 4, "chunk_duration_ns": None},
     "chunk_duration_ns"),
    ("schedule", "--init", {"chunks": [ROW] * 4, "convention": ["plain"]},
     "convention"),
    ("schedule", "--init", {"chunks": [[True] * 9] * 4}, "chunk value"),
    ("schedule", "--init", {"chunks": 5}, "chunks"),
    ("dataset", "--dataset", [], "dataset"),
    ("dataset", "--dataset", {"pairs": [{"state": "W",
                                         "targets": {"AB": None}}]}, "AB"),
    ("dataset", "--dataset", {"pairs": [{"state": "W",
                                         "targets": {"AB": True}}]}, "AB"),
    ("dataset", "--dataset", {"pairs": [{"state": 5,
                                         "targets": {"AB": 1.0}}]}, "state"),
    ("dataset", "--dataset", {"name": 3, "pairs": [{"state": "W",
                                                    "targets": {"AB": 1.0}}]},
     "name"),
    ("dataset", "--dataset", {"pairs": 3}, "pairs"),
    ("schedule", "--init", {"convention": "plain"}, "required field chunks"),
    ("dataset", "--dataset", {"name": "set3"}, "required field pairs"),
    ("dataset", "--dataset", {"pairs": [{"targets": {"AB": 1.0}}]},
     "required field state"),
    ("dataset", "--dataset", {"pairs": [{"state": "W"}]},
     "required field targets"),
    ("config", None, {"convention": "hertz"}, HERTZ),
    ("schedule", "--init", {"chunks": [ROW] * 4, "convention": "hertz"},
     HERTZ),
    ("schedule", "--init", {"chunks": [ROW, ROW[:8]]}, "chunks row 1"),
    ("dataset", "--dataset", {"pairs": [{"state": "W",
                                         "targets": {"XY": 1.0}}]}, "XY"),
    ("config", None, '{"dt": 0.25', "config.json is not valid JSON"),
    ("schedule", "--init", '{"chunks": [}', "schedule.json is not valid JSON"),
    ("dataset", "--dataset", "pairs: []", "dataset.json is not valid JSON"),
] + [("schedule", "--init", doc, field) for doc, field in BAD_SCHEDULES]

# a field no reader knows is named, never dropped for a plausible answer
PAIR = {"state": "W", "targets": {"AB": 1.0}}
MISTYPED_FILES += [
    ("config", None, {"lr": 0.5, "epoch": 1}, "unknown field 'lr'"),
    ("schedule", "--init", {"chunks": [ROW] * 4, "convension": "angular"},
     "unknown field 'convension'; allowed: chunks, chunk_duration_ns, "
     "convention"),
    ("schedule", "--init", {"chunks": [ROW] * 4, "chunk_duration": 50},
     "unknown field 'chunk_duration'"),
    ("dataset", "--dataset", {"pairs": [PAIR], "shuffle": True},
     "unknown field 'shuffle'"),
    ("dataset", "--dataset", {"pairs": [{**PAIR, "weight": 5}]},
     "unknown field 'weight'"),
]


@pytest.mark.parametrize("kind, option, doc, field", MISTYPED_FILES)
def test_mistyped_json_files_are_usage_errors(isolated_config, tmp_path,
                                              capsys, kind, option, doc,
                                              field):
    path = isolated_config if option is None else tmp_path / f"{kind}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    files = {"--dataset": "set1", "--init": "initial"}
    if option is not None:
        files[option] = str(path)
    code, out, err = run(capsys, "train", "--epochs", "1", "--dt", "0.25",
                         *(word for item in files.items() for word in item))
    assert code == 2 and out == "" and field in err


@pytest.mark.parametrize("doc, field", BAD_SCHEDULES)
def test_evaluate_refuses_a_schedule_it_cannot_run(isolated_config, tmp_path,
                                                   capsys, doc, field):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", "--params", str(path),
                         "--state", "W", "--dt", "0.25")
    assert code == 2 and out == "" and field in err


@pytest.mark.parametrize("chunks, n, code, message", [
    ([ROW] * 4, "100000", 2, "limit of 500 grid points per axis"),
    ([[1150.0] * 9] * 4, "500", 1, "stability limit"),
])
def test_a_grid_that_cannot_run_is_refused_before_its_states(
        isolated_config, tmp_path, capsys, monkeypatch, chunks, n, code,
        message):
    """A grid past the size limit, and one on a schedule past RK4's
    stability limit at dt 0.25, are refused before any state is built."""
    def no_state(*args):
        pytest.fail("a sweep state was built for a grid that cannot run")

    monkeypatch.setattr(witness, "catalog", no_state)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"chunks": chunks}))
    grid = tmp_path / "grid.csv"
    got, out, err = run(capsys, "sweep", "--family", "fig2", "--n", n,
                        "--params", str(path), "--dt", "0.25",
                        "--out", str(grid))
    assert got == code and out == "" and message in err
    assert err.startswith("error:") and "Traceback" not in err
    assert not grid.exists()


def test_a_step_count_past_any_float_is_a_usage_error(isolated_config,
                                                    tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"chunks": [[0,0,0,0,0,0,0,0,0]], '
                    '"chunk_duration_ns": 1e308}')
    code, out, err = run(capsys, "evaluate", "--params", str(path),
                         "--state", "W", "--dt", "0.01")
    assert code == 2 and out == ""
    assert err == ("error: chunk duration 1e+308 ns over dt = 0.01 ns is "
                   "not a finite number of steps\n")


def test_a_huge_finite_step_count_is_a_usage_error(isolated_config,
                                                   tmp_path, capsys):
    """1e300 ns at dt 0.01 is a finite 1e302 steps, which would never
    end; it is refused before any step is taken."""
    path = tmp_path / "big300.json"
    path.write_text('{"chunks": [[0,0,0,0,0,0,0,0,0]], '
                    '"chunk_duration_ns": 1e300}')
    code, out, err = run(capsys, "evaluate", "--params", str(path),
                         "--state", "W", "--dt", "0.01")
    assert code == 2 and out == ""
    assert err == ("error: chunk duration 1e+300 ns over dt = 0.01 ns is "
                   "more than the limit of 1000000 steps per chunk\n")


def test_unreadable_paths_are_failures_not_tracebacks(isolated_config,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    """A directory where a file belongs is exit 1 with one error line."""
    folder = str(tmp_path)
    for argv in (("evaluate", "--params", folder, "--state", "W"),
                 ("train", "--dataset", folder, "--epochs", "0"),
                 ("sweep", "--family", "fig1", "--n", "2", "--params", "set1",
                  "--out", folder)):
        code, out, err = run(capsys, *argv, "--dt", "0.25")
        assert code == 1 and out == "" and err.startswith("error:")
        assert folder in err and "Traceback" not in err
    monkeypatch.setenv("QNNWITNESS_CONFIG", folder)
    code, out, err = run(capsys, "evaluate", "--params", "set1",
                         "--state", "W", "--dt", "0.25")
    assert code == 1 and out == "" and err.startswith("error:")
    assert folder in err and "Traceback" not in err


def test_missing_output_directory_is_refused_before_the_run(
        isolated_config, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("the run started before its output paths were checked")

    monkeypatch.setattr(learning, "train", no_run)
    monkeypatch.setattr(witness, "sweep", no_run)
    grid = ("sweep", "--family", "fig2", "--params", "set1")
    # a path in a missing directory, and a path that is a directory
    for bad in (tmp_path / "missing" / "file.csv", tmp_path):
        for argv in (("train", "--dataset", "set1", "--out", bad),
                     ("train", "--dataset", "set1", "--history", bad),
                     grid + ("--out", bad),
                     grid + ("--out", tmp_path / "g.csv", "--crossing-out",
                             bad)):
            code, out, err = run(capsys, *map(str, argv))
            assert code == 1 and out == "" and str(bad) in err
            assert "directory" in err
    # the locus path that --out implies is checked like a named one
    locus = tmp_path / "g.crossing.csv"
    locus.mkdir()
    code, out, err = run(capsys,
                         *map(str, grid + ("--out", tmp_path / "g.csv")))
    assert code == 1 and out == "" and f"{locus} is a directory" in err


def test_two_outputs_naming_one_file_are_refused(isolated_config, tmp_path,
                                                  capsys, monkeypatch):
    def no_run(*args, **kwargs):
        pytest.fail("the run started before its output paths were checked")

    monkeypatch.setattr(learning, "train", no_run)
    monkeypatch.setattr(witness, "sweep", no_run)
    monkeypatch.chdir(tmp_path)
    for argv, flags in (
            (("sweep", "--family", "fig2", "--n", "3", "--params",
              "trained_set2", "--out", "g.csv", "--crossing-out", "./g.csv"),
             "--out and --crossing-out"),
            (("train", "--dataset", "set1", "--epochs", "2", "--out",
              "t.json", "--history", str(tmp_path / "t.json")),
             "--out and --history")):
        code, out, err = run(capsys, *argv, "--dt", "0.25")
        assert code == 2 and out == "" and flags in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (("train", "--dataset", "set1", "--epochs", "1", "--out", "",
      "--history", ""), "--out"),
    (("sweep", "--family", "fig1", "--n", "3", "--params", "trained_set2",
      "--out", ""), "--out"),
    (("sweep", "--family", "fig2", "--n", "3", "--params", "trained_set2",
      "--out", ""), "--out"),
])
def test_empty_output_path_is_refused_before_the_run(
        isolated_config, tmp_path, capsys, monkeypatch, argv, flag):
    def no_run(*args, **kwargs):
        pytest.fail("the run started before its output paths were checked")

    monkeypatch.setattr(learning, "train", no_run)
    monkeypatch.setattr(witness, "sweep", no_run)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--dt", "0.25")
    assert code == 2 and out == "" and f"{flag}: the path is empty" in err
    assert not list(tmp_path.iterdir())


def test_crossing_out_help_states_the_default_rule(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "g.csv gives g.crossing.csv" in help_text
    assert "<out>.crossing.csv" not in help_text


def test_train_help_names_each_setting_fallback(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    defaults = TrainConfig()
    for field in ("dt", "epochs", "learning_rate", "momentum"):
        assert (f"(default: the config file's {field}, else "
                f"{getattr(defaults, field)})") in help_text


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
    ("EPR_AB(-1)", catalog("EPR_AB", -1.0)),
    ("EPR_AB(0)", (ValueError, 2, "sign must be +1 or -1, got 0.0")),
    ("Pprime_BC(5)", (ValueError, 2, "sign must be +1 or -1, got 5.0")),
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


def test_train_zero_epochs_starts_where_it_ends(isolated_config, capsys):
    """With no epoch run, the start RMS is the final RMS, never NaN."""
    code, out, _ = run(capsys, "train", "--dataset", "set1",
                       "--epochs", "0", "--dt", "0.25")
    assert code == 0
    assert out.strip() == "dataset set1: 0 epochs, rms 0.0311886 -> 0.0311886"


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
    # a full grid at the default-sized step: 441 states through 6 000 steps
    grid_path = tmp_path / "g1.csv"
    argv = ("sweep", "--family", "fig1", "--n", "21", "--params",
            "trained_set1", "--out", str(grid_path), "--dt", "0.05")
    # fig1 has no crossing locus: asking for its file is a usage error,
    # refused before the grid runs
    code, out, err = run(capsys, *argv,
                         "--crossing-out", str(tmp_path / "c.csv"))
    assert code == 2 and out == "" and "crossing" in err
    assert not grid_path.exists() and not (tmp_path / "c.csv").exists()
    code, *_ = run(capsys, *argv)
    assert code == 0
    assert len(grid_path.read_text().splitlines()) == 1 + 441
    assert not (tmp_path / "g1.crossing.csv").exists()


def test_grad_check_passes_on_healthy_build(isolated_config, capsys):
    code, out, _ = run(capsys, "grad-check", "--params", "set1",
                       "--state", "W", "--dt", "0.25")
    assert code == 0
    assert "passed" in out
    assert "worst deviation" in out


def test_grad_check_allows_the_round_off_of_differences(isolated_config,
                                                         capsys, monkeypatch):
    """Each component may deviate by 1e-6 of its size plus 1e-9: 3e-11 on
    a 1e-5 component passes, 1e-5 relative on the largest one fails."""
    numeric = np.geomspace(1e-5, 1.0, 4 * len(PARAM_NAMES))
    small, large = numeric.copy(), numeric.copy()
    small[0] += 3e-11
    large[-1] *= 1 + 1e-5
    monkeypatch.setattr(learning, "fd_gradient", lambda *a, **k: numeric)
    for exact, expected, verdict in ((small, 0, "passed"),
                                     (large, 1, "FAILED")):
        monkeypatch.setattr(learning, "backprop_gradient",
                            lambda *a, **k: exact)
        code, out, _ = run(capsys, "grad-check", "--params", "set1",
                           "--state", "W")
        assert code == expected and f"gradient check {verdict}" in out
    assert f"(chunk 3, {PARAM_NAMES[-1]})" in out


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
