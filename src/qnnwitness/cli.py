"""Command line front end.

Subcommands: train, evaluate, sweep, grad-check, calibrate, catalog.
Exit codes: 0 on success, 1 on domain errors (unphysical input, diverged
training, inconclusive calibration, failed gradient check) and on paths
that cannot be read or written, 2 on usage or parse errors.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import learning, witness
from .errors import (KetSyntaxError, QnnError, json_object, json_value,
                     read_json, write_json)
from .hamiltonian import (
    BUNDLED_SCHEDULES,
    PARAM_NAMES,
    resolve_schedule,
    save_schedule,
    unit_convention,
)
from .ketexpr import render
from .learning import TrainConfig, TrainingPair, load_dataset
from .ops import OBSERVABLE_IDS
from .propagate import IntegratorConfig
from .states import CATALOG_NAMES, FAMILIES, catalog

CONFIG_ENV = "QNNWITNESS_CONFIG"


def config_path() -> Path:
    return Path(os.environ.get(CONFIG_ENV)
                or Path.home() / ".config" / "qnnwitness.json")


def load_config() -> dict:
    path = config_path()
    try:
        config = read_json(path)
    except FileNotFoundError:
        return {}
    # TrainConfig's fields, each of its default's JSON kind, and convention
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    json_object(config, f"config file {path}", (*kinds, "convention"))
    for key, kind in kinds.items():
        if key in config:
            json_value(config[key], kind, key)
    if "convention" in config:
        unit_convention(config["convention"])
    return config


def save_config(config: dict) -> Path:
    path = config_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, config)
    return path


def fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_train(args, cfg: TrainConfig, init, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    trained, history = learning.train(dataset, init, cfg)
    final_rms = learning.rms_error(dataset, trained, cfg)
    if args.out is not None:
        save_schedule(trained, args.out)
    if args.history is not None:
        learning.history_csv(history, args.history)
    start = history[0] if len(history) else final_rms
    print(f"dataset {dataset.name}: {len(history)} epochs, "
          f"rms {fmt(start)} -> {fmt(final_rms)}")
    if args.out is not None:
        print(f"schedule written to {args.out}")
    return 0


def cmd_evaluate(args, cfg: IntegratorConfig, schedule, config: dict) -> int:
    spec = learning.resolve_state(args.state)
    report = witness.evaluate(spec, schedule, cfg)
    if args.json:
        doc = {
            "state": render(spec),
            "outputs": {k: report.outputs[k] for k in OBSERVABLE_IDS},
            "labels": {k: report.labels[k] for k in OBSERVABLE_IDS},
        }
        print(json.dumps(doc, indent=2))
    else:
        for key in OBSERVABLE_IDS:
            print(f"{key:<4} {fmt(report.outputs[key]):>12}  "
                  f"{report.labels[key]}")
    return 0


def cmd_sweep(args, cfg: IntegratorConfig, schedule, config: dict) -> int:
    grid = witness.sweep(args.family, args.n, schedule, cfg)
    witness.sweep_csv(grid, args.out)
    print(f"{args.family}: {args.n}x{args.n} grid written to {args.out}")
    if args.crossing_out is not None:
        witness.crossing_csv(grid, args.crossing_out)
        print(f"{len(grid.crossing)} crossing rows written to "
              f"{args.crossing_out}")
    return 0


def cmd_grad_check(args, cfg: IntegratorConfig, schedule, config: dict) -> int:
    # Zero targets over all four observables give a loss with nonzero
    # gradient at any point where the outputs are nonzero.
    pair = TrainingPair(learning.resolve_state(args.state),
                        {key: 0.0 for key in OBSERVABLE_IDS})
    # differences first: they refuse a bad --h before any evolution
    numeric = learning.fd_gradient(pair, schedule, cfg, h=args.h)
    exact = learning.backprop_gradient(pair, schedule, cfg)
    # 1e-6 relative, plus 1e-9 for the differences' ~1e-10 of round-off
    deviation = np.abs(exact - numeric)
    allowed = 1e-6 * np.abs(numeric) + 1e-9
    worst = int(np.argmax(deviation / allowed))
    chunk, name = divmod(worst, len(PARAM_NAMES))
    print(f"worst deviation {fmt(deviation[worst])}, allowed "
          f"{fmt(allowed[worst])} (chunk {chunk}, {PARAM_NAMES[name]})")
    if deviation[worst] <= allowed[worst]:
        print("gradient check passed")
        return 0
    print("gradient check FAILED")
    return 1


def cmd_calibrate(args, cfg: IntegratorConfig, schedule, config: dict) -> int:
    result = witness.calibrate(schedule, cfg)
    for name, score in sorted(result.scores.items()):
        print(f"{name:<8} mean abs deviation {fmt(score)}")
    print(f"selected convention: {result.convention.name}")
    path = save_config({**config, "convention": result.convention.name})
    print(f"recorded in {path}")
    return 0


def _catalog_line(name: str) -> str:
    if name in FAMILIES:
        return f"{name}(alpha, beta)  parametric family"
    return f"{name:<10} {render(catalog(name))}"


def cmd_catalog() -> int:
    for name in CATALOG_NAMES:
        print(_catalog_line(name))
    return 0


# A settings flag wins over the config file, which wins over TrainConfig();
# the flag's type is that of the field's default, as in the config file.
def _add_setting(parser, flag: str, field: str, text: str) -> None:
    default = getattr(TrainConfig(), field)
    parser.add_argument(flag, dest=field, type=type(default), help=(
        f"{text} (default: the config file's {field}, else {default})"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnnwitness",
        description="Entanglement witnessing with a trained three-qubit "
                    "network.")
    sub = parser.add_subparsers(dest="command", required=True)
    dt = argparse.ArgumentParser(add_help=False)
    _add_setting(dt, "--dt", "dt", "integrator step in ns")

    schedule_help = ("schedule file or bundled name "
                     f"({', '.join(BUNDLED_SCHEDULES)})")

    p = sub.add_parser("train", parents=[dt],
                       help="fit chunk parameters to a dataset")
    p.add_argument("--dataset", required=True,
                   help="dataset file or bundled name (set1, set2)")
    p.add_argument("--init", dest="params", default="initial",
                   help=schedule_help)
    _add_setting(p, "--epochs", "epochs", "gradient descent epochs")
    _add_setting(p, "--lr", "learning_rate", "gradient descent step size")
    _add_setting(p, "--momentum", "momentum", "momentum, in [0, 1)")
    p.add_argument("--out", default=None, help="write trained schedule here")
    p.add_argument("--history", default=None,
                   help="write per-epoch rms CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[dt],
                       help="run a state through the network")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--state", required=True,
                   help="catalog name, Name(a, b), ket sum or mix{...}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[dt],
                       help="map outputs over a state family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=21,
                   help=f"grid points per axis, 2 to {witness.MAX_SWEEP_N}")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--out", required=True, help="grid CSV path")
    p.add_argument("--crossing-out", default=None,
                   help="crossing locus CSV (default: the --out path with "
                        "its last extension, if any, replaced by "
                        ".crossing.csv; g.csv gives g.crossing.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grad-check", parents=[dt],
                       help="compare the adjoint gradient against finite "
                            "differences")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--state", required=True)
    p.add_argument("--h", type=float, default=1e-4,
                   help="finite difference step in MHz")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("calibrate", parents=[dt],
                       help="pick the unit convention that reproduces the "
                            "reference Bell outputs")
    p.add_argument("--params", default="set1", help=schedule_help)
    p.set_defaults(func=cmd_calibrate)

    sub.add_parser("catalog", help="list the named input states")

    return parser


# exit code per failure, first match wins: 2 for unreadable state text and
# any other bad flag or file value, 1 for domain errors and for files that
# cannot be read or written
EXIT_CODES = ((KetSyntaxError, 2), (QnnError, 1), (OSError, 1),
              (ValueError, 2))


def main(argv=None) -> int:
    """Resolve outputs, config, schedule and settings once, then run."""
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog()
    try:
        outputs = {flag: vars(args).get(flag[2:].replace("-", "_"))
                   for flag in ("--out", "--history", "--crossing-out")}
        for flag, path in outputs.items():
            if path == "":
                raise ValueError(f"{flag}: the path is empty")
        if vars(args).get("family") == witness.CROSSING_FAMILY:
            if args.crossing_out is None:
                args.crossing_out = witness.crossing_path(args.out)
            outputs["--crossing-out"] = args.crossing_out
        elif outputs["--crossing-out"] is not None:
            raise ValueError(f"--crossing-out: no crossing locus in "
                             f"{args.family}")
        owners = {}
        for flag, path in outputs.items():
            if path is None:
                continue
            if not Path(path).parent.is_dir():
                raise FileNotFoundError(f"directory of {path} does not exist")
            if Path(path).is_dir():
                raise IsADirectoryError(f"{path} is a directory, not a file")
            if owners.setdefault(Path(path).resolve(), flag) != flag:
                raise ValueError(f"{owners[Path(path).resolve()]} and {flag} "
                                 f"both name {path}")
        config = load_config()
        schedule = resolve_schedule(args.params, config.get("convention"))
        settings = TrainConfig if args.command == "train" else IntegratorConfig
        given = {**config, **{key: value for key, value in vars(args).items()
                              if value is not None}}
        cfg = settings(**{f.name: given[f.name] for f in fields(settings)
                          if f.name in given})
        return args.func(args, cfg, schedule, config)
    except (QnnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
