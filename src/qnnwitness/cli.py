"""Command line front end.

Subcommands: train, evaluate, sweep, grad-check, calibrate, catalog.
Exit codes: 0 on success, 1 on domain errors (unphysical input, diverged
training, inconclusive calibration, failed gradient check), 2 on usage or
parse errors.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import learning, witness
from .errors import ArityError, KetSyntaxError, QnnError
from .hamiltonian import (
    BUNDLED_SCHEDULES,
    CONVENTIONS,
    PARAM_NAMES,
    resolve_schedule,
    save_schedule,
)
from .ketexpr import render
from .learning import TrainConfig, TrainingPair, load_dataset
from .ops import OBSERVABLE_IDS
from .propagate import DEFAULT_DT_NS, IntegratorConfig
from .states import CATALOG_NAMES, catalog

CONFIG_ENV = "QNNWITNESS_CONFIG"


def config_path() -> Path:
    override = os.environ.get(CONFIG_ENV)
    if override:
        return Path(override)
    return Path.home() / ".config" / "qnnwitness.json"


def load_config() -> dict:
    path = config_path()
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
    except json.JSONDecodeError as exc:
        raise QnnError(f"config file {path} is not valid JSON: {exc}")


def save_config(updates: dict) -> Path:
    path = config_path()
    merged = dict(load_config())
    merged.update(updates)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    return path


def fmt(x: float) -> str:
    return f"{x:.6g}"


def _config_convention(config: dict):
    name = config.get("convention")
    if name is None:
        return None
    if name not in CONVENTIONS:
        raise QnnError(f"config names unknown convention {name!r}")
    return CONVENTIONS[name]


def _schedule_arg(source: str, config: dict):
    return resolve_schedule(source, _config_convention(config))


def _pick(flag, config: dict, key, fallback):
    """Flags beat config file entries, which beat package defaults."""
    if flag is not None:
        return flag
    return config.get(key, fallback)


def _train_config(args, config: dict) -> TrainConfig:
    defaults = TrainConfig()
    return TrainConfig(
        epochs=int(_pick(args.epochs, config, "epochs", defaults.epochs)),
        learning_rate=float(_pick(args.lr, config, "learning_rate",
                                  defaults.learning_rate)),
        momentum=float(_pick(args.momentum, config, "momentum",
                             defaults.momentum)),
        dt=float(_pick(args.dt, config, "dt", defaults.dt)),
    )


def _integrator(args, config: dict) -> IntegratorConfig:
    return IntegratorConfig(float(_pick(args.dt, config, "dt", DEFAULT_DT_NS)))


def cmd_train(args) -> int:
    config = load_config()
    dataset = load_dataset(args.dataset)
    init = _schedule_arg(args.init, config)
    cfg = _train_config(args, config)
    trained, history = learning.train(dataset, init, cfg)
    final_rms = learning.rms_error(dataset, trained, cfg.integrator())
    if args.out:
        save_schedule(trained, args.out)
    if args.history:
        learning.history_csv(history, args.history)
    start = history[0] if len(history) else float("nan")
    print(f"dataset {dataset.name}: {len(history)} epochs, "
          f"rms {fmt(start)} -> {fmt(final_rms)}")
    if args.out:
        print(f"schedule written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config()
    schedule = _schedule_arg(args.params, config)
    spec = learning.resolve_state(args.state)
    report = witness.evaluate(spec, schedule, _integrator(args, config))
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


def cmd_sweep(args) -> int:
    config = load_config()
    schedule = _schedule_arg(args.params, config)
    grid = witness.sweep(args.family, args.n, schedule,
                         _integrator(args, config))
    out = Path(args.out)
    witness.sweep_csv(grid, out)
    print(f"{args.family}: {args.n}x{args.n} grid written to {out}")
    if grid.family == "fig2":
        cross_path = (Path(args.crossing_out) if args.crossing_out
                      else out.with_name(out.stem + ".crossing.csv"))
        witness.crossing_csv(grid, cross_path)
        print(f"{len(grid.crossing)} crossing rows written to {cross_path}")
    return 0


def cmd_grad_check(args) -> int:
    config = load_config()
    schedule = _schedule_arg(args.params, config)
    cfg = _integrator(args, config)
    # Zero targets over all four observables give a loss with nonzero
    # gradient at any point where the outputs are nonzero.
    pair = TrainingPair(learning.resolve_state(args.state),
                        {key: 0.0 for key in OBSERVABLE_IDS})
    exact = learning.backprop_gradient(pair, schedule, cfg)
    numeric = learning.fd_gradient(pair, schedule, cfg, h=args.h)
    scale = np.maximum(np.abs(numeric), 1e-10)
    rel = np.abs(exact - numeric) / scale
    worst = int(np.argmax(rel))
    chunk, name = divmod(worst, len(PARAM_NAMES))
    print(f"max rel deviation {fmt(rel[worst])} "
          f"(chunk {chunk}, {PARAM_NAMES[name]})")
    if rel[worst] < 1e-6:
        print("gradient check passed")
        return 0
    print("gradient check FAILED")
    return 1


def cmd_calibrate(args) -> int:
    config = load_config()
    schedule = _schedule_arg(args.params, config)
    result = witness.calibrate(schedule, cfg=_integrator(args, config))
    for name, score in sorted(result.scores.items()):
        print(f"{name:<8} mean abs deviation {fmt(score)}")
    print(f"selected convention: {result.convention.name}")
    path = save_config({"convention": result.convention.name})
    print(f"recorded in {path}")
    return 0


def _catalog_line(name: str) -> str:
    try:
        spec = catalog(name)
    except ArityError:
        return f"{name}(alpha, beta)  parametric family"
    return f"{name:<10} {render(spec)}"


def cmd_catalog(_args) -> int:
    for name in CATALOG_NAMES:
        print(_catalog_line(name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnnwitness",
        description="Entanglement witnessing with a trained three-qubit "
                    "network.")
    sub = parser.add_subparsers(dest="command", required=True)

    schedule_help = ("schedule file or bundled name "
                     f"({', '.join(BUNDLED_SCHEDULES)})")

    p = sub.add_parser("train", help="fit chunk parameters to a dataset")
    p.add_argument("--dataset", required=True,
                   help="dataset file or bundled name (set1, set2)")
    p.add_argument("--init", default="initial", help=schedule_help)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--dt", type=float, default=None,
                   help="integrator step in ns")
    p.add_argument("--out", default=None, help="write trained schedule here")
    p.add_argument("--history", default=None,
                   help="write per-epoch rms CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="run a state through the network")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--state", required=True,
                   help="catalog name, Name(a, b), ket sum or mix{...}")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="map outputs over a state family")
    p.add_argument("--family", required=True, choices=("fig1", "fig2"))
    p.add_argument("--n", type=int, default=21,
                   help="grid points per axis")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--out", required=True, help="grid CSV path")
    p.add_argument("--crossing-out", default=None,
                   help="crossing locus CSV (default: <out>.crossing.csv)")
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grad-check",
                       help="compare the adjoint gradient against finite "
                            "differences")
    p.add_argument("--params", required=True, help=schedule_help)
    p.add_argument("--state", required=True)
    p.add_argument("--h", type=float, default=1e-4,
                   help="finite difference step in MHz")
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("calibrate",
                       help="pick the unit convention that reproduces the "
                            "reference Bell outputs")
    p.add_argument("--params", default="set1", help=schedule_help)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("catalog", help="list the named input states")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KetSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # malformed dataset/schedule files and bad argument values
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
