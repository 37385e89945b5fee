"""Loss, exact gradients through the integrator, and the training loop.

The network's output for an input state is the squared final-time
correlation [tr(rho(t_f) P)]^2 for each requested observable P. The loss
is E = 1/2 sum (target - output)^2 over a pair's targets, summed over the
dataset for batch training.

Two independent gradient routes exist on purpose. backprop_gradient is
the reference: reverse-mode through every RK4 stage of the actual
stepped integration, whose stages it recomputes chunk by chunk from the
recorded step-boundary states. The training loop instead calls the fast
path in superop.py, which applies each chunk's n RK4 steps at once in
the eigenbasis of its Hamiltonian and gets the same discrete adjoint
from the divided-difference form of the derivative of that map; tests
pin the two routes against each other and against central differences.
rms_error, the stepped forward pass and readout, is the reference loss.

Every route reads a pair's targets through TrainingPair.arrays, which
encodes them in OBSERVABLE_IDS order with a 0/1 mask for the ungraded
outputs.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import superop
from .errors import DivergenceError, KetSyntaxError
from .hamiltonian import GENERATORS, Schedule, unflatten
from .ketexpr import parse_state
from .ops import OBSERVABLE_IDS, SIGNS, dagger, readout
from .propagate import (
    DEFAULT_DT_NS,
    IntegratorConfig,
    evolve,
    evolve_batch_h,
    rhs,
)
from .states import CATALOG_NAMES, StateSpec, catalog, mix

P_STATE_TARGET = 0.44317  # originally trained partial-entanglement value


# a bare name, or a name with a parenthesized argument list
_NAMED = re.compile(r"\s*([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*")


def resolve_state(text_or_spec) -> StateSpec:
    """StateSpec, catalog name, Name(a, b, ...) or ket expression -> StateSpec.

    The one place state text is read: the CLI, dataset files and
    witness.evaluate all come here. A catalog name, bare or with numeric
    arguments, is built by catalog(); any other bare name is an unknown
    state; everything else is a ket expression or mixture for parse_state.
    """
    if isinstance(text_or_spec, StateSpec):
        return text_or_spec
    text = str(text_or_spec)
    m = _NAMED.fullmatch(text)
    # an unknown name with arguments may be a ket number such as sqrt(2)
    if m is None or (m[1] not in CATALOG_NAMES and m[2] is not None):
        return parse_state(text)
    name, argtext = m.groups()
    if name not in CATALOG_NAMES:
        raise KetSyntaxError(
            f"unknown state name {name!r}; "
            "run 'qnnwitness catalog' for the list")
    argtext = (argtext or "").strip()
    try:
        args = [float(a) for a in argtext.split(",")] if argtext else []
    except ValueError:
        raise KetSyntaxError(
            f"arguments of {name} must be numbers, got {argtext!r}") from None
    if not all(map(math.isfinite, args)):
        raise KetSyntaxError(
            f"arguments of {name} must be finite, got {argtext!r}")
    return catalog(name, *args)


@dataclass(frozen=True)
class TrainingPair:
    state: StateSpec
    targets: dict  # observable id -> target in [0, 1]

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a training pair needs at least one target")
        for key, value in self.targets.items():
            if key not in OBSERVABLE_IDS:
                raise KeyError(f"unknown observable id {key!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"target {key}={value} outside [0, 1]")

    def arrays(self):
        """(rho, targets, mask): the (8, 8) input density and (4,) target
        and 0/1 mask rows in OBSERVABLE_IDS order."""
        targets = np.array([self.targets.get(k, 0.0) for k in OBSERVABLE_IDS],
                           dtype=float)
        mask = np.array([k in self.targets for k in OBSERVABLE_IDS],
                        dtype=float)
        return mix(self.state), targets, mask


@dataclass(frozen=True)
class Dataset:
    name: str
    pairs: tuple

    def __post_init__(self):
        if not self.pairs:
            raise ValueError(f"dataset {self.name!r} has no pairs")

    def arrays(self):
        """(rhos, targets, mask) stacks in OBSERVABLE_IDS order."""
        rhos, targets, mask = zip(*(p.arrays() for p in self.pairs))
        return np.stack(rhos), np.stack(targets), np.stack(mask)


def _dataset_from_doc(doc: dict) -> Dataset:
    pairs = tuple(
        TrainingPair(resolve_state(entry["state"]),
                     {k: float(v) for k, v in entry["targets"].items()})
        for entry in doc["pairs"])
    return Dataset(doc.get("name", "dataset"), pairs)


def load_dataset(source) -> Dataset:
    """Bundled name ("set1", "set2") or a JSON file path."""
    if isinstance(source, Dataset):
        return source
    if source in ("set1", "set2"):
        text = resources.files("qnnwitness.data").joinpath(
            f"{source}.json").read_text()
        return _dataset_from_doc(json.loads(text))
    with open(source) as fh:
        return _dataset_from_doc(json.load(fh))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000
    learning_rate: float = 1e-3
    momentum: float = 0.9
    dt: float = DEFAULT_DT_NS

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must not be negative, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite "
                             f"number, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt)


def backprop_gradient(pair: TrainingPair, s: Schedule,
                      cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Exact loss gradient by reverse-mode through every RK4 stage.

    Walks the recorded trajectory backward a chunk at a time: the adjoint
    of one RK4 step with generator f(x) = -i[H, x] applies the same stage
    arithmetic with f+ = -f, and each stage contributes [x_i, w_i+] to the
    parameter commutator sum. The stage inputs x_2..x_4 of all of a
    chunk's steps are recomputed from its recorded states in one batched
    pass. The re-Hermitization between steps is self-adjoint.
    """
    dt = cfg.dt
    steps = cfg.steps_per_chunk(s.chunk_duration)
    rho0, targets, mask = pair.arrays()
    rho_f, traj = evolve(rho0, s, cfg, record=True)
    y = readout(rho_f)

    hs = s.hamiltonians()
    u = s.convention.omega_per_MHz
    # dE/drho(t_f) = sum_j -2 resid_j y_j P_j, a real diagonal matrix
    lam = np.diag((-2.0 * (targets - y * y) * mask * y) @ SIGNS).astype(complex)
    grad = np.zeros((s.n_chunks, 9))

    def fdag(h, w):
        return 1j * (h @ w - w @ h)

    for k in range(s.n_chunks - 1, -1, -1):
        h = hs[k]
        x1 = traj.states[k * steps:(k + 1) * steps]
        x2 = x1 + (dt / 2) * rhs(h, x1)
        x3 = x1 + (dt / 2) * rhs(h, x2)
        x4 = x1 + dt * rhs(h, x3)
        for n in range(steps - 1, -1, -1):
            lam = 0.5 * (lam + dagger(lam))
            w4 = (dt / 6) * lam
            w3 = (dt / 3) * lam + dt * fdag(h, w4)
            w2 = (dt / 3) * lam + (dt / 2) * fdag(h, w3)
            w1 = (dt / 6) * lam + (dt / 2) * fdag(h, w2)
            c = np.zeros((8, 8), dtype=complex)
            for x, w in ((x1[n], w1), (x2[n], w2), (x3[n], w3), (x4[n], w4)):
                wd = dagger(w)
                c += x @ wd - wd @ x
            grad[k] += u * np.einsum("qij,ji->q", GENERATORS, c).imag
            lam = lam + fdag(h, w1) + fdag(h, w2) + fdag(h, w3) + fdag(h, w4)
    return grad.reshape(-1)


def fd_gradient(pair: TrainingPair, s: Schedule,
                cfg: IntegratorConfig = IntegratorConfig(),
                h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient, (E(p+h) - E(p-h)) / 2h per parameter.

    All 72 perturbed forward evolutions run as one batch: each batch
    element gets its own per-chunk Hamiltonian stack. h must be a
    positive finite step.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step must be a positive "
                         f"finite number of MHz, got {h!r}")
    steps = cfg.steps_per_chunk(s.chunk_duration)
    n_par = s.n_chunks * 9
    base = s.hamiltonians()
    u = s.convention.omega_per_MHz

    hs = np.repeat(base[:, None], 2 * n_par, axis=1).astype(complex)
    for m in range(n_par):
        k, q = divmod(m, 9)
        hs[k, 2 * m] += h * u * GENERATORS[q]
        hs[k, 2 * m + 1] -= h * u * GENERATORS[q]

    rho, targets, mask = pair.arrays()
    rho_f = evolve_batch_h(np.broadcast_to(rho, (2 * n_par, 8, 8)), hs,
                           cfg.dt, steps)
    expect = readout(rho_f)
    resid = (targets - expect ** 2) * mask
    energies = 0.5 * np.sum(resid * resid, axis=1)
    return (energies[0::2] - energies[1::2]) / (2 * h)


def rms_error(ds: Dataset, s: Schedule,
              cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """sqrt(sum residual^2 / N_outputs) over the whole dataset."""
    rhos, targets, mask = load_dataset(ds).arrays()
    rho_f, _ = evolve(rhos, s, cfg)
    resid = (targets - readout(rho_f) ** 2) * mask
    return float(np.sqrt(np.sum(resid * resid) / mask.sum()))


def train(ds: Dataset, init: Schedule, cfg: TrainConfig = TrainConfig()):
    """Batch gradient descent with momentum; deterministic.

    Returns (trained Schedule, per-epoch RMS history). history[e] is the
    RMS at the parameters entering epoch e, so a 0-epoch call returns the
    initial schedule and an empty history. A dt that does not divide the
    chunk duration is rejected before epoch 0, and a non-finite RMS or
    gradient raises DivergenceError.
    """
    ds = load_dataset(ds)
    cfg.integrator().steps_per_chunk(init.chunk_duration)
    rhos, targets, mask = ds.arrays()
    n_out = mask.sum()
    flat = init.flatten()
    velocity = np.zeros_like(flat)
    history = np.empty(cfg.epochs)
    current = init
    for epoch in range(cfg.epochs):
        energy, grad, _ = superop.dataset_loss_grad(
            rhos, targets, mask, current, cfg.dt)
        rms = float(np.sqrt(2.0 * energy / n_out))
        history[epoch] = rms
        if not (math.isfinite(rms) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                f"non-finite RMS or gradient at epoch {epoch}")
        if rms > 10.0 * history[0]:
            raise DivergenceError(
                f"RMS {rms:.3e} exceeds 10x initial {history[0]:.3e} "
                f"at epoch {epoch}; lower the learning rate")
        velocity = cfg.momentum * velocity - cfg.learning_rate * grad
        flat = flat + velocity
        current = unflatten(flat, like=init)
    return current, history


def history_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "rms"])
        for epoch, rms in enumerate(history):
            writer.writerow([epoch, f"{rms:.12g}"])
