"""Loss, exact gradients through the integrator, and the training loop.

The network's output for an input state is the squared final-time
correlation [tr(rho(t_f) P)]^2 for each requested observable P. The loss
is E = 1/2 sum (target - output)^2 over a pair's targets, summed over the
dataset for batch training.

Two independent gradient routes exist on purpose. backprop_gradient is
the reference: reverse mode through every step of the actual stepped
integration. It records the trajectory and seeds the adjoint here; the
step arithmetic it walks back, like every other line that knows RK4's
step, lives in propagate.py, beside the stepped loop. The training loop
instead calls the fast path in superop.py, which applies each chunk's n
RK4 steps at once in the eigenbasis of its Hamiltonian and gets the same
discrete adjoint from the divided-difference form of the derivative of
that map. tests/routes.py, the one place where routes are compared, holds
both, and central differences of the loss in the parameters themselves,
to a forward-mode tangent of the textbook RK4 map. Central differences
step each perturbed parameter set through its own chunk only, all in one
stepped batch, and take the chunks it shares with the schedule as their
powered step matrices, which propagate builds as for evolve.

Every route reads a pair's targets through TrainingPair.arrays, which
encodes them in OBSERVABLE_IDS order with a 0/1 mask for the ungraded
outputs, and its loss, outputs and adjoint seed through ops.loss_terms.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import hamiltonian, superop
from .errors import (
    DivergenceError,
    KetSyntaxError,
    json_field,
    json_object,
    json_value,
    read_json,
    write_csv,
)
from .hamiltonian import Schedule, parameter_gradient, unflatten
from .ketexpr import parse_state
from .ops import OBSERVABLE_IDS, loss_terms
from .propagate import (
    IntegratorConfig,
    _coordinates,
    _increments,
    _matrices,
    _stepped_gradient,
    check_stable,
    evolve,
    evolve_batch_h,
    real_setting,
)
from .states import CATALOG_NAMES, StateSpec, catalog, mix


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
                raise ValueError(f"unknown observable id {key!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"target {key}={value} outside [0, 1]")

    def arrays(self):
        """(rho, targets, mask): the (8, 8) input density and (4,) target
        and 0/1 mask rows in OBSERVABLE_IDS order."""
        targets, mask = _target_rows((self,))
        return mix(self.state), targets[0], mask[0]


def _target_rows(pairs):
    """(B, 4) target and 0/1 mask rows of the pairs, in OBSERVABLE_IDS
    order; an ungraded output has target 0 and mask 0."""
    targets = np.array([[p.targets.get(k, 0.0) for k in OBSERVABLE_IDS]
                        for p in pairs], dtype=float)
    mask = np.array([[k in p.targets for k in OBSERVABLE_IDS]
                     for p in pairs], dtype=float)
    return targets, mask


@dataclass(frozen=True)
class Dataset:
    name: str
    pairs: tuple

    def __post_init__(self):
        if not self.pairs:
            raise ValueError(f"dataset {self.name!r} has no pairs")

    def arrays(self):
        """(rhos, targets, mask) stacks in OBSERVABLE_IDS order: the rows
        TrainingPair.arrays gives, stacked."""
        return (np.stack([mix(p.state) for p in self.pairs]),
                *_target_rows(self.pairs))


def _dataset_from_doc(doc: dict) -> Dataset:
    json_object(doc, "dataset", ("name", "pairs"))
    pairs = []
    for entry in json_field(doc, "pairs", list):
        json_object(entry, "pair", ("state", "targets"))
        targets = json_field(entry, "targets", dict)
        pairs.append(TrainingPair(
            resolve_state(json_field(entry, "state", str)),
            {k: float(json_value(v, float, f"target {k}"))
             for k, v in targets.items()}))
    return Dataset(json_value(doc.get("name", "dataset"), str, "name"),
                   tuple(pairs))


def load_dataset(source) -> Dataset:
    """Bundled name ("set1", "set2") or a JSON file path."""
    if isinstance(source, Dataset):
        return source
    if source in ("set1", "set2"):
        source = resources.files("qnnwitness.data") / f"{source}.json"
    return _dataset_from_doc(read_json(source))


@dataclass(frozen=True)
class TrainConfig(IntegratorConfig):
    # dt, its default and its check come from IntegratorConfig. The type of
    # each default is the kind the CLI's config file and flag take for it.
    epochs: int = 5000
    learning_rate: float = 1e-3
    momentum: float = 0.9

    def __post_init__(self):
        super().__post_init__()
        # a bool is an Integral too, but never an epoch count
        if (isinstance(self.epochs, bool)
                or not isinstance(self.epochs, numbers.Integral)
                or self.epochs < 0):
            raise ValueError(f"epochs must be a non-negative integer, "
                             f"got {self.epochs!r:.40}")
        if not (math.isfinite(real_setting(self.learning_rate,
                                           "learning_rate"))
                and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite "
                             f"number, got {self.learning_rate}")
        if not 0.0 <= real_setting(self.momentum, "momentum") < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), "
                             f"got {self.momentum}")


def backprop_gradient(pair: TrainingPair, s: Schedule,
                      cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Exact loss gradient by reverse mode through every stepped RK4 step.

    The forward pass records the pair's trajectory, ops.loss_terms gives
    the seed dE/drho(t_f), and propagate._stepped_gradient, beside the
    stepped loop whose step arithmetic it walks back, turns both into each
    chunk's dE/dH.
    """
    rho0, targets, mask = pair.arrays()
    rho_f, traj = evolve(rho0, s, cfg, record=True)
    seed = np.diag(loss_terms(rho_f, targets, mask)[2])
    dh = _stepped_gradient(traj.states, seed, s.hamiltonians(), cfg.dt)
    return parameter_gradient(dh, s.convention).reshape(-1)


def fd_gradient(pair: TrainingPair, s: Schedule,
                cfg: IntegratorConfig = IntegratorConfig(),
                h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient, (E(p+h) - E(p-h)) / 2h per parameter.

    The parameter sets p + h e_m and p - h e_m, for every entry m of the
    flattened schedule, differ from p only in one chunk k, over which the
    controls are constant. Before and after it a set meets p's own
    Hamiltonians, whose chunks are each one linear map of the state's 64
    Hermitian coordinates, the increment D_j = S_j^n - I of the chunk's
    powered step matrix (propagate._increments), which carries
    coordinates c to c + c D_j, as in evolve. So p's coordinates are
    carried to the start of every chunk, and all 18 n_chunks sets are
    stepped through their own chunk only, from p's state there, in one
    evolve_batch_h call: 72 state-chunks at four chunks, in place of 288
    for every set through every chunk. Each chunk's 18 results are then
    carried by the same rule through every chunk after it, in order, and
    one product turns the coordinates back into matrices
    (propagate._matrices) for one loss_terms. No two chunks' increments
    are ever multiplied together. The differences are those of every set
    stepped through every chunk up to round-off, and exactly those with
    one chunk. Only p's Hamiltonians and the perturbed ones are built, and
    all pass the stability check, which names their chunk, before the
    first step. h must be a positive finite real step that moves every
    parameter: where p + h or p - h rounds to p, the difference would
    read 0 whatever the gradient.
    """
    if not (math.isfinite(real_setting(h, "h")) and h > 0):
        raise ValueError(f"finite-difference step must be a positive "
                         f"finite number of MHz, got {h!r}")
    steps = cfg.steps_per_chunk(s.chunk_duration)
    # row 0 of each chunk is p's own values, row 2m + 1 is p + h e_m and
    # row 2m + 2 is p - h e_m for the chunk's entries m
    offsets = np.vstack((np.zeros(9), np.kron(np.eye(9), [[1.0], [-1.0]])))
    hs = hamiltonian.build_hamiltonian(s.chunks[:, None] + h * offsets,
                                       s.convention)
    p = s.chunks
    if np.any((p + h == p) | (p - h == p)):
        raise ValueError(f"finite-difference step h = {h!r} MHz leaves a "
                         f"parameter unmoved: p + h or p - h rounds to p")
    check_stable(np.linalg.eigvalsh(hs), cfg.dt)
    rho, targets, mask = pair.arrays()
    increments = _increments(hs[:, 0], cfg.dt, steps)
    # p's coordinates entering each chunk, each carried from the last as
    # c + c D
    entering = [_coordinates(rho)]
    for d in increments[:-1]:
        entering.append(entering[-1] + entering[-1] @ d)
    stepped = evolve_batch_h(
        np.repeat(_matrices(np.concatenate(entering)), 18, axis=0),
        hs[None, :, 1:].reshape(1, -1, 8, 8), cfg.dt, steps)
    # each chunk's 18 sets on through every chunk after it, in order
    c = _coordinates(stepped).reshape(len(hs), 18, 64)
    for k, d in enumerate(increments):
        c[:k] += c[:k] @ d
    energies, _, _ = loss_terms(_matrices(c.reshape(-1, 64)), targets, mask)
    return (energies[0::2] - energies[1::2]) / (2 * h)


def _rms(energy, graded) -> float:
    """sqrt(2 E / number of graded outputs): the RMS residual."""
    return math.sqrt(2.0 * energy / graded)


def rms_error(ds: Dataset, s: Schedule,
              cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """RMS residual over the whole dataset, by the stepped forward pass."""
    rhos, targets, mask = load_dataset(ds).arrays()
    rho_f, _ = evolve(rhos, s, cfg)
    return _rms(loss_terms(rho_f, targets, mask)[0].sum(), mask.sum())


def _last_finite(history) -> str:
    """The clause naming the last epoch of a finite history, or none."""
    if not history:
        return "; there is no finite epoch before it"
    return (f"; the last finite epoch is {len(history) - 1}, "
            f"RMS {history[-1]:.6g}")


def train(ds: Dataset, init: Schedule, cfg: TrainConfig = TrainConfig()):
    """Batch gradient descent with momentum; deterministic.

    Returns (trained Schedule, per-epoch RMS history). history[e] is the
    RMS at the parameters entering epoch e, so a 0-epoch call returns the
    initial schedule and an empty history. A dt that does not divide the
    chunk duration is rejected before epoch 0, and a non-finite RMS or
    gradient raises DivergenceError, which also names the last finite
    epoch and its RMS.
    """
    rhos, targets, mask = load_dataset(ds).arrays()
    graded = mask.sum()
    cfg.steps_per_chunk(init.chunk_duration)
    flat = init.flatten()
    velocity = np.zeros_like(flat)
    history = []
    current = init
    for epoch in range(cfg.epochs):
        try:
            energy, grad, _ = superop.dataset_loss_grad(
                rhos, targets, mask, current, cfg.dt)
        except DivergenceError as exc:
            raise DivergenceError(
                f"epoch {epoch}: {exc}{_last_finite(history)}") from None
        rms = _rms(energy, graded)
        history.append(rms)
        if not (math.isfinite(rms) and np.isfinite(grad).all()):
            raise DivergenceError(f"non-finite RMS or gradient at epoch "
                                  f"{epoch}{_last_finite(history[:-1])}")
        if rms > 10.0 * history[0]:
            raise DivergenceError(
                f"RMS {rms:.3e} exceeds 10x initial {history[0]:.3e} "
                f"at epoch {epoch}; lower the learning rate")
        velocity *= cfg.momentum
        velocity -= cfg.learning_rate * grad
        flat = flat + velocity
        current = unflatten(flat, like=init)
    return current, np.array(history, dtype=float)


def history_csv(history, path) -> None:
    write_csv(path, ["epoch", "rms"],
              ([epoch, f"{rms:.12g}"] for epoch, rms in enumerate(history)))
