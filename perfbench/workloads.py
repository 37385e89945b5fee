"""The four benchmark workloads: inputs from a seed, one timed operation,
and correctness checks that run after the timed region.

Each workload object has
  items_per_op        what one operation completes, for the throughput
  op(i)               the timed call into the program; returns its output
  check(i, output)    None when the output is correct, else the reason
  warmup()            a small untimed call that loads lazy code paths

Operation outputs are kept and checked after timing, so checks never
count as measured time. Every check tests finiteness directly, never
through the witness labels.
"""
from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from qnnwitness import cli, hamiltonian, learning, propagate, states, witness
from qnnwitness.hamiltonian import PLAIN, Schedule
from qnnwitness.learning import TrainConfig, TrainingPair
from qnnwitness.ops import OBSERVABLE_IDS
from qnnwitness.propagate import IntegratorConfig

DT_COARSE = 0.25            # training and gradient-check step, ns
JITTER_MHZ = 0.02           # seeded perturbation of bundled schedules
TRAIN_EPOCHS_PER_OP = 10
TRAIN_LR = 3e-3
TRAIN_MOMENTUM = 0.9
SWEEP_N = 21
SWEEP_ORACLE_CELLS = 16
EVAL_REQUESTS = 400         # distinct requests generated per run
GRADCHECK_PROBLEMS = 200
ORACLE_TOL = 1e-6
RMS_TOL = 1e-9
GRAD_REL_TOL = 1e-6
# Central differences at h = 1e-4 resolve a gradient component only to
# round-off, up to 1.05e-10 absolute over 200 random problems; components
# of 1e-6 to 1e-4 then deviate by more than 1e-6 relative. So the check
# allows this absolute term on top of the relative one, as np.allclose.
GRAD_ABS_TOL = 1e-9

# diagonal of each correlator: sz eigenvalue +1 for bit 0, basis index
# 4*q_A + 2*q_B + q_C; built here so the oracle shares no readout code
_BITS = np.array([[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)])
_PARITY = {"AB": (0, 1), "AC": (0, 2), "BC": (1, 2), "ABC": (0, 1, 2)}
SIGNS = np.stack([(-1.0) ** _BITS[:, list(_PARITY[k])].sum(axis=1)
                  for k in OBSERVABLE_IDS])


def oracle_outputs(rho0, schedule):
    """(..., 4) squared correlations after exact per-chunk propagation."""
    rho_f = propagate.evolve_expm(rho0, schedule)
    diag = np.einsum("...ii->...i", rho_f).real
    return (diag @ SIGNS.T) ** 2


def ket_density(amps):
    ket = np.asarray(amps, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def _on_pair(pair, pattern, spectator):
    """Amplitudes of a two-qubit pattern (|00>, |01>, |10>, |11>) on the
    named pair of qubits, with the third qubit in `spectator`."""
    tensor = np.multiply.outer(np.reshape(pattern, (2, 2)), spectator)
    first, second = "ABC".index(pair[0]), "ABC".index(pair[1])
    return np.moveaxis(tensor, (0, 1, 2),
                       (first, second, 3 - first - second)).reshape(8)


def _named_densities():
    """Density matrix of every catalog name that takes no required
    arguments, at its default arguments, written from the states'
    definitions so that the oracle shares no code with `states`."""
    zero, plus = [1.0, 0.0], [1.0, 1.0]
    pairwise = {"Bell": ([1, 0, 0, 1], zero), "flat": ([1, 1, 1, 1], zero),
                "Cr": ([0, 0, 0.5, 1], zero), "P": ([1, 1, 1, 0], zero),
                "EPR": ([0, 1, 1, 0], plus), "Pprime": ([1, 1, 1, 0], plus)}
    basis = np.eye(8)
    kets = {f"{kind}_{pair}": _on_pair(pair, *args)
            for kind, args in pairwise.items() for pair in ("AB", "AC", "BC")}
    kets.update({
        "GHZ_plus": basis[0] + basis[7], "GHZ_minus": basis[0] - basis[7],
        "W": basis[1] + basis[2] + basis[4], "F1": np.ones(8),
        "F2": basis[0],
        "F3": np.kron(np.kron([0.8, 1.0], [0.0, 1.0]), [1.0, 0.7])})
    densities = {name: ket_density(amps) for name, amps in kets.items()}
    densities["M"] = 0.5 * (ket_density(basis[0]) + ket_density(basis[7]))
    return densities


NAMED_DENSITY = _named_densities()
NAMED_STATES = tuple(NAMED_DENSITY)


def jittered(schedule, rng):
    return Schedule(schedule.chunks + rng.normal(0.0, JITTER_MHZ,
                                                 schedule.chunks.shape),
                    schedule.chunk_duration, schedule.convention)


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=complex)))
               for a in arrays)


class Train:
    """learning.train on the 13-state set2 batch from a jittered
    trained_set1; one operation is a TRAIN_EPOCHS_PER_OP-epoch call."""

    name = "train"

    def __init__(self, rng, tiny=False):
        self.dataset = learning.load_dataset("set2")
        self.start = jittered(hamiltonian.resolve_schedule("trained_set1"),
                              rng)
        self.epochs = 2 if tiny else TRAIN_EPOCHS_PER_OP
        self.items_per_op = self.epochs
        self.config = TrainConfig(epochs=self.epochs, learning_rate=TRAIN_LR,
                                  momentum=TRAIN_MOMENTUM, dt=DT_COARSE)
        self._start_rms = None

    def warmup(self):
        learning.train(self.dataset, self.start,
                       TrainConfig(epochs=1, learning_rate=TRAIN_LR,
                                   momentum=TRAIN_MOMENTUM, dt=DT_COARSE))

    def op(self, i):
        return learning.train(self.dataset, self.start, self.config)

    def check(self, i, output):
        trained, history = output
        if len(history) != self.epochs:
            return f"history has {len(history)} epochs, not {self.epochs}"
        if not _finite(history, trained.chunks):
            return "non-finite rms history or trained parameters"
        if self._start_rms is None:
            # the independent stepped-RK4 route, not the superoperator
            self._start_rms = learning.rms_error(
                self.dataset, self.start, IntegratorConfig(DT_COARSE))
        gap = abs(history[0] - self._start_rms)
        if gap > RMS_TOL:
            return f"epoch-0 rms is {gap:.3e} off the RK4 rms"
        if not history[-1] < history[0]:
            return f"rms rose from {history[0]:.6g} to {history[-1]:.6g}"
        return None


class Sweep:
    """witness.sweep over the fig2 family on a 21x21 grid with a jittered
    trained_set2; one operation is one grid of 441 states."""

    name = "sweep"

    def __init__(self, rng, tiny=False):
        self.schedule = jittered(hamiltonian.resolve_schedule("trained_set2"),
                                 rng)
        self.n = 5 if tiny else SWEEP_N
        self.items_per_op = self.n * self.n
        self.cfg = IntegratorConfig(DT_COARSE)
        cells = min(SWEEP_ORACLE_CELLS, self.items_per_op)
        self.cells = rng.choice(self.items_per_op, size=cells, replace=False)

    def warmup(self):
        witness.sweep("fig2", 2, self.schedule, self.cfg)

    def op(self, i):
        return witness.sweep("fig2", self.n, self.schedule, self.cfg)

    def oracle(self):
        grid = np.linspace(0.0, 1.0, self.n)
        rhos = []
        for cell in self.cells:
            beta, alpha = grid[cell // self.n], grid[cell % self.n]
            amps = np.zeros(8)
            amps[[0, 6, 7]] = 1.0, alpha, beta
            rhos.append(ket_density(amps))
        return oracle_outputs(np.stack(rhos), self.schedule)

    def check(self, i, grid):
        out = np.asarray(grid.outputs)
        if out.shape != (self.n, self.n, 4):
            return f"grid shape {out.shape}"
        if not _finite(out):
            return "non-finite outputs"
        if out.min() < 0.0 or out.max() > 1.0:
            return f"outputs outside [0, 1]: {out.min():.3g}..{out.max():.3g}"
        got = out.reshape(-1, 4)[self.cells]
        gap = float(np.abs(got - self.oracle()).max())
        if gap > ORACLE_TOL:
            return f"cells {gap:.3e} off the exact-exponential oracle"
        band = [(b, a) for b, a in grid.crossing if 0.2 <= b <= 0.9]
        rows = [b for b in grid.betas if 0.2 <= b <= 0.9]
        if len(band) != len(rows):
            return f"crossing covers {len(band)} of {len(rows)} rows"
        if not _finite([a for _, a in band]):
            return "non-finite crossing"
        dev = max((abs(a - b) for b, a in band), default=0.0)
        if dev > 0.1:
            return f"crossing strays {dev:.3f} from the diagonal"
        return None


def _random_sum(rng):
    """A ket expression with small integer and imaginary coefficients,
    and its amplitudes."""
    amps = np.zeros(8, dtype=complex)
    text = ""
    for index in rng.choice(8, size=rng.integers(2, 5), replace=False):
        value = int(rng.integers(1, 4))
        imaginary = rng.random() < 0.3
        sign = "-" if rng.random() < 0.3 else "+"
        amps[index] += (-1 if sign == "-" else 1) * value * (
            1j if imaginary else 1)
        term = (f"{value}{'i' if imaginary else ''}*"
                f"|{index >> 2 & 1}{index >> 1 & 1}{index & 1}>")
        text = (f"-{term}" if sign == "-" else term) if not text \
            else f"{text} {sign} {term}"
    return text, amps


def random_request(rng):
    """(state argument text, density matrix the text denotes)."""
    kind = rng.choice(("name", "family", "ket", "mix"))
    if kind == "name":
        name = str(rng.choice(NAMED_STATES))
        return name, NAMED_DENSITY[name]
    if kind == "family":
        family = str(rng.choice(("fig1", "fig2")))
        alpha, beta = (round(float(x), 3) for x in rng.random(2))
        amps = np.zeros(8)
        if family == "fig1":
            amps[[0, 1, 2, 4]] = alpha, beta, 1.0, 1.0
        else:
            amps[[0, 6, 7]] = 1.0, alpha, beta
        return f"{family}({alpha}, {beta})", ket_density(amps)
    if kind == "ket":
        text, amps = _random_sum(rng)
        return text, ket_density(amps)
    weights = ((0.5, 0.5), (0.25, 0.75), (0.2, 0.3, 0.5))[rng.integers(3)]
    parts, rho = [], np.zeros((8, 8), dtype=complex)
    for w in weights:
        text, amps = _random_sum(rng)
        parts.append(f"{w}: {text}")
        rho += w * ket_density(amps)
    return "mix{" + ", ".join(parts) + "}", rho


class Evaluate:
    """Closed loop, one client: CLI `evaluate --json` requests through
    cli.main at the CLI's default step; one operation is one request."""

    name = "evaluate"
    items_per_op = 1

    def __init__(self, rng, tiny=False):
        self.schedules = {name: hamiltonian.resolve_schedule(name)
                          for name in ("trained_set1", "trained_set2")}
        self.requests = []
        for _ in range(EVAL_REQUESTS):
            params = str(rng.choice(list(self.schedules)))
            text, rho = random_request(rng)
            self.requests.append((params, text, rho))

    def _call(self, params, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["evaluate", "--params", params, "--state", text,
                             "--json"])
        return code, out.getvalue(), err.getvalue()

    def warmup(self):
        self._call("trained_set2", "GHZ_minus")

    def op(self, i):
        params, text, _ = self.requests[i % len(self.requests)]
        return self._call(params, text)

    def check(self, i, output):
        code, out, err = output
        params, text, rho = self.requests[i % len(self.requests)]
        if code != 0:
            return f"exit code {code} for {text!r}: {err.strip()}"
        try:
            doc = json.loads(out)
            got = np.array([float(doc["outputs"][k]) for k in OBSERVABLE_IDS])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON for {text!r}: {exc}"
        if not _finite(got):
            return f"non-finite outputs for {text!r}"
        gap = float(np.abs(got - oracle_outputs(rho, self.schedules[params]))
                    .max())
        if gap > ORACLE_TOL:
            return f"{text!r} is {gap:.3e} off the exact-exponential oracle"
        return None


class GradCheck:
    """Adjoint gradient against central differences at dt = 0.25 on random
    uniform(-6, 6) schedules; one operation is one check."""

    name = "gradcheck"
    items_per_op = 1

    def __init__(self, rng, tiny=False):
        zero_targets = {k: 0.0 for k in OBSERVABLE_IDS}
        self.cfg = IntegratorConfig(DT_COARSE)
        self.problems = [
            (TrainingPair(states.catalog(str(rng.choice(NAMED_STATES))),
                          dict(zero_targets)),
             Schedule(rng.uniform(-6.0, 6.0, size=(4, 9)), 75.0, PLAIN))
            for _ in range(GRADCHECK_PROBLEMS)]

    def warmup(self):
        self.op(0)

    def op(self, i):
        pair, schedule = self.problems[i % len(self.problems)]
        exact = learning.backprop_gradient(pair, schedule, self.cfg)
        numeric = learning.fd_gradient(pair, schedule, self.cfg)
        return exact, numeric

    def check(self, i, output):
        exact, numeric = output
        if not _finite(exact, numeric):
            return "non-finite gradient"
        excess = np.abs(exact - numeric) - GRAD_REL_TOL * np.abs(numeric)
        if not excess.max() < GRAD_ABS_TOL:
            worst = int(np.argmax(excess))
            return (f"parameter {worst}: adjoint {exact[worst]:.9e} vs "
                    f"differences {numeric[worst]:.9e}")
        return None


WORKLOADS = {w.name: w for w in (Train, Sweep, Evaluate, GradCheck)}
