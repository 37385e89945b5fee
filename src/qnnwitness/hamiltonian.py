"""Piecewise-constant control Hamiltonian for the three-qubit system.

H/hbar = u * [sum_q K_q sx_q + sum_q eps_q sz_q + sum_{qq'} zeta_qq' sz_q sz_q']

with all nine controls in MHz and u the unit conversion to rad/ns. A
schedule holds each parameter constant over four 75 ns chunks, giving 36
trainable values. Two readings of the conversion factor are plausible
(ordinary vs angular frequency); calibration against the reference Bell
outputs selects "plain", which is the package default.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import QnnError
from .ops import OBSERVABLES, embed_pauli

PARAM_NAMES = (
    "K_A", "K_B", "K_C",
    "eps_A", "eps_B", "eps_C",
    "zeta_AB", "zeta_AC", "zeta_BC",
)

# d(H/hbar)/d(parameter) / u, stacked in PARAM_NAMES order
GENERATORS = np.stack([
    embed_pauli("x", "A"), embed_pauli("x", "B"), embed_pauli("x", "C"),
    embed_pauli("z", "A"), embed_pauli("z", "B"), embed_pauli("z", "C"),
    OBSERVABLES["AB"], OBSERVABLES["AC"], OBSERVABLES["BC"],
])


@dataclass(frozen=True)
class UnitConvention:
    name: str
    omega_per_MHz: float  # rad/ns per MHz


ANGULAR = UnitConvention("angular", 2e-3 * np.pi)
PLAIN = UnitConvention("plain", 1e-3)
CONVENTIONS = {"angular": ANGULAR, "plain": PLAIN}
DEFAULT_CONVENTION = PLAIN

DEFAULT_CHUNK_NS = 75.0


def build_hamiltonian(params, convention: UnitConvention = DEFAULT_CONVENTION):
    """H/hbar in rad/ns for (..., 9) parameter values in MHz; real symmetric."""
    values = np.asarray(params, dtype=float)
    return convention.omega_per_MHz * np.tensordot(values, GENERATORS, axes=(-1, 0))


@dataclass(frozen=True)
class Schedule:
    """Ordered parameter chunks, each held for chunk_duration ns."""

    chunks: np.ndarray  # (n_chunks, 9) MHz
    chunk_duration: float = DEFAULT_CHUNK_NS
    convention: UnitConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        object.__setattr__(self, "chunks",
                           np.asarray(self.chunks, dtype=float).reshape(-1, 9))
        if not (np.isfinite(self.chunk_duration) and self.chunk_duration > 0):
            raise QnnError(f"chunk duration must be a positive number of ns, "
                           f"got {self.chunk_duration}")

    @property
    def n_chunks(self) -> int:
        return self.chunks.shape[0]

    def hamiltonians(self) -> np.ndarray:
        """(n_chunks, 8, 8) stack of H/hbar per chunk.

        Every propagation route gets its matrices here, so non-finite
        parameters are refused here; a schedule holding them can still be
        built and inspected, as a diverged fit's result is.
        """
        if not np.all(np.isfinite(self.chunks)):
            raise QnnError("schedule parameters must be finite")
        return build_hamiltonian(self.chunks, self.convention)

    def flatten(self) -> np.ndarray:
        """Chunk-major weight vector; order within a chunk is PARAM_NAMES."""
        return self.chunks.reshape(-1).copy()


def unflatten(flat, like: Schedule) -> Schedule:
    values = np.asarray(flat, dtype=float).reshape(like.n_chunks, 9)
    return Schedule(values, like.chunk_duration, like.convention)


def save_schedule(s: Schedule, path) -> None:
    doc = {
        "chunk_duration_ns": s.chunk_duration,
        "convention": s.convention.name,
        "chunks": [[float(v) for v in row] for row in s.chunks],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _schedule_from_doc(doc: dict, default_convention=None) -> Schedule:
    fallback = (default_convention or DEFAULT_CONVENTION).name
    convention = CONVENTIONS[doc.get("convention", fallback)]
    return Schedule(np.array(doc["chunks"], dtype=float),
                    float(doc.get("chunk_duration_ns", DEFAULT_CHUNK_NS)),
                    convention)


def load_schedule(path, default_convention=None) -> Schedule:
    """Read a schedule file; files without a convention field get the
    caller's default (or the package default)."""
    with open(path) as fh:
        return _schedule_from_doc(json.load(fh), default_convention)


BUNDLED_SCHEDULES = ("initial", "set1", "set2", "trained_set1", "trained_set2")


def bundled_schedule(name: str) -> Schedule:
    """Load one of the schedules shipped with the package.

    "initial", "set1" and "set2" are the stock parameter tables;
    "trained_set1"/"trained_set2" are the locally trained results.
    """
    text = resources.files("qnnwitness.data").joinpath(
        f"schedule_{name}.json").read_text()
    return _schedule_from_doc(json.loads(text))


def resolve_schedule(source, default_convention=None) -> Schedule:
    """Accept a Schedule, a bundled name, or a file path."""
    if isinstance(source, Schedule):
        return source
    if source in BUNDLED_SCHEDULES:
        return bundled_schedule(source)
    return load_schedule(source, default_convention)
