"""Piecewise-constant control Hamiltonian for the three-qubit system.

H/hbar = u * [sum_q K_q sx_q + sum_q eps_q sz_q + sum_{qq'} zeta_qq' sz_q sz_q']

with all nine controls in MHz and u the unit conversion to rad/ns. A
schedule holds each parameter constant over four 75 ns chunks, giving 36
trainable values. Two readings of the conversion factor are plausible
(ordinary vs angular frequency); calibration against the reference Bell
outputs selects "plain", which is the package default.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (QnnError, json_field, json_object, json_value,
                     read_json, write_json)
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
# one generator per row, so that the map and its transpose are products
_GENERATOR_ROWS = GENERATORS.reshape(len(GENERATORS), 64)


@dataclass(frozen=True)
class UnitConvention:
    name: str
    omega_per_MHz: float  # rad/ns per MHz


ANGULAR = UnitConvention("angular", 2e-3 * np.pi)
PLAIN = UnitConvention("plain", 1e-3)
CONVENTIONS = {"angular": ANGULAR, "plain": PLAIN}
DEFAULT_CONVENTION = PLAIN

DEFAULT_CHUNK_NS = 75.0


def unit_convention(name) -> UnitConvention:
    """The convention an input names; a ValueError names the choices."""
    if json_value(name, str, "convention") not in CONVENTIONS:
        raise ValueError(f"convention must be one of "
                         f"{', '.join(CONVENTIONS)}, got {name!r:.40}")
    return CONVENTIONS[name]


def build_hamiltonian(params, convention: UnitConvention = DEFAULT_CONVENTION):
    """H/hbar in rad/ns for (..., 9) parameter values in MHz; real symmetric.
    Every route gets its matrices here, so non-finite values stop here."""
    values = np.asarray(params, dtype=float)
    if not np.isfinite(values).all():
        raise QnnError("schedule parameters must be finite")
    h = values @ _GENERATOR_ROWS
    h *= convention.omega_per_MHz
    return h.reshape(values.shape[:-1] + (8, 8))


# dE/dp_q = u sum_ij G_q,ij M_ij for M = dE/d(H/hbar): both exact gradients
# reach the parameters through this map
def parameter_gradient(dh, convention: UnitConvention = DEFAULT_CONVENTION):
    """build_hamiltonian's transpose: (..., 8, 8) dE/dH -> (..., 9) dE/dp."""
    dh = np.asarray(dh)
    grad = dh.reshape(dh.shape[:-2] + (64,)) @ _GENERATOR_ROWS.T
    grad *= convention.omega_per_MHz
    return grad


@dataclass(frozen=True)
class Schedule:
    """Ordered parameter chunks, each held for chunk_duration ns."""

    chunks: np.ndarray  # (n_chunks, 9) MHz
    chunk_duration: float = DEFAULT_CHUNK_NS
    convention: UnitConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        chunks = np.asarray(self.chunks, dtype=float)
        if chunks.ndim != 2 or chunks.shape[1] != len(PARAM_NAMES):
            raise ValueError(f"chunks must have shape (n_chunks, "
                             f"{len(PARAM_NAMES)}), got {chunks.shape}")
        object.__setattr__(self, "chunks", chunks)
        if not self.n_chunks:
            raise ValueError("chunks must hold at least one row")
        if not (np.isfinite(self.chunk_duration) and self.chunk_duration > 0):
            raise ValueError(f"chunk_duration_ns must be a positive number of "
                             f"ns, got {self.chunk_duration}")

    @property
    def n_chunks(self) -> int:
        return self.chunks.shape[0]

    def hamiltonians(self) -> np.ndarray:
        """(n_chunks, 8, 8) stack of H/hbar per chunk.

        build_hamiltonian refuses non-finite parameters; a schedule holding
        them can still be built and inspected, as a diverged fit's result is.
        """
        return build_hamiltonian(self.chunks, self.convention)

    def flatten(self) -> np.ndarray:
        """Chunk-major weight vector; order within a chunk is PARAM_NAMES."""
        return self.chunks.reshape(-1).copy()


def unflatten(flat, like: Schedule) -> Schedule:
    values = np.asarray(flat, dtype=float).reshape(like.n_chunks, 9)
    return Schedule(values, like.chunk_duration, like.convention)


def save_schedule(s: Schedule, path) -> None:
    write_json(path, {
        "chunk_duration_ns": s.chunk_duration,
        "convention": s.convention.name,
        "chunks": [[float(v) for v in row] for row in s.chunks],
    })


def _schedule_from_doc(doc: dict, default_convention=None) -> Schedule:
    json_object(doc, "schedule", ("chunks", "chunk_duration_ns", "convention"))
    convention = unit_convention(doc.get(
        "convention", default_convention or DEFAULT_CONVENTION.name))
    chunks = json_field(doc, "chunks", list)
    for i, row in enumerate(chunks):
        if len(json_value(row, list, f"chunks row {i}")) != len(PARAM_NAMES):
            raise ValueError(f"chunks row {i} must hold {len(PARAM_NAMES)} "
                             f"values, got {len(row)}")
    duration = doc.get("chunk_duration_ns", DEFAULT_CHUNK_NS)
    values = np.array([[json_value(v, float, "chunk value") for v in row]
                       for row in chunks], dtype=float)
    # an empty list reads as no rows of 9 values, which Schedule refuses
    return Schedule(values.reshape(-1, len(PARAM_NAMES)),
                    float(json_value(duration, float, "chunk_duration_ns")),
                    convention)


BUNDLED_SCHEDULES = ("initial", "set1", "set2", "trained_set1", "trained_set2")


def bundled_schedule(name: str) -> Schedule:
    """Load one of the schedules shipped with the package.

    "initial", "set1" and "set2" are the stock parameter tables;
    "trained_set1"/"trained_set2" are the locally trained results.
    """
    return _schedule_from_doc(read_json(
        resources.files("qnnwitness.data") / f"schedule_{name}.json"))


def resolve_schedule(source, default_convention=None) -> Schedule:
    """A Schedule as it is, a bundled name, or a schedule file path; a file
    without a convention field gets the caller's default convention name
    (or the package default)."""
    if isinstance(source, Schedule):
        return source
    if source in BUNDLED_SCHEDULES:
        return bundled_schedule(source)
    return _schedule_from_doc(read_json(source), default_convention)
