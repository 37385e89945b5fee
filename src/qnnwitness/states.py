"""Input states: kets, mixtures, and the named catalog.

Pairwise states follow the spectator conventions used throughout: for
Bell/Cr/P patterns the unpaired qubit sits in |0>, for EPR/Pprime test
states it sits in (|0>+|1>)/sqrt(2). Amplitudes are stored normalized,
so only ratios matter when defining a pattern.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ArityError, InvalidWeights, NonFinite, UnknownState, ZeroVector

WEIGHT_TOL = 1e-9

# index of |q_A q_B q_C>
def basis_index(q_a: int, q_b: int, q_c: int) -> int:
    return 4 * q_a + 2 * q_b + q_c


def normalize(raw) -> np.ndarray:
    """Scale 8 amplitudes to unit Euclidean norm."""
    amps = np.asarray(raw, dtype=complex).reshape(8)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise NonFinite("amplitudes must be finite, with a norm below ~1e154")
    if norm < 1e-150:
        raise ZeroVector("cannot normalize the zero vector")
    return amps / norm


def ket_to_density(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(8)
    return np.outer(ket, ket.conj())


@dataclass(frozen=True)
class StateSpec:
    """A pure ket or an explicit convex mixture of kets."""

    weights: tuple = (1.0,)
    kets: tuple = ()

    def __post_init__(self):
        if len(self.weights) != len(self.kets):
            raise InvalidWeights("one weight per component required")
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise InvalidWeights(f"mixture weights must be finite, got {w}")
        if not np.isfinite(np.asarray(self.kets, dtype=complex)).all():
            raise NonFinite("ket amplitudes must be finite")
        if np.any(w < 0):
            raise InvalidWeights(f"negative mixture weight {w.min()}")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidWeights(
                f"mixture weights sum to {float(w.sum())!r}, not 1")

    @classmethod
    def pure(cls, ket) -> "StateSpec":
        return cls(weights=(1.0,), kets=(tuple(normalize(ket)),))

    @classmethod
    def mixture(cls, pairs) -> "StateSpec":
        weights = tuple(float(w) for w, _ in pairs)
        kets = tuple(tuple(normalize(k)) for _, k in pairs)
        return cls(weights=weights, kets=kets)

    @property
    def is_pure(self) -> bool:
        return len(self.kets) == 1

    @property
    def ket(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("mixture has no single ket")
        return np.asarray(self.kets[0], dtype=complex)

    def components(self):
        for w, k in zip(self.weights, self.kets):
            yield float(w), np.asarray(k, dtype=complex)


def mix(spec: StateSpec) -> np.ndarray:
    """Convex combination of rank-1 projectors."""
    rho = np.zeros((8, 8), dtype=complex)
    for w, ket in spec.components():
        rho += w * ket_to_density(ket)
    return rho


_ZERO = np.array([1.0, 0.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)

# kind -> (spectator, 2x2 amplitudes [bit 1][bit 2] of the pair); an
# optional argument's default is the pattern's own
_PAIR_KINDS = {
    "Bell": (_ZERO, lambda: [[1, 0], [0, 1]]),
    "flat": (_ZERO, lambda: [[1, 1], [1, 1]]),
    # classically correlated, not entangled: gamma|10> + |11>
    "Cr": (_ZERO, lambda gamma=0.5: [[0, 0], [gamma, 1]]),
    # partially entangled: |00> + |01> + |10>
    "P": (_ZERO, lambda: [[1, 1], [1, 0]]),
    "EPR": (_PLUS, lambda sign=1.0: [[0, 1], [sign, 0]]),
    "Pprime": (_PLUS, lambda sign=1.0: [[1, 1], [sign, 0]]),
}

# pair -> the axes (of qubits A, B, C) that its two bits and the spectator take
_SLOTS = {"AB": (0, 1, 2), "AC": (0, 2, 1), "BC": (1, 2, 0)}


def _pair_state(pair: str, kind: str, *args) -> np.ndarray:
    """The kind's pattern on the named pair, its spectator on the rest."""
    spectator, pattern = _PAIR_KINDS[kind]
    amps = np.multiply.outer(np.asarray(pattern(*args)), spectator)
    return np.moveaxis(amps, (0, 1, 2), _SLOTS[pair]).reshape(8)


def _ghz(sign):
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = 1.0, sign
    return amps


def _w_state():
    amps = np.zeros(8, dtype=complex)
    amps[basis_index(0, 0, 1)] = 1.0
    amps[basis_index(0, 1, 0)] = 1.0
    amps[basis_index(1, 0, 0)] = 1.0
    return amps


def _f3():
    a = np.array([0.8, 1.0])
    b = np.array([0.0, 1.0])
    c = np.array([1.0, 0.7])
    return np.einsum("i,j,k->ijk", a, b, c).reshape(8)


def fig1(alpha: float, beta: float) -> np.ndarray:
    """alpha|000> + beta|001> + |010> + |100>, normalized.

    Corners: (0,0) is the EPR pair in A,B with C in |0>; (0,1) is the W
    state; the beta=1 edge is symmetric under exchanging B and C.
    """
    amps = np.zeros(8, dtype=complex)
    amps[0] = alpha
    amps[1] = beta
    amps[2] = 1.0
    amps[4] = 1.0
    return normalize(amps)


def fig2(alpha: float, beta: float) -> np.ndarray:
    """alpha|110> + beta|111> + |000>, normalized; (0,1) is the GHZ state."""
    amps = np.zeros(8, dtype=complex)
    amps[6] = alpha
    amps[7] = beta
    amps[0] = 1.0
    return normalize(amps)


# name -> (builder returning amplitudes or StateSpec, required arg count,
#          optional arg defaults)
_CATALOG = {}


def _register(name, builder, required=0, defaults=()):
    _CATALOG[name] = (builder, required, defaults)


for _pair in _SLOTS:
    for _kind, (_, _pattern) in _PAIR_KINDS.items():
        _register(f"{_kind}_{_pair}", partial(_pair_state, _pair, _kind),
                  defaults=_pattern.__defaults__ or ())

_register("GHZ_plus", lambda: _ghz(+1.0))
_register("GHZ_minus", lambda: _ghz(-1.0))
_register("W", _w_state)
_register("F1", lambda: np.ones(8, dtype=complex))
_register("F2", lambda: np.eye(8, dtype=complex)[0])
_register("F3", _f3)
_register("M", lambda: StateSpec.mixture(
    [(0.5, np.eye(8)[0]), (0.5, np.eye(8)[7])]))
_register("fig1", fig1, 2)
_register("fig2", fig2, 2)

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, *args: float) -> StateSpec:
    """Build a named state; args as the family requires.

    Cr takes an optional gamma (default 0.5), EPR/Pprime an optional sign
    (default +1), fig1/fig2 require alpha and beta. Everything else takes
    no arguments.
    """
    if name not in _CATALOG:
        raise UnknownState(name)
    builder, required, defaults = _CATALOG[name]
    max_args = required + len(defaults)
    if len(args) < required or len(args) > max_args:
        raise ArityError(
            f"{name} takes {required}..{max_args} argument(s), got {len(args)}")
    out = builder(*args)
    if isinstance(out, StateSpec):
        return out
    return StateSpec.pure(normalize(out))
