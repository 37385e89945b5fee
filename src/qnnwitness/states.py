"""Input states: kets, mixtures, and the named catalog.

Pairwise states follow the spectator conventions used throughout: for
Bell/Cr/P patterns the unpaired qubit sits in |0>, for EPR/Pprime test
states it sits in (|0>+|1>)/sqrt(2). StateSpec normalizes every ket,
however it is built, so only ratios matter when defining a pattern.
"""
from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import ArityError, InvalidWeights, NonFinite, UnknownState, ZeroVector

WEIGHT_TOL = 1e-9


def normalize(raw) -> np.ndarray:
    """Scale 8 amplitudes to unit Euclidean norm, dividing twice: one
    division can leave the norm an ulp off 1, which the second takes out.
    One division would leave Bell and GHZ amplitudes an ulp below the
    double nearest 1/sqrt(2): `catalog` would print ...547, not ...548."""
    amps = np.asarray(raw, dtype=complex)
    if amps.size != 8:
        raise ValueError(f"a ket holds 8 amplitudes, got {amps.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm(amps)
    if not math.isfinite(norm):
        raise NonFinite("amplitudes must be finite, with a norm below ~1e154")
    if norm < 1e-150:
        raise ZeroVector("cannot normalize the zero vector")
    amps = amps.reshape(8) / norm
    return amps / _norm(amps)


def _norm(amps) -> float:
    """np.linalg.norm(amps) by that function's own arithmetic for a
    complex array, bit for bit, without its dispatch."""
    amps = amps.ravel(order="K")
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _weight(w) -> float:
    """w as numpy reads it as a float, or InvalidWeights naming it: a bool,
    a complex number, or anything numpy does not read as one float."""
    if isinstance(w, float):
        return float(w)
    value = None
    if not (isinstance(w, (bool, np.bool_)) or np.iscomplexobj(w)):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            value = np.asarray(w, dtype=float)
    if value is None or value.ndim:
        raise InvalidWeights(f"mixture weight {w!r:.40} is not a real number")
    return float(value)


@dataclass(frozen=True)
class StateSpec:
    """A pure ket or an explicit convex mixture of kets, each normalized."""

    weights: tuple = (1.0,)
    kets: tuple = ()

    def __post_init__(self):
        if len(self.weights) != len(self.kets):
            raise InvalidWeights("one weight per component required")
        w = [_weight(x) for x in self.weights]
        if not all(map(math.isfinite, w)):
            raise InvalidWeights(
                f"mixture weights must be finite, got {np.array(w)}")
        if min(w, default=0.0) < 0:
            raise InvalidWeights(f"negative mixture weight {np.min(w)}")
        # below 8 terms np.sum adds left to right from 0.0; Python's own
        # sum compensates its rounding from 3.12 on
        total = (reduce(operator.add, w, 0.0) if len(w) < 8
                 else float(np.sum(w)))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidWeights(f"mixture weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", tuple(w))
        object.__setattr__(self, "kets", tuple(
            tuple(normalize(k).tolist()) for k in self.kets))

    @classmethod
    def pure(cls, ket) -> "StateSpec":
        return cls(weights=(1.0,), kets=(ket,))

    @classmethod
    def mixture(cls, pairs) -> "StateSpec":
        """From (weight, ket) pairs; pairs may be any iterable, read once."""
        pairs = tuple(pairs)
        return cls(weights=tuple(w for w, _ in pairs),
                   kets=tuple(k for _, k in pairs))

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
            yield w, np.asarray(k, dtype=complex)


def mix(spec: StateSpec) -> np.ndarray:
    """Convex combination of rank-1 projectors, each weighted projector
    added into a zero density in component order."""
    # from zeros, a -0.0 part of a lone projector is +0.0 (GHZ_minus)
    rho = np.zeros((8, 8), dtype=complex)
    for w, k in spec.components():
        rho += w * (k[:, None] * k[None, :].conj())
    return rho


_ZERO = np.array([1.0, 0.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def _sign(sign):
    """sign if it is +1 or -1, else a ValueError naming it: any other
    value would build a state that is neither pattern."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r:.40}")
    return sign


# kind -> (spectator, 2x2 amplitudes [bit 1][bit 2] of the pair); an
# optional argument's default is the pattern's own
_PAIR_KINDS = {
    "Bell": (_ZERO, lambda: [[1, 0], [0, 1]]),
    "flat": (_ZERO, lambda: [[1, 1], [1, 1]]),
    # classically correlated, not entangled: gamma|10> + |11>
    "Cr": (_ZERO, lambda gamma=0.5: [[0, 0], [gamma, 1]]),
    # partially entangled: |00> + |01> + |10>
    "P": (_ZERO, lambda: [[1, 1], [1, 0]]),
    "EPR": (_PLUS, lambda sign=1.0: [[0, 1], [_sign(sign), 0]]),
    "Pprime": (_PLUS, lambda sign=1.0: [[1, 1], [_sign(sign), 0]]),
}

# pair -> the axes (of qubits A, B, C) that its two bits and the spectator take
_SLOTS = {"AB": (0, 1, 2), "AC": (0, 2, 1), "BC": (1, 2, 0)}


def _pair_state(pair: str, kind: str, *args) -> np.ndarray:
    """The kind's pattern on the named pair, its spectator on the rest."""
    spectator, pattern = _PAIR_KINDS[kind]
    amps = np.multiply.outer(np.asarray(pattern(*args)), spectator)
    return np.moveaxis(amps, (0, 1, 2), _SLOTS[pair]).reshape(8)


def _amps(entries) -> np.ndarray:
    """{basis index 4*q_A + 2*q_B + q_C: amplitude} as 8 amplitudes."""
    amps = np.zeros(8, dtype=complex)
    for index, value in entries.items():
        amps[index] = value
    return amps


# name -> (builder returning amplitudes or StateSpec, required arg count,
#          optional arg defaults)
_CATALOG = {}


def _register(name, builder, required=0, defaults=()):
    _CATALOG[name] = (builder, required, defaults)


for _pair in _SLOTS:
    for _kind, (_, _pattern) in _PAIR_KINDS.items():
        _register(f"{_kind}_{_pair}", partial(_pair_state, _pair, _kind),
                  defaults=_pattern.__defaults__ or ())

_register("GHZ_plus", lambda: _amps({0: 1, 7: 1}))
_register("GHZ_minus", lambda: _amps({0: 1, 7: -1}))
_register("W", lambda: _amps({1: 1, 2: 1, 4: 1}))
_register("F1", lambda: _amps(dict.fromkeys(range(8), 1)))
_register("F2", lambda: _amps({0: 1}))
# (0.8|0> + |1>)|1>(|0> + 0.7|1>)
_register("F3", lambda: _amps({2: 0.8, 3: 0.8 * 0.7, 6: 1, 7: 0.7}))
_register("M", lambda: StateSpec.mixture(
    [(0.5, _amps({0: 1})), (0.5, _amps({7: 1}))]))
# (0,0) is the EPR pair in A,B with C in |0>; (0,1) is the W state; the
# beta=1 edge is symmetric under exchanging B and C
_register("fig1", lambda alpha, beta: _amps(
    {0: alpha, 1: beta, 2: 1, 4: 1}), 2)
# (0,1) is the GHZ state
_register("fig2", lambda alpha, beta: _amps({0: 1, 6: alpha, 7: beta}), 2)

CATALOG_NAMES = tuple(_CATALOG)
# the two-argument (alpha, beta) families that `witness.sweep` maps
FAMILIES = tuple(n for n, (_, required, _) in _CATALOG.items() if required)


def catalog(name: str, *args: float) -> StateSpec:
    """Build a named state; args as the family requires.

    Cr takes an optional gamma (default 0.5), EPR/Pprime an optional sign
    (default +1) that must be +1 or -1 (any other value is a ValueError),
    fig1/fig2 require alpha and beta. Everything else takes no arguments.
    """
    if name not in _CATALOG:
        raise UnknownState(name)
    builder, required, defaults = _CATALOG[name]
    max_args = required + len(defaults)
    if len(args) < required or len(args) > max_args:
        raise ArityError(
            f"{name} takes {required}..{max_args} argument(s), got {len(args)}")
    out = builder(*args)
    return out if isinstance(out, StateSpec) else StateSpec.pure(out)
