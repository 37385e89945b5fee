"""Input states: kets, mixtures, and the named catalog.

Pairwise states follow the spectator conventions used throughout: for
Bell/Cr/P patterns the unpaired qubit sits in |0>, for EPR/Pprime test
states it sits in (|0>+|1>)/sqrt(2). Amplitudes are stored normalized,
so only ratios matter when defining a pattern.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityError, InvalidWeights, UnknownState, ZeroVector

WEIGHT_TOL = 1e-9

# index of |q_A q_B q_C>
def basis_index(q_a: int, q_b: int, q_c: int) -> int:
    return 4 * q_a + 2 * q_b + q_c


def normalize(raw) -> np.ndarray:
    """Scale 8 amplitudes to unit Euclidean norm."""
    amps = np.asarray(raw, dtype=complex).reshape(8)
    norm = np.linalg.norm(amps)
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
        if np.any(w < 0):
            raise InvalidWeights(f"negative mixture weight {w.min()}")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidWeights(f"mixture weights sum to {w.sum()!r}, not 1")

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
    """Convex combination of rank-1 projectors; validates the weights."""
    rho = np.zeros((8, 8), dtype=complex)
    for w, ket in spec.components():
        rho += w * ket_to_density(ket)
    return rho


def _embed_pair(pair: str, pattern: dict, spectator: np.ndarray) -> np.ndarray:
    """Place two-qubit amplitudes on the named pair, spectator on the rest.

    pattern maps (q1, q2) bit pairs to amplitudes; spectator is a 2-vector.
    """
    slots = {"AB": (0, 1, 2), "AC": (0, 2, 1), "BC": (1, 2, 0)}
    s1, s2, sp = slots[pair]
    amps = np.zeros(8, dtype=complex)
    for (b1, b2), a in pattern.items():
        for bs in (0, 1):
            bits = [0, 0, 0]
            bits[s1], bits[s2], bits[sp] = b1, b2, bs
            amps[basis_index(*bits)] += a * spectator[bs]
    return amps


_ZERO = np.array([1.0, 0.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def _bell(pair, theta=0.0):
    # (|00> + e^{i theta}|11>) on the pair, spectator |0>
    return _embed_pair(pair, {(0, 0): 1.0, (1, 1): np.exp(1j * theta)}, _ZERO)


def _flat(pair):
    return _embed_pair(pair, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, _ZERO)


def _cr(pair, gamma=0.5):
    # classically correlated, not entangled: (gamma|10> + |11>), spectator |0>
    return _embed_pair(pair, {(1, 0): gamma, (1, 1): 1.0}, _ZERO)


def _p(pair):
    # partially entangled pattern |00> + |01> + |10>, spectator |0>
    return _embed_pair(pair, {(0, 0): 1, (0, 1): 1, (1, 0): 1}, _ZERO)


def _epr(pair, sign=1.0):
    # (|01> +- |10>) on the pair, spectator in the superposition state
    return _embed_pair(pair, {(0, 1): 1.0, (1, 0): sign}, _PLUS)


def _pprime(pair, sign=1.0):
    # the P pattern on the pair, spectator in the superposition state
    return _embed_pair(pair, {(0, 0): 1, (0, 1): 1, (1, 0): sign}, _PLUS)


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


for _pair in ("AB", "AC", "BC"):
    _register(f"Bell_{_pair}", (lambda p: lambda: _bell(p))(_pair))
    _register(f"flat_{_pair}", (lambda p: lambda: _flat(p))(_pair))
    _register(f"Cr_{_pair}", (lambda p: lambda g=0.5: _cr(p, g))(_pair), 0, (0.5,))
    _register(f"P_{_pair}", (lambda p: lambda: _p(p))(_pair))
    _register(f"EPR_{_pair}", (lambda p: lambda s=1.0: _epr(p, s))(_pair), 0, (1.0,))
    _register(f"Pprime_{_pair}", (lambda p: lambda s=1.0: _pprime(p, s))(_pair), 0, (1.0,))

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
