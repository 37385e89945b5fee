"""Applies a trained schedule to arbitrary states.

The four squared correlation outputs act as entanglement witnesses: after
training, a state's matching pairwise output lands near 1 for maximal
pairwise entanglement, near 0.44 for the partial pattern, near 0 when the
pair is unentangled, and the ABC output flags three-way entanglement.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CalibrationInconclusive,
    NonFinite,
    UnphysicalState,
    write_csv,
)
from .hamiltonian import CONVENTIONS, Schedule, UnitConvention
from .learning import resolve_state
from .ops import HERM_TOL, OBSERVABLE_IDS, dagger, readout
from .propagate import IntegratorConfig, check_stable, evolve
from .states import FAMILIES, WEIGHT_TOL, catalog, mix

# reporting thresholds; acceptance logic pins raw outputs, not labels
THRESHOLD_PARTIAL = 0.1
THRESHOLD_STRONG = 0.7

# trained Bell outputs used as the calibration reference
BELL_REFERENCE = (0.9943, 0.9930, 0.9945)

# the one sweep family whose out_AB/out_ABC crossing locus is located
CROSSING_FAMILY = "fig2"

# the most grid points per sweep axis: 500 x 500 is 250 000 states, a
# 256 MB stack of densities, built one cell at a time
MAX_SWEEP_N = 500


@dataclass(frozen=True)
class WitnessReport:
    outputs: dict  # id -> value in [0, 1]
    labels: dict   # id -> "none" | "partial" | "strong"


def classify(outputs: dict) -> dict:
    labels = {}
    for key, value in outputs.items():
        if value >= THRESHOLD_STRONG:
            labels[key] = "strong"
        elif value >= THRESHOLD_PARTIAL:
            labels[key] = "partial"
        else:
            labels[key] = "none"
    return labels


def evaluate_many(rhos: np.ndarray, s: Schedule,
                  cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """(B, 4) squared outputs for a stack of density matrices.

    Before a step, a non-finite stack is refused as NonFinite, and the
    first state that is not Hermitian within HERM_TOL, whose trace is not
    1 within WEIGHT_TOL (as StateSpec accepts weights) or that has an
    eigenvalue below -HERM_TOL as UnphysicalState."""
    rhos = np.asarray(rhos)
    if not np.isfinite(rhos).all():
        raise NonFinite("density matrices must be finite")
    flat = rhos.reshape(-1, 8, 8)
    for what, excess, tol in (
            ("|rho - rho+|", np.abs(flat - dagger(flat)).max(axis=(1, 2)),
             HERM_TOL),
            ("|tr rho - 1|", np.abs(np.trace(flat, axis1=1, axis2=2) - 1),
             WEIGHT_TOL),
            ("-(least eigenvalue)", -np.linalg.eigvalsh(flat)[:, 0],
             HERM_TOL)):
        bad = np.flatnonzero(excess > tol)
        if len(bad):
            raise UnphysicalState(
                f"state {bad[0]} is not a density matrix: {what} = "
                f"{excess[bad[0]]:.3g} exceeds {tol:.0e}")
    rho_f, _ = evolve(rhos, s, cfg)
    return readout(rho_f) ** 2


def evaluate(state, s: Schedule,
             cfg: IntegratorConfig = IntegratorConfig()) -> WitnessReport:
    """Evolve a state (StateSpec, catalog name, or expression) and report."""
    out = evaluate_many(mix(resolve_state(state))[None], s, cfg)[0]
    outputs = {k: float(v) for k, v in zip(OBSERVABLE_IDS, out)}
    return WitnessReport(outputs, classify(outputs))


@dataclass(frozen=True)
class CalibrationResult:
    convention: UnitConvention
    scores: dict  # convention name -> mean absolute deviation


def calibrate(s_set1: Schedule,
              cfg: IntegratorConfig = IntegratorConfig()) -> CalibrationResult:
    """Pick the unit convention that best replays the trained Bell outputs.

    Evaluates Bell_AB/AC/BC under both conventions with the stock
    set-1 parameters and compares each state's matching pairwise output
    against BELL_REFERENCE. Deterministic and idempotent.
    """
    rhos = np.stack([mix(catalog(f"Bell_{p}")) for p in ("AB", "AC", "BC")])
    scores = {}
    for name, convention in CONVENTIONS.items():
        candidate = Schedule(s_set1.chunks, s_set1.chunk_duration, convention)
        out = evaluate_many(rhos, candidate, cfg)
        matching = np.array([out[i, i] for i in range(3)])
        scores[name] = float(np.mean(np.abs(matching - BELL_REFERENCE)))
    best = min(scores, key=scores.get)
    if scores[best] > 0.2:
        raise CalibrationInconclusive(
            f"neither convention reproduces the reference outputs "
            f"(best MAD {scores[best]:.3f}); use retrained parameters")
    return CalibrationResult(CONVENTIONS[best], scores)


@dataclass(frozen=True)
class SweepGrid:
    family: str
    alphas: np.ndarray
    betas: np.ndarray
    outputs: np.ndarray  # (n_beta, n_alpha, 4)
    crossing: tuple = ()  # CROSSING_FAMILY only: (beta, alpha_star) rows


def _crossing_locus(alphas, betas, outputs):
    """Per beta row, the alpha where out_AB crosses out_ABC.

    The first crossing along alpha: a sample where the difference is zero
    crosses at its own alpha, and two adjacent samples of opposite signs
    at the linear interpolation between them. Rows without a crossing are
    omitted.
    """
    locus = []
    for i, beta in enumerate(betas):
        diff = outputs[i, :, 0] - outputs[i, :, 3]
        sign = np.sign(diff)
        for j, alpha in enumerate(alphas):
            if sign[j] == 0:
                locus.append((float(beta), float(alpha)))
                break
            if j + 1 < len(alphas) and sign[j] * sign[j + 1] < 0:
                frac = abs(diff[j]) / (abs(diff[j]) + abs(diff[j + 1]))
                alpha_star = alpha + frac * (alphas[j + 1] - alpha)
                locus.append((float(beta), float(alpha_star)))
                break
    return tuple(locus)


def sweep(family: str, n: int, s: Schedule,
          cfg: IntegratorConfig = IntegratorConfig()) -> SweepGrid:
    """Evaluate a two-argument catalog family on an n x n grid over [0,1]^2,
    for 2 <= n <= MAX_SWEEP_N. n, the step count and RK4's stability on
    the schedule are checked before any state is built."""
    if family not in FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r:.40}")
    if n < 2:
        raise ValueError("need at least 2 grid points per axis")
    if n > MAX_SWEEP_N:
        raise ValueError(f"n = {n} is more than the limit of {MAX_SWEEP_N} "
                         f"grid points per axis")
    cfg.steps_per_chunk(s.chunk_duration)
    check_stable(np.linalg.eigvalsh(s.hamiltonians()), cfg.dt)
    alphas = np.linspace(0.0, 1.0, n)
    betas = np.linspace(0.0, 1.0, n)
    rhos = np.stack([
        mix(catalog(family, alpha, beta))
        for beta in betas for alpha in alphas])
    outputs = evaluate_many(rhos, s, cfg).reshape(n, n, 4)
    crossing = (_crossing_locus(alphas, betas, outputs)
                if family == CROSSING_FAMILY else ())
    return SweepGrid(family, alphas, betas, outputs, crossing)


def sweep_csv(grid: SweepGrid, path) -> None:
    """One row per cell, ordered by (beta, alpha)."""
    write_csv(path, ["alpha", "beta"] + [f"out_{k}" for k in OBSERVABLE_IDS],
              ([f"{alpha:.6g}", f"{beta:.6g}"] + [f"{v:.12g}" for v in out]
               for beta, row in zip(grid.betas, grid.outputs)
               for alpha, out in zip(grid.alphas, row)))


def crossing_path(grid_path) -> Path:
    """The default locus file of a grid at grid_path: <stem>.crossing.csv."""
    return Path(grid_path).with_name(Path(grid_path).stem + ".crossing.csv")


def crossing_csv(grid: SweepGrid, path) -> None:
    write_csv(path, ["beta", "alpha_star"],
              ([f"{beta:.6g}", f"{alpha_star:.12g}"]
               for beta, alpha_star in grid.crossing))
