"""Applies a trained schedule to arbitrary states.

The four squared correlation outputs act as entanglement witnesses: after
training, a state's matching pairwise output lands near 1 for maximal
pairwise entanglement, near 0.44 for the partial pattern, near 0 when the
pair is unentangled, and the ABC output flags three-way entanglement.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationInconclusive
from .hamiltonian import CONVENTIONS, Schedule, UnitConvention
from .learning import resolve_state
from .ops import OBSERVABLE_IDS, readout
from .propagate import IntegratorConfig, evolve
from .states import catalog, mix

# reporting thresholds; acceptance logic pins raw outputs, not labels
THRESHOLD_PARTIAL = 0.1
THRESHOLD_STRONG = 0.7

# trained Bell outputs used as the calibration reference
BELL_REFERENCE = (0.9943, 0.9930, 0.9945)


@dataclass(frozen=True)
class WitnessReport:
    outputs: dict  # id -> value in [0, 1]
    labels: dict   # id -> "none" | "partial" | "strong"


def classify(outputs: dict, partial: float = THRESHOLD_PARTIAL,
             strong: float = THRESHOLD_STRONG) -> dict:
    labels = {}
    for key, value in outputs.items():
        if value >= strong:
            labels[key] = "strong"
        elif value >= partial:
            labels[key] = "partial"
        else:
            labels[key] = "none"
    return labels


def evaluate_many(rhos: np.ndarray, s: Schedule,
                  cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """(B, 4) squared outputs for a stack of density matrices."""
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


def calibrate(s_set1: Schedule, reference=BELL_REFERENCE,
              cfg: IntegratorConfig = IntegratorConfig()) -> CalibrationResult:
    """Pick the unit convention that best replays the trained Bell outputs.

    Evaluates Bell_AB/AC/BC under both conventions with the stock
    set-1 parameters and compares each state's matching pairwise output
    against the reference row. Deterministic and idempotent.
    """
    rhos = np.stack([mix(catalog(f"Bell_{p}")) for p in ("AB", "AC", "BC")])
    scores = {}
    for name, convention in CONVENTIONS.items():
        candidate = Schedule(s_set1.chunks, s_set1.chunk_duration, convention)
        out = evaluate_many(rhos, candidate, cfg)
        matching = np.array([out[i, i] for i in range(3)])
        scores[name] = float(np.mean(np.abs(matching - np.asarray(reference))))
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
    crossing: tuple = ()  # fig2 only: (beta, alpha_star) rows

    def cell(self, i_beta: int, i_alpha: int) -> dict:
        return dict(zip(OBSERVABLE_IDS, self.outputs[i_beta, i_alpha]))


def _crossing_locus(alphas, betas, outputs):
    """Per beta row, the alpha where out_AB crosses out_ABC.

    Linear interpolation between the adjacent samples of the first sign
    change; rows without a crossing are omitted.
    """
    locus = []
    for i, beta in enumerate(betas):
        diff = outputs[i, :, 0] - outputs[i, :, 3]
        for j in range(len(alphas) - 1):
            a, b = diff[j], diff[j + 1]
            if a == 0.0:
                locus.append((float(beta), float(alphas[j])))
                break
            if (a < 0) != (b < 0):
                frac = abs(a) / (abs(a) + abs(b))
                alpha_star = alphas[j] + frac * (alphas[j + 1] - alphas[j])
                locus.append((float(beta), float(alpha_star)))
                break
    return tuple(locus)


def sweep(family: str, n: int, s: Schedule,
          cfg: IntegratorConfig = IntegratorConfig()) -> SweepGrid:
    """Evaluate the fig1/fig2 state family on an n x n grid over [0,1]^2."""
    if family not in ("fig1", "fig2"):
        raise ValueError(f"unknown sweep family {family!r}")
    if n < 2:
        raise ValueError("need at least 2 grid points per axis")
    alphas = np.linspace(0.0, 1.0, n)
    betas = np.linspace(0.0, 1.0, n)
    rhos = np.stack([
        mix(catalog(family, alpha, beta))
        for beta in betas for alpha in alphas])
    outputs = evaluate_many(rhos, s, cfg).reshape(n, n, 4)
    crossing = _crossing_locus(alphas, betas, outputs) if family == "fig2" else ()
    return SweepGrid(family, alphas, betas, outputs, crossing)


def sweep_csv(grid: SweepGrid, path) -> None:
    """One row per cell, ordered by (beta, alpha)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta"] + [f"out_{k}" for k in OBSERVABLE_IDS])
        for i, beta in enumerate(grid.betas):
            for j, alpha in enumerate(grid.alphas):
                writer.writerow([f"{alpha:.6g}", f"{beta:.6g}"]
                                + [f"{v:.12g}" for v in grid.outputs[i, j]])


def crossing_csv(grid: SweepGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "alpha_star"])
        for beta, alpha_star in grid.crossing:
            writer.writerow([f"{beta:.6g}", f"{alpha_star:.12g}"])
