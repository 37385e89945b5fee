"""Entanglement witnessing with a small trained quantum network.

Three qubits evolve under a piecewise-constant transverse/longitudinal
Ising Hamiltonian whose 36 chunk parameters are fit by gradient descent so
that squared parity expectations at the final time flag which qubit pairs
(or the triple) are entangled.

The package root exports the training and evaluation entry points; the
rest of the API lives in the submodules (ops, states, ketexpr,
hamiltonian, propagate, learning, witness, errors, cli).
"""

from .hamiltonian import bundled_schedule, save_schedule
from .learning import TrainConfig, load_dataset, train
from .propagate import IntegratorConfig
from .witness import evaluate, sweep

__version__ = "0.1.0"

__all__ = [
    "IntegratorConfig",
    "TrainConfig",
    "bundled_schedule",
    "evaluate",
    "load_dataset",
    "save_schedule",
    "sweep",
    "train",
]
