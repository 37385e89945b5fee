"""Both exact gradients against the forward-mode oracle of tests/routes.py,
pair by pair on drawn schedules with all-zero and repeated chunks, whose
spectra are degenerate. The oracle resolves a defect far below the ~1e-6
that central differences can."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from routes import tangent_gradient

from qnnwitness.hamiltonian import ANGULAR, PLAIN, Schedule
from qnnwitness.learning import (
    IntegratorConfig,
    TrainingPair,
    backprop_gradient,
)
from qnnwitness.ops import OBSERVABLE_IDS
from qnnwitness.states import CATALOG_NAMES, FAMILIES, catalog
from qnnwitness.superop import dataset_loss_grad

# short chunks keep the 16 x 16 stepping cheap: 30 steps a chunk
CHUNK_NS, DT = 7.5, 0.25

# a row is uniform(-6, 6) MHz, all zero, or the row before it repeated (all
# zero when it is the first)
rows = st.lists(st.one_of(arrays(float, 9, elements=st.floats(-6.0, 6.0)),
                          st.just("zero"), st.just("repeat")),
                min_size=1, max_size=4)
FIXED = [n for n in CATALOG_NAMES if n not in FAMILIES]


def schedule_of(chunk_rows, convention):
    chunks = []
    for row in chunk_rows:
        if isinstance(row, str):
            row = chunks[-1] if row == "repeat" and chunks else np.zeros(9)
        chunks.append(row)
    return Schedule(np.array(chunks), CHUNK_NS, convention)


@settings(max_examples=20, deadline=None)
@given(rows, st.sampled_from([PLAIN, ANGULAR]), st.sampled_from(FIXED),
       st.lists(st.sampled_from(OBSERVABLE_IDS), min_size=1, unique=True),
       st.integers(0, 2 ** 32 - 1))
@example([np.linspace(-6.0, 6.0, 9), "zero", np.full(9, 2.5), "repeat"],
         ANGULAR, "W", ["AB", "ABC"], 0)
def test_both_exact_gradients_are_the_tangent(chunk_rows, convention, name,
                                              graded, seed):
    """The stepped reverse pass and the engine's divided-difference adjoint
    both match the forward-mode derivative within 1e-12 of its largest
    component, plus 1e-14 of drho for the round-off in a small seed."""
    s = schedule_of(chunk_rows, convention)
    targets = np.random.default_rng(seed).uniform(0.0, 1.0, len(graded))
    pair = TrainingPair(catalog(name), dict(zip(graded, targets)))
    tangent, drho = tangent_gradient([pair], s, DT)
    bound = 1e-12 * np.abs(tangent).max() + 1e-14 * drho
    exact = backprop_gradient(pair, s, IntegratorConfig(DT))
    assert np.abs(exact - tangent).max() <= bound
    rho, targets, mask = pair.arrays()
    _, engine, _ = dataset_loss_grad(rho[None], targets[None], mask[None], s,
                                     DT)
    assert np.abs(engine - tangent).max() <= bound
