"""The mutant table: planted faults, each of which must fail exactly the
rows of the route table it names on routes.MUTANT_PROBLEM, an example
that both route properties pass (DeMillo, Lipton & Sayward, IEEE
Computer 11(4), 34 (1978)); every row of the route table fails at least
one of them. tests/routes.py says how a row is built."""

import inspect
import sys

import pytest
import routes
from routes import (MUTANT_PROBLEM, THREE, W_PAIR, forward_failures,
                    gradient_failures)

from qnnwitness import learning, ops, propagate, superop

STEPPED = {"evolve, recorded", "evolve", "evolve_batch_h", "backprop_gradient",
           "fd_gradient"}
MUTANTS = [
    pytest.param(superop, "_quartic_divided_difference", "return out",
                 "return out * (1 + 1e-8)", {"dataset_loss_grad"},
                 id="face"),
    pytest.param(propagate, "_stage_factors", "dt / np.arange",
                 "dt * (1 + 1e-9) / np.arange",
                 STEPPED - {"fd_gradient"}, id="stage_factors"),
    pytest.param(superop, "_quartic", "return out", "return out * (1 + 1e-9)",
                 {"propagate_vec", "dataset_loss_grad"},
                 id="quartic"),
    pytest.param(propagate, "_stepped_gradient", "return 2 * (",
                 "return 2 * (1 + 1e-8) * (", {"backprop_gradient"},
                 id="stepped_adjoint"),
    pytest.param(propagate, "_power_increment", "return p",
                 "return 2 * p + p @ p",
                 {"evolve", "fd_gradient", "backprop_gradient"},
                 id="extra_square"),
    # the adjoint's carry and its step as the plain transpose, without the
    # trace metric
    pytest.param(propagate, "_stepped_gradient",
                 "_METRIC[:, None] * d.T / _METRIC", "d.T",
                 {"backprop_gradient"}, id="adjoint_carry_metric"),
    pytest.param(propagate, "_stepped_gradient",
                 "d1 * _METRIC / _METRIC[:, None]", "d1",
                 {"backprop_gradient"}, id="adjoint_step_metric"),
    pytest.param(learning, "fd_gradient", "c[:k] += c[:k] @ d",
                 "c[:k + 1] += c[:k + 1] @ d", {"fd_gradient"},
                 id="own_chunk_carry"),
    pytest.param(superop, "_geometric_sum", "total *= base[0]",
                 "total *= base[1]", {"dataset_loss_grad"},
                 id="geometric_sum_bit"),
    pytest.param(superop, "_walk", "np.matmul(half_rows, r, out=row)",
                 "np.matmul(half_rows, r.T, out=row)",
                 {"propagate_vec", "dataset_loss_grad"},
                 id="walk_a_for_a_T"),
    pytest.param(ops, "loss_terms", "(-2.0 * resid * y) @ SIGNS",
                 "(2.0 * resid * y) @ SIGNS",
                 {"backprop_gradient", "dataset_loss_grad"},
                 id="seed_sign"),
    pytest.param(propagate, "_coordinates", "c *= 0.5", "c *= 0.5000001",
                 {"evolve", "fd_gradient", "backprop_gradient"},
                 id="coordinates"),
    # the reference adjoint builds its step increments itself, from the
    # same stage factors and kernel
    pytest.param(propagate, "_stepped", "_flow(rho_f, m4, work, x)",
                 "_flow(rho_f, m3, work, x)", STEPPED - {"backprop_gradient"},
                 id="first_stage_on_m3"),
    pytest.param(propagate, "_step_increment", "_stage_factors(h, dt)[::-1]",
                 "_stage_factors(h, dt)[[2, 2, 1, 0]]", {"backprop_gradient"},
                 id="increment_first_stage_on_m3"),
    # the angular convention's factor, 2 pi, on a plain schedule
    pytest.param(superop, "dataset_loss_grad",
                 "parameter_gradient(2 * dm, s.convention)",
                 "parameter_gradient(2 * dm * 2 * np.pi, s.convention)",
                 {"dataset_loss_grad"}, id="other_convention"),
    pytest.param(superop, "dataset_loss_grad", "return float(energies.sum())",
                 "return float(energies.sum()) * (1 + 1e-9)",
                 {"dataset_loss_grad"}, id="engine_loss"),
    # each chunk's end state in place of its start
    pytest.param(superop, "propagate_vec",
                 "return states[:-1], states[-1], ops",
                 "return states[1:], states[-1], ops",
                 {"dataset_loss_grad"}, id="chunk_starts"),
]


def test_every_route_table_row_fails_a_mutant():
    assert set().union(*(p.values[-1] for p in MUTANTS)) == (
        set(routes.FORWARD) | set(routes.GRADIENT))


@pytest.mark.parametrize("module, name, text, replacement, rows", MUTANTS)
def test_the_route_table_fails_each_mutant_on_its_rows(
        monkeypatch, module, name, text, replacement, rows):
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(text) == 1, f"{name} holds {text!r} not once"
    scope = {}
    exec(source.replace(text, replacement), vars(module), scope)
    for bound in [routes] + [m for n, m in sys.modules.items()
                             if n.startswith("qnnwitness")]:
        for attr, value in list(vars(bound).items()):
            if value is original:
                monkeypatch.setattr(bound, attr, scope[name])
    failed = {**forward_failures(MUTANT_PROBLEM, THREE),
              **gradient_failures(MUTANT_PROBLEM, W_PAIR)}
    assert failed.keys() == rows, failed
