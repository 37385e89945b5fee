import numpy as np
import pytest
from conftest import random_schedule

from qnnwitness import learning, propagate, superop
from qnnwitness.errors import DivergenceError, KetSyntaxError, QnnError
from qnnwitness.hamiltonian import (
    ANGULAR,
    PLAIN,
    Schedule,
    build_hamiltonian,
    bundled_schedule,
)
from qnnwitness.learning import (
    Dataset,
    IntegratorConfig,
    TrainConfig,
    TrainingPair,
    backprop_gradient,
    fd_gradient,
    history_csv,
    load_dataset,
    resolve_state,
    rms_error,
    train,
)
from qnnwitness.ops import OBSERVABLE_IDS, loss_terms, readout
from qnnwitness.propagate import evolve, evolve_batch_h
from qnnwitness.states import catalog, mix, StateSpec

ZERO_TARGETS = {"AB": 0.0, "AC": 0.0, "BC": 0.0, "ABC": 0.0}
# the partial-entanglement target of set1's P states, as originally trained
P_STATE_TARGET = 0.44317


def test_resolve_state_accepts_names_and_expressions():
    assert resolve_state("W").is_pure
    spec = resolve_state("|000> + |111>")
    assert np.count_nonzero(np.abs(spec.ket) > 1e-12) == 2
    assert resolve_state(spec) is spec


def test_resolve_state_rejects_non_finite_arguments():
    for text in ("fig1(nan, 0)", "Cr_AB(inf)", "fig2(0.5, -inf)"):
        with pytest.raises(KetSyntaxError, match="finite"):
            resolve_state(text)


def test_training_pair_validation():
    spec = catalog("Bell_AB")
    with pytest.raises(ValueError):
        TrainingPair(spec, {})
    with pytest.raises(ValueError, match="XY"):
        TrainingPair(spec, {"XY": 0.5})
    for target in (1.5, True, "0.5"):
        with pytest.raises(ValueError, match="target AB"):
            TrainingPair(spec, {"AB": target})
    with pytest.raises(ValueError, match="no pairs"):
        Dataset("empty", ())


def test_bundled_datasets():
    ds1 = load_dataset("set1")
    assert len(ds1.pairs) == 12
    assert sum(len(p.targets) for p in ds1.pairs) == 36
    ds2 = load_dataset("set2")
    assert len(ds2.pairs) == 13
    assert sum(len(p.targets) for p in ds2.pairs) == 52
    # every set2 pair grades the triple observable as well
    assert all("ABC" in p.targets for p in ds2.pairs)


def test_dataset_targets_follow_witness_pattern():
    ds = load_dataset("set1")
    bells = [p for p in ds.pairs if max(p.targets.values()) == 1.0]
    assert len(bells) == 3
    p_states = [p for p in ds.pairs
                if max(p.targets.values()) == pytest.approx(P_STATE_TARGET)]
    assert len(p_states) == 3
    assert 0.0 < P_STATE_TARGET < 0.5


def test_dataset_arrays_shapes():
    rhos, targets, mask = load_dataset("set1").arrays()
    assert rhos.shape == (12, 8, 8)
    assert targets.shape == (12, 4) and mask.shape == (12, 4)
    assert mask.sum() == 36
    # set1 never grades the triple product
    assert mask[:, 3].sum() == 0


def stepped_outputs(spec, s, cfg):
    """{observable id: squared output} from the stepped forward pass."""
    rho_f, _ = evolve(mix(spec), s, cfg)
    return dict(zip(OBSERVABLE_IDS, map(float, readout(rho_f) ** 2)))


def test_pair_arrays_and_rms_arithmetic():
    s = bundled_schedule("trained_set1")
    cfg = IntegratorConfig(0.25)
    pair = TrainingPair(catalog("Bell_AB"), {"BC": 0.0, "AB": 1.0, "ABC": 0.5})
    rho, targets, mask = pair.arrays()
    assert np.array_equal(rho, mix(catalog("Bell_AB")))
    assert targets.tolist() == [1.0, 0.0, 0.0, 0.5]
    assert mask.tolist() == [1.0, 0.0, 1.0, 1.0]
    out = stepped_outputs(pair.state, s, cfg)
    resid = np.array([1.0 - out["AB"], -out["BC"], 0.5 - out["ABC"]])
    assert rms_error(Dataset("one", (pair,)), s, cfg) == pytest.approx(
        np.sqrt(np.mean(resid ** 2)))


def test_fd_gradient_needs_a_positive_finite_step():
    pair = TrainingPair(catalog("W"), dict(ZERO_TARGETS))
    for h in (0.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            fd_gradient(pair, bundled_schedule("set1"), IntegratorConfig(0.25), h=h)
    # True would be a 1 MHz step, and a string a TypeError naming no field
    for h in (True, "1e-4"):
        with pytest.raises(ValueError, match="h must be a real number"):
            fd_gradient(pair, bundled_schedule("set1"), IntegratorConfig(0.25), h=h)


@pytest.mark.parametrize("route, stacks", [
    (lambda pair, s, cfg: evolve(mix(pair.state), s, cfg), [(4, 8, 8)]),
    (backprop_gradient, [(4, 8, 8)]),
    (fd_gradient, [(4, 19, 8, 8)])],
    ids=["evolve", "backprop_gradient", "fd_gradient"])
def test_each_stepped_entry_point_solves_its_spectra_once(monkeypatch, route,
                                                          stacks):
    """The stability check takes one eigen-solve per call, of the stack the
    entry point builds: the schedule's 4 Hamiltonians, or finite
    differences' 76 (p's and 18 per chunk). The stepping loop solves none,
    and the reference adjoint steps under -H, whose spread is H's."""
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    pair = TrainingPair(catalog("W"), dict(ZERO_TARGETS))
    route(pair, bundled_schedule("trained_set2"), IntegratorConfig(0.25))
    assert solved == stacks


def all_rows_fd_gradient(pair, s, cfg, h=1e-4):
    """Central differences from one evolve_batch_h call in which each of
    the 2 * 9 * n_chunks parameter sets, row 2m = p + h e_m and row
    2m + 1 = p - h e_m, is stepped through every chunk."""
    n_par = s.n_chunks * 9
    params = s.flatten() + h * np.kron(np.eye(n_par), [[1.0], [-1.0]])
    hs = build_hamiltonian(
        params.reshape(2 * n_par, s.n_chunks, 9).swapaxes(0, 1), s.convention)
    rho, targets, mask = pair.arrays()
    rho_f = evolve_batch_h(np.broadcast_to(rho, (2 * n_par, 8, 8)), hs,
                           cfg.dt, cfg.steps_per_chunk(s.chunk_duration))
    energies, _, _ = loss_terms(rho_f, targets, mask)
    return (energies[0::2] - energies[1::2]) / (2 * h)


def fd_and_all_rows(n_chunks, convention, state):
    """fd_gradient and all_rows_fd_gradient on a random schedule of
    n_chunks chunks, for a pair with random targets on every output."""
    rng = np.random.default_rng(n_chunks)
    s = Schedule(rng.uniform(-6.0, 6.0, size=(n_chunks, 9)), 75.0,
                 convention)
    pair = TrainingPair(catalog(state),
                        dict(zip(OBSERVABLE_IDS, rng.uniform(0.0, 1.0, 4))))
    cfg = IntegratorConfig(0.25)
    return fd_gradient(pair, s, cfg), all_rows_fd_gradient(pair, s, cfg)


FD_PAIRS = pytest.mark.parametrize("convention, state",
                                   [(PLAIN, "GHZ_minus"), (ANGULAR, "M")])


@FD_PAIRS
@pytest.mark.parametrize("n_chunks", [1])
def test_fd_gradient_is_the_all_rows_batch_bit_for_bit(n_chunks, convention,
                                                       state):
    """With one chunk there is no other chunk to power: each set is
    stepped from the pair's state under its own H, as in the all-rows
    batch, and the differences are that batch's bit for bit."""
    numeric, reference = fd_and_all_rows(n_chunks, convention, state)
    assert np.array_equal(numeric, reference)


@FD_PAIRS
@pytest.mark.parametrize("n_chunks", [2, 3, 4])
def test_fd_gradient_is_the_all_rows_batch(n_chunks, convention, state):
    """Taking p's chunks before and after each set's own chunk as their
    powered step matrices moves the differences only by round-off: the
    largest gap measured is 1.3e-11 at dt 0.25. A dropped increment, or a
    set carried through its own chunk's increment as well as stepped
    through that chunk, moves them by far more than the bound."""
    numeric, reference = fd_and_all_rows(n_chunks, convention, state)
    assert np.abs(numeric - reference).max() <= 1e-10


@pytest.mark.parametrize("n_chunks", [1, 4])
def test_fd_gradient_steps_every_set_in_one_call(monkeypatch, n_chunks):
    """The 18 sets of every chunk are stepped through their own chunk
    only, all in one evolve_batch_h call under one chunk of Hamiltonians,
    and the stability check is the only eigen-solve."""
    calls, solved = [], []
    stepping, eigvalsh = learning.evolve_batch_h, np.linalg.eigvalsh

    def counting_steps(rho0, hs, dt, steps_per_chunk):
        calls.append((np.shape(rho0), np.shape(hs), steps_per_chunk))
        return stepping(rho0, hs, dt, steps_per_chunk)

    def counting_solves(a, *args, **kwargs):
        solved.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(learning, "evolve_batch_h", counting_steps)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_solves)
    s = Schedule(bundled_schedule("trained_set2").chunks[:n_chunks])
    fd_gradient(TrainingPair(catalog("W"), dict(ZERO_TARGETS)), s,
                IntegratorConfig(0.25))
    sets = 18 * n_chunks
    assert calls == [((sets, 8, 8), (1, sets, 8, 8), 300)]
    assert solved == [(n_chunks, 19, 8, 8)]


def test_gradient_routes_refuse_a_non_finite_schedule(monkeypatch):
    """Both routes refuse NaN or infinite parameters before any evolution;
    finite differences meet them in their perturbed parameter sets."""
    def no_evolution(*args):
        pytest.fail("an evolution ran on a non-finite schedule")

    monkeypatch.setattr(propagate, "_stepped", no_evolution)
    pair = TrainingPair(catalog("W"), dict(ZERO_TARGETS))
    for bad in (np.nan, -np.inf):
        chunks = bundled_schedule("set1").chunks.copy()
        chunks[2, 5] = bad
        s = Schedule(chunks, 75.0, PLAIN)
        for route in (fd_gradient, backprop_gradient):
            with pytest.raises(QnnError, match="must be finite"):
                route(pair, s, IntegratorConfig(0.25))


def test_gradient_vanishes_at_exact_fit():
    """Targets set to the model's own outputs give zero residual, and the
    reverse pass must return an exactly zero gradient."""
    s = random_schedule(21)
    cfg = IntegratorConfig(0.25)
    fitted = TrainingPair(catalog("W"),
                          stepped_outputs(catalog("W"), s, cfg))
    g = backprop_gradient(fitted, s, cfg)
    assert np.abs(g).max() < 1e-14


def test_outputs_ignore_global_phase():
    s = bundled_schedule("set1")
    cfg = IntegratorConfig(0.25)
    base = catalog("GHZ_minus").ket
    ra = stepped_outputs(StateSpec.pure(base), s, cfg)
    rb = stepped_outputs(StateSpec.pure(base * np.exp(0.77j)), s, cfg)
    for key in ra:
        assert ra[key] == pytest.approx(rb[key], abs=1e-12)


def test_rms_error_counts_only_graded_outputs():
    s = bundled_schedule("initial")
    cfg = IntegratorConfig(0.25)
    ds = load_dataset("set1")
    total = 0.0
    for pair in ds.pairs:
        out = stepped_outputs(pair.state, s, cfg)
        total += sum((t - out[k]) ** 2 for k, t in pair.targets.items())
    assert rms_error(ds, s, cfg) == pytest.approx(np.sqrt(total / 36.0))


def test_train_zero_epochs_returns_start():
    init = bundled_schedule("initial")
    trained, history = train("set1", init, TrainConfig(epochs=0, dt=0.25))
    assert history.shape == (0,)
    assert np.allclose(trained.chunks, init.chunks)


def test_train_descends_and_is_deterministic():
    cfg = TrainConfig(epochs=40, learning_rate=3e-3, momentum=0.9, dt=0.25)
    init = bundled_schedule("initial")
    s1, h1 = train("set1", init, cfg)
    s2, h2 = train("set1", init, cfg)
    assert np.array_equal(h1, h2)
    assert np.array_equal(s1.chunks, s2.chunks)
    assert h1[-1] < h1[0]
    assert len(h1) == 40


def test_training_reproduces_the_bundled_trained_set1():
    """The acceptance gate's set1 recipe, 5 000 epochs from initial,
    gives the bundled trained_set1 to within 1e-9; the gap measured is
    5.3e-14 (x86_64, numpy with OpenBLAS). A learning rate 1 + 1e-6 times
    larger moves the result by 2.7e-8, so round-off changes pass, and a
    change to the update rule, the loss or the epoch count fails."""
    cfg = TrainConfig(epochs=5000, learning_rate=3e-3, momentum=0.9, dt=0.25)
    trained, _ = train("set1", bundled_schedule("initial"), cfg)
    gap = np.abs(trained.chunks - bundled_schedule("trained_set1").chunks)
    assert gap.max() <= 1e-9


def test_train_config_validation():
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-3)
    with pytest.raises(ValueError, match="dt"):
        TrainConfig(dt=np.nan)


@pytest.mark.parametrize("field, value", [
    ("dt", np.nan), ("dt", 0.0), ("dt", -1.0), ("dt", "0.25"), ("dt", True),
    ("epochs", 2.5), ("epochs", True), ("epochs", -1),
    ("epochs", np.int64(-1)),
    ("learning_rate", "0.1"), ("learning_rate", True), ("momentum", None),
])
def test_train_config_refuses_bad_settings_when_built(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("epochs", [np.int64(3), np.int32(3)])
def test_train_config_takes_numpy_integer_epochs(epochs):
    cfg = TrainConfig(epochs=epochs, dt=0.25)
    _, history = train("set1", bundled_schedule("initial"), cfg)
    assert len(history) == 3


def test_train_config_is_an_integrator_config():
    """dt, its default, its check and steps_per_chunk come from
    IntegratorConfig alone."""
    assert isinstance(TrainConfig(), IntegratorConfig)
    assert TrainConfig().dt == IntegratorConfig().dt
    assert TrainConfig(dt=0.25).steps_per_chunk(75.0) == 300
    assert not hasattr(TrainConfig, "integrator")


def test_train_raises_on_divergence(monkeypatch):
    cfg = TrainConfig(epochs=600, learning_rate=50.0, momentum=0.9, dt=0.25)
    with pytest.raises(DivergenceError):
        train("set1", bundled_schedule("initial"), cfg)
    # a Hamiltonian past the stability limit at once: there is no epoch
    # before it to name
    huge = Schedule(np.full((4, 9), 1e200), 75.0, PLAIN)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"^epoch 0: chunk 0: .*; "
                          r"there is no finite epoch before it$"):
        train("set1", huge, cfg)
    # a NaN gradient at the second epoch names the first and its RMS
    calls, original = [], superop.dataset_loss_grad

    def second_is_nan(*args):
        calls.append(args)
        energy, grad, outputs = original(*args)
        return energy, grad * (np.nan if len(calls) == 2 else 1.0), outputs

    monkeypatch.setattr(superop, "dataset_loss_grad", second_is_nan)
    with pytest.raises(DivergenceError, match=(
            r"^non-finite RMS or gradient at epoch 1; the last finite epoch "
            r"is 0, RMS 0\.0311886$")):
        train("set1", bundled_schedule("initial"),
              TrainConfig(epochs=3, dt=0.25))


def test_train_checks_its_step_before_epoch_0(monkeypatch):
    def no_epoch(*args):
        pytest.fail("an epoch ran with a step that does not divide the chunk")

    monkeypatch.setattr(superop, "dataset_loss_grad", no_epoch)
    with pytest.raises(ValueError, match="integer multiple"):
        train("set1", bundled_schedule("initial"),
              TrainConfig(epochs=3, dt=0.07))


def test_a_huge_epoch_count_is_only_a_long_run(monkeypatch):
    """train grows its history as the epochs run, so 10^12 epochs allocate
    nothing before epoch 0: a divergence at the third epoch is reported as
    epoch 2, not preceded by a MemoryError."""
    calls, original = [], superop.dataset_loss_grad

    def third_diverges(*args):
        calls.append(args)
        if len(calls) == 3:
            raise DivergenceError("diverged")
        return original(*args)

    monkeypatch.setattr(superop, "dataset_loss_grad", third_diverges)
    with pytest.raises(DivergenceError, match=(
            r"^epoch 2: diverged; the last finite epoch is 1, "
            r"RMS 0\.0311845$")):
        train("set1", bundled_schedule("initial"),
              TrainConfig(epochs=10 ** 12, dt=0.25))


def test_history_csv(tmp_path):
    path = tmp_path / "hist.csv"
    history_csv(np.array([0.5, 0.25, 1 / 3]), path)
    assert path.read_bytes() == b"epoch,rms\n0,0.5\n1,0.25\n2,0.333333333333\n"


def test_dataset_from_file(tmp_path):
    import json
    doc = {"name": "tiny", "pairs": [
        {"state": "Bell_AB", "targets": {"AB": 1.0}},
        {"state": "|000> + |011>", "targets": {"BC": 1.0, "ABC": 0.0}},
        {"state": "fig2(0.0, 1.0)", "targets": {"ABC": 1.0}},
    ]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    ds = load_dataset(str(path))
    assert [len(p.targets) for p in ds.pairs] == [1, 2, 1]
    assert ds.pairs[1].targets["BC"] == 1.0
    assert ds.pairs[2].state == catalog("fig2", 0.0, 1.0)
