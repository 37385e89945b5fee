"""Fixed-step RK4 integration of the density-matrix equation of motion.

drho/dt = -i [H/hbar, rho]

Steps never straddle a chunk boundary (chunk_duration/dt must be an
integer), so every step sees a constant H and each 75 ns sub-integration
is autonomous, and one RK4 step is exactly the quartic
P(dt F) = 1 + dt F + (dt F)^2/2 + (dt F)^3/6 + (dt F)^4/24 of
F x = -i [H, x]. The loop takes it in Horner's form, four products of
(dt/j) F. The input is Hermitized once, into a fresh array; from there
every stage is exactly Hermitian by construction (see _flow), so no step
needs re-Hermitizing. The trace is deliberately NOT renormalized, so
trace drift stays visible as a correctness signal.

One stepping loop, _stepped, holds the step arithmetic: evolve_batch_h
and a recording evolve step their states with it, and evolve's
coordinate map takes its step matrices from it (see below). It only
steps, and broadcasts over leading batch axes of rho (and of h, when
given a matching stack), so finite differences step all their perturbed
parameter sets as one batch, each under its own H. Each entry point
refuses a dt past RK4's stability limit once, from the spectra of the
Hamiltonians it builds. Every line that knows RK4's step is in this
module: the loop, its stage factors (_stage_factors) and commutator
kernel (_flow), and the reference adjoint (_stepped_gradient), which
learning.backprop_gradient calls. The adjoint records only the states at
the step boundaries, forward and back, and rebuilds each step's Horner
stages from them with the loop's stage factors and kernel. It steps all
of a state's chunks side by side, in one stacked _stepped call each way
(under -H back), each chunk from a boundary state that the coordinate map
below carries to it.

Unless it records, evolve maps coordinates rather than stepping
matrices. An 8x8 Hermitian matrix has 64 real coordinates, which
_coordinates alone reads from its float view through one index table,
_COORD, with _BASIS the matching basis matrices, and RK4's step is
linear in rho, so each chunk's step is one (64, 64) real matrix S, built
from one _stepped step of the 64 basis matrices. Its n steps are S^n,
raised by binary powering on the increment D = S - I (_power_increment)
in about 2 log2(n) products. The map has one rule: a chunk carries
coordinates c to c + c D, one real product with the batch, whatever its
size, and two chunks' increments never meet. The result differs from
stepping each state only by round-off, and the product back to matrices
makes it exactly Hermitian. Finite differences take the same increments
(_increments), carry by the same rule through the chunks a perturbed
parameter set shares with the unperturbed schedule, before and after its
own, and take the same product back (_matrices). The reference adjoint
carries the state to each chunk's start by the same rule, through the
same helper as finite differences (_carried), and its seed back to each
chunk's end by the increments' adjoints in the trace metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, real_setting
from .hamiltonian import Schedule
from .ops import dagger

DEFAULT_DT_NS = 0.05
RK4_STABLE_THETA = 2 * math.sqrt(2)
# a bound on the steps of one chunk, so that a huge but finite chunk
# duration is refused instead of stepped for ever; 75 ns at dt 0.05 is
# 1 500 steps, at dt 0.01 7 500
MAX_STEPS_PER_CHUNK = 10 ** 6


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = DEFAULT_DT_NS

    def __post_init__(self):
        if not (math.isfinite(real_setting(self.dt, "dt")) and self.dt > 0):
            raise ValueError(
                f"dt must be a positive finite number of ns, got {self.dt}")

    def steps_per_chunk(self, chunk_duration: float) -> int:
        ratio = chunk_duration / self.dt
        if not math.isfinite(ratio):
            raise ValueError(
                f"chunk duration {chunk_duration} ns over dt = {self.dt} ns "
                f"is not a finite number of steps")
        steps = round(ratio)
        if steps > MAX_STEPS_PER_CHUNK:
            raise ValueError(
                f"chunk duration {chunk_duration} ns over dt = {self.dt} ns "
                f"is more than the limit of {MAX_STEPS_PER_CHUNK} steps per "
                f"chunk")
        if abs(ratio - steps) > 1e-9 or steps < 1:
            raise ValueError(
                f"chunk duration {chunk_duration} ns is not an integer "
                f"multiple of dt = {self.dt} ns")
        return steps


# The 64 real coordinates of a Hermitian 8x8 matrix X, as indices into the
# float view of its 64 entries: the real parts of the 8 diagonal entries,
# then the real and then the imaginary parts of the 28 upper entries (j < k,
# row by row). Basis matrix i, _BASIS[i], is E + E+ for the unit E at
# coordinate i, halved on the diagonal, so X = sum_i c_i _BASIS[i] exactly.
_UPPER = np.flatnonzero(np.triu(np.ones((8, 8)), 1))
_COORD = np.concatenate([18 * np.arange(8), 2 * _UPPER, 2 * _UPPER + 1])
_BASIS = np.eye(128)[_COORD].view(complex).reshape(64, 8, 8)
_BASIS = _BASIS + dagger(_BASIS)
_BASIS[:, range(8), range(8)] *= 0.5


@dataclass
class Trajectory:
    """Recorded states at every step boundary, t = 0 through t_f."""

    states: np.ndarray


def check_stable(w, dt: float) -> None:
    """Refuse a dt past RK4's stability limit in any chunk; w holds each
    chunk's ascending eigenvalues, shape (n_chunks, ..., 8). A step scales
    rho's eigen-component (j, k) by P(-i dt (w_j - w_k)), and |P(i theta)|^2
    = 1 - theta^6/72 + theta^8/576 exceeds 1 exactly when |theta| > 2 sqrt(2)
    (Hairer & Wanner, Solving ODEs II, IV.2)."""
    spread = w[..., -1] - w[..., 0]
    if dt * spread.max(initial=0.0) <= RK4_STABLE_THETA:
        return
    for k, gap in enumerate(spread.reshape(len(spread), -1).max(axis=1)):
        if not dt * gap <= RK4_STABLE_THETA:
            raise DivergenceError(
                f"chunk {k}: dt {dt} ns is past RK4's stability limit "
                f"(dt*(w_max - w_min) = {dt * gap:.4g} > 2*sqrt(2)); the "
                f"largest stable dt is {RK4_STABLE_THETA / gap:.4g} ns")


# the real 2x2 matrices of multiplying by 1 and by i, acting on (re, im)
# rows: (re, im) @ _TIMES_I = (-im, re)
_TIMES_1, _TIMES_I = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])


def _right_factor(m, unit):
    """The real (..., 2p, 2q) matrix r = kron(m, unit) of a real
    (..., p, q) m, for unit the real 2x2 matrix of a complex number z
    acting on (re, im) rows: _TIMES_1 for 1, _TIMES_I for i. Then
    x.view(float) @ r equals (x @ (z m)).view(float) for any complex x.
    Filled in place, block by nonzero block of unit: on these sizes
    np.kron takes about four times as long, one broadcast product twice."""
    p, q = m.shape[-2:]
    r = np.zeros(m.shape[:-2] + (p, 2, q, 2))
    for (a, b), z in np.ndenumerate(unit):
        if z:
            r[..., :, a, :, b] = z * m
    return r.reshape(m.shape[:-2] + (2 * p, 2 * q))


def _stage_factors(h, dt):
    """(m_1, m_2, m_3, m_4), m_j = _right_factor((dt/j) H, _TIMES_I), so
    that _flow of m_j is the stage F_j = (dt/j) F, F x = -i [H, x]; for
    one H or a stack, stacked on a new first axis."""
    return _right_factor(np.multiply.outer(dt / np.arange(1.0, 5.0), h),
                         _TIMES_I)


def _flow(x, m, b, out):
    """-i c [H, x] into out, for Hermitian x, given m =
    _right_factor(c H, _TIMES_I) for real symmetric H, from one product.

    With B = x (i c H), B+ = -i c H x, so the commutator is B + B+ where
    H x - x H takes two products. The sum is exactly Hermitian in floating
    point, since entry (j, k) and the conjugate of entry (k, j) add the
    same two numbers. B is one real product on x's float view, faster than
    the complex one: a single m multiplies the whole batch as one
    (batch*n, 2n) gemm, and a stack of m matching x's batch axes is a
    stacked product.

    At batch 1, building the views costs over a third as much as the three
    ufunc calls, so its callers build every view once per call and pass
    them here: x is the float view of the stage input, b the float view,
    the array and the transpose of its work array, and out a C-contiguous
    array of the stage input's shape. out may be the stage input itself,
    which only the first product reads.
    """
    bf, b, bt = b
    np.matmul(x, m, out=bf)
    np.conjugate(bt, out=out)
    out += b


def _stepped(rho, hs, dt, steps_per_chunk, states=None):
    """steps_per_chunk RK4 steps under each H of hs in turn; the Hermitized
    input goes to states[0] and step n's result to states[n + 1] when
    states is given. It only steps: the caller has checked every H of hs
    against RK4's stability limit.

    With H constant, a step is the quartic P(dt F), F x = -i [H, x], taken
    in Horner's form: rho + F_1 (rho + F_2 (rho + F_3 (rho + F_4 rho)))
    with F_j = (dt/j) F, each F_j one _flow of m_j from _stage_factors.
    rho is Hermitized once, into a fresh array, so neither the caller's
    array nor a recorded row is ever written through. Every stage sums two
    exactly Hermitian arrays, so every step stays exactly Hermitian. The
    stage input x and the product b are allocated once per call and
    updated in place: a freshly allocated large-batch array at every stage
    would be returned to the OS and faulted in again at the next, which
    makes large batches measurably slower. The views the stages take of
    them are built once per call as well, and the m_j once per chunk, so a
    step is its 16 ufunc calls and nothing else: at batch 1 each view
    costs a good part of a ufunc call.
    """
    hs = np.asarray(hs)
    shape = np.broadcast_shapes(np.shape(rho), hs.shape[1:])
    x, b = (np.empty(shape, dtype=complex) for _ in range(2))
    rho = np.add(rho, dagger(rho), out=np.empty(shape, dtype=complex))
    rho *= 0.5
    if states is not None:
        states[0] = rho
    rho_f, x_f, b_f = (a.view(float) for a in (rho, x, b))
    if hs.ndim == 3:  # one H, so one m: the whole batch is one gemm
        rho_f, x_f, b_f = (f.reshape(-1, f.shape[-1])
                           for f in (rho_f, x_f, b_f))
    work = b_f, b, b.swapaxes(-1, -2)
    n = 0
    for h in hs:
        m1, m2, m3, m4 = _stage_factors(h, dt)
        for _ in range(steps_per_chunk):
            _flow(rho_f, m4, work, x)
            x += rho
            _flow(x_f, m3, work, x)
            x += rho
            _flow(x_f, m2, work, x)
            x += rho
            _flow(x_f, m1, work, x)
            rho += x
            n += 1
            if states is not None:
                states[n] = rho
    return rho


def _coordinates(rho):
    """(n, 64) the Hermitian coordinates of rho's n states, so that the
    Hermitized state b is sum_i c[b, i] _BASIS[i]. The batch is Hermitized
    once, into a C-ordered array as _stepped Hermitizes its input, and the
    coordinates are gathered from its float view through _COORD."""
    n = math.prod(np.shape(rho)[:-2])
    x = np.asarray(rho, dtype=complex).reshape(n, 8, 8)
    x = np.add(x, dagger(x), out=np.empty((n, 8, 8), dtype=complex))
    c = x.reshape(n, 64).view(float)[:, _COORD]
    c *= 0.5
    return c


def _step_matrix(h, dt):
    """The (64, 64) real step matrix S of H = h: row i holds the
    coordinates (_coordinates) of one _stepped step of _BASIS[i], so that
    c @ S holds those of one step of the state with coordinates c. The
    stepped basis is exactly Hermitian, so Hermitizing it there leaves it
    bit for bit as it is."""
    return _coordinates(_stepped(_BASIS, h[None], dt, 1))


def _power_increment(d, n):
    """(I + d)^n - I for n >= 1, by binary powering (Knuth, TAOCP vol. 2,
    4.6.3) on the increment: from the leading bit of n down, a square is
    2p + p p and a set bit p + d + p d, so the identity never enters a
    sum and the small increment of a step near the identity keeps its
    low bits. About 2 log2(n) products; n = 1 gives d itself."""
    p = d
    for bit in bin(n)[3:]:
        p = 2 * p + p @ p
        if bit == "1":
            p = p + d + p @ d
    return p


def _increments(hs, dt, steps):
    """Each chunk's increment D_k = S_k^n - I, one (64, 64) real matrix
    per H of hs: its step matrix (_step_matrix) raised to the chunk's
    step count n by _power_increment."""
    return [_power_increment(_step_matrix(h, dt) - np.eye(64), steps)
            for h in hs]


def _matrices(c):
    """(n, 8, 8) the Hermitian matrices of (n, 64) coordinates, from one
    real product with _BASIS's float view. Each float of the result is
    one coordinate or its negation, so the result is exactly Hermitian,
    and it is exactly the state that _coordinates read."""
    x = c @ _BASIS.reshape(64, 64).view(float)
    return x.view(complex).reshape(-1, 8, 8)


# the trace inner product in coordinates: tr(X Y) = sum_i w_i c_i d_i for
# Hermitian X, Y of coordinates c, d (_coordinates), w_i 1 on the 8
# diagonal coordinates and 2 on the 56 others, each of which stands for
# an entry and its conjugate
_METRIC = np.repeat([1.0, 2.0], [8, 56])
# the steps of a chunk whose stage stacks the reference adjoint builds at
# once, so that its memory does not grow with the chunk's step count
_BLOCK_STEPS = 64


def _carried(rho, increments):
    """(len(increments) + 1, 8, 8): the single state rho, Hermitized, then
    carried through each increment in turn by the map's rule, coordinates
    c to c + c D, each back as its Hermitian matrix (_matrices)."""
    c = [_coordinates(rho)]
    for d in increments:
        c.append(c[-1] + c[-1] @ d)
    return _matrices(np.concatenate(c))


def _chunk_walks(rho, hs, dt, steps, seed_of):
    """(xs, lams), each (n_chunks, steps + 1, 8, 8): the forward and the
    adjoint state at every step boundary of each chunk, for the single
    state rho stepped under hs and the adjoint seed seed_of(its last
    state), Hermitian.

    All chunks are stepped side by side, each from its own boundary state,
    in one stacked _stepped call each way: multiple shooting (Lions, Maday
    & Turinici, C. R. Acad. Sci. Paris 332, 661 (2001)), with the
    coordinate map as the cheap propagator. Forward, chunk k starts from
    rho carried through the increments D_j of the chunks before it
    (_increments), as evolve carries it. Backward, it ends at the seed
    carried back through the chunks after it by each increment's adjoint
    in the trace metric W = diag(_METRIC), W D_j^T W^-1: an exact scaling
    by powers of two, and the increment of the steps under -H up to
    round-off. The buffers are chunk-major, so that a chunk's states are
    one contiguous slice, and _stepped writes them through a transposed
    view, the adjoint's reversed: lams[k, n] and xs[k, n] are both at step
    boundary n of chunk k. With one chunk both walks are the sequential
    ones bit for bit; with more they differ from them by round-off.
    """
    increments = _increments(hs, dt, steps)
    xs, lams = np.empty((2, len(hs), steps + 1, 8, 8), dtype=complex)
    _stepped(_carried(rho, increments[:-1]), hs[None], dt, steps,
             xs.swapaxes(0, 1))
    back = [_METRIC[:, None] * d.T / _METRIC for d in increments[:0:-1]]
    _stepped(_carried(seed_of(xs[-1, -1]), back)[::-1], -hs[None], dt,
             steps, lams[:, ::-1].swapaxes(0, 1))
    return xs, lams


def _stepped_gradient(rho, hs, dt, steps, seed_of):
    """dE/dH of each chunk, (n_chunks, 8, 8), by reverse mode through the
    stepped loop (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
    SIAM 2008, ch. 3-4): the single state rho stepped under hs, steps a
    chunk, with seed_of(its last state) = dE/drho there, Hermitian. The
    caller has checked hs against RK4's stability limit; -H has H's
    spread, so that covers the adjoint's steps as well.

    A step is P(dt F) for a real-coefficient quartic P and F x =
    -i [H, x]; F+ = -F, so the adjoint of a step is the same step under
    -H, and _chunk_walks records the forward and adjoint states of every
    chunk. _stepped takes P(dt F) in Horner's form, with F_j = (dt/j) F:
    y_4 = x + F_4 x, y_3 = x + F_3 y_4, y_2 = x + F_2 y_3 and
    x' = x + F_1 y_2. For the adjoint state a_1 that meets x', a change
    dF of F changes <a_1, x'> by sum_j (dt/j) <a_j, dF u_j>, where
    u = (y_2, y_3, y_4, x) are the inputs of F_1..F_4 and
    a_j = F_(j-1)+ a_(j-1) = -F_(j-1) a_(j-1) is a plain product chain.
    Both are built for _BLOCK_STEPS of a chunk's steps at a time, by _flow
    on stacks of the recorded x and a_1, with _stepped's stage factors
    (negated for -F_j), so every u_j and a_j is exactly Hermitian; the
    chain runs in place on the recorded a_1. Term j adds
    (dt/j) Im tr(G [u_j, a_j]) to generator G's derivative, which is
    (dt/j) 2 Im tr(G u_j a_j) because u_j, a_j are Hermitian and G real
    symmetric; the sum of u_j a_j over a block's steps is one gemm per
    term, np.tensordot over the (step, j) pairs: numpy's einsum runs this
    contraction in its own C loop, several times slower than BLAS.
    """
    xs, lams = _chunk_walks(rho, hs, dt, steps, seed_of)
    stacks = np.empty((4, min(steps, _BLOCK_STEPS), 8, 8), dtype=complex)
    cs = np.zeros((len(hs), 8, 8), dtype=complex)
    for k, h in enumerate(hs):
        m1, m2, m3, m4 = _stage_factors(h, dt)
        for n in range(0, steps, _BLOCK_STEPS):
            # a[i] meets the result of the step that x[i] enters
            x = xs[k, :-1][n:n + _BLOCK_STEPS]
            a = lams[k, 1:][n:n + _BLOCK_STEPS]
            y2, y3, y4, b = stacks[:, :len(x)]
            work = b.view(float).reshape(-1, 16), b, b.swapaxes(-1, -2)
            for u, m, y in ((x, m4, y4), (y4, m3, y3), (y3, m2, y2)):
                _flow(u.view(float).reshape(-1, 16), m, work, y)
                y += x
            cs[k] += dt * np.tensordot(y2, a, ((0, 2), (0, 1)))
            # a_j = -F_(j-1) a_(j-1) meets u_j, the input of F_j
            for j, m, u in ((2, m1, y3), (3, m2, y4), (4, m3, x)):
                _flow(a.view(float).reshape(-1, 16), -m, work, a)
                cs[k] += (dt / j) * np.tensordot(u, a, ((0, 2), (0, 1)))
    return 2 * cs.imag


def evolve(rho0, s: Schedule, cfg: IntegratorConfig = IntegratorConfig(),
           record: bool = False):
    """Propagate rho0 through the whole schedule.

    Returns (rho_f, Trajectory or None). rho0 may carry leading batch
    axes; callers must pass Hermitian, trace-1, positive semidefinite
    density matrices, which this hot path does not check. The schedule's
    Hamiltonians are checked against RK4's stability limit once, before
    the first step.

    Recording steps the batch's matrices with _stepped, chunk after
    chunk, and stores every step boundary: the sequential trajectory.
    Without it, one H per chunk serves the whole batch, and a step
    is linear in rho, so evolve maps the batch's 64 real Hermitian
    coordinates c (_coordinates). Each chunk's step matrix S
    (_step_matrix) is raised to the chunk's step count n as the increment
    D_k = (I + D)^n - I of D = S - I (_power_increment), and chunk by
    chunk the batch's coordinates are carried as c + c D_k, one real
    product a chunk. Adding the increment keeps the low bits that a step
    near the identity carries, which a product with the full matrix would
    round away. One real product with _BASIS's float view turns the
    coordinates back into matrices. Each of its floats is one coordinate
    or its negation, so the result is exactly Hermitian, and it is the
    stepped map of every state up to round-off.
    """
    rho = np.asarray(rho0)
    steps = cfg.steps_per_chunk(s.chunk_duration)
    hs = s.hamiltonians()
    check_stable(np.linalg.eigvalsh(hs), cfg.dt)
    if record:
        states = np.empty((steps * s.n_chunks + 1,) + rho.shape,
                          dtype=complex)
        return _stepped(rho, hs, cfg.dt, steps, states), Trajectory(states)
    c = _coordinates(rho)
    for d in _increments(hs, cfg.dt, steps):
        c = c + c @ d
    return _matrices(c).reshape(rho.shape), None


def evolve_batch_h(rho0: np.ndarray, hs: np.ndarray, dt: float,
                   steps_per_chunk: int) -> np.ndarray:
    """Forward-only evolution where every batch element has its own H.

    hs has shape (n_chunks, ...batch, 8, 8) matching rho0's batch axes.
    The finite-difference gradient calls it once, with one chunk of hs:
    each batch element is a perturbed parameter set, stepped through its
    own chunk under its own H. The caller checks hs against RK4's
    stability limit first, as fd_gradient does for all its Hamiltonians
    at once; this only steps.
    """
    return _stepped(np.asarray(rho0), hs, dt, steps_per_chunk)


def evolve_expm(rho0, s: Schedule) -> np.ndarray:
    """Exact per-chunk propagation U rho U+ with U = exp(-i H dt).

    Eigendecomposition of the real-symmetric H; serves as the oracle the
    RK4 path is tested against.
    """
    rho = np.asarray(rho0, dtype=complex)
    for h in s.hamiltonians():
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * s.chunk_duration)) @ v.conj().T
        rho = u @ rho @ u.conj().T
    return rho
