"""Benchmark entry point for the qnnwitness package.

    python3 perfbench/run.py --workload {train,sweep,evaluate,gradcheck}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The
workload runs in this one process with one BLAS thread. Its inputs come
from the seed. Operations run back to back for about S seconds, and
their outputs are checked after the timed region.

--trace 0 prints the end-to-end metrics, with operation costs in units of
a fixed reference computation timed around each operation (Reference),
and the set-up time scaled by the same computation timed around the
workload build.
--trace 1 runs every second operation with span wrappers installed and
prints the per-layer metrics, including the tracing overhead: the traced
minus the untraced mean operation time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Earlier lines give the machine
facts and a readable summary.
"""
import os
import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
# benchmark-owned CLI config, so that a user's calibrated
# ~/.config/qnnwitness.json cannot change the evaluate workload
CONFIG_FILE = os.path.join(BENCH_DIR, "qnnwitness_config.json")

WORKLOAD_NAMES = ("train", "sweep", "evaluate", "gradcheck")
REF_SHARE = 0.05        # reference time after each operation, as a share
REF_MIN_S = 0.01        # and at least this long
SETUP_REF_S = 0.05      # reference time before and after the workload build
NOMINAL_REF_S = 2.5e-3  # one ref on the machine setup_s is scaled to
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def isolate_environment():
    """Per-process settings; the thread counts act only before numpy loads."""
    os.environ.update(THREAD_ENV)
    os.environ["QNNWITNESS_CONFIG"] = CONFIG_FILE


def import_program():
    """Import qnnwitness from this checkout's src/, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import qnnwitness
    except ImportError as exc:
        print(f"error: cannot import qnnwitness from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(qnnwitness.__file__).startswith(src + os.sep):
        print(f"error: qnnwitness came from {qnnwitness.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def machine_facts():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{k: os.environ[k] for k in THREAD_ENV},
    }


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, i.e. the 11th largest sample. With fewer than 11
    samples there is none, and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Reference:
    """A fixed numpy computation, timed between operations to gauge the
    machine's speed at that moment.

    The shared host this benchmark was tuned on ran in phases of several
    seconds at speeds up to 1.6x apart, with no steal time, so wall times
    of the same work spread by up to 0.4 over ten runs. Operation time
    divided by the time of this computation, run right before and after
    it, spread three times less. The computation mixes what the program
    does: small 8x8 complex products in a Python loop and 64x64 complex
    BLAS products.
    It calls no program code, so a change to the program moves only the
    operation's side of the ratio.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._u8 = np.linalg.qr(rng.normal(size=(8, 8))
                                + 1j * rng.normal(size=(8, 8)))[0]
        self._u64 = np.linalg.qr(rng.normal(size=(64, 64))
                                 + 1j * rng.normal(size=(64, 64)))[0]
        self._np = np

    def _rep(self):
        u8, u64 = self._u8, self._u64
        a = self._np.eye(8, dtype=complex)
        for _ in range(200):
            a = u8 @ a @ u8.conj().T
            a = 0.5 * (a + a.conj().T)
        b = self._np.eye(64, dtype=complex)
        for _ in range(10):
            b = u64 @ b
        return a, b

    def time(self, budget):
        """Mean seconds per repetition, repeating for at least `budget`."""
        clock = time.perf_counter
        start, reps = clock(), 0
        while True:
            self._rep()
            reps += 1
            if clock() - start >= budget:
                return (clock() - start) / reps


def measure(workload, seconds, tracer=None, reference=None):
    """Run operations back to back until the next one would end past
    `seconds`. With a tracer, every second operation runs traced, so that
    traced and untraced operations see the same machine conditions. With
    a reference, it is timed before the first operation and after each
    one, for REF_SHARE of that operation's time. Returns (latencies in s,
    outputs or exceptions, traced flags, reference repetition times in s,
    one more than the operations)."""
    latencies, outputs, traced, refs = [], [], [], []
    share = REF_SHARE if reference else 0.0
    clock = time.perf_counter
    start = clock()
    if reference:
        refs.append(reference.time(REF_MIN_S))
    i = 0
    while True:
        traced.append(tracer is not None and i % 2 == 1)
        scope = (tracer.root("bench.op", i) if traced[-1]
                 else contextlib.nullcontext())
        t0 = clock()
        try:
            with scope:
                out = workload.op(i)
        except Exception as exc:  # counted as a failed operation
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        if reference:
            refs.append(reference.time(max(share * latencies[-1],
                                           REF_MIN_S)))
        i += 1
        enough = i >= (2 if tracer else 1)
        if enough and clock() - start + latencies[-1] * (1 + share) > seconds:
            return latencies, outputs, traced, refs


def check_all(workload, outputs, traced=None, tracer=None):
    """Failure reasons, one per failed operation. Checks of traced
    operations are traced too, for the oracle's time."""
    failures = []
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failures.append(f"op {i}: {type(out).__name__}: {out}")
            continue
        scope = (tracer.root("bench.check", i) if traced and traced[i]
                 else contextlib.nullcontext())
        try:
            with scope:
                reason = workload.check(i, out)
        except Exception as exc:  # a check that cannot run is a failure
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return failures


def build(name, seed, tiny=False):
    """Import, load bundled data and generate inputs; returns the workload."""
    import numpy as np
    import workloads
    return workloads.WORKLOADS[name](np.random.default_rng(seed), tiny=tiny)


def set_up(name, seed, tiny, t_start):
    """Build the workload. Returns it, the reference, the wall time of the
    set-up since `t_start` in s, and the mean ref time in s, timed just
    before and just after the build; the reference's own time is left out
    of the set-up time."""
    t_pause = time.perf_counter()
    reference = Reference()
    before = reference.time(SETUP_REF_S)
    t_resume = time.perf_counter()
    workload = build(name, seed, tiny)
    wall = time.perf_counter() - t_start - (t_resume - t_pause)
    after = reference.time(SETUP_REF_S)
    return workload, reference, wall, (before + after) / 2


def end_to_end(latencies, refs, items_per_op, setup_s):
    """The end-to-end metrics, and a summary line with the raw times and
    the sample count. An operation's cost is its time over the mean of
    the reference times just before and just after it."""
    costs = [2 * t / (before + after)
             for t, before, after in zip(latencies, refs, refs[1:])]
    value, pct = tail(costs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_kref": (1e3 * items_per_op * len(costs) / sum(costs),
                           "1/kref"),
        "op_ref.p50": (statistics.median(costs), "ref"),
        "op_ref.tail": (value, "ref"),
    }
    raw_tail, _ = tail(latencies)
    label = f"p{pct:.1f}" if pct < 100 else "maximum, fewer than 11 samples"
    note = (f"{len(latencies)} samples, tail = {label}; raw "
            f"{items_per_op * len(latencies) / sum(latencies):.4g} items/s, "
            f"op p50 {statistics.median(latencies) * 1e3:.3f} ms, tail "
            f"{raw_tail * 1e3:.3f} ms; reference repetition "
            f"{statistics.median(refs) * 1e3:.4f} ms")
    return metrics, note


def run(name, seed, seconds, trace, tiny=False, t_start=None):
    """One benchmark run; returns (result dict, summary lines)."""
    t_start = time.perf_counter() if t_start is None else t_start
    workload, reference, setup_wall, setup_ref = set_up(name, seed, tiny,
                                                        t_start)
    # set-up seconds on a machine where one ref takes NOMINAL_REF_S
    setup_s = setup_wall * NOMINAL_REF_S / setup_ref
    workload.warmup()
    lines = [f"machine {json.dumps(machine_facts(), sort_keys=True)}"]

    if not trace:
        latencies, outputs, _, refs = measure(workload, seconds,
                                              reference=reference)
        failures = check_all(workload, outputs)
        metrics, note = end_to_end(latencies, refs, workload.items_per_op,
                                   setup_s)
        lines.append(f"{name}: {note}; raw setup {setup_wall:.4f} s at "
                     f"{setup_ref * 1e3:.4f} ms per ref")
    else:
        import spans
        tracer = spans.Tracer()
        latencies, outputs, traced, _ = measure(workload, seconds, tracer)
        failures = check_all(workload, outputs, traced, tracer)
        layers = spans.layer_metrics(tracer.spans, sum(traced))
        self_sum = sum(layers[m] for m in set(spans.SELF_TIME_METRIC.values()))
        untraced = statistics.fmean(
            t for t, on in zip(latencies, traced) if not on) * 1e3
        layers["trace.untraced_op_ms"] = untraced
        layers["trace.overhead_ms"] = layers["trace.op_ms"] - untraced
        metrics = {k: (v, spans.unit_of(k)) for k, v in layers.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-{seed}.json"))
        lines.append(
            f"{name}: {len(traced) - sum(traced)} untraced and {sum(traced)} "
            f"traced operations, alternating; self times sum to "
            f"{self_sum:.3f} ms per operation = untraced "
            f"{untraced:.3f} ms + tracing overhead "
            f"{layers['trace.overhead_ms']:.3f} ms. No layer waits on a "
            "queue or lock, so no waiting time is reported.")

    attempted = len(outputs)
    lines.append(f"{name}: failed_frac {len(failures) / attempted:.4g} "
                 f"({len(failures)} of {attempted})")
    lines += [f"  FAILED {reason}" for reason in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    isolate_environment()
    import_program()
    result, lines = run(args.workload, args.seed, args.seconds, args.trace,
                        t_start=_T0)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
