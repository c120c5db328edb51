"""pstwalk benchmark: one workload per call, closed loop, one caller.

    python3 perfbench/run.py --workload bridge-search|certify-large|exact-identities
                             --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
seed makes one set of distinct operations (see ``workloads.py``).  The loop
executes the whole set in passes, each pass in a fresh seeded order, for
about ``--seconds`` (whole passes), and checks every output.  Each
operation starts when the previous one returns.

Every timing is scaled to a reference host speed (``hostspeed.py``): a
fixed pure-Python kernel is timed between operations, and each interval is
multiplied by REF_S over the kernel time around it.  On a host whose cores
are shared, wall-clock times of the same code drift by more than the bounds
in BENCHMARK.json; the scaled times drift far less.  The wall-clock figures
and the kernel samples are printed and recorded beside them.

Set-up (import plus input generation) runs SETUP_REPEATS times before the
loop and again between operations whenever SETUP_GAP times the last set-up
has passed since it, each between two kernel samples; ``setup_s`` is the
median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice back to back, untraced and traced with the tracer installed
around that one call, in alternating order; it reports the per-layer split
of the traced executions and ``trace_overhead_ratio``, the traced over the
untraced time of the same operations.  End-to-end numbers come only from
untraced runs.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run conditions,
failures and (traced) spans are written under ``perfbench/out/``.  Exits 1
when any output check fails and 2 when the package cannot be imported.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices are small and one caller runs at a time
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from layers import LAYERS, TARGETS, per_layer_metrics  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "pstwalk"
SETUP_REPEATS = 3
# set up again once this many times the last set-up's duration has passed,
# so set-up samples span the run at about 1/(SETUP_GAP+1) of its time
SETUP_GAP = 6.0
# held out from every measurement made while the benchmark was written, so
# that a later claim can be confirmed on inputs nobody tuned against
HELD_OUT_SEED = 104729


def import_package():
    """Import pstwalk afresh from ``src/`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} resolved to {pkg.__file__}, not to {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS})


def set_up(wl, seed: int):
    """Import plus input generation; returns (modules, ops, seconds)."""
    start = time.perf_counter()
    mods = import_package()
    ops = wl.make_inputs(mods, random.Random(seed), seed)
    return mods, ops, time.perf_counter() - start


@dataclass
class Measurement:
    times: dict = field(default_factory=dict)  # op index -> untraced execution times, scaled
    wall: dict = field(default_factory=dict)  # op index -> untraced execution times, wall clock
    traced_times: dict = field(default_factory=dict)  # op index -> traced execution times, scaled
    traced_wall: dict = field(default_factory=dict)  # op index -> traced execution times, wall clock
    failures: list = field(default_factory=list)
    executions: int = 0
    passes: int = 0


def execute(wl, mods, op, m: Measurement, tamper=None) -> float:
    """Run ``op`` once, check its output and return its wall time;
    ``tamper(op, out)`` replaces the output before the check (used by the
    self-test)."""
    prepared = wl.prepare(mods, op)
    t0 = time.perf_counter()
    try:
        out, error = wl.run(mods, op, prepared), None
    except Exception as exc:  # a raising op is a failed op
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    m.executions += 1
    if error is None:
        if tamper is not None:
            out = tamper(op, out)
        error = wl.check(op, out)
    if error is not None:
        m.failures.append({"op": op.index, "error": error})
    return wall


def measure(wl, mods, ops, rng, seconds=None, passes=None, speed=None, tracer=None, tamper=None, between=None) -> Measurement:
    """Whole passes over ``ops``, each in a fresh order from ``rng``: for
    ``passes`` passes, or until less than half the last pass's time is left
    of ``seconds``, so the run ends as close to ``seconds`` as whole passes
    allow.  ``speed`` scales the
    times (unscaled without it); ``between()`` runs after each operation.
    With a ``tracer`` every operation also runs traced, right before or
    after its untraced run (alternating), with a kernel sample after each
    run, so both runs of a pair are scaled by the host speed around them."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        order = list(ops)
        rng.shuffle(order)
        for i, op in enumerate(order):
            for traced in ((False,) if tracer is None else (False, True) if (i + m.passes) % 2 else (True, False)):
                if traced:
                    tracer.install(PACKAGE, TARGETS)
                    tracer.run_id = op.index
                    try:
                        wall = execute(wl, mods, op, m, tamper)
                    finally:
                        tracer.uninstall()
                    tracer.flush()
                    m.traced_wall.setdefault(op.index, []).append(wall)
                    series = m.traced_times.setdefault(op.index, [])
                else:
                    wall = execute(wl, mods, op, m, tamper)
                    m.wall.setdefault(op.index, []).append(wall)
                    series = m.times.setdefault(op.index, [])
                if speed is None:
                    series.append(wall)
                    continue
                speed.record(series, wall)
                if tracer is None:
                    speed.tick()
                else:
                    speed.sample()
            if between is not None:
                between()
        m.passes += 1
        if passes is not None and m.passes >= passes:
            return m
        now = time.perf_counter()
        if seconds is not None and now - start + (now - pass_start) / 2 >= seconds:
            return m


def tail(times: dict) -> tuple[float, float]:
    """Over the operations in ``times`` (op index -> seconds), each taken at
    its mean over its executions: the nearest-rank percentile
    100 * (1 - 10 / number of operations), at least p90, as (value,
    percentile).  That is the highest percentile with ten operations beyond
    it; an operation's mean, not its single executions, so that one slow
    execution of a long operation does not decide the tail."""
    means = sorted(statistics.fmean(ts) for ts in times.values())
    pct = max(90.0, 100.0 * (1 - 10 / len(means)))
    return means[math.ceil(pct / 100 * len(means)) - 1], pct


def end_to_end_metrics(times: dict, setup_times: list) -> tuple[dict, dict]:
    """Over every execution in ``times`` (op index -> seconds)."""
    flat = [t for ts in times.values() for t in ts]
    value, pct = tail(times)
    return {
        "ops_per_s": (len(flat) / sum(flat), "1/s"),
        "op_p50_ms": (statistics.median(flat) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"op_tail_percentile": pct}


def traced_run(wl, mods, ops, seed: int, seconds: float, speed, tag: str):
    """A traced set-up, then every operation untraced and traced in pairs.
    Span and self times are wall clock; the overhead ratio is taken from
    scaled times."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{tag}-spans.csv.gz"
    tracer = Tracer(spans_path)
    try:
        tracer.install(PACKAGE, TARGETS)
        tracer.run_id = "setup"
        try:
            start = time.perf_counter()
            wl.make_inputs(mods, random.Random(seed), seed)
            setup_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        speed.sample()
        m = measure(wl, mods, ops, random.Random(seed), seconds=seconds, speed=speed, tracer=tracer)
    finally:
        tracer.close()
    plain_s = sum(map(sum, m.times.values()))
    traced_s = sum(map(sum, m.traced_times.values()))
    traced_ops = sum(map(len, m.traced_times.values()))
    traced_pairs = sum(wl.pairs(op) * len(m.traced_times.get(op.index, ())) for op in ops)
    wall_s = setup_s + sum(map(sum, m.traced_wall.values()))
    metrics = per_layer_metrics(tracer, traced_ops, traced_pairs, wall_s, traced_s / plain_s)
    extra = {"spans_file": spans_path.name, "spans_written": tracer.spans_written, "counts": tracer.counts}
    notes = {"trace_overhead_ratio": f"{traced_s:.3f} s traced / {plain_s:.3f} s untraced over {traced_ops} op pairs, scaled"}
    return metrics, extra, notes, m


# ---------------------------------------------------------------------------
# run conditions


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> list:
    text = _read(Path("/proc/loadavg"))
    return [float(x) for x in text.split()[:3]] if text else list(os.getloadavg())


def conditions(args, wl, ops, m: Measurement, load_start: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "pairs_per_pass": sum(wl.pairs(op) for op in ops),
        "passes": m.passes,
        "executions": m.executions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }


# ---------------------------------------------------------------------------


def emit(metrics: dict, attempted: int, failed: int, notes: dict) -> dict:
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_start = loadavg()
    wl = WORKLOADS[args.workload]
    speed = hostspeed.HostSpeed()
    setup_times, setup_wall = [], []

    def timed_set_up():
        speed.sample()
        mods, ops, took = set_up(wl, args.seed)
        speed.record(setup_times, took)
        speed.sample()
        setup_wall.append(took)
        return mods, ops

    try:
        for _ in range(SETUP_REPEATS):
            mods, ops = timed_set_up()
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {}
    if args.trace:
        metrics, extra, notes, m = traced_run(wl, mods, ops, args.seed, args.seconds, speed, tag)
        record.update(extra)
    else:
        last_setup = time.perf_counter()

        def resetup():
            # a fresh import replaces sys.modules; the loop keeps using ``mods``
            nonlocal last_setup
            if time.perf_counter() - last_setup >= SETUP_GAP * setup_wall[-1]:
                timed_set_up()
                last_setup = time.perf_counter()

        m = measure(wl, mods, ops, random.Random(args.seed), seconds=args.seconds, speed=speed, between=resetup)
        speed.close()
        metrics, tail_info = end_to_end_metrics(m.times, setup_times)
        wall, _ = end_to_end_metrics(m.wall, setup_wall)
        record.update(tail_info, wall_clock={name: value for name, (value, _) in wall.items()})
        pairs = sum(wl.pairs(op) * len(m.times[op.index]) for op in ops)
        scaled_s = sum(map(sum, m.times.values()))
        notes = {
            "ops_per_s": f"{m.executions} executions of {len(ops)} ops in {m.passes} passes, "
                         f"{pairs / scaled_s:.4g} pairs/s; wall clock {wall['ops_per_s'][0]:.6g}",
            "op_p50_ms": f"wall clock {wall['op_p50_ms'][0]:.6g}",
            "op_tail_ms": f"p{tail_info['op_tail_percentile']:.1f} of {len(ops)} op means; "
                          f"wall clock {wall['op_tail_ms'][0]:.6g}",
            "setup_s": f"median of {len(setup_times)} imports plus input generations; "
                       f"wall clock {wall['setup_s'][0]:.6g}",
        }
        print(f"host kernel median {statistics.median(speed.samples) * 1e3:.4g} ms over {len(speed.samples)} samples; "
              f"times below are scaled to {hostspeed.REF_S * 1e3:g} ms")
    record.update(setup_s_each=setup_times, setup_wall_s_each=setup_wall, kernel_samples_s=speed.samples)

    failures = m.failures
    print(f"workload {args.workload} seed {args.seed}: {m.executions} executions of {len(ops)} ops, "
          f"{len(failures)} failed (failed_ratio {len(failures) / m.executions:.6g})")
    for failure in failures[:10]:
        print(f"FAILED op {failure['op']}: {failure['error']}")
    OUT_DIR.mkdir(exist_ok=True)
    result = emit(metrics, m.executions, len(failures), notes)
    record.update(
        result=result,
        conditions=conditions(args, wl, ops, m, load_start),
        failures=failures[:100],
        op_times=m.times,
        op_wall_times=m.wall,
        traced_op_times=m.traced_times,
    )
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
