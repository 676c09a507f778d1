#!/usr/bin/env python3
"""Benchmark of the maxplushybrid library: one workload per process.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, in turn

Run from the repository root (the library is imported from ``src/``; the
script exits with code 2 when it is missing).  One closed-loop client runs
the workload's operations back to back: the next starts when the previous
returns.  Every operation is checked against a known answer computed by
``reference.py``; a wrong result or an exception counts as failed.

``--trace 0`` measures the end-to-end metrics.  The timed phase runs the
workload's operation list in passes, at least ``MIN_PASSES`` and for at
least ``--seconds``.  Each pass first plans its own variant of the inputs
(untimed), then re-imports the package and builds the models (the timed
set-up), then runs the operations; no two passes share a model, word or
state, so nothing one pass computes can serve another.  The variants cost
the same.  Every operation and set-up is timed between two probes of the
host's speed and scaled to a fixed reference speed (``pace``), and an
operation's latency is its median pass.  Metrics: set-up time (median
over the passes), operations per second over one pass at those latencies,
median and tail latency over the operations, and peak resident memory.
The measured times, unscaled, are printed on a comment line.

``--trace 1`` times one pass untraced, installs ``tracing`` wrappers,
builds the next variant and runs it traced, and reports the per-layer
metrics plus the tracing overhead; the spans go to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "maxplushybrid"
# Pinned so that set iteration order, and with it the fixpoint work and the
# traced counts, repeats exactly between processes.
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
        dict(os.environ, PYTHONHASHSEED=HASH_SEED),
    )

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import pace  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "tropical", "expressions", "finite", "mpa", "smpl", "hybrid",
    "equivalence", "serialization", "fixtures", "reproduce", "cli",
)
MIN_PASSES = 5
WARM_UP = -1  # the variant whose first operation warms up, untimed
TAIL_BEYOND = 10  # op_ms.tail: the highest percentile with this many ops beyond it
OUT_DIR = os.path.join(HERE, "out")


def load_library() -> types.SimpleNamespace:
    """Import the package afresh from ``src/``: drop it from sys.modules
    first, so that every call pays the package's own import cost."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, PACKAGE):
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(MODULES=MODULES, package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"{PACKAGE}.{name}"))
    return lib


def corrupt(value):
    """The known answer with its first leaf changed (for the self-test)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, (tuple, list)) and value:
        return type(value)([corrupt(value[0]), *value[1:]])
    raise TypeError(f"cannot corrupt {value!r}")


class Tally:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def run(self, op) -> float:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            seconds = time.perf_counter() - start
            fault = f"raised {type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - start
            try:
                fault = op.check(result, op.expected)
            except Exception as exc:
                fault = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if fault is not None:
            self.failed += 1
            if len(self.faults) < 5:
                self.faults.append(f"{op.label}: {fault}")
        return seconds


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "hash_seed": HASH_SEED,
    }


def build_ops(workload, lib, plan, args, workdir, variant: int) -> list:
    ops = workload.build(lib, plan, os.path.join(workdir, f"v{variant}"))
    if args.corrupt:
        ops[0].expected = corrupt(ops[0].expected)
    return ops


def run_pass(ops, tally, tracer=None) -> list[tuple[float, float]]:
    """Run the operations in turn with a probe of the host's speed between
    every two: (time at the reference speed, measured time) per operation.
    A tracer learns which operation (from 1) its spans belong to."""
    times = []
    before = pace.probe()
    for index, op in enumerate(ops, start=1):
        if tracer is not None:
            tracer.op_id = index
        seconds = tally.run(op)
        after = pace.probe()
        times.append((pace.scale(seconds, before, after), seconds))
        before = after
    return times


def timed_run(workload, lib, args, workdir, tally) -> dict:
    setup: list[float] = []
    raw_setup: list[float] = []

    def set_up(variant: int) -> list:
        """Plan the variant (untimed), then re-import and build it (timed)."""
        plan = workload.plan(lib, args.seed, args.quick, variant)
        # A full collection started by an earlier pass's garbage would land
        # in some set-ups and not in others.
        gc.collect()
        before = pace.probe()
        start = time.perf_counter()
        ops = build_ops(workload, load_library(), plan, args, workdir, variant)
        seconds = time.perf_counter() - start
        setup.append(pace.scale(seconds, before, pace.probe()))
        raw_setup.append(seconds)
        gc.collect()
        return ops

    tally.run(set_up(WARM_UP)[0])  # warm-up, checked but not timed
    times: list[list[float]] = []
    raw: list[list[float]] = []
    variant = 0
    start = time.perf_counter()
    while variant < MIN_PASSES or time.perf_counter() - start < args.seconds:
        ops = set_up(variant)
        if not times:
            times = [[] for _ in ops]
            raw = [[] for _ in ops]
        if len(ops) != len(times):
            raise RuntimeError(f"variant {variant} has {len(ops)} operations, not {len(times)}")
        for op_times, op_raw, (scaled, seconds) in zip(times, raw, run_pass(ops, tally)):
            op_times.append(scaled)
            op_raw.append(seconds)
        del ops  # the next pass builds its own; only one build is alive
        shutil.rmtree(os.path.join(workdir, f"v{variant}"), ignore_errors=True)
        variant += 1
        if variant == MIN_PASSES:
            # After a fixed amount of work, not after as many passes as the
            # machine's speed allowed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.replay:
        # Variant 0 once more, untimed: each output must repeat byte for byte.
        plan = workload.plan(lib, args.seed, args.quick, 0)
        for op in build_ops(workload, lib, plan, args, workdir, 0):
            tally.run(op)
    passes = variant
    latencies = sorted(statistics.median(op_times) for op_times in times)
    rank = max(1, len(latencies) - TAIL_BEYOND)
    tail_pct = 100.0 * rank / len(latencies)
    print(f"# {passes} passes of {len(times)} ops; latency of an op is its median pass at the reference "
          f"host speed; op_ms.tail is p{tail_pct:.3g} of {len(times)} ops, {len(times) - rank} beyond it")
    fastest = sorted(min(op_raw) for op_raw in raw)
    print(f"# unscaled: setup_s {statistics.median(raw_setup):.6g} (median), ops_per_s "
          f"{len(fastest) / sum(fastest):.6g}, op_ms.p50 {statistics.median(fastest) * 1e3:.6g}, "
          f"op_ms.tail {fastest[rank - 1] * 1e3:.6g} (fastest passes)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.tail": (latencies[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(workload, lib, args, workdir, tally) -> dict:
    """One pass untraced, then set-up and the next variant's pass traced."""
    plans = {v: workload.plan(lib, args.seed, args.quick, v) for v in (WARM_UP, 0, 1)}
    tally.run(build_ops(workload, lib, plans[WARM_UP], args, workdir, WARM_UP)[0])
    ops = build_ops(workload, lib, plans[0], args, workdir, 0)
    gc.collect()
    plain = sum(scaled for scaled, _ in run_pass(ops, tally))
    del ops
    tracer = tracing.Tracer()
    tracing.install(tracer, lib)
    ops = build_ops(workload, lib, plans[1], args, workdir, 1)
    gc.collect()
    traced = sum(scaled for scaled, _ in run_pass(ops, tally, tracer))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
    tracer.dump(path, {"env": environment(args), "ops": len(ops)})
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    tally = Tally()
    try:
        lib = load_library()
        run = traced_run if args.trace else timed_run
        metrics = run(workload, lib, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'error_rate':40s} {tally.failed / tally.attempted:>16.6g} ({tally.failed}/{tally.attempted} ops)")
    for fault in tally.faults:
        print(f"# failed: {fault}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the known answer of one op (the self-test expects it to fail)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: the library source {os.path.join(SRC, PACKAGE)} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
