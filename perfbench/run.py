"""Benchmark of the graphbands command line.

Run from the repository root:

    python3 perfbench/run.py --workload bench_set --seed 1 --seconds 15 --trace 0

The benchmark drives `graphbands.cli.main(argv)` in-process with stdout
captured: one client, closed loop, serial, `--jobs 1` (the CLI default), BLAS
pinned to one thread.  It generates the workload's inputs from the seed, then
repeats passes over the operations for `--seconds` seconds.  The oracle checks
every output of the first pass; a later output is accepted when it is
byte-identical to the verified first one, else the oracle checks it again.
Medians over many passes absorb the first pass's cold start.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes and reports per-layer times and counts
(medians over traced passes), the tracing overhead, and the non-finite
eigenvalue rows of one `analyze --builtin "subdivided(3,3)" --grid 12` run
outside the passes (a known eigensolver defect; that input is kept out of the
timed workloads because it exits 1).  Spans go to perfbench/work/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 unless the program cannot be imported
or a span that the workload must hit recorded no call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
JOBS = 1
SETUP_SAMPLES = 11
TAIL_BEYOND = 10
MIN_TRACE_PAIRS = 2
DEFECT_PROBE = ("analyze", "--builtin", "subdivided(3,3)", "--grid", "12")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SPANS_ANALYZE = (
    "cli.main",
    "spectrum.estimate_suite",
    "graph.classify",
    "graph.is_connected_periodic",
    "grid.points",
    "floquet.fiber_stack",
    "linalg.eigh_stack",
    "lattices.parse_builtin",
    "graphio.load_graph",
    "graphio.dumps",
)


@dataclass(frozen=True)
class WorkloadConfig:
    # Passes every run makes; they fix the tail percentile of the workload.
    # point_calls takes one, so its tail (p88) falls inside the block of 21
    # compare calls instead of on the two --refine calls alone.
    min_passes: int
    # Spans every traced pass must contain; a zero count stops the run.
    expected_spans: tuple[str, ...]


CONFIGS = {
    "bench_set": WorkloadConfig(5, SPANS_ANALYZE),
    "point_calls": WorkloadConfig(1, SPANS_ANALYZE + ("spectrum.stability_constants",)),
    "dispersion_grid": WorkloadConfig(
        7,
        (
            "cli.main",
            "spectrum.grid_eigenvalues",
            "grid.points",
            "floquet.fiber_stack",
            "linalg.eigh_stack",
            "lattices.parse_builtin",
        ),
    ),
}


def tail_level(samples_guaranteed: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it, in percent.

    Taken from the sample count every run reaches, so runs of different
    length report the same percentile of the same operation mix.
    """
    return 100.0 * max(0.5, 1.0 - TAIL_BEYOND / samples_guaranteed)


def percentile(samples, level: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(samples)
    pos = level / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "jobs": JOBS,
    }


def setup_sample() -> float:
    """Seconds to import graphbands.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import graphbands.cli; print(time.perf_counter() - t)" % str(SRC)
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        cwd=ROOT,
    )
    return float(done.stdout)


def run_pass(ops, main):
    """Run every operation once; (pass seconds, [(exit, stdout, seconds)])."""
    results = []
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = main(list(op.argv))
            seconds = time.perf_counter() - t0
        results.append((code, out.getvalue(), seconds))
    return time.perf_counter() - start, results


class Verifier:
    """Oracle verdicts, reusing the verified first-pass output when bytes match."""

    def __init__(self, ops, oracle, rng):
        self.ops = ops
        self.oracle = oracle
        self.rng = rng
        self.reference: list[tuple[int, str, str | None]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.failures: dict[str, str] = {}

    def _verdict(self, i, code, stdout):
        if i < len(self.reference) and (code, stdout) == self.reference[i][:2]:
            return self.reference[i][2]
        reason = self.oracle.check(self.ops[i], code, stdout, self.rng)
        if reason is not None and code == 0:
            self.mismatches += 1
        return reason

    def record(self, results) -> None:
        for i, (code, stdout, _) in enumerate(results):
            reason = self._verdict(i, code, stdout)
            if i == len(self.reference):
                self.reference.append((code, stdout, reason))
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failures.setdefault(self.ops[i].name, reason)


def end_to_end(ops, config, seconds, verifier, main) -> dict:
    walls, latencies, setup = [], [], []
    start = time.perf_counter()
    while len(walls) < config.min_passes or time.perf_counter() - start < seconds:
        wall, results = run_pass(ops, main)
        verifier.record(results)
        walls.append(wall)
        latencies.extend(seconds for _, _, seconds in results)
        # Set-up samples spread over the run, so one slow moment of the
        # machine does not set them all.
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    level = tail_level(config.min_passes * len(ops))
    print(f"passes: {len(walls)} of {len(ops)} operations; latency samples: "
          f"{len(latencies)}; op_tail_s is p{level:.1f}; setup samples: {len(setup)}")
    return {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, level),
        "ok_frac": (verifier.attempted - verifier.failed) / verifier.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer_mod, tracer, wall, results, points) -> dict:
    total, calls, layer_self = tracer_mod.summarize(tracer.spans)
    counts = tracer.counts
    return {
        "linalg.eigh_s": total.get("linalg.eigh_stack", 0.0),
        "linalg.eigh_calls": calls.get("linalg.eigh_stack", 0),
        "linalg.matrices": counts["linalg.matrices"],
        "linalg.work_nu3": counts["linalg.work_nu3"],
        "linalg.nonfinite_rows": counts["linalg.nonfinite_rows"],
        "linalg.matrices_per_point": counts["linalg.matrices"] / points,
        "floquet.fiber_s": total.get("floquet.fiber_stack", 0.0),
        "floquet.fiber_calls": calls.get("floquet.fiber_stack", 0),
        "floquet.matrices": counts["floquet.matrices"],
        "grid.points_s": total.get("grid.points", 0.0),
        "grid.points_calls": calls.get("grid.points", 0),
        "grid.points_made": counts["grid.points_made"],
        "graphio.load_s": total.get("graphio.load_graph", 0.0),
        "graphio.dumps_s": total.get("graphio.dumps", 0.0),
        "graphio.out_bytes": sum(len(stdout.encode()) for _, stdout, _ in results),
        "graph.classify_s": total.get("graph.classify", 0.0),
        "graph.classify_calls": calls.get("graph.classify", 0),
        "graph.connected_s": total.get("graph.is_connected_periodic", 0.0),
        "graph.connected_calls": calls.get("graph.is_connected_periodic", 0),
        "lattices.parse_builtin_s": total.get("lattices.parse_builtin", 0.0),
        "spectrum.self_s": layer_self.get("spectrum", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.wall_s": wall,
        "trace.self_sum_frac": sum(layer_self.values()) / wall,
    }


def per_layer(ops, config, seconds, verifier, main, tracer_mod, points):
    """Per-layer metrics and the traced passes, or None if a span went unhit."""
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        wall, results = run_pass(ops, main)
        verifier.record(results)
        untraced.append(wall)
        tracer = tracer_mod.Tracer()
        with tracer.installed():
            wall, results = run_pass(ops, tracer.traced_main(main))
        verifier.record(results)
        traced.append((tracer, wall, results))
    for name in config.expected_spans:
        if any(t.calls(name) == 0 for t, _, _ in traced):
            sys.stderr.write(f"error: span {name} recorded no call in a traced pass\n")
            return None, traced
    per_pass = [layer_metrics(tracer_mod, t, wall, res, points) for t, wall, res in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    probe = tracer_mod.Tracer()
    with probe.installed(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(DEFECT_PROBE))
    metrics["defect.nonfinite_rows"] = probe.counts["linalg.nonfinite_rows"]
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"defect probe {' '.join(DEFECT_PROBE)} exited {code}")
    return metrics, traced


def write_spans(path: Path, meta: dict, traced) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta) + "\n")
        for pass_index, (tracer, _, _) in enumerate(traced):
            for s in tracer.spans:
                row = {"pass": pass_index, "op": s.op, "name": s.name,
                       "start": s.start, "end": s.end, "parent": s.parent}
                handle.write(json.dumps(row) + "\n")


def declared_units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np

        import oracle
        import tracer as tracer_mod
        import workloads
        from graphbands import cli
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the program from {SRC}: {exc}\n")
        return 2
    units = declared_units(args.trace)

    config = CONFIGS[args.workload]
    ops = workloads.make_operations(args.workload, args.seed, WORK / args.workload)
    env = environment()
    print(f"graphbands benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    verifier = Verifier(ops, oracle, np.random.default_rng(args.seed))

    if args.trace == 0:
        metrics = end_to_end(ops, config, args.seconds, verifier, cli.main)
    else:
        points = sum(
            oracle.torus_points(g, op.points_per_axis or workloads.default_axis(g["dimension"]))
            for op in ops
            for g in op.graphs
        )
        metrics, traced = per_layer(
            ops, config, args.seconds, verifier, cli.main, tracer_mod, points
        )
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        meta = {"workload": args.workload, "seed": args.seed, "environment": env,
                "operations": [op.name for op in ops]}
        write_spans(spans_path, meta, traced)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        if metrics is None:
            return 3
    if set(metrics) != set(units):
        sys.stderr.write(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json\n")
        return 4

    correct = verifier.mismatches == 0
    print(f"oracle: {'all outputs verified' if correct else f'{verifier.mismatches} mismatches'}; "
          f"failed_frac {verifier.failed}/{verifier.attempted} = "
          f"{verifier.failed / verifier.attempted:.4g}")
    for name, reason in verifier.failures.items():
        print(f"  failed: {name}: {reason}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
