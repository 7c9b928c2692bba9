"""Run the benchmark once per seed and summarize each metric across the runs.

Run from the repository root:

    python3 perfbench/spread.py --workloads bench_set,point_calls --seeds 1-10 \
        --seconds 15 --out perfbench/work/spread.json

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance as a
share of the median, and writes them with the environment record and every
run's values to --out.  It stops at the first run that fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("environment: "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON summary path")
    args = parser.parse_args(argv)
    seeds = seeds_of(args.seeds)
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, report["environment"] = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {json.dumps(result)}")
            runs.append({k: m["value"] for k, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        summary = {k: summarize([r[k] for r in runs]) for k in runs[0]}
        for name, s in summary.items():
            spread = s["iqr_over_median"]
            print(f"{workload:16s} {name:28s} median {s['median']:<12.6g} "
                  f"iqr/median {'n/a' if spread is None else f'{spread:.4f}'}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
