#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a conf2 checkout:

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 [--seconds S] [--out FILE.json]

Runs perfbench/run.py once per workload and seed, one run at a time,
and prints for each metric its median, quartiles and the spread: the
distance between the first and third quartile as a share of the median.
--seconds defaults to run_seconds in BENCHMARK.json.  With --out the
per-run values and the summary are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = parse_seeds(args.seeds)

    report = {}
    for workload in args.workload:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], **values})
            print(workload, json.dumps(runs[-1]), flush=True)
        names = [n for n in runs[0] if n not in ("seed", "correct")]
        summary = {name: summarize([r[name] for r in runs]) for name in names}
        for name, s in summary.items():
            print(f"{workload:15s} {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['spread']:.3%}")
        report[workload] = {"seconds": seconds, "runs": runs, "summary": summary,
                            "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
