#!/usr/bin/env python3
"""Interleaved parent/change runs of perfbench, summarised as a BENCH_*.json file.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] \
        --pairs N --seed S --out BENCH_x.json

PARENT_DIR and CHANGE_DIR are conf2 checkouts.  Pair i runs
`python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
once from the root of each checkout, one process at a time, where T is
the `run_seconds` of that checkout's BENCHMARK.json; even pairs
run the parent first, odd pairs the change first.  After the pairs, one
`--trace 1` run per side at seed S gives the per-layer metrics.

The output holds every run's end-to-end metrics, each side's quartiles
(`statistics.quantiles`, n=4) and how many pairs the change won.  Every
end-to-end metric is lower-is-better; a tie counts for neither side.
A run that reports `correct: false` or failed surfaces keeps the
`perfbench: ...` lines of its stderr, which name the problem, as
`problems` in its record.  The exit status is 1 when any run reported
a wrong or failed surface.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
TRACE_SECONDS = 10
# perfbench ends every run within 180 s; allow for interpreter start and set-up children.
RUN_TIMEOUT_S = 300


def run_seconds(root: Path) -> float:
    """The run length the benchmark of the checkout at root sets."""
    return json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one perfbench run in the checkout at root, with its problems when it failed."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        result["problems"] = [line for line in proc.stderr.splitlines() if line.startswith("perfbench: ")]
    return result


def revision(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(runs: list[dict], workload: str) -> dict:
    out = {}
    for metric in METRICS:
        side = {
            name: {r["pair"]: r[metric] for r in runs if r["workload"] == workload and r["side"] == name}
            for name in ("parent", "change")
        }
        pairs = sorted(side["parent"].keys() & side["change"].keys())
        wins = sum(1 for p in pairs if side["change"][p] < side["parent"][p])
        out[metric] = {
            f"{name}_quartiles": [round(q, 4) for q in statistics.quantiles(side[name].values(), n=4)]
            for name in ("parent", "change")
        }
        out[metric]["change_wins"] = f"{wins}/{len(pairs)}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="perfbench workload; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i uses seed SEED+i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: list[dict] = []
    traced: dict[str, dict] = {}
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = perfbench(roots[side], workload, seed, run_seconds(roots[side]), trace=0)
                run = {"workload": workload, "pair": pair, "seed": seed, "side": side,
                       "correct": result["correct"], "failed": result["failed"]}
                run.update({m: round(result["metrics"][m]["value"], 4) for m in METRICS})
                if "problems" in result:
                    run["problems"] = result["problems"]
                runs.append(run)
                print(json.dumps(run), file=sys.stderr)
        traced[workload] = {"seed": args.seed, "seconds": TRACE_SECONDS}
        for side in ("parent", "change"):
            result = perfbench(roots[side], workload, args.seed, TRACE_SECONDS, trace=1)
            traced[workload][side] = {
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": {name: round(m["value"], 4) for name, m in sorted(result["metrics"].items())},
            }
            if "problems" in result:
                traced[workload][side]["problems"] = result["problems"]

    doc = {
        "what": (
            f"Interleaved parent/change runs of `python3 perfbench/run.py --workload W --seed S "
            f"--seconds {run_seconds(roots['change']):g} --trace 0`, one process at a time; pair i uses seed "
            f"{args.seed}+i, even pairs run the parent first, odd pairs the change first. "
            f"Parent {revision(roots['parent']) or roots['parent'].name}, change "
            f"{revision(roots['change']) or roots['change'].name}; Python {platform.python_version()} "
            f"on {platform.machine()}. Times compare only within one file: the machine's speed drifts."
        ),
        "summary": {workload: summary(runs, workload) for workload in args.workload},
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    bad += [t[side] for t in traced.values() for side in ("parent", "change") if not t[side]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
