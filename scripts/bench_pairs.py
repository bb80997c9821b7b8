#!/usr/bin/env python3
"""Interleaved parent/change runs of perfbench or of the CLI, summarised as a BENCH_*.json file.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] \
        --pairs N --seed S --out BENCH_x.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --cli "ARGS" [--cli "ARGS2" ...] \
        --pairs N --out BENCH_x.json

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
`problems` in its record.

`--cli "ARGS"` runs `python3 -m conf2 ARGS` from the root of each
checkout, against its own `src`, in the same interleaved pairs, for
scale runs no workload reaches.  Each run records its wall time, the
child's peak RSS (`os.wait4`) and its exit code, and the two sides'
stdout bytes and exit codes must be equal in every pair.  The exit
status is 1 when any run reported a wrong or failed surface, or when
the two sides of a CLI pair differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
CLI_METRICS = ("wall_s", "peak_rss_mb")
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


def cli(root: Path, args: list[str]) -> tuple[dict, bytes]:
    """One `python3 -m conf2 ARGS` in the checkout at root: wall time, the child's peak RSS, exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conf2", *args], cwd=root, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "exit": proc.returncode}, stdout


def revision(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(runs: list[dict], workload: str, metrics=METRICS) -> dict:
    out = {}
    for metric in metrics:
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
    parser.add_argument("--workload", action="append", default=[], help="perfbench workload; repeatable")
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS", help="conf2 CLI arguments; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, help="pair i of a workload uses seed SEED+i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    if not args.workload and not args.cli:
        parser.error("give at least one --workload or --cli")
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: list[dict] = []
    traced: dict[str, dict] = {}
    differ: list[dict] = []
    for line in args.cli:
        name = f"cli {line}"
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            output = {}
            for side in order:
                run, stdout = cli(roots[side], shlex.split(line))
                output[side] = (run["exit"], stdout)
                runs.append({"workload": name, "pair": pair, "side": side, **run})
                print(json.dumps(runs[-1]), file=sys.stderr)
            if output["parent"] != output["change"]:
                differ.append({"workload": name, "pair": pair})
                print(f"bench_pairs: {name}: stdout or exit code differs in pair {pair}", file=sys.stderr)
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
            f"--seconds {run_seconds(roots['change']):g} --trace 0` (pair i uses seed S+i) or of "
            f"`python3 -m conf2 ARGS` (`cli ARGS`), one process at a time; even pairs run the parent first, odd "
            f"pairs the change first. Parent {revision(roots['parent']) or roots['parent'].name}, change "
            f"{revision(roots['change']) or roots['change'].name}; Python {platform.python_version()} "
            f"on {platform.machine()}. Times compare only within one file: the machine's speed drifts."
        ),
        "summary": {
            **{f"cli {line}": summary(runs, f"cli {line}", CLI_METRICS) for line in args.cli},
            **{workload: summary(runs, workload) for workload in args.workload},
        },
        "runs": runs,
        "traced": traced,
    }
    if differ:
        doc["stdout_differs"] = differ
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    bad = [r for r in runs if "correct" in r and (not r["correct"] or r["failed"])]
    bad += [t[side] for t in traced.values() for side in ("parent", "change") if not t[side]["correct"]]
    return 1 if bad or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
