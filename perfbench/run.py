#!/usr/bin/env python3
"""Benchmark of the conf2 CLI: end-to-end cost per workload, or a traced per-layer run.

Usage, from the root of a conf2 checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): oracle_sweep, file_oracle.
The benchmark runs `python -m conf2` from `src/` as child processes, one
at a time, and checks every report byte for byte against the golden
report of its surfaces.

With --trace 0 it repeats the workload's CLI run while the next repeat
is expected to end within --seconds (at least once), with set-up
(interpreter start plus `import conf2.cli`) measured several times
before and after, and reports the medians of wall_s, cpu_s and
peak_rss_mb, and as setup_s the fastest set-up.
With --trace 1 it alternates an untraced CLI run with one under
tracer.py and reports the per-layer metrics of layers.py plus
trace.overhead_s, the traced minus the untraced wall time.  That
difference is mostly the machine's speed drift between the two runs;
trace.span_cost_s is the tracer's own cost.

The last line of stdout is one JSON object: correct, attempted and failed
(surfaces), and metrics.  Without `src/conf2` in the working directory
the benchmark prints an error and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
# The machine switches between a fast and a slow speed every few seconds, and a set-up
# child takes about 0.17 or 0.28 s accordingly: the median of 21 spread 43% between runs,
# their fastest much less.
SETUP_REPEATS = 21
# Every child is killed at this many seconds into the run, so the run ends within 180 s.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class ChildExit:
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    returncode: int
    timed_out: bool


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked at all."""


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with the checkout's src/ first on the import path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, stdout_path: Path, deadline: float) -> ChildExit:
    """Run argv to completion, stdout to a file; kill it at `deadline` (perf_counter time).

    Wall time is spawn to exit; CPU time and peak RSS come from wait4.
    A child's ru_maxrss also counts the RSS of the process that spawned
    it, which is why the benchmark itself imports neither numpy nor conf2.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        expired = []

        def on_alarm(signum, frame):
            expired.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildExit(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        returncode=proc.returncode,
        timed_out=bool(expired),
    )


def prepare(root: Path, workload: str) -> tuple[Path, dict[str, str]]:
    """Fresh work directory and child environment; SetupError when conf2 is not here."""
    if not (root / "src" / "conf2" / "__init__.py").is_file():
        raise SetupError(f"no src/conf2 under {root}: run from the root of a conf2 checkout")
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    probe = subprocess.run(
        [sys.executable, "-c", "import conf2.cli, sys; sys.stdout.write(conf2.cli.__file__)"],
        env=env, cwd=root, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import conf2.cli from {root / 'src'}:\n{probe.stderr}")
    if Path(probe.stdout).resolve().parent != (root / "src" / "conf2").resolve():
        raise SetupError(f"conf2.cli resolves to {probe.stdout}, not to {root / 'src'}")
    return work, env


class Run:
    """One benchmark run: its clock, children, and correctness tally."""

    def __init__(self, workload: str, seed: int, seconds: float, root: Path):
        self.started = time.perf_counter()
        self.seconds = seconds
        self.deadline = self.started + RUN_DEADLINE_S
        self.work, self.env = prepare(root, workload)
        self.invocation = workloads.make_invocation(workload, seed, self.work / "inputs", root)
        self.golden = workloads.load_golden(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.children = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, argv, label: str) -> tuple[ChildExit, Path]:
        self.children += 1
        out = self.work / f"{self.children:03d}-{label}.out"
        return run_child(argv, self.env, out, self.deadline), out

    def cli(self, traced_spans: Path | None = None) -> ChildExit:
        """One CLI run of the workload, checked against the golden reports."""
        if traced_spans is None:
            argv = [sys.executable, "-m", "conf2", *self.invocation.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(traced_spans), "--", *self.invocation.args]
        result, out = self.child(argv, "traced" if traced_spans else "cli")
        labels = self.invocation.labels
        failed = workloads.failed_surfaces(out.read_text(errors="replace"), result.returncode, labels, self.golden)
        self.attempted += len(labels)
        self.failed += failed
        if result.timed_out:
            self.problems.append(f"killed after {result.wall_s:.1f} s: {out}")
        elif failed:
            self.problems.append(f"{failed} of {len(labels)} surfaces failed (exit {result.returncode}): {out}")
        return result

    def setup(self) -> ChildExit:
        result, out = self.child([sys.executable, "-c", "import conf2.cli"], "setup")
        if result.returncode != 0:
            raise SetupError(f"import conf2.cli failed with exit {result.returncode}: see {out.with_suffix('.err')}")
        return result

    def another(self, last_s: float) -> bool:
        """Whether a repeat taking last_s still ends within --seconds."""
        return self.elapsed() + last_s <= self.seconds and time.perf_counter() + last_s < self.deadline

    def result(self, metrics: dict[str, dict]) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def end_to_end(run: Run) -> dict:
    # Half the set-up children run before the CLI runs and half after, so that
    # their fastest rarely comes from one slow stretch of the machine.
    setups = [run.setup().wall_s for _ in range(SETUP_REPEATS // 2)]
    later_s = statistics.median(setups) * (SETUP_REPEATS - len(setups))
    runs: list[ChildExit] = []
    while True:
        runs.append(run.cli())
        if runs[-1].timed_out or not run.another(statistics.median(r.wall_s for r in runs) + later_s):
            break
    if not runs[-1].timed_out:
        setups += [run.setup().wall_s for _ in range(SETUP_REPEATS - len(setups))]
    return run.result(
        {
            "wall_s": {"value": statistics.median(r.wall_s for r in runs), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in runs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.maxrss_kib for r in runs) * layers.KIB_TO_MB, "unit": "MB"},
            "setup_s": {"value": min(setups), "unit": "s"},
        }
    )


def traced(run: Run) -> dict:
    per_run: list[dict[str, float]] = []
    overheads: list[float] = []
    surfaces = len(run.invocation.labels)
    while True:
        plain = run.cli()
        spans_path = run.work / f"spans-{len(per_run)}.json"
        with_trace = run.cli(traced_spans=spans_path)
        if plain.timed_out or with_trace.timed_out:
            break
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            run.problems.append(f"no spans from the traced run: {exc}")
            break
        values = layers.layer_metrics(trace, surfaces)
        error = layers.accounting_error(trace, values)
        if error:
            run.problems.append(error)
        per_run.append(values)
        overheads.append(with_trace.wall_s - plain.wall_s)
        if not run.another(plain.wall_s + with_trace.wall_s):
            break
    metrics = {}
    for name in sorted({name for values in per_run for name in values}):
        values = [values[name] for values in per_run if name in values]
        metrics[name] = {"value": statistics.median(values), "unit": unit_of(name)}
    if overheads:
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    return run.result(metrics)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bits", "bit"), ("_calls", "count")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = Run(args.workload, args.seed, args.seconds, Path.cwd())
        result = traced(run) if args.trace else end_to_end(run)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
