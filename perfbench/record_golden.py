#!/usr/bin/env python3
"""Record the golden per-surface reports the benchmark checks against.

Usage, from the root of a conf2 checkout whose reports are trusted:

    python3 perfbench/record_golden.py [WORKLOAD ...]

For each workload (all by default) the CLI runs with two seeds.  Each
run must exit with status 0 and carry no error record and no failed
check; both seeds must give every surface the same report (surface
order and file relabelling must not change any cohomology); and
re-emitting the parsed reports must reproduce the CLI's bytes, so
`workloads.expected_output` can assemble any seed's report.  The
reports are then written to golden/<workload>.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads
from run import WORK_DIR, prepare, run_child

SEEDS = (0, 1)
DEADLINE_S = 600.0


def record(workload: str, root: Path) -> None:
    work, env = prepare(root, workload)
    reports: dict[str, dict] = {}
    for seed in SEEDS:
        inv = workloads.make_invocation(workload, seed, work / "inputs", root)
        out = work / f"golden-{seed}.out"
        result = run_child([sys.executable, "-m", "conf2", *inv.args], env, out, time.perf_counter() + DEADLINE_S)
        text = out.read_text()
        if result.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit status {result.returncode}")
        doc = json.loads(text)
        got = dict(zip(inv.labels, doc["reports"]))
        for label, report in got.items():
            if workloads.surface_failed(report):
                raise SystemExit(f"{workload} seed {seed}: {label} has an error record or a failed check")
            if reports.setdefault(label, report) != report:
                raise SystemExit(f"{workload}: {label} reports differently under seed {seed}")
        if workloads.expected_output(reports, inv.labels) != text:
            raise SystemExit(f"{workload} seed {seed}: re-emitted reports differ from the CLI's bytes")
        print(f"{workload} seed {seed}: {len(got)} surfaces in {result.wall_s:.1f} s", file=sys.stderr)
    path = workloads.golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    ordered = {label: reports[label] for label in sorted(reports)}
    path.write_text(json.dumps({"schema": workloads.SCHEMA, "reports": ordered}, indent=1) + "\n")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    root = Path.cwd()
    for name in names:
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
        record(name, root)
    print(f"golden reports written; work files are under {WORK_DIR}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
