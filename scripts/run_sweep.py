#!/usr/bin/env python3
"""Sweep the builtin surface families and write one combined report.

Runs sphere, orientable:1..G, nonorientable:1..K through both pipelines
(unless --no-oracle) and prints markdown to stdout by default.  Larger
parameters get expensive through the oracle: the deleted product of the
genus-3 triangulation already has a few thousand cells.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conf2.report import RunConfig, emit_report, exit_code, run_pipeline


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-genus", type=int, default=2)
    ap.add_argument("--max-crosscaps", type=int, default=3)
    ap.add_argument("--no-oracle", action="store_true")
    ap.add_argument("--paper-check", action="store_true")
    ap.add_argument("--format", choices=("json", "md"), default="md", dest="output_format")
    ap.add_argument("--output", metavar="PATH")
    args = ap.parse_args()

    labels = (
        ["sphere"]
        + [f"orientable:{g}" for g in range(1, args.max_genus + 1)]
        + [f"nonorientable:{k}" for k in range(1, args.max_crosscaps + 1)]
    )
    cfg = RunConfig(
        surfaces=tuple(("kind", label) for label in labels),
        oracle_enabled=not args.no_oracle,
        output_format=args.output_format,
        paper_check=args.paper_check,
    )
    reports = run_pipeline(cfg)
    text = emit_report(reports, cfg.output_format)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return exit_code(reports)


if __name__ == "__main__":
    raise SystemExit(main())
