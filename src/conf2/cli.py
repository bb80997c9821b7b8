"""Command-line entry point.

Surfaces are given as `--surface sphere | orientable:G | nonorientable:K`
or `--triangulation PATH`, repeatable and processed in the order written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .report import RunConfig, emit_report, exit_code, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conf2",
        description=(
            "Mod-2 cohomology of ordered and unordered two-point "
            "configuration spaces of closed surfaces."
        ),
    )
    # Both flags append to one list, each value tagged with its source, so the order written is kept.
    parser.add_argument(
        "--surface",
        action="append",
        type=lambda value: ("kind", value),
        dest="surfaces",
        metavar="LABEL",
        help="sphere, orientable:G, or nonorientable:K (repeatable)",
    )
    parser.add_argument(
        "--triangulation",
        action="append",
        type=lambda value: ("file", value),
        dest="surfaces",
        metavar="PATH",
        help="triangulation file (repeatable)",
    )
    parser.add_argument("--no-oracle", action="store_true", help="skip the triangulation pipeline")
    parser.add_argument("--format", choices=("json", "md"), default="json", dest="output_format")
    parser.add_argument(
        "--paper-check",
        action="store_true",
        help="compare multiplicities against the stated classification tables",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.surfaces:
        parser.error("at least one --surface or --triangulation is required")
    try:
        cfg = RunConfig(surfaces=tuple(args.surfaces), oracle_enabled=not args.no_oracle, paper_check=args.paper_check)
    except ValueError as exc:
        parser.error(str(exc))
    reports = run_pipeline(cfg)
    data = emit_report(reports, args.output_format).encode("utf-8")  # an error may quote any character of a file
    if args.output:
        try:
            Path(args.output).write_bytes(data)
        except OSError as exc:
            print(f"conf2: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(data)
    return exit_code(reports)


if __name__ == "__main__":
    raise SystemExit(main())
