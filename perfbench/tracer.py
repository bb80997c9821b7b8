"""Run the conf2 CLI in this process with a span around each layer's public calls.

Usage: python3 perfbench/tracer.py --spans OUT.json -- <conf2 CLI arguments>

conf2 is not modified.  Before the CLI runs, each traced function is
replaced by a timing wrapper under the name its callers look it up by:
the stage functions `conf2.report` imports, the `gf2` functions
`conf2.cells` and `conf2.borel` import, `Mat2.mul`/`Mat2.mul_vec`,
`gf2.rref` (called from inside gf2), and
`conf2.conf_symbolic.build_kunneth`.  A name that no longer exists is
skipped, so its metric is absent.

A span is [name, start_ns, end_ns, parent index, size, maxrss growth in
KiB].  Spans stay in memory and are written to OUT.json after the CLI
returns; the report still goes to stdout and the exit status is the
CLI's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import resource
import sys
import time


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _operand_bits(args, result) -> int:
    """Sum of rows x cols over the matrix and vector operands."""
    return sum(math.prod(a.shape) for a in args if hasattr(a, "shape"))


def _cell_count(args, result) -> int:
    return sum(result.cell_counts())


def _bicomplex_dim(args, result) -> int:
    return sum(result.total_dim(n) for n in range(result.window + 1))


def _kunneth_dim(args, result) -> int:
    return sum(result.dims())


# (module, attribute path, span name, size of one call or None)
PATCHES = (
    ("conf2.cli", "run_pipeline", "report.run_pipeline", None),
    ("conf2.cli", "emit_report", "report.emit", None),
    ("conf2.report", "paper_check", "report.paper_check", None),
    ("conf2.report", "builtin_triangulation", "simplicial.triangulate", None),
    ("conf2.report", "read_triangulation", "simplicial.read", None),
    ("conf2.report", "validate_surface", "simplicial.validate", None),
    ("conf2.report", "deleted_product", "cells.deleted_product", _cell_count),
    ("conf2.report", "cohomology_f2", "cells.cohomology", None),
    ("conf2.cells", "induced_involution", "cells.induced_involution", None),
    ("conf2.report", "quotient_complex", "cells.quotient", None),
    ("conf2.report", "equivariant_cochain_complex", "borel.bicomplex", _bicomplex_dim),
    ("conf2.report", "equivariant_cohomology_with_alpha", "borel.alpha", None),
    ("conf2.report", "conf_cohomology", "conf_symbolic.conf_cohomology", None),
    ("conf2.report", "kernel_ideal_check", "conf_symbolic.kernel_check", None),
    ("conf2.report", "rep_decompose", "conf_symbolic.rep_decompose", None),
    ("conf2.conf_symbolic", "rep_decompose", "conf_symbolic.rep_decompose", None),
    ("conf2.conf_symbolic", "build_kunneth", "surfaces.kunneth", _kunneth_dim),
    ("conf2.gf2", "Mat2.mul", "gf2.mul", _operand_bits),
    ("conf2.gf2", "Mat2.mul_vec", "gf2.mul_vec", _operand_bits),
    ("conf2.gf2", "rref", "gf2.rref", _operand_bits),
    ("conf2.cells", "select_independent_rows", "gf2.select_independent_rows", _operand_bits),
    ("conf2.cells", "solve_many", "gf2.solve_many", _operand_bits),
    ("conf2.borel", "solve_many", "gf2.solve_many", _operand_bits),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.installed: list[str] = []
        self._open: list[int] = []

    def wrap(self, name, fn, size=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss = _maxrss_kib()
            span = [name, 0, 0, open_spans[-1] if open_spans else -1, None, 0]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                open_spans.pop()
                span[5] = _maxrss_kib() - rss
            if size is not None:
                try:
                    span[4] = size(args, result)
                except (AttributeError, TypeError, ValueError):
                    pass
            return result

        return traced

    def install(self, module_name, path, name, size=None) -> bool:
        """Replace module_name.path by a traced wrapper; False when it does not exist."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        setattr(owner, attr, self.wrap(name, fn, size))
        self.installed.append(name)
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the conf2 CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    for patch in PATCHES:
        tracer.install(*patch)
    cli = importlib.import_module("conf2.cli")
    traced_main = tracer.wrap("cli.main", cli.main)

    span_cost_ns = _span_cost_ns()  # also warms the wrapper before the timed call
    start = time.perf_counter_ns()
    code = traced_main(cli_args)
    wall_ns = time.perf_counter_ns() - start
    sys.stdout.flush()

    with open(args.spans, "w") as out:
        json.dump(
            {
                "wall_ns": wall_ns,
                "span_cost_ns": span_cost_ns,
                "installed": sorted(set(tracer.installed)),
                "spans": tracer.spans,
            },
            out,
        )
    return code


def _span_cost_ns(calls: int = 2000) -> int:
    """Median cost of one span around an empty call: the tracer's resolution."""
    probe = Tracer()
    empty = probe.wrap("probe", lambda: None)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            empty()
        costs.append((time.perf_counter_ns() - t0) // calls)
    return sorted(costs)[len(costs) // 2]


if __name__ == "__main__":
    raise SystemExit(main())
