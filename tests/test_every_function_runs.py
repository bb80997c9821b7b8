"""Every function in `src/conf2` runs on a CLI path, or the allow-list says why it is kept.

The CLI runs in this process under `sys.settrace`, recording the code
of every call: the oracle sweep with `--paper-check` as JSON and as
markdown, the benchmark's `file_oracle` inputs, `--no-oracle
orientable:64` and one error record.  A function of `src/conf2` that
none of these runs fails the test unless ALLOWED names it with its
reason; an ALLOWED function that does run fails it too, so the list
cannot go stale.  Comprehensions, lambdas and class bodies belong to
the code around them and are not counted on their own.
"""

import inspect
import sys
from pathlib import Path

import pytest

import conf2
from conf2 import simplicial
from conf2.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SRC = Path(conf2.__file__).resolve().parent
SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")
ALLOWED = {
    "cells.deleted_product": "the reference route tests compare the oracle with; perfbench traces it",
    "cells._disjoint_pairs": "builds deleted_product's cells",
    "cells._pair_boundaries": "builds deleted_product's boundaries",
    "cells.product_faces": "the face rule of deleted_product; tests/test_cost.py checks the CLI never applies it",
    "cells.induced_involution": "pushes deleted_product's swap onto its cohomology; perfbench traces it",
    "cells.CellComplex.is_free": "deleted_product's check that its swap has no fixed cell",
    "cells.CellComplex.cell_counts": "perfbench's size of the cells.deleted_product span reads it",
    "conf_symbolic.rep_decompose": "the swap-module split of the reference routes; perfbench traces it",
    "gf2.select_independent_rows": "perfbench traces it; tests/test_cost.py checks the CLI never calls it",
    "gf2.solve_many": "perfbench traces it; tests/test_cost.py checks the CLI never calls it",
    "gf2.Mat2.mul_vec": "perfbench traces it as gf2.mul_vec",
    "surfaces._GradedBasis.dims": "perfbench's size of the surfaces.kunneth span reads it",
    "surfaces.SurfaceKind.orientable": "public constructor beside sphere() and nonorientable(), which the CLI runs",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of each function and method defined in src/conf2.

    Code objects have no co_qualname before Python 3.11, so the walk
    builds the name: a class body adds its name, a function its name and
    `<locals>`.  Where co_qualname exists, the two must agree.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            is_function = code.co_flags & inspect.CO_NEWLOCALS
            qualname = prefix + code.co_name
            inner = "" if code.co_name == "<module>" else qualname + (".<locals>." if is_function else ".")
            stack.extend((c, inner) for c in code.co_consts if inspect.iscode(c))
            if is_function and not code.co_name.startswith("<"):
                assert getattr(code, "co_qualname", qualname) == qualname
                out[(str(path), code.co_firstlineno)] = f"{path.stem}.{qualname}"
    return out


@pytest.fixture(scope="module")
def never_run(tmp_path_factory) -> set[str]:
    root = tmp_path_factory.mktemp("cli")
    files = workloads.make_invocation("file_oracle", 0, root / "inputs", root).args
    sweep = [a for label in SWEEP for a in ("--surface", label)] + ["--paper-check"]
    runs = [
        sweep,
        sweep + ["--format", "md"],
        [str(root / a) if a.endswith(".tri") else a for a in files],
        ["--no-oracle", "--surface", "orientable:64"],
        ["--no-oracle", "--surface", "orientable:x"],
    ]
    seen = set()

    def trace(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # the shipped triangulations are cached per process; build them inside the trace
    simplicial.builtin_triangulation.cache_clear()
    simplicial._load_data.cache_clear()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [main(argv + ["--output", str(root / "report")]) for argv in runs]
    finally:
        sys.settrace(previous)
    assert codes == [0, 0, 0, 0, 2]
    ran = {(str(Path(file).resolve()), line) for file, line in seen}
    return {name for key, name in defined_functions().items() if key not in ran}


def test_every_function_runs_on_a_cli_path(never_run):
    assert sorted(never_run - set(ALLOWED)) == []


def test_every_allowed_function_exists_and_never_runs(never_run):
    assert sorted(set(ALLOWED) - never_run) == []
