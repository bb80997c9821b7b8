"""Work budgets for the oracle sweep: GF(2) eliminations and products, counted.

Wall time follows the machine's speed; counts of work do not.  This runs
the oracle sweep's six builtin surfaces through `run_pipeline`, with
`--paper-check`, counting the calls of `gf2.rref` (every elimination
goes through it) and `Mat2.mul`, and their operand bits (rows x cols,
summed over the matrix arguments).  Each budget is the count measured
when it was set plus 10%.  A change may lower a budget; one that raises
it says why.  The product path solves cocycles with the pivot tables of
`CohomologyResult`, so the stacked-system solver and the row selection
it replaced must not run at all, and the orbit complex and its
connecting map come from one walk over K, so the product face rule
that the deleted-product reference applies cell by cell must not run
either.  The orbit complex's cell counts per degree are pinned exactly.
Building the builtins parses each shipped file once and validates each
complex once, as `validate_surface` keeps its report on the complex;
both counts are pinned, and so is the number of simplicial boundary
matrices, each built once.  The oracle runs on `irreducible(K)`, a
triangulation with the fewest vertices its surface allows: the sweep's
three reducible builtins get there by a few seeded flips, counted
against a budget, and the benchmark's file inputs by contraction alone.
The symbolic side's memory is counted too: the `tracemalloc` peak of
`conf_cohomology(orientable:64)`, which a matrix built per basis
element of the square's degree 2 (4,098 of them) would raise.
"""

import functools
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from conf2 import borel, cells, gf2, simplicial
from conf2.conf_symbolic import conf_cohomology
from conf2.report import RunConfig, run_pipeline
from conf2.simplicial import builtin_triangulation, irreducible, read_triangulation
from conf2.surfaces import SurfaceKind
from tri_reference import contractible_edges

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")
# (calls, operand bits) measured on the sweep when the budgets were set.
# rref's bits fell from 990,683 when conf_cohomology's meet matrix lost its columns at the fixed basis elements,
# and its calls from 272 when a row-by-row swap check replaced the rank of the stacked kernel and its swap.
MEASURED = {"rref": (242, 990_425), "mul": (132, 4_981_789)}
# Bytes at the tracemalloc peak of conf_cohomology(orientable:64), measured when the budget was set.
SYMBOLIC_PEAK = 992_094
# validate_surface runs that compute a report rather than return the one kept on the complex: one per distinct
# complex the sweep builds, its three shipped pieces, four connected sums and three reductions.
VALIDATIONS = 10
UNUSED = ("solve_many", "select_independent_rows")
FACE_RULE = "product_faces"
# Cells per degree of quotient_complex(K) for each sweep surface's builtin K.
QUOTIENT_CELLS = {
    "sphere": (6, 12, 7, 0, 0),
    "orientable:1": (21, 105, 161, 84, 7),
    "orientable:2": (55, 351, 694, 504, 109),
    "nonorientable:1": (15, 60, 75, 30, 0),
    "nonorientable:2": (36, 189, 315, 198, 36),
    "nonorientable:3": (66, 390, 738, 540, 127),
}
# Cells per degree of quotient_complex(irreducible(K)), which the oracle runs on, for each sweep surface:
# 3,435 cells in all against QUOTIENT_CELLS' 4,931.
ORACLE_QUOTIENT_CELLS = {
    "sphere": (6, 12, 7, 0, 0),
    "orientable:1": (21, 105, 161, 84, 7),
    "orientable:2": (45, 288, 564, 396, 78),  # 10 vertices, not the builtin's 11
    "nonorientable:1": (15, 60, 75, 30, 0),
    "nonorientable:2": (28, 144, 232, 136, 20),  # 8, not 9
    "nonorientable:3": (36, 210, 380, 250, 45),  # 9, not 12
}
# 2-2 flips irreducible makes on each sweep surface, measured when the budget was set.
FLIPS = {"sphere": 0, "orientable:1": 0, "orientable:2": 4, "nonorientable:1": 0, "nonorientable:2": 3, "nonorientable:3": 7}
# Cells per degree of quotient_complex(irreducible(K)) for the file_oracle inputs.
FILE_QUOTIENT_CELLS = {
    "sphere_subdivided.tri": (6, 12, 7, 0, 0),
    "torus.tri": (21, 105, 161, 84, 7),
    "rp2.tri": (15, 60, 75, 30, 0),
}


@pytest.fixture(scope="module")
def sweep_counts() -> dict[str, tuple[int, int]]:
    counts: dict[str, tuple[int, int]] = {}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls, bits = counts.get(name, (0, 0))
            counts[name] = (calls + 1, bits + sum(math.prod(a.shape) for a in args if hasattr(a, "shape")))
            return fn(*args, **kwargs)

        return wrapper

    def counted_parse(text):
        parsed, _ = counts.get("parses", (0, 0))
        counts["parses"] = (parsed + 1, 0)
        return parse(text)

    def counted_validation(K):
        computed, _ = counts.get("validations", (0, 0))
        counts["validations"] = (computed + (K._surface is None), 0)
        return validate(K)

    def recorded_boundary(K, d):
        built.append((K, d))  # K itself, not its id, so no complex is freed and its id reused
        return boundary(K, d)

    parse, validate = simplicial.parse_triangulation, simplicial.validate_surface
    boundary, built = simplicial.SimplicialComplex.boundary_matrix, []
    patch = pytest.MonkeyPatch()
    patch.setattr(simplicial.SimplicialComplex, "boundary_matrix", recorded_boundary)
    patch.setattr(simplicial, "parse_triangulation", counted_parse)
    patch.setattr(simplicial, "validate_surface", counted_validation)
    patch.setattr(gf2, "rref", counted("rref", gf2.rref))
    patch.setattr(gf2.Mat2, "mul", counted("mul", gf2.Mat2.mul))
    for module in (gf2, cells, borel):
        for name in UNUSED + (FACE_RULE,):
            if hasattr(module, name):
                patch.setattr(module, name, counted(name, getattr(module, name)))
    # the triangulations and the shipped pieces are cached; build them inside the count
    builtin_triangulation.cache_clear()
    simplicial._load_data.cache_clear()
    try:
        reports = run_pipeline(RunConfig(surfaces=tuple(("kind", s) for s in SWEEP), paper_check=True))
    finally:
        patch.undo()
    assert all(r.error is None for r in reports)
    counts["boundaries"] = (len(built), len(set(built)))
    return counts


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_sweep_stays_within_budget(sweep_counts, name):
    calls, bits = sweep_counts[name]
    budget_calls, budget_bits = (int(1.1 * n) for n in MEASURED[name])
    assert calls <= budget_calls, f"{name}: {calls} calls, budget {budget_calls}"
    assert bits <= budget_bits, f"{name}: {bits} operand bits, budget {budget_bits}"


def test_sweep_parses_each_shipped_file_once(sweep_counts):
    assert sweep_counts["parses"] == (3, 0)


def test_sweep_validates_each_complex_once(sweep_counts):
    computed, _ = sweep_counts["validations"]
    assert computed <= int(1.1 * VALIDATIONS), f"{computed} surface validations, budget {int(1.1 * VALIDATIONS)}"


def test_sweep_builds_each_boundary_of_a_complex_once(sweep_counts):
    """SimplicialComplex keeps no boundary memo: H*(K) for the norm check reads d = 0, 1, 2 once per surface."""
    built, distinct = sweep_counts["boundaries"]
    assert built == distinct == 3 * len(SWEEP)


@pytest.mark.parametrize("name", UNUSED)
def test_product_path_does_not_solve_stacked_systems(sweep_counts, name):
    assert name not in sweep_counts


def test_sweep_does_not_apply_the_product_face_rule(sweep_counts):
    assert FACE_RULE not in sweep_counts


def test_symbolic_side_stays_within_its_memory_budget():
    tracemalloc.start()
    try:
        conf_cohomology(SurfaceKind.orientable(64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= int(1.1 * SYMBOLIC_PEAK), f"peak {peak} bytes, budget {int(1.1 * SYMBOLIC_PEAK)}"


@pytest.mark.parametrize("label", SWEEP)
def test_quotient_cell_counts(label):
    K = builtin_triangulation(SurfaceKind.from_label(label))
    assert cells.quotient_complex(K).cell_counts() == QUOTIENT_CELLS[label]


@pytest.mark.parametrize("label", SWEEP)
def test_oracle_quotient_cell_counts(label, monkeypatch):
    K = builtin_triangulation(SurfaceKind.from_label(label))
    flips = []
    flip = simplicial._flip
    monkeypatch.setattr(simplicial, "_flip", lambda *args: flips.append(1) or flip(*args))
    assert cells.quotient_complex(irreducible(K)).cell_counts() == ORACLE_QUOTIENT_CELLS[label]
    assert len(flips) <= FLIPS[label]


@pytest.mark.parametrize("label", SWEEP)
def test_sweep_builtins_are_irreducible(label):
    """The builder glues without leaving an edge to contract; only flips take its output lower."""
    K = builtin_triangulation(SurfaceKind.from_label(label))
    for L in (K, irreducible(K)):
        assert L.vertex_count == 4 or not contractible_edges(L)


@pytest.mark.parametrize("seed", (3, 4))
def test_file_inputs_contract_to_minimal_cell_counts(seed, tmp_path):
    invocation = workloads.make_invocation("file_oracle", seed, tmp_path / "inputs", tmp_path)
    files = {Path(label).name: read_triangulation(tmp_path / label) for label in invocation.labels}
    assert {name: cells.quotient_complex(irreducible(K)).cell_counts() for name, K in files.items()} == FILE_QUOTIENT_CELLS
    # The subdivided sphere's orbit complex shrinks from 1,969 cells to the 25 of the tetrahedron's.
    assert sum(cells.quotient_complex(files["sphere_subdivided.tri"]).cell_counts()) == 1969
    assert sum(FILE_QUOTIENT_CELLS["sphere_subdivided.tri"]) == 25
