"""Acceptance gate: every shipped guarantee, one test each, timed where promised.

Each test prints a single `criterion N: PASS` line (visible with -s or in
captured output); a failure shows up as an ordinary pytest failure.
"""

import time

import numpy as np
import pytest

from conf2.borel import equivariant_cochain_complex, equivariant_cohomology_with_alpha, sw_height
from conf2.cells import cohomology_f2, deleted_product, induced_involution, quotient_complex
from conf2.conf_symbolic import conf_cohomology, kernel_ideal_check
from conf2.gf2 import Mat2
from conf2.report import RunConfig, run_pipeline
from conf2.simplicial import builtin_triangulation, connected_sum
from conf2.surfaces import SurfaceKind, build_kunneth, build_surface_ring
from sym_reference import add, cross, element, unit
from tri_reference import barycentric_subdivide, betti

ALL_KINDS = (
    [SurfaceKind.sphere()]
    + [SurfaceKind.orientable(g) for g in range(1, 5)]
    + [SurfaceKind.nonorientable(k) for k in range(1, 5)]
)
# criteria 6 and 7 again, at the symbolic side's reach
WIDE_KINDS = [SurfaceKind(family, n) for family in ("orientable", "nonorientable") for n in range(1, 17)]

_CACHE: dict[str, tuple] = {}


def _report(label: str):
    """Run the full pipeline for one surface once, keeping its wall time."""
    if label not in _CACHE:
        cfg = RunConfig(surfaces=(("kind", label),), paper_check=True)
        start = time.perf_counter()
        (report,) = run_pipeline(cfg)
        elapsed = time.perf_counter() - start
        assert report.error is None, report.error
        _CACHE[label] = (report, elapsed)
    return _CACHE[label]


def test_criterion_1_sphere():
    start = time.perf_counter()
    sym = conf_cohomology(SurfaceKind.sphere())
    assert sym.dims() == [1, 0, 1, 0, 0]
    K = builtin_triangulation(SurfaceKind.sphere())
    dp = deleted_product(K)
    assert dp.cell_counts()[:3] == (12, 24, 14)
    assert not any(dp.cell_counts()[3:])
    assert dp.euler == 2
    H = cohomology_f2(dp)
    assert H.dims[:3] == [1, 0, 1] and not any(H.dims[3:])
    quotient = quotient_complex(K)
    Q = cohomology_f2(quotient)
    assert Q.dims[:3] == [1, 1, 1] and not any(Q.dims[3:])
    A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(quotient), Q)
    assert A.dims[:4] == [1, 1, 1, 0] and not any(A.dims[4:])
    assert sw_height(A) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (sphere pipeline, {elapsed:.2f}s < 1s)")


def test_criterion_2_torus():
    report, elapsed = _report("orientable:1")
    assert [r.dim for r in report.conf] == [1, 4, 5, 2, 0]
    assert [(r.t, r.f) for r in report.conf] == [(1, 0), (0, 2), (3, 1), (2, 0), (0, 0)]
    byname = {c.name: c for c in report.checks}
    assert byname["oracle-conf-dims"].passed and byname["oracle-conf-decomposition"].passed
    # degree 1 and 3 multiplicities agree with the statement as written
    assert report.conf[1].f == 2 and report.conf[3].t == 2
    flagged = {m.name for m in report.discrepancies}
    assert "theorem-1.1-degree-1-free" not in flagged
    assert "theorem-1.1-degree-3-trivial" not in flagged
    assert report.uconf.dims[:4] == (1, 3, 4, 2)
    assert sorted((t.start, t.length) for t in report.uconf.towers) == [
        (0, 3), (1, 1), (1, 1), (2, 1), (2, 2), (2, 2),
    ]
    assert report.uconf.height == 2
    assert elapsed < 5.0
    print(f"criterion 2: PASS (torus, {elapsed:.2f}s < 5s)")


def test_criterion_3_projective_plane():
    report, elapsed = _report("nonorientable:1")
    assert [r.dim for r in report.conf] == [1, 2, 2, 1, 0]
    assert [(r.t, r.f) for r in report.conf] == [(1, 0), (0, 1), (0, 1), (1, 0), (0, 0)]
    assert report.uconf.dims[:4] == (1, 2, 2, 1)
    heads = [t for t in report.uconf.towers if t.start == 0]
    assert len(heads) == 1 and heads[0].length == 4
    assert report.uconf.height == 3
    assert elapsed < 5.0
    print(f"criterion 3: PASS (projective plane, {elapsed:.2f}s < 5s)")


def test_criterion_4_connected_sums():
    # the builtin higher-parameter triangulations are connected sums; check
    # the construction once explicitly
    torus = builtin_triangulation(SurfaceKind.orientable(1))
    double = connected_sum(torus, torus)
    assert double.euler == -2 and betti(double) == (1, 4, 1)

    times = {}
    for label in ("orientable:2", "nonorientable:2", "nonorientable:3"):
        report, elapsed = _report(label)
        times[label] = elapsed
        byname = {c.name: c for c in report.checks}
        assert byname["oracle-conf-dims"].passed
        assert byname["oracle-conf-decomposition"].passed
        assert byname["conf-euler-identity"].passed
        assert byname["uconf-euler-halves-conf"].passed
        assert report.conf[4].dim == 0
        assert byname["uconf-top-degree-vanishes"].passed
        assert elapsed < 60.0
    summary = ", ".join(f"{k} {v:.1f}s" for k, v in times.items())
    print(f"criterion 4: PASS (connected sums, {summary}, each < 60s)")


def test_criterion_5_heights():
    expected = {
        "sphere": 2,
        "orientable:1": 2,
        "orientable:2": 2,
        "nonorientable:1": 3,
        "nonorientable:2": 3,
        "nonorientable:3": 3,
    }
    for label, value in expected.items():
        report, _ = _report(label)
        assert report.uconf.height == value, label
    print("criterion 5: PASS (heights 2/3 by orientability, exact)")


def _check_diagonal_closed_form(kind: SurfaceKind) -> None:
    ring = build_surface_ring(kind)
    square = build_kunneth(ring)
    one = unit(ring)
    u = element(ring, 2, ["u"])
    expected = add(cross(square, u, one), cross(square, one, u))
    if kind.family == "orientable":
        for i in range(1, kind.param + 1):
            a = element(ring, 1, [f"a{i}"])
            b = element(ring, 1, [f"b{i}"])
            expected = add(add(expected, cross(square, a, b)), cross(square, b, a))
    elif kind.family == "nonorientable":
        for i in range(1, kind.param + 1):
            w = element(ring, 1, [f"w{i}"])
            expected = add(expected, cross(square, w, w))
    assert square.diagonal == expected, kind.label


def _check_kernel_ideal(kind: SurfaceKind) -> None:
    square = build_kunneth(build_surface_ring(kind))
    for q in range(5):
        assert kernel_ideal_check(square, q), (kind.label, q)


def test_criterion_6_diagonal_closed_forms():
    for kind in ALL_KINDS:
        _check_diagonal_closed_form(kind)
    print("criterion 6: PASS (diagonal class closed forms, g,k <= 4, exact)")


def test_criterion_6_diagonal_closed_forms_to_sixteen():
    for kind in WIDE_KINDS:
        _check_diagonal_closed_form(kind)
    print("criterion 6: PASS (diagonal class closed forms, g,k <= 16, exact)")


def test_criterion_7_kernel_ideal():
    for kind in ALL_KINDS:
        _check_kernel_ideal(kind)
    print("criterion 7: PASS (restriction kernel is the diagonal ideal, g,k <= 4, all degrees, exact)")


def test_criterion_7_kernel_ideal_to_sixteen():
    for kind in WIDE_KINDS:
        _check_kernel_ideal(kind)
    print("criterion 7: PASS (restriction kernel is the diagonal ideal, g,k <= 16, all degrees, exact)")


def test_criterion_8_stated_table_mismatches():
    orientable_set = {
        "theorem-1.1-degree-2-free",
        "theorem-1.2-x-count",
        "theorem-1.2-z-degree",
    }
    expected_sets = {
        "sphere": {"sphere-module-head"},
        "orientable:1": orientable_set,
        "orientable:2": orientable_set,
        "orientable:3": orientable_set,
        "nonorientable:1": {"theorem-1.3-degree-2-free"},
        "nonorientable:2": {"theorem-1.3-degree-2-free"},
        "nonorientable:3": {"theorem-1.3-degree-2-free"},
    }
    for label, names in expected_sets.items():
        report, _ = _report(label)
        assert report.paper_checked
        assert {m.name for m in report.discrepancies} == names, label
        for m in report.discrepancies:
            assert m.consistent == m.computed or m.name == "sphere-module-head", m
    g3, _ = _report("orientable:3")
    byname = {m.name: m for m in g3.discrepancies}
    assert byname["theorem-1.1-degree-2-free"].stated == 21
    assert byname["theorem-1.1-degree-2-free"].computed == 15
    print("criterion 8: PASS (exactly the documented stated-value mismatches, g,k <= 3)")


def test_criterion_9_property_sweep():
    start = time.perf_counter()

    # boundary squared vanishes on every deleted product in the sweep
    for label in ("sphere", "orientable:1", "nonorientable:1"):
        dp = deleted_product(builtin_triangulation(SurfaceKind.from_label(label)))
        for d in range(1, dp.top_dim + 1):
            assert dp.boundaries[d - 1].mul(dp.boundaries[d]).is_zero()
        # the swap squares to the identity on cells and on cohomology
        for perm in (np.asarray(p, dtype=np.int64) for p in dp.involution):
            assert np.array_equal(perm[perm], np.arange(len(perm)))
        H = cohomology_f2(dp)
        for q, swap in enumerate(induced_involution(dp, H)):
            assert swap.mul(swap) == Mat2.identity(H.dims[q])

    # the diagonal class is swap-invariant for every kind
    for kind in ALL_KINDS:
        square = build_kunneth(build_surface_ring(kind))
        assert square.swap(square.diagonal) == square.diagonal

    # dimension accounting and tower reconstruction across computed reports
    for label in ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3"):
        report, _ = _report(label)
        for row in report.conf:
            assert row.t + 2 * row.f == row.dim
        coverage = [0] * len(report.uconf.dims)
        for tower in report.uconf.towers:
            for n in range(tower.start, tower.start + tower.length):
                if n < len(coverage):
                    coverage[n] += 1
        assert coverage == list(report.uconf.dims)

    # Betti numbers are subdivision-invariant, and the deleted product of a
    # subdivided complex still computes the right cohomology
    for label in ("sphere", "orientable:1", "nonorientable:1"):
        K = builtin_triangulation(SurfaceKind.from_label(label))
        assert betti(barycentric_subdivide(K)) == betti(K)
    fine_sphere = barycentric_subdivide(builtin_triangulation(SurfaceKind.sphere()))
    H = cohomology_f2(deleted_product(fine_sphere))
    assert H.dims[:3] == [1, 0, 1] and not any(H.dims[3:])

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 9: PASS (property sweep, {elapsed:.1f}s < 120s)")
