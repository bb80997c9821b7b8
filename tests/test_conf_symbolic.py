"""Configuration-space cohomology: quotient dims, swap decomposition, kernels."""

import numpy as np
import pytest

from conf2 import conf_symbolic
from conf2.conf_symbolic import (
    conf_cohomology,
    gysin_kernel,
    kernel_ideal_check,
    rep_decompose,
)
from conf2.gf2 import Mat2, permute
from conf2.surfaces import SurfaceKind, build_kunneth, build_surface_ring
from gf2_reference import from_dense
from sym_reference import Subspace, add, cross, element, quotient_degrees, subspace_equal

SPHERE = SurfaceKind.sphere()
TORUS = SurfaceKind.orientable(1)
GENUS2 = SurfaceKind.orientable(2)
GENUS3 = SurfaceKind.orientable(3)
RP2 = SurfaceKind.nonorientable(1)
KLEIN = SurfaceKind.nonorientable(2)
N3 = SurfaceKind.nonorientable(3)

SWEEP = [SPHERE, TORUS, GENUS2, GENUS3, RP2, KLEIN, N3]

# frozen per-degree dims and (t, f) for each surface
EXPECTED = {
    SPHERE: ([1, 0, 1, 0, 0], [(1, 0), (0, 0), (1, 0), (0, 0), (0, 0)]),
    TORUS: ([1, 4, 5, 2, 0], [(1, 0), (0, 2), (3, 1), (2, 0), (0, 0)]),
    GENUS2: ([1, 8, 17, 4, 0], [(1, 0), (0, 4), (5, 6), (4, 0), (0, 0)]),
    GENUS3: ([1, 12, 37, 6, 0], [(1, 0), (0, 6), (7, 15), (6, 0), (0, 0)]),
    RP2: ([1, 2, 2, 1, 0], [(1, 0), (0, 1), (0, 1), (1, 0), (0, 0)]),
    KLEIN: ([1, 4, 5, 2, 0], [(1, 0), (0, 2), (1, 2), (2, 0), (0, 0)]),
    N3: ([1, 6, 10, 3, 0], [(1, 0), (0, 3), (2, 4), (3, 0), (0, 0)]),
}


@pytest.mark.parametrize("kind", SWEEP, ids=[k.label for k in SWEEP])
def test_dims_and_decomposition(kind):
    result = conf_cohomology(kind)
    dims, tf = EXPECTED[kind]
    assert result.dims() == dims
    assert [(r.t, r.f) for r in result.rows] == tf


@pytest.mark.parametrize("kind", SWEEP, ids=[k.label for k in SWEEP])
def test_dimension_accounting(kind):
    for row in conf_cohomology(kind).rows:
        assert row.t + 2 * row.f == row.dim
        assert row.t >= 0 and row.f >= 0


@pytest.mark.parametrize("kind", SWEEP, ids=[k.label for k in SWEEP])
def test_euler_identity(kind):
    chi = kind.euler
    assert conf_cohomology(kind).euler() == chi * chi - chi


def test_kernel_degree_two_is_the_diagonal_class():
    square = build_kunneth(build_surface_ring(TORUS))
    ker = gysin_kernel(square, 2)
    assert ker.rows == 1
    assert Subspace(square.dim(2), ker).contains(square.diagonal.coeffs)


def test_kernel_degree_three_torus():
    square = build_kunneth(build_surface_ring(TORUS))
    ring = square.factor
    u = element(ring, 2, ["u"])
    ker = Subspace(square.dim(3), gysin_kernel(square, 3))
    assert ker.dim == 2
    expected_rows = []
    for name in ("a1", "b1"):
        x = element(ring, 1, [name])
        vec = add(cross(square, x, u), cross(square, u, x))
        expected_rows.append(vec.coeffs)
        assert ker.contains(vec.coeffs)
    assert subspace_equal(ker, Subspace.spanned_by(square.dim(3), expected_rows))


def test_kernel_low_degrees_vanish():
    for kind in SWEEP:
        square = build_kunneth(build_surface_ring(kind))
        assert gysin_kernel(square, 0).rows == 0
        assert gysin_kernel(square, 1).rows == 0


def test_kernel_degree_four_is_top_class():
    square = build_kunneth(build_surface_ring(GENUS2))
    ring = square.factor
    u = element(ring, 2, ["u"])
    ker = gysin_kernel(square, 4)
    assert ker.rows == 1
    assert Subspace(square.dim(4), ker).contains(cross(square, u, u).coeffs)


def test_kernel_rejects_out_of_range_degrees():
    square = build_kunneth(build_surface_ring(TORUS))
    with pytest.raises(ValueError):
        gysin_kernel(square, 5)
    with pytest.raises(ValueError):
        gysin_kernel(square, -1)


@pytest.mark.parametrize("param", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["orientable", "nonorientable"])
def test_kernel_matches_ideal(family, param):
    square = build_kunneth(build_surface_ring(SurfaceKind(family, param)))
    for q in range(5):
        assert kernel_ideal_check(square, q)


def test_kernel_matches_ideal_sphere():
    square = build_kunneth(build_surface_ring(SPHERE))
    for q in range(5):
        assert kernel_ideal_check(square, q)


def test_rep_decompose_identity_has_no_free_part():
    assert rep_decompose(3, Mat2.identity(3)) == (3, 0)


def test_rep_decompose_transposition():
    swap = from_dense(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert rep_decompose(2, swap) == (0, 1)


def test_rep_decompose_rejects_non_involution():
    bad = from_dense(np.array([[0, 1], [0, 0]], dtype=np.uint8))
    assert bad.mul(bad) != Mat2.identity(2)
    with pytest.raises(ValueError):
        rep_decompose(2, bad)
    with pytest.raises(ValueError):
        rep_decompose(3, Mat2.identity(2))


def test_swap_acts_trivially_on_degree_three_quotient():
    # x cross u and u cross x agree once the kernel is divided out
    deg = quotient_degrees(GENUS2)[3]
    assert deg.induced_swap == Mat2.identity(deg.dim)


def test_projection_kills_kernel():
    square = build_kunneth(build_surface_ring(TORUS))
    degrees = quotient_degrees(TORUS)
    for q in (2, 3):
        ker = gysin_kernel(square, q)
        assert ker.rows
        assert degrees[q].projection.mul(ker.transpose()).is_zero()


def test_kernel_row_moved_by_the_swap_is_rejected(monkeypatch):
    """A lone x_1|x_2 added to the torus's degree-2 kernel is moved to x_2|x_1, and the degree is named."""
    kernel = conf_symbolic.gysin_kernel

    def with_moved_row(square, q):
        K = kernel(square, q)
        if q != 2:
            return K
        row = 1 << square.offset[2][1] + 1  # x_i|x_j sits at offset + i dim_1 + j: here i = 0, j = 1
        assert permute(row, square.swap_perm[2]) != row
        return Mat2(K.rows + 1, K.cols, K.data + [row])

    monkeypatch.setattr(conf_symbolic, "gysin_kernel", with_moved_row)
    with pytest.raises(RuntimeError, match="not swap-fixed in degree 2"):
        conf_cohomology(TORUS)


REFERENCE_KINDS = [SPHERE] + [SurfaceKind(family, n) for family in ("orientable", "nonorientable") for n in range(1, 5)]


@pytest.mark.parametrize("kind", REFERENCE_KINDS, ids=[k.label for k in REFERENCE_KINDS])
def test_fixed_points_match_the_quotient_route(kind):
    reference = quotient_degrees(kind)
    result = conf_cohomology(kind)
    assert result.dims() == [d.dim for d in reference]
    assert [(r.t, r.f) for r in result.rows] == [d.decomposition for d in reference]


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_closed_forms_at_scale(n):
    orientable = conf_cohomology(SurfaceKind.orientable(n))
    assert orientable.dims() == [1, 4 * n, 4 * n * n + 1, 2 * n, 0]
    assert [(r.t, r.f) for r in orientable.rows] == [
        (1, 0), (0, 2 * n), (2 * n + 1, 2 * n * n - n), (2 * n, 0), (0, 0)
    ]
    nonorientable = conf_cohomology(SurfaceKind.nonorientable(n))
    assert nonorientable.dims() == [1, 2 * n, n * n + 1, n, 0]
    assert [(r.t, r.f) for r in nonorientable.rows] == [
        (1, 0), (0, n), (n - 1, n * (n - 1) // 2 + 1), (n, 0), (0, 0)
    ]
