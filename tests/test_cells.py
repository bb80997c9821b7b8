"""Orbit complexes, deleted products, their cohomology, and the swap."""

import numpy as np
import pytest

from conf2.cells import (
    CellComplex,
    cohomology_f2,
    deleted_product,
    induced_involution,
    product_faces,
    quotient_complex,
)
from conf2.conf_symbolic import conf_cohomology, rep_decompose
from conf2.gf2 import Mat2
from conf2.simplicial import (
    SimplicialComplex,
    barycentric_subdivide,
    builtin_triangulation,
)
from conf2.surfaces import SurfaceKind
from dp_reference import orbit_quotient


def test_deleted_product_of_tetrahedron():
    C = deleted_product(builtin_triangulation(SurfaceKind.sphere()))
    assert C.cell_counts() == (12, 24, 14, 0, 0)
    assert C.euler == 2
    assert C.is_free()


def test_deleted_product_of_single_edge():
    C = deleted_product(SimplicialComplex(2, [(0, 1)]))
    assert C.cell_counts() == (2, 0, 0)
    result = cohomology_f2(C)
    assert result.dims == [2, 0, 0]


def test_deleted_product_euler_identity():
    for kind in (SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)):
        K = builtin_triangulation(kind)
        chi = K.euler
        assert deleted_product(K).euler == chi * chi - chi


def test_sphere_cohomology():
    C = deleted_product(builtin_triangulation(SurfaceKind.sphere()))
    result = cohomology_f2(C)
    assert result.dims == [1, 0, 1, 0, 0]


def test_torus_cohomology():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    assert result.dims == [1, 4, 5, 2, 0]


def test_projective_plane_cohomology():
    C = deleted_product(builtin_triangulation(SurfaceKind.nonorientable(1)))
    result = cohomology_f2(C)
    assert result.dims == [1, 2, 2, 1, 0]


def test_representatives_are_cocycles_not_coboundaries():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    for d in range(C.top_dim):
        delta = C.boundaries[d + 1].transpose()
        reps = result.cocycle_basis[d]
        for i in range(reps.rows):
            assert not delta.mul_vec(reps.row_dense(i)).any()
        # classes stay independent modulo coboundaries
        stacked = Mat2.vstack([result.coboundary_basis[d], reps])
        from conf2.gf2 import rank

        assert rank(stacked) == result.coboundary_basis[d].rows + reps.rows


@pytest.mark.parametrize(
    "kind,expected",
    [
        (SurfaceKind.sphere(), [(1, 0), (0, 0), (1, 0), (0, 0), (0, 0)]),
        (SurfaceKind.orientable(1), [(1, 0), (0, 2), (3, 1), (2, 0), (0, 0)]),
        (SurfaceKind.nonorientable(1), [(1, 0), (0, 1), (0, 1), (1, 0), (0, 0)]),
    ],
    ids=["sphere", "torus", "rp2"],
)
def test_induced_swap_decomposition(kind, expected):
    C = deleted_product(builtin_triangulation(kind))
    result = cohomology_f2(C)
    got = []
    for d, mat in enumerate(result.induced_involution):
        dec = rep_decompose(result.dims[d], mat)
        got.append((dec.t, dec.f))
    assert got == expected


def test_induced_swap_squares_to_identity():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    for d, mat in enumerate(result.induced_involution):
        assert mat.mul(mat) == Mat2.identity(result.dims[d])


def test_oracle_matches_symbolic_for_torus():
    sym = conf_cohomology(SurfaceKind.orientable(1))
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    assert result.dims == sym.dims()
    for d in range(5):
        dec = rep_decompose(result.dims[d], result.induced_involution[d])
        sd = sym.degrees[d].decomposition
        assert (dec.t, dec.f) == (sd.t, sd.f)


def test_product_faces():
    assert product_faces((0,), (1, 2)) == [((0,), (1,)), ((0,), (2,))]
    assert product_faces((0, 1), (2, 3, 4)) == [
        ((0,), (2, 3, 4)),
        ((1,), (2, 3, 4)),
        ((0, 1), (2, 3)),
        ((0, 1), (2, 4)),
        ((0, 1), (3, 4)),
    ]
    assert product_faces((0,), (1,)) == []


def test_quotient_of_sphere_product():
    Q = quotient_complex(builtin_triangulation(SurfaceKind.sphere()))
    assert Q.cell_counts() == (6, 12, 7, 0, 0)
    assert Q.euler == 1
    assert cohomology_f2(Q).dims == [1, 1, 1, 0, 0]


def test_quotient_of_edge_product():
    Q = quotient_complex(SimplicialComplex(2, [(0, 1)]))
    assert Q.cell_counts() == (1, 0, 0)
    assert cohomology_f2(Q).dims == [1, 0, 0]


def test_quotient_of_torus_product():
    K = builtin_triangulation(SurfaceKind.orientable(1))
    Q = quotient_complex(K)
    assert Q.euler == deleted_product(K).euler // 2
    assert cohomology_f2(Q).dims == [1, 3, 4, 2, 0]


def test_quotient_of_projective_plane_product():
    Q = quotient_complex(builtin_triangulation(SurfaceKind.nonorientable(1)))
    assert cohomology_f2(Q).dims == [1, 2, 2, 1, 0]


def test_quotient_rejects_fixed_cells():
    circle = CellComplex(
        [["p", "q"], ["a", "b"]],
        [Mat2.zeros(0, 2), Mat2.from_dense(np.array([[1, 1], [1, 1]], dtype=np.uint8))],
        involution=[np.array([0, 1]), np.array([1, 0])],
    )
    with pytest.raises(ValueError):
        orbit_quotient(circle)


def test_involution_must_commute_with_boundary():
    # boundary sends the edge to p + q; swapping only the vertices breaks it
    with pytest.raises(RuntimeError):
        CellComplex(
            [["p", "q"], ["a"]],
            [Mat2.zeros(0, 2), Mat2.from_dense(np.array([[1], [0]], dtype=np.uint8))],
            involution=[np.array([1, 0]), np.array([0])],
        )


def test_involution_must_be_permutation_involution():
    with pytest.raises(ValueError):
        CellComplex(
            [["p", "q", "r"]],
            [Mat2.zeros(0, 3)],
            involution=[np.array([1, 2, 0])],
        )


def test_boundary_squared_checked():
    with pytest.raises(RuntimeError):
        CellComplex(
            [["v"], ["e"], ["f"]],
            [
                Mat2.zeros(0, 1),
                Mat2.from_dense(np.array([[1]], dtype=np.uint8)),
                Mat2.from_dense(np.array([[1]], dtype=np.uint8)),
            ],
        )


def test_subdivision_smoke_test_on_sphere():
    K = barycentric_subdivide(builtin_triangulation(SurfaceKind.sphere()))
    C = deleted_product(K)
    assert C.euler == 2
    assert cohomology_f2(C).dims == [1, 0, 1, 0, 0]
