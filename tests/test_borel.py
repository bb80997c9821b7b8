"""Equivariant pipeline: transfer sequence, polynomial action, norm check, towers, height."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2.borel import (
    AlphaModule,
    Tower,
    check_norm_map,
    cover_counts,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    module_decompose,
    sw_height,
)
from conf2.cells import (
    CellComplex,
    CohomologyResult,
    cohomology_f2,
    deleted_product,
    quotient_complex,
    simplicial_cell_complex,
)
from conf2.gf2 import Mat2, ones, rank
from conf2.simplicial import SimplicialComplex, builtin_triangulation
from conf2.surfaces import SurfaceKind
from gf2_reference import from_dense
from dp_reference import alpha_module, check_smith_gysin, orbit_quotient, transfer_phi


def borel_module(K: SimplicialComplex) -> AlphaModule:
    """The alpha-module of the swap on the deleted product of K, through its orbit complex."""
    Q = quotient_complex(K)
    return equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), cohomology_f2(Q))


def norm_check(K: SimplicialComplex, A: AlphaModule | None = None, HK: CohomologyResult | None = None):
    """check_norm_map on the orbit complex of K, with A or HK substituted when given."""
    Q = quotient_complex(K)
    HQ = cohomology_f2(Q)
    if A is None:
        A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), HQ)
    if HK is None:
        HK = cohomology_f2(simplicial_cell_complex(K))
    return check_norm_map(K, HK, Q, HQ, A)


POINT = CellComplex([["p"]], [Mat2.zeros(0, 1)])


def antipodal_circle() -> CellComplex:
    """Square circle with the antipode: two vertices, two edges, free swap."""
    boundary = from_dense(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    return CellComplex(
        [["p", "q"], ["a", "b"]],
        [Mat2.zeros(0, 2), boundary],
        involution=[np.array([1, 0]), np.array([1, 0])],
    )


def test_point_pair_has_contractible_quotient():
    module = borel_module(SimplicialComplex(2, [(0, 1)]))
    assert module.dims == [1, 0, 0]
    assert module.towers == [Tower(0, 1)]
    assert sw_height(module) == 0


def test_antipodal_circle_gives_circle():
    module = alpha_module(antipodal_circle())
    assert module.dims == [1, 1]
    assert module.towers == [Tower(0, 2)]
    assert sw_height(module) == 1


def test_fixed_point_action_rejected():
    fixed = CellComplex(
        [["p", "q"]],
        [Mat2.zeros(0, 2)],
        involution=[np.array([0, 1])],
    )
    with pytest.raises(ValueError):
        transfer_phi(fixed, POINT)


def test_missing_involution_rejected():
    with pytest.raises(ValueError):
        transfer_phi(POINT, POINT)


def test_sphere_borel_module():
    module = borel_module(builtin_triangulation(SurfaceKind.sphere()))
    assert module.dims == [1, 1, 1, 0, 0]
    assert [rank(m) for m in module.alpha_maps[:3]] == [1, 1, 0]
    assert module.towers == [Tower(0, 3)]
    assert sw_height(module) == 2


def test_torus_borel_module():
    module = borel_module(builtin_triangulation(SurfaceKind.orientable(1)))
    assert module.dims == [1, 3, 4, 2, 0]
    assert module.towers == [
        Tower(0, 3),
        Tower(1, 1),
        Tower(1, 1),
        Tower(2, 1),
        Tower(2, 2),
        Tower(2, 2),
    ]
    assert sw_height(module) == 2


def test_projective_plane_borel_module():
    module = borel_module(builtin_triangulation(SurfaceKind.nonorientable(1)))
    assert module.dims == [1, 2, 2, 1, 0]
    assert module.towers == [Tower(0, 4), Tower(1, 1), Tower(2, 1)]
    assert sw_height(module) == 3


def test_module_dims_match_quotient_betti():
    for kind in (SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)):
        K = builtin_triangulation(kind)
        quotient = cohomology_f2(orbit_quotient(deleted_product(K)))
        assert borel_module(K).dims == quotient.dims


def test_euler_identity_on_module():
    for kind in (SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)):
        chi = kind.euler
        assert borel_module(builtin_triangulation(kind)).euler == (chi * chi - chi) // 2


def test_connecting_map_rejects_every_incidence_moved_between_fold_and_phi():
    """One incidence of the torus's Q moved from F to Phi or back, the boundary kept, fails the chain-map check."""
    Q = quotient_complex(builtin_triangulation(SurfaceKind.orientable(1)))
    moves = 0
    for d, B in enumerate(Q.boundaries):
        for i, row in enumerate(B.data):
            for j in ones(row):
                data = list(Q.folded[d].data)
                data[i] ^= 1 << j
                folded = Q.folded[:d] + [Mat2(B.rows, B.cols, data)] + Q.folded[d + 1 :]
                with pytest.raises(RuntimeError, match="fails to commute"):
                    equivariant_cochain_complex(CellComplex(Q.cells, Q.boundaries, folded=folded))
                moves += 1
    assert moves == 1260


def test_connecting_map_needs_the_folded_faces():
    Q = quotient_complex(builtin_triangulation(SurfaceKind.sphere()))
    with pytest.raises(ValueError, match="folded faces"):
        equivariant_cochain_complex(CellComplex(Q.cells, Q.boundaries))
    # a folded face must be a face: the complement of each boundary row has ones at cells that are none
    off = [Mat2(B.rows, B.cols, [~b & (1 << B.cols) - 1 for b in B.data]) for B in Q.boundaries]
    with pytest.raises(ValueError, match="not faces of the boundary"):
        CellComplex(Q.cells, Q.boundaries, folded=off)


def test_alpha_rejects_an_image_off_the_cocycles():
    Q = quotient_complex(builtin_triangulation(SurfaceKind.sphere()))
    phi = equivariant_cochain_complex(Q)
    # the unit cocycle goes to a single edge, and an edge of a triangle is no cocycle
    bad = np.zeros(phi[0].shape, dtype=np.uint8)
    bad[0, 0] = 1
    with pytest.raises(RuntimeError):
        equivariant_cohomology_with_alpha([from_dense(bad)] + phi[1:], cohomology_f2(Q))


def test_smith_gysin_check_rejects_wrong_counts():
    module = borel_module(builtin_triangulation(SurfaceKind.orientable(1)))
    dims, free = [1, 4, 5, 2, 0], [0, 2, 1, 0, 0]
    check_smith_gysin(module, dims, free)
    with pytest.raises(RuntimeError):
        check_smith_gysin(module, [1, 4, 6, 2, 0], free)
    with pytest.raises(RuntimeError):
        check_smith_gysin(module, dims, [0, 1, 1, 0, 0])


def test_cover_counts_of_torus():
    module = borel_module(builtin_triangulation(SurfaceKind.orientable(1)))
    assert cover_counts(module) == [(1, 0), (4, 2), (5, 1), (2, 0), (0, 0)]


@pytest.mark.parametrize(
    "label,ranks",
    [
        ("sphere", [0, 0, 1, 0, 0]),
        ("orientable:1", [0, 2, 2, 2, 0]),
        ("orientable:2", [0, 4, 7, 4, 0]),
        ("nonorientable:3", [0, 3, 4, 3, 0]),
    ],
)
def test_norm_classes_span_ker_alpha(label, ranks):
    assert norm_check(builtin_triangulation(SurfaceKind.from_label(label))) == ranks


def test_norm_check_needs_restriction_to_be_onto():
    """On the theta graph (K4 minus an edge) H^1 of the deleted product has dim 5 but H^1(K x K) only 4.

    Restriction from K x K is not onto there, so the norm classes cannot
    span ker alpha and the check raises on correct input: its premise
    holds for closed manifolds, not for every complex.
    """
    theta = SimplicialComplex(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(RuntimeError, match="^norm map check fails in degree 1: the norm classes span 2 dimensions, ker alpha has 3$"):
        norm_check(theta)


def test_norm_check_rejects_a_corrupted_alpha():
    K = builtin_triangulation(SurfaceKind.orientable(1))
    module = borel_module(K)
    maps = list(module.alpha_maps)
    maps[1] = Mat2.zeros(*maps[1].shape)
    with pytest.raises(RuntimeError, match="norm map check fails in degree 1"):
        norm_check(K, A=AlphaModule(dims=module.dims, alpha_maps=maps))


def test_norm_check_rejects_a_norm_class_off_the_cocycles():
    K = builtin_triangulation(SurfaceKind.orientable(1))
    HK = cohomology_f2(simplicial_cell_complex(K))
    # a single vertex is no cocycle of K, so its norms with other classes need not be cocycles of Q
    point = np.zeros((1, K.vertex_count), dtype=np.uint8)
    point[0, 0] = 1
    bad = HK._replace(cocycle_basis=[from_dense(point)] + HK.cocycle_basis[1:])
    with pytest.raises(RuntimeError, match="not a cocycle"):
        norm_check(K, HK=bad)


def test_decompose_full_tower():
    maps = [Mat2.identity(1), Mat2.identity(1), Mat2.zeros(0, 1), Mat2.zeros(0, 0)]
    module = AlphaModule(dims=[1, 1, 1, 0, 0], alpha_maps=maps)
    assert module_decompose(module) == [Tower(0, 3)]


def test_decompose_rejects_inconsistent_maps():
    """The module cuts its towers when it is built, so maps that are no module's action never make one."""
    # the map claims rank two out of a one-dimensional degree
    with pytest.raises(RuntimeError, match="^negative tower count at start 0 length 1: inconsistent action maps$"):
        AlphaModule(dims=[1, 1, 0, 0, 0], alpha_maps=[
            Mat2.identity(2),
            Mat2.zeros(0, 2),
            Mat2.zeros(0, 0),
            Mat2.zeros(0, 0),
        ])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decomposed_towers_always_cover_the_dims(data):
    """The tower counts telescope to r(m, 0) - r(-1, m + 1) = dims[m] in degree m, so whenever
    module_decompose returns (the module calls it when built), even on dims that disagree with the
    maps' shapes, coverage equals dims."""
    widths = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
    n = len(widths)
    dims = data.draw(st.one_of(st.just(widths), st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    maps = [
        Mat2(rows, cols, data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)))
        for cols, rows in zip(widths, widths[1:])
    ]
    try:
        towers = AlphaModule(dims=dims, alpha_maps=maps).towers
    except RuntimeError:
        return
    assert [sum(t.start <= m < t.start + t.length for t in towers) for m in range(len(dims))] == dims


def test_height_requires_connected_degree_zero():
    module = AlphaModule(dims=[2, 0, 0, 0, 0], alpha_maps=[
        Mat2.zeros(0, 2), Mat2.zeros(0, 0), Mat2.zeros(0, 0), Mat2.zeros(0, 0),
    ])
    with pytest.raises(ValueError):
        sw_height(module)
