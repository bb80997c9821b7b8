"""Equivariant pipeline: transfer sequence, polynomial action, towers, height."""

import numpy as np
import pytest

from conf2.borel import (
    AlphaModule,
    SWHeight,
    Tower,
    check_smith_gysin,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    module_decompose,
    sw_height,
)
from conf2.cells import CellComplex, cohomology_f2, deleted_product, quotient_complex
from conf2.gf2 import Mat2, rank
from conf2.simplicial import SimplicialComplex, builtin_triangulation
from conf2.surfaces import SurfaceKind


def borel_module(C: CellComplex):
    """The alpha-module of a free involution through its orbit complex."""
    Q = quotient_complex(C)
    phi = equivariant_cochain_complex(C, Q)
    return equivariant_cohomology_with_alpha(phi, cohomology_f2(Q, with_involution=False))


POINT = CellComplex([["p"]], [Mat2.zeros(0, 1)])


def antipodal_circle() -> CellComplex:
    """Square circle with the antipode: two vertices, two edges, free swap."""
    boundary = Mat2.from_dense(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    return CellComplex(
        [["p", "q"], ["a", "b"]],
        [Mat2.zeros(0, 2), boundary],
        involution=[np.array([1, 0]), np.array([1, 0])],
    )


def test_point_pair_has_contractible_quotient():
    C = deleted_product(SimplicialComplex(2, [(0, 1)]))
    module = borel_module(C)
    assert module.dims == [1, 0, 0]
    assert module.towers == [Tower(0, 1)]
    assert str(sw_height(module)) == "0"


def test_antipodal_circle_gives_circle():
    module = borel_module(antipodal_circle())
    assert module.dims == [1, 1]
    assert module.towers == [Tower(0, 2)]
    assert sw_height(module).value == 1


def test_fixed_point_action_rejected():
    fixed = CellComplex(
        [["p", "q"]],
        [Mat2.zeros(0, 2)],
        involution=[np.array([0, 1])],
    )
    with pytest.raises(ValueError):
        equivariant_cochain_complex(fixed, POINT)


def test_missing_involution_rejected():
    with pytest.raises(ValueError):
        equivariant_cochain_complex(POINT, POINT)


def test_sphere_borel_module():
    C = deleted_product(builtin_triangulation(SurfaceKind.sphere()))
    module = borel_module(C)
    assert module.dims == [1, 1, 1, 0, 0]
    assert [rank(m) for m in module.alpha_maps[:3]] == [1, 1, 0]
    assert module.towers == [Tower(0, 3)]
    assert sw_height(module).value == 2


def test_torus_borel_module():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    module = borel_module(C)
    assert module.dims == [1, 3, 4, 2, 0]
    assert module.towers == [
        Tower(0, 3),
        Tower(1, 1),
        Tower(1, 1),
        Tower(2, 1),
        Tower(2, 2),
        Tower(2, 2),
    ]
    assert sw_height(module).value == 2


def test_projective_plane_borel_module():
    C = deleted_product(builtin_triangulation(SurfaceKind.nonorientable(1)))
    module = borel_module(C)
    assert module.dims == [1, 2, 2, 1, 0]
    assert module.towers == [Tower(0, 4), Tower(1, 1), Tower(2, 1)]
    assert sw_height(module).value == 3


def test_module_dims_match_quotient_betti():
    for kind in (SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)):
        C = deleted_product(builtin_triangulation(kind))
        quotient = cohomology_f2(quotient_complex(C), with_involution=False)
        assert borel_module(C).dims == quotient.dims


def test_euler_identity_on_module():
    for kind in (SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)):
        chi = kind.euler
        C = deleted_product(builtin_triangulation(kind))
        assert borel_module(C).euler == (chi * chi - chi) // 2


def test_connecting_map_rejects_a_relabelled_quotient():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    Q = quotient_complex(C)
    order = np.arange(Q.n_cells(0))[::-1]
    relabelled = CellComplex(
        [Q.cells[0][::-1]] + Q.cells[1:],
        [Q.boundaries[0], Mat2.from_dense(Q.boundaries[1].to_dense()[order])] + Q.boundaries[2:],
    )
    with pytest.raises(RuntimeError):
        equivariant_cochain_complex(C, relabelled)


def test_alpha_rejects_an_image_off_the_cocycles():
    C = deleted_product(builtin_triangulation(SurfaceKind.sphere()))
    Q = quotient_complex(C)
    phi = equivariant_cochain_complex(C, Q)
    # the unit cocycle goes to a single edge, and an edge of a triangle is no cocycle
    bad = np.zeros(phi[0].shape, dtype=np.uint8)
    bad[0, 0] = 1
    with pytest.raises(RuntimeError):
        equivariant_cohomology_with_alpha([Mat2.from_dense(bad)] + phi[1:], cohomology_f2(Q, with_involution=False))


def test_smith_gysin_check_rejects_wrong_counts():
    module = borel_module(deleted_product(builtin_triangulation(SurfaceKind.orientable(1))))
    dims, free = [1, 4, 5, 2, 0], [0, 2, 1, 0, 0]
    check_smith_gysin(module, dims, free)
    with pytest.raises(RuntimeError):
        check_smith_gysin(module, [1, 4, 6, 2, 0], free)
    with pytest.raises(RuntimeError):
        check_smith_gysin(module, dims, [0, 1, 1, 0, 0])


def test_decompose_full_tower():
    maps = [Mat2.identity(1), Mat2.identity(1), Mat2.zeros(0, 1), Mat2.zeros(0, 0)]
    module = AlphaModule(dims=[1, 1, 1, 0, 0], alpha_maps=maps)
    assert module_decompose(module) == [Tower(0, 3)]


def test_decompose_rejects_inconsistent_maps():
    # the map claims rank two out of a one-dimensional degree
    module = AlphaModule(dims=[1, 1, 0, 0, 0], alpha_maps=[
        Mat2.identity(2),
        Mat2.zeros(0, 2),
        Mat2.zeros(0, 0),
        Mat2.zeros(0, 0),
    ])
    with pytest.raises(RuntimeError):
        module_decompose(module)


def test_height_requires_connected_degree_zero():
    module = AlphaModule(dims=[2, 0, 0, 0, 0], alpha_maps=[
        Mat2.zeros(0, 2), Mat2.zeros(0, 0), Mat2.zeros(0, 0), Mat2.zeros(0, 0),
    ])
    with pytest.raises(ValueError):
        sw_height(module)
