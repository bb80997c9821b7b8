"""The orbit-complex route against the deleted-product reference, number for number.

`quotient_complex(K)`, the connecting map d - F formed from the folded
faces F its walk records, the conf rows read off the transfer sequence
and the pair count must equal what the deleted product gives: its orbit
complex folded from its boundary, its boundary on the orbit
representatives, its cohomology with the induced swap, and its Euler
characteristic.  The folded faces must also be those the cell labels
name, and on every cocycle representative F must agree with d - F,
which is why alpha needs F alone.  Q labels
its cells by pairs of K's simplex numbers and the reference by pairs of
vertex tuples, so the comparison writes each number as its simplex.  Besides the
builtin surfaces up to genus and crosscap count 3, three files run:
a randomly relabelled torus, and relabelled barycentric subdivisions of
the sphere and of the torus, so that simplex order and vertex labels
differ from the builtin ones.  Four complexes that are no surfaces run
as well, so that `quotient_complex` also meets edge-only complexes, a
pendant edge, several components and an isolated vertex.

The subdivided torus has a deleted product of 56,112 cells, whose
cohomology is out of reach of a quick test.  Its conf rows are compared
with those of the builtin torus instead: the deleted product of any
triangulation of M is an equivariant deformation retract of Conf(2, M),
so its cohomology with the swap depends on M alone.
"""

from functools import lru_cache

import pytest

from conf2.borel import cover_counts, equivariant_cochain_complex, equivariant_cohomology_with_alpha
from conf2.cells import cohomology_f2, deleted_product, deleted_product_euler, quotient_complex
from conf2.gf2 import Mat2
from conf2.simplicial import SimplicialComplex, builtin_triangulation, read_triangulation
from conf2.surfaces import SurfaceKind
from dp_reference import (
    builtin_reference,
    check_smith_gysin,
    conf_rows,
    folded_by_label,
    matrices,
    orbit_quotient,
    transfer_phi,
)
from tri_reference import barycentric_subdivide, format_triangulation, relabelled

BUILTIN = (
    "sphere",
    "orientable:1",
    "orientable:2",
    "orientable:3",
    "nonorientable:1",
    "nonorientable:2",
    "nonorientable:3",
)
# The oracle sweep's surfaces, a subset of BUILTIN.
SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")
FILES = ("relabelled torus", "relabelled subdivided sphere", "relabelled subdivided torus")
# The builtin surface whose deleted-product cohomology stands in for a file's own.
SAME_SURFACE = {"relabelled subdivided torus": "orientable:1"}
NOT_SURFACES = {
    "path": SimplicialComplex(3, [(0, 1), (1, 2)]),
    "triangle with a pendant edge": SimplicialComplex(4, [(0, 1, 2), (2, 3)]),
    "two disjoint edges": SimplicialComplex(4, [(0, 1), (2, 3)]),
    "isolated vertex beside a triangle": SimplicialComplex(4, [(0, 1, 2), (3,)]),
}


@lru_cache(maxsize=None)
def case(label: str, tmp_dir):
    """K, its deleted product dp, dp's conf rows (see SAME_SURFACE), Q from K and Q folded from dp."""
    if label in BUILTIN:
        K = builtin_triangulation(SurfaceKind.from_label(label))
        dp, H = builtin_reference(label)
        return K, dp, conf_rows(dp, H), quotient_complex(K), orbit_quotient(dp)
    if label in NOT_SURFACES:
        K = NOT_SURFACES[label]
        dp = deleted_product(K)
        return K, dp, conf_rows(dp, cohomology_f2(dp)), quotient_complex(K), orbit_quotient(dp)
    if label == "relabelled torus":
        K = relabelled(builtin_triangulation(SurfaceKind.orientable(1)), seed=7)
    elif label == "relabelled subdivided sphere":
        K = relabelled(barycentric_subdivide(builtin_triangulation(SurfaceKind.sphere())), seed=11)
    else:
        K = relabelled(barycentric_subdivide(builtin_triangulation(SurfaceKind.orientable(1))), seed=13)
    path = tmp_dir / (label.replace(" ", "_") + ".tri")
    path.write_text(format_triangulation(K))
    K = read_triangulation(path)
    dp = deleted_product(K)
    if label in SAME_SURFACE:
        rows = conf_rows(*builtin_reference(SAME_SURFACE[label]))
    else:
        rows = conf_rows(dp, cohomology_f2(dp))
    return K, dp, rows, quotient_complex(K), orbit_quotient(dp)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("triangulations")


LABELS = BUILTIN + FILES + tuple(NOT_SURFACES)


@pytest.mark.parametrize("label", LABELS)
def test_quotient_matches_folded_deleted_product(label, tmp_dir):
    """Q's cells, pairs of simplex numbers, name the pairs of vertex tuples the reference lists, in its order."""
    K, _, _, Q, ref = case(label, tmp_dir)
    simplices = [s for level in K.levels for s in level]
    assert [[(simplices[s], simplices[t]) for s, t in level] for level in Q.cells] == ref.cells
    assert all(Q.boundary(d) == ref.boundary(d) for d in range(len(ref.cells)))


@pytest.mark.parametrize("label", SWEEP + FILES[1:])
def test_walk_folds_the_faces_the_labels_name(label, tmp_dir):
    Q = case(label, tmp_dir)[3]
    assert matrices(Q)[1] == folded_by_label(Q)


@lru_cache(maxsize=None)
def quotient_cohomology(label: str, tmp_dir):
    return cohomology_f2(case(label, tmp_dir)[3])


def boundary_without_fold(Q) -> list[Mat2]:
    """d - F on each boundary of Q past the first: the connecting map of the transfer sequence."""
    boundaries, folded = matrices(Q)
    return [Mat2(B.rows, B.cols, [b ^ f for b, f in zip(B.data, F.data)]) for B, F in zip(boundaries[1:], folded[1:])]


@pytest.mark.parametrize("label", LABELS)
def test_connecting_map_matches_deleted_product(label, tmp_dir):
    _, dp, _, Q, ref = case(label, tmp_dir)
    assert boundary_without_fold(Q) == transfer_phi(dp, ref)


@pytest.mark.parametrize("label", LABELS)
def test_folded_faces_agree_with_the_connecting_map_on_cocycles(label, tmp_dir):
    """z F = z (d - F) for every cocycle representative z, as z d = 0: the folded faces alone carry alpha."""
    Q = case(label, tmp_dir)[3]
    H = quotient_cohomology(label, tmp_dir)
    F = equivariant_cochain_complex(Q)
    phi = boundary_without_fold(Q)
    assert len(F) == len(phi) == len(H.dims) - 1
    for n in range(len(F)):
        assert H.cocycle_basis[n].mul(F[n]) == H.cocycle_basis[n].mul(phi[n])


@pytest.mark.parametrize("label", LABELS)
def test_gysin_conf_rows_match_deleted_product_cohomology(label, tmp_dir):
    _, _, rows, Q, _ = case(label, tmp_dir)
    A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), quotient_cohomology(label, tmp_dir))
    gysin = [(dim, dim - 2 * free, free) for dim, free in cover_counts(A)]
    assert gysin == rows
    check_smith_gysin(A, [dim for dim, _, _ in rows], [f for _, _, f in rows])


@pytest.mark.parametrize("label", LABELS)
def test_pair_count_matches_deleted_product_euler(label, tmp_dir):
    K, dp, *_ = case(label, tmp_dir)
    assert deleted_product_euler(K) == dp.euler
