"""Orbit complexes, deleted products, their cohomology, and the swap."""

import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2.cells import (
    CellComplex,
    CohomologyResult,
    cohomology_f2,
    deleted_product,
    induced_involution,
    predicted_quotient_cells,
    product_faces,
    quotient_complex,
)
from conf2.conf_symbolic import conf_cohomology, rep_decompose
from conf2.gf2 import Mat2, eliminate, invert, rank
from conf2.simplicial import SimplicialComplex, builtin_triangulation, irreducible, read_triangulation, vertex_bound
from conf2.surfaces import SurfaceKind
from dp_reference import orbit_quotient, reference_classes
from gf2_reference import (
    echelon,
    from_boundaries,
    from_dense,
    is_echelon_form_of,
    is_table_of,
    lowest_one,
    mul_vec,
    reference_rref,
    stack,
    to_dense,
)
from known_answers import sphere_boundary, staircase_product
from tri_reference import barycentric_subdivide

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")


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
        delta = C.boundary(d + 1).transpose()
        reps = result.cocycle_basis[d]
        for row in to_dense(reps):
            assert not mul_vec(delta, row).any()
        # classes stay independent modulo coboundaries
        coboundaries = echelon(result.coboundaries[d], reps.cols)
        assert rank(stack(coboundaries, reps)) == coboundaries.rows + reps.rows


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
    got = [rep_decompose(dim, mat) for dim, mat in zip(result.dims, induced_involution(C, result))]
    assert got == expected


def test_induced_swap_squares_to_identity():
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    for d, mat in enumerate(induced_involution(C, result)):
        assert mat.mul(mat) == Mat2.identity(result.dims[d])


def test_oracle_matches_symbolic_for_torus():
    sym = conf_cohomology(SurfaceKind.orientable(1))
    C = deleted_product(builtin_triangulation(SurfaceKind.orientable(1)))
    result = cohomology_f2(C)
    assert result.dims == sym.dims()
    swaps = induced_involution(C, result)
    for d in range(5):
        assert rep_decompose(result.dims[d], swaps[d]) == (sym.rows[d].t, sym.rows[d].f)


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


@pytest.mark.parametrize(
    "label",
    ["sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3", "orientable:16"],
)
def test_predicted_quotient_cells_bound_the_counted_ones(label):
    """At the vertex bound, where `irreducible` takes these surfaces, the prediction from chi alone is at
    least the unordered disjoint pairs of the reduced K, and within 4% of them (equal where every vertex
    has one degree); with the actual degrees the pair count the prediction rests on is exact."""
    kind = SurfaceKind.from_label(label)
    K = irreducible(builtin_triangulation(kind))
    V, chi = K.vertex_count, K.euler
    assert V == vertex_bound(chi, kind.family != "nonorientable")
    counted = sum(1 for a in K.masks for b in K.masks if not a & b) // 2
    if label != "orientable:16":  # the count needs no Q; the sweep's small ones confirm it
        assert sum(quotient_complex(K).cell_counts()) == counted
    degrees = [sum(v in e for e in K.simplices(1)) for v in range(V)]
    n = V - chi
    assert (V + 5 * n) ** 2 + n - V - 4 * sum(d * d for d in degrees) == 2 * counted
    predicted = predicted_quotient_cells(V, chi)
    assert counted <= predicted <= 1.04 * counted
    assert (predicted == counted) == (len(set(degrees)) == 1)


def inclusion_exclusion_cells(K: SimplicialComplex) -> int:
    """Q's cells counted from K's faces alone: (N^2 - sum over faces r of (-1)^dim r st(r)^2) / 2.

    N is the number of simplices and st(r) the number of simplices containing the face r.  Two simplices
    that meet share a face, and over the nonempty faces of that face the signs sum to 1, so the sum
    counts the ordered pairs that meet; the disjoint ones pair off under the swap.
    """
    simplices = [s for level in K.levels for s in level]
    star = Counter(r for s in simplices for k in range(1, len(s) + 1) for r in combinations(s, k))
    meeting = sum((-1) ** (len(r) - 1) * n * n for r, n in star.items())
    return (len(simplices) ** 2 - meeting) // 2


@pytest.mark.parametrize("label", SWEEP)
def test_walk_counts_the_cells_inclusion_exclusion_does(label):
    K = builtin_triangulation(SurfaceKind.from_label(label))
    for L in (K, irreducible(K)):
        assert sum(quotient_complex(L).cell_counts()) == inclusion_exclusion_cells(L)


def test_walk_counts_the_cells_inclusion_exclusion_does_on_files_and_known_answers(tmp_path):
    invocation = workloads.make_invocation("file_oracle", 3, tmp_path / "inputs", tmp_path)
    complexes = [read_triangulation(tmp_path / label) for label in invocation.labels]
    complexes += [sphere_boundary(3), staircase_product(sphere_boundary(2), sphere_boundary(1))]
    counts = [inclusion_exclusion_cells(K) for K in complexes]
    assert [sum(quotient_complex(K).cell_counts()) for K in complexes] == counts
    assert counts[-2:] == [90, 6520]  # the boundary of the 4-simplex, and the 12-vertex S^2 x S^1


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
    circle = from_boundaries(
        [["p", "q"], ["a", "b"]],
        [Mat2(0, 2), from_dense(np.array([[1, 1], [1, 1]], dtype=np.uint8))],
        involution=[np.array([0, 1]), np.array([1, 0])],
    )
    with pytest.raises(ValueError):
        orbit_quotient(circle)


def test_involution_must_commute_with_boundary():
    # boundary sends the edge to p + q; swapping only the vertices breaks it
    with pytest.raises(RuntimeError):
        from_boundaries(
            [["p", "q"], ["a"]],
            [Mat2(0, 2), from_dense(np.array([[1], [0]], dtype=np.uint8))],
            involution=[np.array([1, 0]), np.array([0])],
        )


def test_involution_must_be_permutation_involution():
    with pytest.raises(ValueError):
        from_boundaries(
            [["p", "q", "r"]],
            [Mat2(0, 3)],
            involution=[np.array([1, 2, 0])],
        )


def test_boundary_squared_checked():
    with pytest.raises(RuntimeError):
        from_boundaries(
            [["v"], ["e"], ["f"]],
            [
                Mat2(0, 1),
                from_dense(np.array([[1]], dtype=np.uint8)),
                from_dense(np.array([[1]], dtype=np.uint8)),
            ],
        )


def test_subdivision_smoke_test_on_sphere():
    K = barycentric_subdivide(builtin_triangulation(SurfaceKind.sphere()))
    C = deleted_product(K)
    assert C.euler == 2
    assert cohomology_f2(C).dims == [1, 0, 1, 0, 0]


def _bits(draw, rows: int, cols: int) -> np.ndarray:
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(bits, dtype=np.int64).reshape(rows, cols)


def _invertible(draw, n: int) -> Mat2:
    """L P U, L unit lower and U unit upper triangular, P a permutation: every invertible matrix has this form."""
    eye = np.eye(n, dtype=np.int64)
    perm = eye[np.asarray(draw(st.permutations(range(n))), dtype=np.int64)]
    return from_dense((np.tril(_bits(draw, n, n), -1) + eye) @ perm @ (np.triu(_bits(draw, n, n), 1) + eye) % 2)


@st.composite
def chain_complexes(draw, top=3, max_part=2):
    """A random chain complex and its Betti numbers.

    Each degree d of the standard complex holds classes[d] cells without
    boundary or coboundary, sources[d] cells whose boundaries are the
    last sources[d] cells of degree d - 1, and those targets; random
    changes of basis A_d make the boundaries A_{d-1} S_d A_d^{-1}.
    """
    classes = [draw(st.integers(0, max_part)) for _ in range(top + 1)]
    sources = [0] + [draw(st.integers(0, max_part)) for _ in range(top)] + [0]
    sizes = [classes[d] + sources[d] + sources[d + 1] for d in range(top + 1)]
    bases = [_invertible(draw, n) for n in sizes]
    boundaries = [Mat2(0, sizes[0])]
    for d in range(1, top + 1):
        standard = np.zeros((sizes[d - 1], sizes[d]), dtype=np.uint8)
        standard[sizes[d - 1] - sources[d] :, classes[d] : classes[d] + sources[d]] = np.eye(sources[d], dtype=np.uint8)
        boundaries.append(bases[d - 1].mul(from_dense(standard)).mul(invert(bases[d])))
    return from_boundaries([list(range(n)) for n in sizes], boundaries), classes


@settings(deadline=None, max_examples=100)
@given(chain_complexes())
def test_random_complex_dims_satisfy_rank_nullity(case):
    C, betti = case
    H = cohomology_f2(C)
    assert H.dims == betti
    for d in range(C.top_dim + 1):
        rank_next = rank(C.boundary(d + 1))
        assert len(H.coboundaries[d]) == rank(C.boundary(d))
        assert H.dims[d] == C.n_cells(d) - rank_next - len(H.coboundaries[d])


@settings(deadline=None, max_examples=100)
@given(chain_complexes())
def test_solve_matches_the_stacked_system_and_rejects_non_cocycles(case):
    C, _ = case
    H = cohomology_f2(C)
    for d in range(C.top_dim + 1):
        n = C.n_cells(d)
        cochains = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        delta = to_dense(C.boundary(d + 1))
        closed = ~(cochains @ delta % 2).any(axis=1)
        cocycles = from_dense(cochains[closed])
        expected = reference_classes(H, d, cocycles)
        assert to_dense(H.solve(d, cocycles)).tolist() == [sol.tolist() for sol in expected]
        for row in cochains[~closed]:
            assert reference_classes(H, d, from_dense(row[None])) == [None]
            with pytest.raises(RuntimeError, match="not a cocycle"):
                H.solve(d, from_dense(row[None]))


def full_rows_cohomology(C: CellComplex) -> CohomologyResult:
    """`cohomology_f2` without clearing: every row of each boundary is eliminated.

    The transform is the identity of C^d with row p_k replaced by
    e_{p_k} + E[k], E the reduced row-echelon basis of B^d with pivots
    p_k, from the column-loop reference, so that the classes vanish on
    B^d's pivots as the clearing route's do.
    """
    reps, cobs, E = [], [], {}
    for d in range(C.top_dim + 1):
        n = C.n_cells(d)
        cobs.append(E)
        transform = Mat2.identity(n)
        for p, e in zip(sorted(E), reference_rref(echelon(E, n))[0].data):
            transform.data[p] ^= e
        E, classes = eliminate(C.boundary(d + 1), transform)
        reps.append(echelon(classes, n))
    return CohomologyResult(reps, cobs)


def assert_clearing_matches_full_rows(C: CellComplex) -> None:
    """Both routes give the same lowest ones, and echelon bases and tables of the same spaces keyed by them.

    The clearing route's solve agrees with the stacked system on every
    cocycle of the full-rows bases.
    """
    H, full = cohomology_f2(C), full_rows_cohomology(C)
    for d in range(C.top_dim + 1):
        n = C.n_cells(d)
        assert H.coboundaries[d].keys() == full.coboundaries[d].keys()
        assert list(map(lowest_one, H.cocycle_basis[d].data)) == list(map(lowest_one, full.cocycle_basis[d].data))
        assert is_table_of(H.coboundaries[d], echelon(full.coboundaries[d], n))
        assert is_echelon_form_of(H.cocycle_basis[d], full.cocycle_basis[d])
        cocycles = stack(full.cocycle_basis[d], echelon(full.coboundaries[d], n))
        expected = [sol.tolist() for sol in reference_classes(H, d, cocycles)]
        assert to_dense(H.solve(d, cocycles)).tolist() == expected


@settings(deadline=None, max_examples=100)
@given(chain_complexes())
def test_clearing_matches_full_rows_on_random_complexes(case):
    C, _ = case
    assert_clearing_matches_full_rows(C)


@pytest.mark.parametrize(
    "kind", [SurfaceKind.orientable(g) for g in (1, 2, 3)] + [SurfaceKind.nonorientable(g) for g in (1, 2, 3)]
)
def test_clearing_matches_full_rows_on_orbit_complexes(kind):
    assert_clearing_matches_full_rows(quotient_complex(builtin_triangulation(kind)))
