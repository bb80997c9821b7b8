"""The deleted-product route to the oracle's numbers, kept as a test-only reference.

The oracle builds the orbit complex Q straight from the triangulation
and reads the ordered space's cohomology off the transfer sequence.
This module keeps the older route the tests compare it with: the
deleted product dp with its swap, one representative cell per orbit,
Q folded from dp's boundary, the connecting map Phi as dp's boundary
on the representatives, and H*(dp) with the induced swap, which gives
the conf rows and the Smith-Gysin counts.  It also keeps the rule that
read the folded faces of `quotient_complex(K)` off its cell labels,
which the walk that builds Q now records itself, and the old way of
solving cocycles for their classes, against the stacked cocycle and
coboundary bases, which `CohomologyResult.solve` replaced.
"""

from functools import lru_cache

import numpy as np

from conf2.borel import AlphaModule, equivariant_cohomology_with_alpha
from conf2.cells import CellComplex, CohomologyResult, cohomology_f2, deleted_product, incidence, induced_involution
from conf2.conf_symbolic import rep_decompose
from conf2.gf2 import Mat2, rank, solve_many
from conf2.simplicial import builtin_triangulation
from conf2.surfaces import SurfaceKind
from gf2_reference import bits, echelon, entries, from_boundaries, from_entries, stack


def reference_classes(H: CohomologyResult, d: int, cochains: Mat2) -> list[np.ndarray | None]:
    """Class coordinates of each row of cochains, None for a row off the cocycles.

    Solves against [cocycles; coboundaries] of degree d, transposed and
    eliminated afresh on every call.
    """
    reps = H.cocycle_basis[d]
    system = stack(reps, echelon(H.coboundaries[d], reps.cols)).transpose()
    return [None if sol is None else bits(sol, system.cols)[: H.dims[d]] for sol in solve_many(system, cochains)]


def orbit_representatives(C: CellComplex) -> list[np.ndarray]:
    """Per dimension, the cells i with i < involution(i), ascending.

    One cell of each orbit of a free involution; the orbit complex and
    the transfer sequence both number the orbits in this order.  Raises
    ValueError without an involution or on a fixed cell.
    """
    if C.involution is None:
        raise ValueError("complex has no involution")
    reps = []
    for d, perm in enumerate(np.asarray(p, dtype=np.int64) for p in C.involution):
        ids = np.arange(len(perm))
        if np.any(perm == ids):
            raise ValueError(f"free action violated: fixed cell in dimension {d}")
        reps.append(np.flatnonzero(ids < perm))
    return reps


def _positions(reps: np.ndarray, n: int) -> np.ndarray:
    """Position of each of n cells among reps, -1 off reps."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    return pos


def orbit_quotient(C: CellComplex) -> CellComplex:
    """One cell per involution orbit; the boundary descends orbitwise.

    Works on the ones of C's boundary, never on a dense copy, so that
    deleted products of tens of thousands of cells fit in memory.
    """
    rep_lists = orbit_representatives(C)
    orbit_of: list[np.ndarray] = []
    for perm, reps in zip((np.asarray(p, dtype=np.int64) for p in C.involution), rep_lists):
        idx = np.empty(len(perm), dtype=np.int64)
        idx[reps] = np.arange(len(reps))
        idx[perm[reps]] = np.arange(len(reps))
        orbit_of.append(idx)
    cells = [[C.cells[d][i] for i in rep_lists[d]] for d in range(C.top_dim + 1)]
    boundaries = [Mat2(0, len(cells[0]))]
    for d in range(1, C.top_dim + 1):
        i, j = entries(C.boundary(d))
        col = _positions(rep_lists[d], C.n_cells(d))[j]
        on_rep = col >= 0
        boundaries.append(from_entries(len(cells[d - 1]), len(cells[d]), orbit_of[d - 1][i[on_rep]], col[on_rep]))
    return from_boundaries(cells, boundaries)


def transfer_phi(C: CellComplex, Q: CellComplex) -> list[Mat2]:
    """Phi_n: the boundary of C on the degree-n and degree-(n+1) representatives.

    Q is `orbit_quotient(C)`.  Raises ValueError when the involution of
    C is missing or has a fixed cell, and RuntimeError when Phi fails to
    commute with the coboundary of Q.
    """
    reps = orbit_representatives(C)
    phi = []
    for n in range(C.top_dim):
        i, j = entries(C.boundary(n + 1))
        row = _positions(reps[n], C.n_cells(n))[i]
        col = _positions(reps[n + 1], C.n_cells(n + 1))[j]
        both = (row >= 0) & (col >= 0)
        phi.append(from_entries(len(reps[n]), len(reps[n + 1]), row[both], col[both]))
    for n in range(C.top_dim - 1):
        if phi[n].mul(Q.boundary(n + 2)) != Q.boundary(n + 1).mul(phi[n + 1]):
            raise RuntimeError(f"connecting map fails to commute with the coboundary at degree {n}")
    return phi


def folded_by_label(Q: CellComplex) -> list[Mat2]:
    """The folded part of each boundary matrix of Q = `quotient_complex(K)`, read off its cell labels.

    Q's cells are pairs of K's simplex numbers.  Q stores a face (s, f)
    of the representative (s, t) as (f, s) when f < s, so a face (a, b)
    of (s, t) is folded exactly when b = s: row (a, b) of F keeps the
    boundary's ones in the columns whose first member is b.
    """
    folded = [Q.boundary(0)]
    for d in range(1, len(Q.cells)):
        first: dict = {}
        for j, (s, _) in enumerate(Q.cells[d]):
            first[s] = first.get(s, 0) | 1 << j
        B = Q.boundary(d)
        folded.append(Mat2(B.rows, B.cols, [row & first.get(b, 0) for row, (_, b) in zip(B.data, Q.cells[d - 1])]))
    return folded


def matrices(Q: CellComplex) -> tuple[list[Mat2], list[Mat2]]:
    """Q's boundary matrices, one per dimension, and the matrices of its folded faces, of the same shapes."""
    folded = [incidence(level, Q.n_cells(d - 1)) for d, level in enumerate(Q.folded)]
    return [Q.boundary(d) for d in range(len(Q.cells))], folded


def alpha_module(C: CellComplex) -> AlphaModule:
    """The alpha-module of a free involution through its folded orbit complex."""
    Q = orbit_quotient(C)
    return equivariant_cohomology_with_alpha(transfer_phi(C, Q), cohomology_f2(Q))


def conf_rows(C: CellComplex, H: CohomologyResult) -> list[tuple[int, int, int]]:
    """(dim, t, f) per degree of the cohomology H of C, with the swap C carries."""
    return [(dim, *rep_decompose(dim, swap)) for dim, swap in zip(H.dims, induced_involution(C, H))]


def check_smith_gysin(A: AlphaModule, cover_dims: list[int], free: list[int]) -> None:
    """Raise RuntimeError unless the cover's cohomology fits the transfer sequence.

    Exactness gives, with a_n the rank of alpha_n,
    dim H^n(cover) = 2 dim H^n(Q) - a_{n-1} - a_n, and the number of free
    summands of H^n(cover) under the involution equals the number of
    towers of length one starting in degree n.
    """
    ranks = [rank(m) for m in A.alpha_maps]

    def a(n: int) -> int:
        return ranks[n] if 0 <= n < len(ranks) else 0

    for n, h in enumerate(A.dims):
        expected = 2 * h - a(n - 1) - a(n)
        if cover_dims[n] != expected:
            raise RuntimeError(
                f"Smith-Gysin count fails in degree {n}: cover has dimension {cover_dims[n]}, "
                f"the transfer sequence gives {expected}"
            )
        singles = sum(1 for t in A.towers if t.start == n and t.length == 1)
        if free[n] != singles:
            raise RuntimeError(
                f"Smith-Gysin free count fails in degree {n}: {free[n]} free summands, "
                f"{singles} towers of length one"
            )


@lru_cache(maxsize=None)
def builtin_reference(label: str) -> tuple[CellComplex, CohomologyResult]:
    """The deleted product of a builtin surface, carrying the swap, and its cohomology."""
    dp = deleted_product(builtin_triangulation(SurfaceKind.from_label(label)))
    return dp, cohomology_f2(dp)
