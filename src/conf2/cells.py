"""Cell complexes over F2: deleted products, cohomology, quotients.

The deleted product of a triangulated surface has one cell per ordered
pair of disjoint simplices; the factor swap is a cellwise free
involution.  Cohomology is computed with explicit cocycle
representatives so the involution can be pushed onto cohomology and the
quotient complex gives an independent count for the unordered space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf2 import (
    Mat2,
    Subspace,
    kernel_basis,
    select_independent_rows,
    solve_many,
)
from .simplicial import SimplicialComplex

__all__ = [
    "CellComplex",
    "CohomologyResult",
    "deleted_product",
    "cohomology_f2",
    "induced_involution",
    "orbit_representatives",
    "quotient_complex",
]


class CellComplex:
    """Chain complex of F2 vector spaces with labeled cells per dimension.

    boundaries[d] maps d-chains to (d-1)-chains; boundaries[0] has no
    rows.  involution, when given, is one permutation array per
    dimension; it must square to the identity and commute with the
    boundary, both checked here.
    """

    def __init__(self, cells, boundaries, involution=None):
        self.cells = [list(level) for level in cells]
        self.boundaries = list(boundaries)
        self.involution = None
        if len(self.boundaries) != len(self.cells):
            raise ValueError("one boundary matrix per dimension is required")
        for d, B in enumerate(self.boundaries):
            prev = len(self.cells[d - 1]) if d >= 1 else 0
            if B.shape != (prev, len(self.cells[d])):
                raise ValueError(f"boundary {d} has shape {B.shape}, expected {(prev, len(self.cells[d]))}")
        for d in range(1, len(self.boundaries)):
            if not self.boundaries[d - 1].mul(self.boundaries[d]).is_zero():
                raise RuntimeError(f"boundary squared is nonzero at dimension {d}")
        if involution is not None:
            involution = [np.asarray(p, dtype=np.int64) for p in involution]
            if len(involution) != len(self.cells):
                raise ValueError("one involution permutation per dimension is required")
            for d, perm in enumerate(involution):
                n = len(self.cells[d])
                if perm.shape != (n,):
                    raise ValueError(f"involution at dimension {d} has the wrong length")
                if n and not np.array_equal(perm[perm], np.arange(n)):
                    raise ValueError(f"involution at dimension {d} does not square to the identity")
            for d in range(1, len(self.cells)):
                Bd = self.boundaries[d].to_dense()
                if not np.array_equal(Bd[:, involution[d]], Bd[involution[d - 1], :]):
                    raise RuntimeError(f"involution does not commute with the boundary at dimension {d}")
            self.involution = involution

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, d: int) -> int:
        if 0 <= d <= self.top_dim:
            return len(self.cells[d])
        return 0

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    @property
    def euler(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.cells))

    def is_free(self) -> bool:
        if self.involution is None:
            return False
        return all(
            not np.any(perm == np.arange(len(perm))) if len(perm) else True
            for perm in self.involution
        )

    def __repr__(self) -> str:
        return f"CellComplex(counts={self.cell_counts()}, involution={self.involution is not None})"


def deleted_product(K: SimplicialComplex) -> CellComplex:
    """Cells are ordered pairs of disjoint simplices; swap is free.

    The boundary of a product cell is the product rule applied to the
    two factors; over F2 no signs appear.
    """
    top = max((len(f) for f in K.facets), default=1) - 1
    total = 2 * top
    cells: list[list[tuple]] = []
    index: list[dict] = []
    for d in range(total + 1):
        level = []
        for ds in range(min(d, top) + 1):
            dt = d - ds
            if dt > top:
                continue
            for s in K.simplices(ds):
                sset = set(s)
                for t in K.simplices(dt):
                    if sset.isdisjoint(t):
                        level.append((s, t))
        cells.append(level)
        index.append({c: i for i, c in enumerate(level)})
    boundaries = [Mat2.zeros(0, len(cells[0]))]
    for d in range(1, total + 1):
        dense = np.zeros((len(cells[d - 1]), len(cells[d])), dtype=np.uint8)
        prev = index[d - 1]
        for j, (s, t) in enumerate(cells[d]):
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    dense[prev[(face, t)], j] ^= 1
            if len(t) > 1:
                for face in combinations(t, len(t) - 1):
                    dense[prev[(s, face)], j] ^= 1
        boundaries.append(Mat2.from_dense(dense))
    involution = [
        np.array([index[d][(t, s)] for (s, t) in cells[d]], dtype=np.int64)
        for d in range(total + 1)
    ]
    out = CellComplex(cells, boundaries, involution)
    if not out.is_free():
        raise RuntimeError("deleted product involution has a fixed cell")
    return out


@dataclass
class CohomologyResult:
    """Per-degree dims with cocycle representatives.

    cocycle_basis[d] rows are cocycles whose classes form a basis;
    coboundary_basis[d] rows span the coboundaries (used to reduce
    mapped representatives); induced_involution is filled when the
    complex carries one.
    """

    dims: list[int]
    cocycle_basis: list[Mat2]
    coboundary_basis: list[Mat2]
    induced_involution: list[Mat2] | None = None

    @property
    def euler(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.dims))


def cohomology_f2(C: CellComplex, with_involution: bool = True) -> CohomologyResult:
    """Cohomology over F2 with representative cocycles per degree."""
    dims: list[int] = []
    reps: list[Mat2] = []
    cobs: list[Mat2] = []
    for d in range(C.top_dim + 1):
        n = C.n_cells(d)
        if d < C.top_dim:
            Z = kernel_basis(C.boundaries[d + 1].transpose())
        else:
            Z = Mat2.identity(n)
        cob = Subspace.spanned_by(n, C.boundaries[d]).basis
        stacked = Mat2.vstack([cob, Z])
        keep = select_independent_rows(stacked)
        chosen = [i - cob.rows for i in keep if i >= cob.rows]
        if len([i for i in keep if i < cob.rows]) != cob.rows:
            raise RuntimeError("coboundary basis rows were not retained")
        rep = Z.take_rows(chosen)
        dims.append(rep.rows)
        reps.append(rep)
        cobs.append(cob)
    result = CohomologyResult(dims=dims, cocycle_basis=reps, coboundary_basis=cobs)
    if with_involution and C.involution is not None:
        result.induced_involution = induced_involution(C, result)
    return result


def induced_involution(C: CellComplex, H: CohomologyResult) -> list[Mat2]:
    """Push the cell involution onto cohomology in the representative basis.

    Raises RuntimeError when a mapped representative fails to be a
    cocycle or leaves the span, or when the induced map is not an
    involution; those signal a boundary/involution mismatch.
    """
    if C.involution is None:
        raise ValueError("complex has no involution")
    out: list[Mat2] = []
    for d in range(C.top_dim + 1):
        reps = H.cocycle_basis[d]
        k = reps.rows
        if k == 0:
            out.append(Mat2.zeros(0, 0))
            continue
        perm = C.involution[d]
        mapped = reps.to_dense()[:, perm]
        if d < C.top_dim:
            delta = C.boundaries[d + 1].transpose()
            for row in mapped:
                if delta.mul_vec(row).any():
                    raise RuntimeError(f"mapped representative is not a cocycle in degree {d}")
        system = Mat2.vstack([reps, H.coboundary_basis[d]]).transpose()
        sols = solve_many(system, Mat2.from_dense(mapped))
        cols = np.zeros((k, k), dtype=np.uint8)
        for j, sol in enumerate(sols):
            if sol is None:
                raise RuntimeError(f"mapped representative left the span in degree {d}")
            cols[:, j] = sol[:k]
        ind = Mat2.from_dense(cols)
        if ind.mul(ind) != Mat2.identity(k):
            raise RuntimeError(f"induced involution fails to square to one in degree {d}")
        out.append(ind)
    return out


def orbit_representatives(C: CellComplex) -> list[np.ndarray]:
    """Per dimension, the cells i with i < involution(i), ascending.

    One cell of each orbit of a free involution; the orbit complex and
    the transfer sequence both number the orbits in this order.  Raises
    ValueError without an involution or on a fixed cell.
    """
    if C.involution is None:
        raise ValueError("complex has no involution")
    reps = []
    for d, perm in enumerate(C.involution):
        ids = np.arange(len(perm))
        if np.any(perm == ids):
            raise ValueError(f"free action violated: fixed cell in dimension {d}")
        reps.append(np.flatnonzero(ids < perm))
    return reps


def quotient_complex(C: CellComplex) -> CellComplex:
    """One cell per involution orbit; boundary descends orbitwise.

    Requires a fixed-point-free involution; computing cohomology of the
    result gives the unordered-space Betti numbers.
    """
    rep_lists = orbit_representatives(C)
    orbit_of: list[np.ndarray] = []
    for perm, reps in zip(C.involution, rep_lists):
        idx = np.empty(len(perm), dtype=np.int64)
        idx[reps] = np.arange(len(reps))
        idx[perm[reps]] = np.arange(len(reps))
        orbit_of.append(idx)
    cells = [[C.cells[d][i] for i in rep_lists[d]] for d in range(C.top_dim + 1)]
    boundaries = [Mat2.zeros(0, len(cells[0]))]
    for d in range(1, C.top_dim + 1):
        dense = C.boundaries[d].to_dense()[:, rep_lists[d]]
        acc = np.zeros((len(cells[d - 1]), dense.shape[1]), dtype=np.int64)
        np.add.at(acc, orbit_of[d - 1], dense)
        boundaries.append(Mat2.from_dense((acc & 1).astype(np.uint8)))
    return CellComplex(cells, boundaries)
