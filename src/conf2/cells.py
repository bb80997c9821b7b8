"""Cell complexes over F2: orbit complexes, deleted products, cohomology.

The deleted product of a simplicial complex K, of any dimension, has
one cell per ordered pair of disjoint simplices, and the factor swap is
a cellwise free involution.  Its orbit complex Q, with one cell per
unordered pair, is what the oracle computes with: `quotient_complex`
builds it in one walk over the numbering `SimplicialComplex` gives K
(vertex masks and face numbers), labels each cell by a pair of simplex
numbers, and records the faces the quotient folded, which carry the
connecting map of the transfer sequence on cocycles.  Every complex
here holds each cell's faces as a tuple of cell indices, as K does;
a boundary matrix is built only for the elimination that reads it.
Cohomology is computed with explicit cocycle representatives: one
elimination per boundary matrix gives the coboundaries, the cocycles
and the classes.  The result keeps the representatives and the
lowest-one table of the coboundaries, and solves later cocycles for
their classes against the two.  The deleted product itself, labelled by
vertex tuples, built by the product face rule and carrying the swap,
stays as the reference route the tests compare with; its callers push
the swap onto its cohomology with `induced_involution`.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .gf2 import (  # select_independent_rows, solve_many: not run here; kept importable under their traced names
    Mat2,
    _reduce,
    eliminate,
    permute,
    select_independent_rows,
    solve_many,
)
from .simplicial import SimplicialComplex

__all__ = [
    "CellComplex",
    "CohomologyResult",
    "incidence",
    "product_faces",
    "quotient_complex",
    "deleted_product",
    "deleted_product_euler",
    "predicted_quotient_cells",
    "simplicial_cell_complex",
    "cohomology_f2",
    "induced_involution",
]


class CellComplex:
    """Chain complex of F2 vector spaces with labeled cells per dimension, each cell with its faces.

    faces[d][j] is the tuple of (d-1)-cell indices on the boundary of
    d-cell j; a 0-cell has none.  The boundary is held as these lists
    only: `boundary(d)` builds its matrix on each call and keeps none.
    involution, when given, is one permutation (a sequence of cell
    indices) per dimension; it must square to the identity and carry
    each cell's faces onto the faces of its image, both checked here.
    folded, when given, lists per cell the faces an orbit complex folded
    (see `quotient_complex`), which must be among its faces, also
    checked here.
    """

    def __init__(self, cells, faces, involution=None, folded=None):
        self.cells = [list(level) for level in cells]
        self.faces = [list(level) for level in faces]
        self.involution = None
        self.folded = None
        if len(self.faces) != len(self.cells):
            raise ValueError("one face list per dimension is required")
        low: list = []
        for d, level in enumerate(self.faces):
            named = list(filter(None, level))  # the cells with faces
            lo, hi = (min(map(min, named)), max(map(max, named))) if named else (0, -1)
            if len(level) != len(self.cells[d]) or lo < 0 or hi >= len(low):
                raise ValueError(f"faces at dimension {d} do not list one tuple of (d-1)-cells per cell")
            # Each face of a face must be met an even number of times: sorted, the list pairs off.
            for fs in level if d > 1 else ():
                met = sorted([g for f in fs for g in low[f]])
                if met[0::2] != met[1::2]:
                    raise RuntimeError(f"boundary squared is nonzero at dimension {d}")
            low = level
        if involution is not None:
            involution = [[int(i) for i in perm] for perm in involution]
            if len(involution) != len(self.cells):
                raise ValueError("one involution permutation per dimension is required")
            for d, perm in enumerate(involution):
                n = len(self.cells[d])
                if len(perm) != n:
                    raise ValueError(f"involution at dimension {d} has the wrong length")
                if any(not 0 <= i < n for i in perm) or [perm[i] for i in perm] != list(range(n)):
                    raise ValueError(f"involution at dimension {d} does not square to the identity")
            for d in range(1, len(self.cells)):
                lower, level = involution[d - 1], self.faces[d]
                if any(sorted(lower[f] for f in fs) != sorted(level[i]) for fs, i in zip(level, involution[d])):
                    raise RuntimeError(f"involution does not commute with the boundary at dimension {d}")
            self.involution = involution
        if folded is not None:
            folded = [list(level) for level in folded]
            if [len(level) for level in folded] != [len(level) for level in self.faces]:
                raise ValueError("one folded list per cell is required")
            for d, (level, faces) in enumerate(zip(folded, self.faces)):
                if any(f not in fs for fo, fs in zip(level, faces) for f in fo):
                    raise ValueError(f"folded faces at dimension {d} are not faces of the boundary")
            self.folded = folded

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, d: int) -> int:
        if 0 <= d <= self.top_dim:
            return len(self.cells[d])
        return 0

    def boundary(self, d: int) -> Mat2:
        """The boundary from d-chains to (d-1)-chains, one int row per (d-1)-cell, built on each call.

        Above the top dimension it has no columns.
        """
        return incidence(self.faces[d] if 0 <= d <= self.top_dim else [], self.n_cells(d - 1))

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    @property
    def euler(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.cells))

    def is_free(self) -> bool:
        return self.involution is not None and all(i != j for perm in self.involution for i, j in enumerate(perm))


def incidence(faces, rows: int) -> Mat2:
    """The rows x len(faces) matrix with a one at (f, j) for each f in faces[j], one int row per f."""
    data = [0] * rows
    for j, fs in enumerate(faces):
        bit = 1 << j
        for f in fs:
            data[f] ^= bit
    return Mat2(rows, len(faces), data)


def product_faces(s: tuple, t: tuple) -> list[tuple]:
    """Codimension-one faces of the product cell s x t, as ordered pairs.

    Over F2 no signs appear: the faces are (f, t) for each facet f of s
    and (s, f) for each facet f of t; a vertex factor has none.  Only the
    reference route, `deleted_product`, applies this rule face by face.
    """
    faces = [(f, t) for f in combinations(s, len(s) - 1)] if len(s) > 1 else []
    if len(t) > 1:
        faces.extend((s, f) for f in combinations(t, len(t) - 1))
    return faces


def _disjoint_pairs(K: SimplicialComplex, d: int):
    """Ordered pairs (s, t) of disjoint simplices with dim s + dim t = d.

    Listed by (dim s, index s, index t), the cell order of the deleted
    product.
    """
    top = len(K.levels) - 1
    for ds in range(max(0, d - top), min(d, top) + 1):
        for s in K.levels[ds]:
            sset = set(s)
            for t in K.levels[d - ds]:
                if sset.isdisjoint(t):
                    yield s, t


def quotient_complex(K: SimplicialComplex) -> CellComplex:
    """Orbit complex of the deleted product, built from K's numbering alone in one walk over integer keys.

    One cell per unordered pair {s, t} of disjoint simplices is labelled
    (s, t) by their numbers in K, with s < t, the member of its swap
    orbit the deleted product lists first, and keyed s * N + t, N the
    number of simplices.  Each face of the product cell is replaced by
    its orbit: (f, t), f a face of s, is a cell, and (s, f), f a face of
    t, is the cell (s, f) when s < f and (f, s) otherwise.  Cells and
    boundaries equal the orbit complex of `deleted_product(K)` under its
    swap, with each simplex written as its number.

    The walk owns the fold: the faces (f, s) it stores for a face (s, f),
    f < s, are the ones the quotient folded, and it records them as the
    complex's `folded` part F of each cell's faces.  The rest of the
    boundary is the connecting map of the transfer sequence, so on
    cocycles F is that map (`borel.equivariant_cochain_complex`).
    """
    top = len(K.levels) - 1
    start, masks, faces = K.offsets, K.masks, K.faces
    N = len(masks)
    cells, q_faces, folded, row_of = [], [], [], {}
    for d in range(2 * top + 1):
        # by (dim s, s, t), with dim s <= dim t and s < t: the deleted product's cell order
        pairs, level, fold_level = [], [], []
        for ds in range(max(0, d - top), d // 2 + 1):
            for s in range(start[ds], start[ds + 1]):
                m, sN = masks[s], s * N
                for t in range(max(s + 1, start[d - ds]), start[d - ds + 1]):
                    if m & masks[t]:
                        continue
                    kept, fold = [row_of[f * N + t] for f in faces[s]], []
                    for f in faces[t]:
                        if s < f:
                            kept.append(row_of[sN + f])
                        else:
                            fold.append(row_of[f * N + s])
                    pairs.append((s, t))
                    level.append((*kept, *fold))
                    fold_level.append(tuple(fold))
        row_of = {s * N + t: i for i, (s, t) in enumerate(pairs)}
        cells.append(pairs)
        q_faces.append(level)
        folded.append(fold_level)
    return CellComplex(cells, q_faces, folded=folded)


def predicted_quotient_cells(vertices: int, chi: int) -> int:
    """The cells of `quotient_complex` on a closed surface triangulation of `vertices` vertices and
    Euler characteristic chi whose vertices all have one degree; no such triangulation has more.

    With V = vertices and n = V - chi there are E = 3n edges and T = 2n triangles.  The ordered pairs of
    simplices that meet number V + E - 2T + 4 sum deg(v)^2, so the disjoint ones, twice Q's cells,
    number (V + 5n)^2 + n - V - 4 sum deg(v)^2.  The degrees sum to 6n, so sum deg(v)^2 >= 36n^2 / V,
    with equality when all are equal.
    """
    n = vertices - chi
    return (vertices * ((vertices + 5 * n) ** 2 + n - vertices) - 144 * n * n) // (2 * vertices)


def deleted_product_euler(K: SimplicialComplex) -> int:
    """Euler characteristic of the deleted product, counted over all ordered disjoint pairs of K."""
    signed = [(1 - 2 * (d & 1), m) for d in range(len(K.levels)) for m in K.masks[K.offsets[d] : K.offsets[d + 1]]]
    return sum(x * y for x, m in signed for y, n in signed if not m & n)


def deleted_product(K: SimplicialComplex) -> CellComplex:
    """Cells are ordered pairs of disjoint simplices; swap is free.

    The reference route: the oracle runs on `quotient_complex(K)`, which
    never builds this complex.
    """
    cells = [list(_disjoint_pairs(K, d)) for d in range(2 * len(K.levels) - 1)]
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    involution = [[index[d][(t, s)] for (s, t) in cells[d]] for d in range(len(cells))]
    faces = [[tuple(index[d - 1][f] for f in product_faces(s, t)) for s, t in level] for d, level in enumerate(cells)]
    out = CellComplex(cells, faces, involution)
    if not out.is_free():
        raise RuntimeError("deleted product involution has a fixed cell")
    return out


def simplicial_cell_complex(K: SimplicialComplex) -> CellComplex:
    """K as a cell complex: cells are its simplices in K's own order."""
    start = K.offsets
    faces = [K.faces[start[d] : start[d + 1]] for d in range(len(K.levels))]
    return CellComplex(K.levels, [[tuple(f - start[d - 1] for f in fs) for fs in lv] for d, lv in enumerate(faces)])


class CohomologyResult(NamedTuple):
    """Per-degree class representatives, and the lowest-one tables that solve for classes.

    cocycle_basis[d] holds cocycles whose classes form a basis, in
    ascending lowest one, no two sharing one; coboundaries[d] is the
    lowest-one table {lowest one: row} of the coboundaries B^d, and the
    representatives vanish on its keys.
    """

    cocycle_basis: list[Mat2]
    coboundaries: list[dict[int, int]]

    @property
    def dims(self) -> list[int]:
        return [reps.rows for reps in self.cocycle_basis]

    def solve(self, d: int, cochains: Mat2) -> Mat2:
        """Class coordinates of the degree-d cocycles in the rows of cochains, one row each.

        The coboundaries and the representatives share one lowest-one
        table, representative k tagged with bit k above the cochain
        width.  A row reduced against it leaves its coordinates in the
        tags; a nonzero cochain part left means the row is no cocycle
        and raises RuntimeError.
        """
        n = self.cocycle_basis[d].cols
        table = dict(self.coboundaries[d])
        for k, rep in enumerate(self.cocycle_basis[d].data):
            table[(rep & -rep).bit_length() - 1] = rep | 1 << n + k
        coords = []
        for x in cochains.data:
            x = _reduce(x, table)
            if x & (1 << n) - 1:
                raise RuntimeError(f"a row is not a cocycle in degree {d}")
            coords.append(x >> n)
        return Mat2(cochains.rows, self.dims[d], coords)


def cohomology_f2(C: CellComplex) -> CohomologyResult:
    """Cohomology over F2 from one elimination per boundary matrix.

    Degree by degree, eliminating boundary d+1 (one row per d-cell)
    gives the lowest-one table of B^{d+1} and, in its row transform, the
    cocycles Z^d.  Only the rows off the keys of B^d's table E are
    eliminated (clearing): the row of E keyed p is a cocycle with lowest
    one p, so from the highest key down each keyed row of the boundary
    is a sum of kept rows, which span B^{d+1}.  The cocycles supported
    on them vanish on E's keys, where every nonzero coboundary has its
    lowest one, so their echelon basis is a set of class
    representatives.  The kept rows go in from the last cell down, so a
    row's transform is its own cell plus later ones: a row reducing to
    zero keeps its cell as pivot and meets no other representative,
    which keeps the representatives sparse.
    """
    reps, cobs, E = [], [], {}
    for d in range(C.top_dim + 1):
        n = C.n_cells(d)
        cobs.append(E)
        keep = [i for i in reversed(range(n)) if i not in E]
        transform = Mat2(len(keep), n, [1 << i for i in keep])
        E, classes = eliminate(C.boundary(d + 1).take_rows(keep), transform)
        reps.append(Mat2(len(classes), n, [classes[p] for p in sorted(classes)]))
    return CohomologyResult(reps, cobs)


def induced_involution(C: CellComplex, H: CohomologyResult) -> list[Mat2]:
    """Push the cell involution onto cohomology in the representative basis.

    Raises RuntimeError when a mapped representative fails to be a
    cocycle, or when the induced map is not an involution; those signal
    a boundary/involution mismatch.
    """
    if C.involution is None:
        raise ValueError("complex has no involution")
    out: list[Mat2] = []
    for d in range(C.top_dim + 1):
        k = H.dims[d]
        reps = H.cocycle_basis[d]
        swapped = Mat2(reps.rows, reps.cols, [permute(x, C.involution[d]) for x in reps.data])
        ind = H.solve(d, swapped).transpose()
        if ind.mul(ind) != Mat2.identity(k):
            raise RuntimeError(f"induced involution fails to square to one in degree {d}")
        out.append(ind)
    return out


