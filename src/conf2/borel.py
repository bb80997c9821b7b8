"""The alpha-action of the swap on the orbit complex, from its transfer sequence; towers.

For the deleted product dp of a triangulation K and its orbit complex Q,
pulling back along the quotient map and summing over each orbit give
the exact sequence 0 -> C*(Q) -> C*(dp) -> C*(Q) -> 0.  Over F2 its
connecting map H^n(Q) -> H^{n+1}(Q) is multiplication by alpha, the
first Stiefel-Whitney class of the double cover.  On cochains it is
Q's boundary without the faces the quotient folded, which the walk
that builds Q records as F.  On a cocycle z, z boundary = 0, so the
class alpha [z] is [z F]: F alone carries alpha, and it is a cochain
map because the connecting map is.
Composite ranks of alpha cut H*(Q) into truncated polynomial towers,
whose head tower measures the height; Q has no cells above its top
dimension, so the towers are exact.  Exactness also gives
the cohomology of dp with its swap (`cover_counts`), and the norm map
from H*(K) x H*(K) checks alpha without using F (`check_norm_map`).
Both alpha and the norm check solve their cocycles for classes with
`CohomologyResult.solve`, by reduction against the lowest-one pivot
tables that computing H*(Q) left behind, never by a new elimination.
"""

from __future__ import annotations

from typing import NamedTuple

from .cells import CellComplex, CohomologyResult, incidence
from .gf2 import (  # solve_many: not run here; kept importable under its traced name
    Mat2,
    from_ones,
    rank,
    solve_many,
    xor_rows,
)
from .simplicial import SimplicialComplex

__all__ = [
    "AlphaModule",
    "Tower",
    "equivariant_cochain_complex",
    "equivariant_cohomology_with_alpha",
    "cover_counts",
    "check_norm_map",
    "module_decompose",
    "sw_height",
]


class Tower(NamedTuple):
    """Cyclic summand over the polynomial generator: start degree, length."""

    start: int
    length: int


class AlphaModule:
    """Graded module: dims per degree, the degree-raising maps, towers.

    alpha_maps[n] maps degree n to degree n+1 in the representative
    bases; the module vanishes above its last degree.  The composite
    ranks every reader of the module needs, and the towers they cut it
    into, are computed once, here; maps that are no module's action
    raise RuntimeError (`module_decompose`).
    """

    def __init__(self, dims: list[int], alpha_maps: list[Mat2]):
        self.dims = dims
        self.alpha_maps = alpha_maps
        self._ranks: dict[tuple[int, int], int] = {}
        N = len(dims) - 1
        for n in range(N + 1):
            self._ranks[(n, 0)] = self.dims[n]
            comp: Mat2 | None = None
            for ell in range(1, N - n + 1):
                step = self.alpha_maps[n + ell - 1]
                comp = step if comp is None else step.mul(comp)
                self._ranks[(n, ell)] = rank(comp)
        self.towers: list[Tower] = module_decompose(self)

    def rank(self, n: int, ell: int) -> int:
        """Rank of alpha^ell out of degree n; 0 outside the module."""
        return self._ranks.get((n, ell), 0)

    @property
    def euler(self) -> int:
        return sum((-1) ** n * d for n, d in enumerate(self.dims))


def equivariant_cochain_complex(Q: CellComplex) -> list[Mat2]:
    """The folded faces F_n : C^n(Q) -> C^{n+1}(Q), a cochain map that carries alpha on cocycles.

    Q is `quotient_complex(K)`, whose walk recorded the folded faces F
    of each cell: the faces (s, f) of the representatives (s, t) that Q
    stores as (f, s).  Entry n is the matrix of F on the (n+1)-cells, and
    a row cochain z maps to z.mul(entry n).  The connecting map of the
    transfer sequence is d - F, and it commutes with Q's coboundary
    exactly when F does, d F = F d, which is checked cell by cell before
    any matrix is built: the faces of the folded faces of a cell and the
    folded faces of its faces must pair off.  Raises ValueError when Q
    carries no folded faces and RuntimeError when the check fails.
    """
    if Q.folded is None:
        raise ValueError("the connecting map needs the folded faces that quotient_complex records")
    faces, folded = Q.faces, Q.folded
    for d in range(2, len(faces)):
        low, low_folded = faces[d - 1], folded[d - 1]
        for fs, fo in zip(faces[d], folded[d]):
            met = [g for f in fo for g in low[f]] + [g for f in fs for g in low_folded[f]]
            met.sort()
            if met[0::2] != met[1::2]:
                raise RuntimeError(f"connecting map fails to commute with the coboundary at degree {d - 2}")
    return [incidence(folded[d], Q.n_cells(d - 1)) for d in range(1, len(folded))]


def equivariant_cohomology_with_alpha(F: list[Mat2], H: CohomologyResult) -> AlphaModule:
    """H*(Q) with the action alpha_n [z] = [z F_n] and its towers.

    H is the cohomology of the orbit complex and F the maps from
    `equivariant_cochain_complex`; the connecting map d - F agrees with
    them on cocycles and may stand in for them.  The images of the
    cocycle representatives are solved for their degree-(n+1) classes
    with `H.solve`, which raises RuntimeError when one is not a cocycle.
    """
    alpha_maps = [H.solve(n + 1, H.cocycle_basis[n].mul(F[n])).transpose() for n in range(len(H.dims) - 1)]
    return AlphaModule(dims=list(H.dims), alpha_maps=alpha_maps)


def module_decompose(A: AlphaModule) -> list[Tower]:
    """Cut the module into towers from composite ranks of the action.

    The count of towers of exact length ell starting in degree n is
    determined by the rank table; a negative count means the maps are
    not the action of a graded module and raises RuntimeError.  The
    counts telescope: the towers covering degree m number
    r(m, 0) - r(-1, m + 1) = dims[m], so they always rebuild the dims.
    """
    N = len(A.dims) - 1
    r = A.rank
    towers: list[Tower] = []
    for n in range(N + 1):
        for ell in range(1, N - n + 2):
            count = (r(n, ell - 1) - r(n, ell)) - (r(n - 1, ell) - r(n - 1, ell + 1))
            if count < 0:
                raise RuntimeError(
                    f"negative tower count at start {n} length {ell}: inconsistent action maps"
                )
            towers.extend(Tower(n, ell) for _ in range(count))
    return sorted(towers, key=lambda t: (t.start, t.length))


def cover_counts(A: AlphaModule) -> list[tuple[int, int]]:
    """Per degree n, dim H^n of the double cover and its free summands under the deck swap.

    Exactness of the transfer sequence gives, with a_n the rank of
    alpha_n, dim H^n(cover) = 2 dim H^n(Q) - a_{n-1} - a_n.  The free
    summands of H^n(cover) are the image of the norm, the towers of
    length one starting in degree n.
    """
    return [
        (2 * h - A.rank(n - 1, 1) - A.rank(n, 1), sum(1 for t in A.towers if t.start == n and t.length == 1))
        for n, h in enumerate(A.dims)
    ]


def check_norm_map(
    K: SimplicialComplex, HK: CohomologyResult, Q: CellComplex, HQ: CohomologyResult, A: AlphaModule
) -> list[int]:
    """Per degree, the rank of the norm classes; RuntimeError unless they span ker alpha.

    HK is the cohomology of `simplicial_cell_complex(K)`, Q the orbit
    complex, whose cells are pairs of K's simplex numbers, and HQ its
    cohomology; a p-cocycle of K, shifted up by K.offsets[p], is a mask
    over those numbers.  Cocycles a, b of K give the Q-cochain
    {s, t} -> a(s)b(t) + a(t)b(s), the transfer of the cross product a x b
    restricted to the deleted product.  For a closed manifold K,
    restriction from K x K onto the deleted product is onto in cohomology
    and the transfer's image is ker alpha, so these classes span ker
    alpha_n in every degree n; on other K (the theta graph) they need not.
    Each one is solved for its class with `HQ.solve`, which raises
    RuntimeError when it is no cocycle.  F is not used.
    """
    reps = [HK.cocycle_basis[p].data for p in range(len(HK.dims))]
    ranks = [0] * len(Q.cells)
    for n, cells in enumerate(Q.cells):
        if not cells:
            continue
        # on_s[a] (on_t[a]): the cells whose s (t) is simplex number a, as a mask over the cells
        on_s, on_t = [[] for _ in range(K.offsets[-1])], [[] for _ in range(K.offsets[-1])]
        for c, (s, t) in enumerate(cells):
            on_s[s].append(c)
            on_t[t].append(c)
        on_s = [from_ones(c) for c in on_s]
        on_t = [from_ones(c) for c in on_t]
        # S[p][i] (T[p][i]): the cells {s, t} with the p-cocycle i equal to 1 on s (on t)
        S = [[xor_rows(on_s, a << K.offsets[p]) for a in reps[p]] for p in range(len(reps))]
        T = [[xor_rows(on_t, a << K.offsets[p]) for a in reps[p]] for p in range(len(reps))]
        rows = []
        # norm(a, b) = norm(b, a) and norm(a, a) = 0: take p <= n - p, and i < j when p = n - p.
        for p in range(max(0, n - len(reps) + 1), n // 2 + 1):
            q = n - p
            for i in range(len(reps[p])):
                for j in range(i + 1 if p == q else 0, len(reps[q])):
                    rows.append(S[p][i] & T[q][j] ^ S[q][j] & T[p][i])
        got = rank(HQ.solve(n, Mat2(len(rows), len(cells), rows)))
        expected = HQ.dims[n] - A.rank(n, 1)
        if got != expected:
            raise RuntimeError(
                f"norm map check fails in degree {n}: the norm classes span {got} dimensions, "
                f"ker alpha has {expected}"
            )
        ranks[n] = got
    return ranks


def sw_height(A: AlphaModule) -> int:
    """Height of the unit class: the largest power of the polynomial generator not killing it."""
    if not A.dims or A.dims[0] != 1:
        raise ValueError("height needs a connected degree zero")
    return max(ell for ell in range(len(A.dims)) if A.rank(0, ell) >= 1)
