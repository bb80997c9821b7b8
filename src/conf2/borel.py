"""The alpha-action of a free involution from its transfer sequence; towers.

For a complex C with a free involution and orbit complex Q, pulling back
along the quotient map and summing over each orbit give the exact
sequence 0 -> C*(Q) -> C*(C) -> C*(Q) -> 0.  Over F2 its connecting map
H^n(Q) -> H^{n+1}(Q) is multiplication by alpha, the first
Stiefel-Whitney class of the double cover.  On cochains it is Phi_n: lift
a Q-cochain onto one representative cell per orbit, take the coboundary
in C, and read the result back on the representatives.  Composite ranks
of alpha cut H*(Q) into truncated polynomial towers, whose head tower
measures the height.  Q has no cells above its top dimension, so the
towers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import CellComplex, CohomologyResult, orbit_representatives
from .gf2 import Mat2, rank, solve_many

__all__ = [
    "AlphaModule",
    "Tower",
    "SWHeight",
    "equivariant_cochain_complex",
    "equivariant_cohomology_with_alpha",
    "check_smith_gysin",
    "module_decompose",
    "sw_height",
]


@dataclass(frozen=True)
class Tower:
    """Cyclic summand over the polynomial generator: start degree, length."""

    start: int
    length: int


@dataclass
class AlphaModule:
    """Graded module: dims per degree, the degree-raising maps, towers.

    alpha_maps[n] maps degree n to degree n+1 in the representative
    bases; the module vanishes above its last degree.
    """

    dims: list[int]
    alpha_maps: list[Mat2]
    towers: list[Tower] = field(default_factory=list)

    @property
    def euler(self) -> int:
        return sum((-1) ** n * d for n, d in enumerate(self.dims))


@dataclass(frozen=True)
class SWHeight:
    """Largest power of the polynomial generator not killing the unit."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


def equivariant_cochain_complex(C: CellComplex, Q: CellComplex) -> list[Mat2]:
    """Connecting maps Phi_n : C^n(Q) -> C^{n+1}(Q) of the transfer sequence.

    Q is the orbit complex `quotient_complex(C)`.  Entry n is the boundary
    of C restricted to the degree-n representative rows and the
    degree-(n+1) representative columns, so a row cochain z maps to
    z.mul(entry n).  Raises ValueError when the involution of C is
    missing or has a fixed cell, and RuntimeError when Phi fails to
    commute with the coboundary of Q.
    """
    reps = orbit_representatives(C)
    phi = [
        Mat2.from_dense(C.boundaries[n + 1].to_dense()[np.ix_(reps[n], reps[n + 1])])
        for n in range(C.top_dim)
    ]
    for n in range(C.top_dim - 1):
        if phi[n].mul(Q.boundaries[n + 2]) != Q.boundaries[n + 1].mul(phi[n + 1]):
            raise RuntimeError(f"connecting map fails to commute with the coboundary at degree {n}")
    return phi


def equivariant_cohomology_with_alpha(phi: list[Mat2], H: CohomologyResult) -> AlphaModule:
    """H*(Q) with the action alpha_n = [Phi_n] and its towers.

    H is the cohomology of the orbit complex and phi its connecting maps.
    Each image Phi_n z of a cocycle representative is solved against the
    degree-(n+1) cocycle and coboundary bases; no solution means Phi_n z
    is not a cocycle and raises RuntimeError.
    """
    alpha_maps: list[Mat2] = []
    for n in range(len(H.dims) - 1):
        reps = H.cocycle_basis[n]
        nxt = H.dims[n + 1]
        system = Mat2.vstack([H.cocycle_basis[n + 1], H.coboundary_basis[n + 1]]).transpose()
        sols = solve_many(system, reps.mul(phi[n]))
        cols = np.zeros((nxt, reps.rows), dtype=np.uint8)
        for j, sol in enumerate(sols):
            if sol is None:
                raise RuntimeError(f"connecting map sends a degree-{n} cocycle off the cocycles")
            cols[:, j] = sol[:nxt]
        alpha_maps.append(Mat2.from_dense(cols))

    module = AlphaModule(dims=list(H.dims), alpha_maps=alpha_maps)
    module.towers = module_decompose(module)
    return module


def _rank_lookup(A: AlphaModule):
    N = len(A.dims) - 1
    table: dict[tuple[int, int], int] = {}
    for n in range(N + 1):
        table[(n, 0)] = A.dims[n]
        comp: Mat2 | None = None
        for ell in range(1, N - n + 1):
            step = A.alpha_maps[n + ell - 1]
            comp = step if comp is None else step.mul(comp)
            table[(n, ell)] = rank(comp)

    def lookup(n: int, ell: int) -> int:
        if n < 0 or n > N:
            return 0
        return table.get((n, ell), 0)

    return lookup


def module_decompose(A: AlphaModule) -> list[Tower]:
    """Cut the module into towers from composite ranks of the action.

    The count of towers of exact length ell starting in degree n is
    determined by the rank table; a negative count means the maps are
    not the action of a graded module and raises RuntimeError.
    """
    N = len(A.dims) - 1
    r = _rank_lookup(A)
    towers: list[Tower] = []
    for n in range(N + 1):
        for ell in range(1, N - n + 2):
            count = (r(n, ell - 1) - r(n, ell)) - (r(n - 1, ell) - r(n - 1, ell + 1))
            if count < 0:
                raise RuntimeError(
                    f"negative tower count at start {n} length {ell}: inconsistent action maps"
                )
            towers.extend(Tower(n, ell) for _ in range(count))
    for n in range(N + 1):
        covering = sum(1 for t in towers if t.start <= n < t.start + t.length)
        if covering != A.dims[n]:
            raise RuntimeError(f"towers fail to reconstruct the dimension in degree {n}")
    return sorted(towers, key=lambda t: (t.start, t.length))


def check_smith_gysin(A: AlphaModule, cover_dims: list[int], free: list[int]) -> None:
    """Raise RuntimeError unless the cover's cohomology fits the transfer sequence.

    Exactness gives, with a_n the rank of alpha_n,
    dim H^n(cover) = 2 dim H^n(Q) - a_{n-1} - a_n, and the number of free
    summands of H^n(cover) under the involution equals the number of
    towers of length one starting in degree n.
    """
    r = _rank_lookup(A)
    for n, h in enumerate(A.dims):
        expected = 2 * h - r(n - 1, 1) - r(n, 1)
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


def sw_height(A: AlphaModule) -> SWHeight:
    """Height of the unit class under the polynomial action."""
    if not A.dims or A.dims[0] != 1:
        raise ValueError("height needs a connected degree zero")
    r = _rank_lookup(A)
    return SWHeight(max(ell for ell in range(len(A.dims)) if r(0, ell) >= 1))
