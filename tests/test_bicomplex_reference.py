"""The windowed bicomplex as a test-only reference for the transfer-sequence alpha.

The homotopy quotient of a complex with free involution is modeled by a
bicomplex: one copy of the cochains per resolution level, the cochain
differential one way and the norm (one plus the involution) the other.
Its total cohomology on a window of degrees is H*(quotient), and the
level shift realizes multiplication by alpha.  This route shares nothing
with `conf2.borel` but the tower cutting, so equal dims, composite
ranks, towers and heights check the connecting map of the transfer
sequence independently: on the orbit complex built from the
triangulation where there is one, else on the folded orbit complex of
`dp_reference`.  The Smith-Gysin identities between the deleted
product and the orbit complex are asserted on every surface of the
sweep.
"""

import numpy as np
import pytest

from conf2.borel import (
    AlphaModule,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    sw_height,
)
from conf2.cells import CellComplex, cohomology_f2, deleted_product, quotient_complex
from conf2.gf2 import Mat2, rank
from conf2.simplicial import SimplicialComplex, builtin_triangulation
from conf2.surfaces import SurfaceKind
from gf2_reference import from_boundaries, from_dense, to_dense
from dp_reference import alpha_module, builtin_reference, check_smith_gysin, conf_rows, reference_classes

SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")


class EquivariantComplex:
    """Total complex of the resolution-by-cochain bicomplex.

    Degree n holds one cochain block per q with q <= min(top, n),
    ordered by ascending q; the block at q sits at resolution level
    n - q.  The total differential carries a block to its coboundary
    (same level, q+1) plus its norm image (next level, same q).  The
    level shift embeds T^n into T^{n+1} blockwise and realizes the
    polynomial action.  The window must reach the top cell dimension.
    """

    def __init__(self, base: CellComplex, window: int):
        assert window >= base.top_dim and base.is_free()
        self.base = base
        self.window = window
        top = base.top_dim
        self.block_dims = [base.n_cells(q) for q in range(top + 1)]

        deltas: list[np.ndarray] = []
        norms: list[np.ndarray] = []
        for q in range(top + 1):
            n = self.block_dims[q]
            if q < top:
                deltas.append(to_dense(base.boundary(q + 1)).T)
            else:
                deltas.append(np.zeros((0, n), dtype=np.uint8))
            sigma = np.zeros((n, n), dtype=np.uint8)
            if n:
                sigma[np.arange(n), base.involution[q]] = 1
            norms.append(sigma ^ np.eye(n, dtype=np.uint8))

        self.differentials: list[Mat2] = []
        self.shifts: list[Mat2] = []
        for n in range(window + 1):
            src_off = self._offsets(n)
            tgt_off = self._offsets(n + 1)
            dense = np.zeros((self.total_dim(n + 1), self.total_dim(n)), dtype=np.uint8)
            shift = np.zeros_like(dense)
            for q, o in src_off.items():
                w = self.block_dims[q]
                t0 = tgt_off[q]
                dense[t0 : t0 + w, o : o + w] = norms[q]
                shift[t0 : t0 + w, o : o + w] = np.eye(w, dtype=np.uint8)
                if q + 1 <= top:
                    d0 = tgt_off[q + 1]
                    dense[d0 : d0 + deltas[q].shape[0], o : o + w] = deltas[q]
            self.differentials.append(from_dense(dense))
            self.shifts.append(from_dense(shift))
        for n in range(window):
            assert not any(self.differentials[n + 1].mul(self.differentials[n]).data)
            left = self.differentials[n + 1].mul(self.shifts[n])
            assert left == self.shifts[n + 1].mul(self.differentials[n])

    def _offsets(self, n: int) -> dict[int, int]:
        blocks = range(min(self.base.top_dim, n) + 1)
        starts = np.cumsum([0] + [self.block_dims[q] for q in blocks])
        return {q: int(starts[q]) for q in blocks}

    def total_dim(self, n: int) -> int:
        return sum(self.block_dims[q] for q in range(min(self.base.top_dim, n) + 1))


def bicomplex_alpha_module(C: CellComplex, window: int) -> AlphaModule:
    """Total cohomology on the window with the level-shift action and towers."""
    E = EquivariantComplex(C, window)
    cells = [[("t", n, i) for i in range(E.total_dim(n))] for n in range(window + 2)]
    boundaries = [Mat2(0, E.total_dim(0))]
    boundaries.extend(E.differentials[n].transpose() for n in range(window + 1))
    result = cohomology_f2(from_boundaries(cells, boundaries))

    alpha_maps: list[Mat2] = []
    for n in range(window):
        reps = result.cocycle_basis[n]
        nxt = result.dims[n + 1]
        # the shift is a blockwise prefix embedding: pad with zeros
        mapped = np.zeros((reps.rows, E.total_dim(n + 1)), dtype=np.uint8)
        mapped[:, : reps.cols] = to_dense(reps)
        cols = np.zeros((nxt, reps.rows), dtype=np.uint8)
        for j, sol in enumerate(reference_classes(result, n + 1, from_dense(mapped))):
            assert sol is not None, f"shifted representative left the span in degree {n}"
            cols[:, j] = sol
        alpha_maps.append(from_dense(cols))
    return AlphaModule(dims=result.dims[: window + 1], alpha_maps=alpha_maps)


def transfer_alpha_module(case: SimplicialComplex | CellComplex) -> AlphaModule:
    """Alpha from the orbit complex of a triangulation, or of a bare free involution."""
    if isinstance(case, CellComplex):
        return alpha_module(case)
    Q = quotient_complex(case)
    return equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), cohomology_f2(Q))


def composite_ranks(A: AlphaModule) -> dict[tuple[int, int], int]:
    """Rank of alpha^ell out of degree n, for every n and ell >= 1 inside the module."""
    table = {}
    for n in range(len(A.alpha_maps)):
        comp = A.alpha_maps[n]
        table[(n, 1)] = rank(comp)
        for m in range(n + 1, len(A.alpha_maps)):
            comp = A.alpha_maps[m].mul(comp)
            table[(n, m - n + 1)] = rank(comp)
    return table


def antipodal_circle() -> CellComplex:
    boundary = from_dense(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    return from_boundaries(
        [["p", "q"], ["a", "b"]],
        [Mat2(0, 2), boundary],
        involution=[np.array([1, 0]), np.array([1, 0])],
    )


REFERENCE_CASES = {
    "point pair": lambda: SimplicialComplex(2, [(0, 1)]),
    "antipodal circle": antipodal_circle,
    **{
        label: (lambda label=label: builtin_triangulation(SurfaceKind.from_label(label)))
        for label in ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2")
    },
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_transfer_alpha_matches_bicomplex(case):
    built = REFERENCE_CASES[case]()
    C = built if isinstance(built, CellComplex) else deleted_product(built)
    new = transfer_alpha_module(built)
    # a window two past the top cells also shows the bicomplex vanishing there
    ref = bicomplex_alpha_module(C, C.top_dim + 2)
    top = len(new.dims) - 1
    assert ref.dims[: top + 1] == new.dims and not any(ref.dims[top + 1 :])
    ref_ranks = composite_ranks(ref)
    for (n, ell), value in composite_ranks(new).items():
        assert ref_ranks[(n, ell)] == value, (n, ell)
    assert all(value == 0 for (n, ell), value in ref_ranks.items() if n + ell > top)
    assert ref.towers == new.towers
    assert sw_height(ref) == sw_height(new)


@pytest.mark.parametrize("label", SWEEP)
def test_smith_gysin_identities(label):
    dp, H = builtin_reference(label)
    free = [f for _, _, f in conf_rows(dp, H)]
    A = transfer_alpha_module(builtin_triangulation(SurfaceKind.from_label(label)))
    ranks = [rank(m) for m in A.alpha_maps] + [0]
    for n, h in enumerate(A.dims):
        assert H.dims[n] == 2 * h - (ranks[n - 1] if n else 0) - ranks[n], n
        assert free[n] == sum(1 for t in A.towers if t.start == n and t.length == 1), n
    check_smith_gysin(A, H.dims, free)
