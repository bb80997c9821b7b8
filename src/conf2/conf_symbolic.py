"""Cohomology of the ordered two-point configuration space, symbolically.

Deleting the diagonal from the square M x M kills, in each degree, the
image of the pushforward from the diagonal copy of M: the span K of the
classes (x cross 1) d where d is the diagonal class.  The quotient by K
is H^q(Conf(2,M)), and it splits into t trivial and f free modules over
the group algebra of the swap sigma.  No quotient is built: with c the
number of 2-cycles of sigma on the square's basis,
f = dim((1 + sigma)V + K) - dim K = c - dim(K meet im(1 + sigma)), and
im(1 + sigma) is the set of sigma-fixed vectors that vanish on sigma's
fixed basis elements.  As (x cross 1) d = (1 cross x) d, sigma fixes
every row of K, not only its span; sigma moves the ones of a row
(`gf2.permute`), and each row is checked.  So K meets im(1 + sigma) in
the kernel of k -> (k on the fixed basis elements).  Each degree is one
`ConfRow(q, dim, t, f)`, the row type the oracle's transfer route
builds too.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2 import Mat2, from_ones, permute, rank, rref
from .surfaces import (
    KunnethAlgebra,
    SurfaceKind,
    build_kunneth,
    build_surface_ring,
    diagonal_class,
)

__all__ = [
    "ConfRow",
    "ConfCohomology",
    "gysin_kernel",
    "kernel_ideal_check",
    "conf_cohomology",
    "rep_decompose",
]

TOP_DEGREE = 4  # Conf(2, surface) is an open 4-manifold


class ConfRow(NamedTuple):
    """Degree q of H*(Conf(2,M)): its dimension, t trivial and f free swap-module summands."""

    q: int
    dim: int
    t: int
    f: int


class ConfCohomology(NamedTuple):
    kind: SurfaceKind
    square: KunnethAlgebra
    rows: list[ConfRow]

    def dims(self) -> list[int]:
        return [r.dim for r in self.rows]

    def euler(self) -> int:
        return sum((-1) ** r.q * r.dim for r in self.rows)


def _times_diagonal(square: KunnethAlgebra, q: int) -> tuple[Mat2, Mat2]:
    """The matrix of y -> y d from degree q-2 into degree q, and its rows at the x|1 basis elements."""
    if not 0 <= q <= TOP_DEGREE:
        raise ValueError(f"degree out of range: {q}")
    d = square.diagonal if square.diagonal is not None else diagonal_class(square)
    rows = square.times(q - 2, d)
    if q < 2:
        return rows, rows
    start = square.offset[q - 2][q - 2]
    return rows, rows.take_rows(range(start, start + square.factor.dim(q - 2)))


def gysin_kernel(square: KunnethAlgebra, q: int) -> Mat2:
    """Echelon basis, in ascending lowest one, of the kernel of restriction to the configuration space in degree q.

    The rows of the lowest-one table of (x cross 1) d, x running over a
    basis of the factor ring in degree q-2; no rows below degree 2.
    """
    table = rref(_times_diagonal(square, q)[1])
    return Mat2(len(table), square.dim(q), [table[p] for p in sorted(table)])


def kernel_ideal_check(square: KunnethAlgebra, q: int) -> bool:
    """True iff the restriction kernel equals the ideal slice (d) in degree q.

    The rows of (x cross 1) d are among the rows of y d, y running over
    the square's degree q-2, so the spans agree iff the ranks do.
    """
    everything, kernel = _times_diagonal(square, q)
    return rank(kernel) == rank(everything)


def rep_decompose(dim: int, swap: Mat2) -> tuple[int, int]:
    """Split a swap module into (t, f): t trivial and f free summands.

    f is the rank of (identity + swap); t is what remains.  The swap
    must be an involution.
    """
    if swap.shape != (dim, dim):
        raise ValueError("swap matrix does not match the stated dimension")
    if swap.mul(swap) != Mat2.identity(dim):
        raise ValueError("swap is not an involution")
    f = rank(Mat2(dim, dim, [x ^ 1 << i for i, x in enumerate(swap.data)]))
    t = dim - 2 * f
    if t < 0:
        raise RuntimeError("trivial multiplicity came out negative")
    return t, f


def conf_cohomology(kind: SurfaceKind) -> ConfCohomology:
    """Per-degree dimensions of the quotient of the square by the kernel, with their swap decomposition.

    Raises RuntimeError when internal consistency fails: a kernel row
    that the swap moves or a negative trivial multiplicity.  A nonzero
    degree-4 quotient is left to the report's conf-top-degree-vanishes
    record.
    """
    square = build_kunneth(build_surface_ring(kind))
    rows = []
    for q in range(TOP_DEGREE + 1):
        K = gysin_kernel(square, q)
        perm = square.swap_perm[q]
        if any(permute(k, perm) != k for k in K.data):
            raise RuntimeError(f"restriction kernel is not swap-fixed in degree {q}")
        fixed = from_ones(i for i, j in enumerate(perm) if i == j)
        cycles = (len(perm) - fixed.bit_count()) // 2
        # k + sigma k = 0 on every row, so k lies in im(1 + sigma) iff k is 0 on the fixed basis elements
        meet = K.rows - rank(Mat2(K.rows, K.cols, [k & fixed for k in K.data]))
        dim = len(perm) - K.rows
        f = cycles - meet
        if dim - 2 * f < 0:
            raise RuntimeError("trivial multiplicity came out negative")
        rows.append(ConfRow(q, dim, dim - 2 * f, f))
    return ConfCohomology(kind=kind, square=square, rows=rows)
