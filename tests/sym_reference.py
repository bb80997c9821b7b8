"""The quotient route of the symbolic side, kept as a test-only reference.

H^q(Conf(2, M)) is the quotient of the square's degree q by the
restriction kernel.  This route builds that quotient: a projection, a
section picking the non-pivot coordinates, the swap pushed through them
and `rep_decompose` of the induced swap.  The kernel is spanned element
by element, from `square.mul` of (x cross 1) with the diagonal class.
`conf_symbolic` reads the same dims, t and f off the swap's fixed points
without building a quotient; the tests compare the two.

Element arithmetic that only the tests use lives here too: basis
elements by index or by name (the square's basis is named here, x|y
for each pair, as `conf2.surfaces` only counts it), sums, the external
product x|y, and products, in a surface ring from its structure
constants and in the square through `KunnethAlgebra.times`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conf2.conf_symbolic import TOP_DEGREE, rep_decompose
from conf2.gf2 import Mat2, from_ones, ones, pack, rank, rref, xor_rows
from conf2.surfaces import Element, KunnethAlgebra, SurfaceKind, build_kunneth, build_surface_ring
from gf2_reference import echelon, from_dense, from_rows, reference_rref, stack, to_dense


def basis_element(algebra, degree: int, i: int) -> Element:
    if not 0 <= i < algebra.dim(degree):
        raise IndexError(f"no basis element {i} in degree {degree}")
    return Element(degree, 1 << i)


def unit(algebra) -> Element:
    return basis_element(algebra, 0, 0)


def names(algebra, degree: int) -> list[str]:
    """The names of the basis of a degree: a surface ring's own, x|y for each pair in the square's."""
    if not 0 <= degree <= algebra.top_degree:
        return []
    if isinstance(algebra, KunnethAlgebra):
        ring = algebra.factor
        return [f"{x}|{y}" for p in algebra.offset[degree] for x in names(ring, p) for y in names(ring, degree - p)]
    return algebra.basis[degree]


def element(algebra, degree: int, labels) -> Element:
    """The sum of the named basis elements of the given degree."""
    return Element(degree, from_ones(map(names(algebra, degree).index, labels)))


def add(x: Element, y: Element) -> Element:
    if x.degree != y.degree:
        raise ValueError("cannot add elements of different degrees")
    return Element(x.degree, x.coeffs ^ y.coeffs)


def times(algebra, a: int, z: Element) -> Mat2:
    """Matrix of y -> y z on degree a: row i is basis element i times z."""
    if isinstance(algebra, KunnethAlgebra):
        return algebra.times(a, z)
    table = algebra.mult.get((a, z.degree))
    if table is None:
        return Mat2(algebra.dim(a), algebra.dim(a + z.degree))
    return Mat2(len(table), algebra.dim(a + z.degree), [xor_rows(row, z.coeffs) for row in table])


def mul(algebra, x: Element, y: Element) -> Element:
    """Product; degrees above the top are zero."""
    return Element(x.degree + y.degree, xor_rows(times(algebra, x.degree, y).data, x.coeffs))


def cross(square: KunnethAlgebra, x: Element, y: Element) -> Element:
    """External product x|y of two factor-ring elements, at its block of the square's basis."""
    n, width = x.degree + y.degree, square.factor.dim(y.degree)
    start = square.offset[n][x.degree]
    return Element(n, from_ones(start + s * width + t for s in ones(x.coeffs) for t in ones(y.coeffs)))


@dataclass(frozen=True)
class Subspace:
    """Row span of an independent basis inside F2^ambient_dim."""

    ambient_dim: int
    basis: Mat2

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width does not match the ambient dimension")

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat2(0, ambient_dim))

    @staticmethod
    def spanned_by(ambient_dim: int, vectors) -> "Subspace":
        """Subspace spanned by arbitrary (possibly dependent) row vectors: a Mat2, ints or 0/1 rows."""
        if isinstance(vectors, Mat2):
            m = vectors
        elif all(isinstance(v, int) for v in vectors):
            m = Mat2(len(vectors), ambient_dim, list(vectors))
        else:
            m = from_rows(vectors, cols=ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("vector width does not match the ambient dimension")
        return Subspace(ambient_dim, echelon(rref(m), ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, vec) -> bool:
        """Membership of a vector given as an int or as 0/1 entries."""
        if isinstance(vec, int):
            v = vec
        else:
            vec = list(vec)
            if len(vec) != self.ambient_dim:
                raise ValueError("vector lives in the wrong ambient space")
            v = pack(vec)
        if v >> self.ambient_dim:
            raise ValueError("vector lives in the wrong ambient space")
        stacked = stack(self.basis, Mat2(1, self.ambient_dim, [v]))
        return rank(stacked) == rank(self.basis)


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """True iff the two row spans coincide."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    ra = rank(a.basis)
    rb = rank(b.basis)
    if ra != rb:
        return False
    return rank(stack(a.basis, b.basis)) == ra


def quotient_map_with_section(ambient_dim: int, sub: Subspace) -> tuple[Mat2, Mat2, int]:
    """Quotient projection plus the section picking non-pivot coordinates.

    The reduced row-echelon form of the subspace basis, from the
    column-loop reference (`gf2.rref` clears nothing above a pivot),
    fixes pivot columns; the remaining coordinates represent the
    quotient.  The section maps quotient basis vector k to the ambient
    basis vector at the k-th non-pivot column, so projection . section
    = identity.
    """
    if sub.ambient_dim != ambient_dim:
        raise ValueError("subspace does not match the ambient dimension")
    R, piv = reference_rref(sub.basis)
    if len(piv) != sub.basis.rows:
        raise ValueError("subspace basis rows are dependent")
    pivset = set(piv)
    nonpiv = [c for c in range(ambient_dim) if c not in pivset]
    qdim = len(nonpiv)
    proj = np.zeros((qdim, ambient_dim), dtype=np.uint8)
    if qdim:
        proj[np.arange(qdim), nonpiv] = 1
        if piv:
            Rd = to_dense(R)
            proj[:, piv] = Rd[: len(piv), :][:, nonpiv].T
    section = np.zeros((ambient_dim, qdim), dtype=np.uint8)
    if qdim:
        section[nonpiv, np.arange(qdim)] = 1
    return from_dense(proj), from_dense(section), qdim


@dataclass(frozen=True)
class QuotientDegree:
    """One degree of the quotient: projection onto it, the swap in its coordinates, and its (t, f)."""

    q: int
    dim: int
    projection: Mat2
    induced_swap: Mat2
    decomposition: tuple[int, int]


def kernel_subspace(square: KunnethAlgebra, q: int) -> Subspace:
    """Span of (x cross 1) d, x over a basis of the factor ring in degree q-2."""
    ring = square.factor
    one = unit(ring)
    rows = [
        mul(square, cross(square, basis_element(ring, q - 2, i), one), square.diagonal).coeffs
        for i in range(ring.dim(q - 2))
    ]
    return Subspace.spanned_by(square.dim(q), rows) if rows else Subspace.zero(square.dim(q))


def swap_matrix(square: KunnethAlgebra, q: int) -> Mat2:
    """The swap of degree q as a dense permutation matrix (column i has its one at row perm[i])."""
    n = square.dim(q)
    dense = np.zeros((n, n), dtype=np.uint8)
    dense[square.swap_perm[q], np.arange(n)] = 1
    return from_dense(dense)


def quotient_degrees(kind: SurfaceKind) -> list[QuotientDegree]:
    """Every degree of H*(Conf(2, M)) through the quotient and its induced swap.

    Raises RuntimeError when the kernel is not swap-stable or the
    induced swap is not an involution.
    """
    square = build_kunneth(build_surface_ring(kind))
    degrees = []
    for q in range(TOP_DEGREE + 1):
        ambient = square.dim(q)
        ker = kernel_subspace(square, q)
        sigma = swap_matrix(square, q)
        if ker.dim and not subspace_equal(ker, Subspace.spanned_by(ambient, ker.basis.mul(sigma))):
            raise RuntimeError(f"restriction kernel is not swap-stable in degree {q}")
        proj, section, qdim = quotient_map_with_section(ambient, ker)
        induced = proj.mul(sigma).mul(section)
        if induced.mul(induced) != Mat2.identity(qdim):
            raise RuntimeError(f"induced swap is not an involution in degree {q}")
        degrees.append(QuotientDegree(q, qdim, proj, induced, rep_decompose(qdim, induced)))
    return degrees
