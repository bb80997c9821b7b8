"""Mod-2 cohomology rings of closed surfaces and of their squares.

A surface ring is a graded F2 algebra concentrated in degrees 0..2,
given by its structure constants: one table per pair of degrees.  The
square M x M keeps no multiplication table.  Its product
(a x b)(c x e) = ac x be is evaluated from the factor's tables in one
place, `KunnethAlgebra.times`, the matrix of y -> y z.  The square
carries the coordinate swap, a permutation of its basis, and the
diagonal class, the degree-2 element that generates the image of the
diagonal pushforward; it is computed from dual bases under the
intersection pairing, never copied in.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping

from .gf2 import Mat2, invert, ones, pack, permute

__all__ = [
    "SurfaceKind",
    "Element",
    "GradedAlgebra",
    "KunnethAlgebra",
    "build_surface_ring",
    "build_kunneth",
    "diagonal_class",
]

# The most degree-2 basis elements a surface's square may have, 2 + b1^2: those of orientable:1024 and
# nonorientable:2048, the largest power-of-two parameters whose symbolic runs stay under 1 GB of peak RSS.
MAX_SQUARE_DIM = 2 + 2048**2


class SurfaceKind(namedtuple("SurfaceKind", "family param")):
    """Homeomorphism type of a closed surface.

    family is one of "sphere", "orientable", "nonorientable"; param is
    the genus or the crosscap count (0 for the sphere), at most what
    keeps the square's degree 2 within MAX_SQUARE_DIM.
    """

    __slots__ = ()

    def __new__(cls, family: str, param: int = 0) -> "SurfaceKind":
        if family == "sphere":
            if param != 0:
                raise ValueError("sphere takes no parameter")
        elif family == "orientable":
            if param < 1:
                raise ValueError("orientable genus must be at least 1")
        elif family == "nonorientable":
            if param < 1:
                raise ValueError("crosscap count must be at least 1")
        else:
            raise ValueError(f"unknown surface family: {family!r}")
        kind = super().__new__(cls, family, param)
        b1 = 2 - kind.euler
        if 2 + b1 * b1 > MAX_SQUARE_DIM:
            raise ValueError(
                f"{kind.label} is too large: its square has {2 + b1 * b1} degree-2 basis elements,"
                f" more than {MAX_SQUARE_DIM}"
            )
        return kind

    @staticmethod
    def sphere() -> "SurfaceKind":
        return SurfaceKind("sphere", 0)

    @staticmethod
    def orientable(genus: int) -> "SurfaceKind":
        return SurfaceKind("orientable", genus)

    @staticmethod
    def nonorientable(crosscaps: int) -> "SurfaceKind":
        return SurfaceKind("nonorientable", crosscaps)

    @property
    def euler(self) -> int:
        if self.family == "sphere":
            return 2
        if self.family == "orientable":
            return 2 - 2 * self.param
        return 2 - self.param

    @property
    def label(self) -> str:
        if self.family == "sphere":
            return "sphere"
        return f"{self.family}:{self.param}"

    @staticmethod
    def from_label(text: str) -> "SurfaceKind":
        """Parse `sphere`, `orientable:G` or `nonorientable:K`, the parameter in ASCII decimal digits only."""
        if text == "sphere":
            return SurfaceKind.sphere()
        head, sep, tail = text.partition(":")
        if sep and head in ("orientable", "nonorientable") and tail.isascii() and tail.isdecimal():
            try:
                return SurfaceKind(head, int(tail))
            except ValueError as exc:
                raise ValueError(f"bad surface label: {text!r} ({exc})") from exc
        raise ValueError(f"bad surface label: {text!r}")


class Element:
    """Homogeneous element: a degree plus its coefficients, one int with basis element i at bit i."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: int):
        self.degree = degree
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs


def _outer(u: int, v: int, width: int) -> int:
    """The outer product of u and v, v of the given width, flattened row-major: bit s*width + t is u_s v_t."""
    acc = 0
    for s in ones(u):
        acc ^= v << s * width
    return acc


class _GradedBasis:
    """A basis in each degree, counted: sizes[q] elements in degree q."""

    def __init__(self, sizes):
        self.sizes = list(sizes)

    @property
    def top_degree(self) -> int:
        return len(self.sizes) - 1

    def dim(self, q: int) -> int:
        if 0 <= q <= self.top_degree:
            return self.sizes[q]
        return 0

    def dims(self) -> list[int]:
        return list(self.sizes)


def _table(entries, shape: tuple[int, int, int]) -> list[list[int]]:
    """A structure-constant table of the given shape: (dim p) x (dim q) ints over the basis of degree p+q.

    A table of another shape, or an entry with a one past the width,
    raises ValueError.
    """
    rows, cols, width = shape
    table = [list(row) for row in entries]
    if len(table) != rows or any(len(row) != cols or row and (min(row) < 0 or max(row) >> width) for row in table):
        raise ValueError("multiplication table entry has the wrong shape")
    return table


class GradedAlgebra(_GradedBasis):
    """Graded-commutative F2 algebra given by structure constants.

    basis names the basis elements of each degree.  mult[(p, q)], for
    p + q up to the top degree, is a (dim p) x (dim q) table whose entry
    [i][j] is the product of basis elements i and j, an int over the
    basis of degree p+q.  Degrees above the top are not represented;
    products landing there are zero.
    """

    def __init__(self, basis: list[list[str]], mult: Mapping[tuple[int, int], list[list[int]]]):
        super().__init__(len(names) for names in basis)
        self.basis = [list(names) for names in basis]
        if self.dim(0) != 1:
            raise ValueError("expected a one-dimensional degree 0")
        top = self.top_degree
        if set(mult) != {(p, q) for p in range(top + 1) for q in range(top + 1 - p)}:
            raise ValueError("multiplication table does not cover exactly the degrees up to the top")
        self.mult = {(p, q): _table(v, (self.dim(p), self.dim(q), self.dim(p + q))) for (p, q), v in mult.items()}
        for (p, q), table in self.mult.items():
            # commutativity holds on the nose in characteristic 2
            transposed = [list(column) for column in zip(*table)] if table else [[]] * self.dim(q)
            if transposed != self.mult[(q, p)]:
                raise ValueError("multiplication table is not commutative")
        for q in range(top + 1):
            if self.mult[(0, q)][0] != [1 << j for j in range(self.dim(q))]:
                raise ValueError("degree-0 generator is not a unit")


def build_surface_ring(kind: SurfaceKind) -> GradedAlgebra:
    """Cohomology ring of a closed surface with F2 coefficients.

    Degree-1 bases: none for the sphere; a1..ag, b1..bg for the
    orientable surface of genus g (with ai bi = u the only nonzero
    degree-1 products); w1..wk for the nonorientable surface with k
    crosscaps (with wi wi = u).
    """
    if kind.family == "sphere":
        deg1: list[str] = []
    elif kind.family == "orientable":
        g = kind.param
        deg1 = [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]
    else:
        deg1 = [f"w{i}" for i in range(1, kind.param + 1)]
    dims = [1, len(deg1), 1]
    mult = {(p, q): [[0] * dims[q] for _ in range(dims[p])] for p in range(3) for q in range(3 - p)}
    for q in range(3):
        mult[(0, q)][0] = [1 << j for j in range(dims[q])]
        for i in range(dims[q]):
            mult[(q, 0)][i][0] = 1 << i
    shift = kind.param if kind.family == "orientable" else 0
    for i in range(dims[1]):
        mult[(1, 1)][i][(i + shift) % dims[1]] = 1
    return GradedAlgebra([["1"], deg1, ["u"]], mult)


class KunnethAlgebra(_GradedBasis):
    """Tensor square of a surface ring with its swap involution.

    Basis elements in degree n are the pairs x|y with deg x + deg y = n,
    ordered by the degree of the left factor, then by the two factor
    indices: degree n is a run of blocks (p, n - p), and block (p, q)
    holds its dim p x dim q pairs in row-major order from offset[n][p].
    The swap exchanges the factors; swap_perm[n] is the permutation of
    degree n it induces on the basis.  The basis is only counted, not
    named, and there is no multiplication table: `times` evaluates
    products from the factor's structure constants.
    """

    def __init__(self, factor: GradedAlgebra):
        self.factor = factor
        top = factor.top_degree
        sizes: list[int] = []
        self.offset: list[dict[int, int]] = []
        self.swap_perm: list[list[int]] = []
        for n in range(2 * top + 1):
            offset, size = {}, 0
            for p in range(max(0, n - top), min(n, top) + 1):
                offset[p] = size
                size += factor.dim(p) * factor.dim(n - p)
            perm = [0] * size
            for p, start in offset.items():
                dp, dq = factor.dim(p), factor.dim(n - p)
                # x_i|y_j sits at start + i dq + j, its swap y_j|x_i in block (q, p) at offset' + j dp + i
                for i in range(dp):
                    perm[start + i * dq : start + (i + 1) * dq] = range(offset[n - p] + i, offset[n - p] + dq * dp, dp)
            sizes.append(size)
            self.offset.append(offset)
            self.swap_perm.append(perm)
        super().__init__(sizes)
        self.diagonal: Element | None = None

    def _blocks(self, n: int) -> dict[int, int]:
        return self.offset[n] if 0 <= n <= self.top_degree else {}

    def times(self, a: int, z: Element) -> Mat2:
        """Matrix of y -> y z on degree a, from (x1|x2)(y1|y2) = x1 y1 | x2 y2.

        For each block (p1, p2) of degree a and each block (q1, q2) of z,
        z's coefficients c[k][l] on that block are first summed into
        the second factor, R[k] = sum over l of c[k][l] (x2 y2_l); row
        x1|x2 of the block product is then the sum over k of the outer
        products (x1 y1_k) x R[k].
        """
        ring = self.factor
        b = z.degree
        out = [0] * self.dim(a)
        for p1, row in self._blocks(a).items():
            p2 = a - p1
            for q1, start in self._blocks(b).items():
                q2 = b - q1
                left, right = ring.mult.get((p1, q1)), ring.mult.get((p2, q2))
                dq2 = ring.dim(q2)
                block = z.coeffs >> start & ((1 << ring.dim(q1) * dq2) - 1)
                if left is None or right is None or not block:
                    continue
                by_l: list[list[int]] = [[] for _ in range(dq2)]  # by_l[l]: the k with c[k][l] = 1
                for pos in ones(block):
                    by_l[pos % dq2].append(pos // dq2)
                left_ones = [[(k, u) for k, u in enumerate(products) if u] for products in left]
                width, col = ring.dim(p2 + q2), self.offset[a + b][p1 + q1]
                for i2, products in enumerate(right):
                    R: dict[int, int] = {}
                    for l, v in enumerate(products):
                        if v:
                            for k in by_l[l]:
                                R[k] = R.get(k, 0) ^ v
                    if not R:
                        continue
                    for i1, hits in enumerate(left_ones):
                        acc = 0
                        for k, u in hits:
                            if k in R:
                                acc ^= _outer(u, R[k], width)
                        out[row + i1 * len(right) + i2] ^= acc << col
        return Mat2(len(out), self.dim(a + b), out)

    def swap(self, x: Element) -> Element:
        return Element(x.degree, permute(x.coeffs, self.swap_perm[x.degree]))


def diagonal_class(square: KunnethAlgebra) -> Element:
    """Diagonal class of the square, from dual bases under the pairing.

    For each degree p, the pairing with the complementary degree is the
    top-class coefficient of the product, bit 0 of the entries of
    mult[(p, q)]; the sum of e x (dual of e) over all basis elements is
    the diagonal class.  A degenerate pairing raises ValueError.
    """
    ring = square.factor
    top = ring.top_degree
    if ring.dim(top) != 1:
        raise ValueError("top degree of the factor ring must be one-dimensional")
    coeffs = 0
    for p in range(top + 1):
        q = top - p
        dp, dq = ring.dim(p), ring.dim(q)
        if dp != dq:
            raise ValueError("pairing is degenerate: mismatched dimensions")
        if dp == 0:
            continue
        pairing = Mat2(dp, dq, [pack(e & 1 for e in products) for products in ring.mult[(p, q)]])
        try:
            inv = invert(pairing)
        except ValueError as exc:
            raise ValueError("pairing is degenerate") from exc
        # row i of the transposed inverse: coefficients of the dual of basis element i
        start = square.offset[top][p]
        for i, dual in enumerate(inv.transpose().data):
            coeffs |= dual << start + i * dq
    return Element(top, coeffs)


def build_kunneth(ring: GradedAlgebra) -> KunnethAlgebra:
    """Square of a surface ring, with swap and diagonal class attached."""
    square = KunnethAlgebra(ring)
    diag = diagonal_class(square)
    if square.swap(diag) != diag:
        raise RuntimeError("diagonal class is not swap-invariant")
    square.diagonal = diag
    return square
