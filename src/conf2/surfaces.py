"""Mod-2 cohomology rings of closed surfaces and of their squares.

A surface ring is a graded F2 algebra concentrated in degrees 0..2,
given by its structure constants: one array per pair of degrees.  The
square M x M keeps no multiplication table.  Its product
(a x b)(c x e) = ac x be is evaluated from the factor's arrays in one
place, `KunnethAlgebra.times`, the matrix of y -> y z.  The square
carries the coordinate swap, a permutation of its basis, and the
diagonal class, the degree-2 element that generates the image of the
diagonal pushforward; it is computed from dual bases under the
intersection pairing, never copied in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .gf2 import Mat2, invert

__all__ = [
    "SurfaceKind",
    "Element",
    "GradedAlgebra",
    "KunnethAlgebra",
    "build_surface_ring",
    "build_kunneth",
    "diagonal_class",
]


@dataclass(frozen=True)
class SurfaceKind:
    """Homeomorphism type of a closed surface.

    family is one of "sphere", "orientable", "nonorientable"; param is
    the genus or the crosscap count (0 for the sphere).
    """

    family: str
    param: int = 0

    def __post_init__(self):
        if self.family == "sphere":
            if self.param != 0:
                raise ValueError("sphere takes no parameter")
        elif self.family == "orientable":
            if self.param < 1:
                raise ValueError("orientable genus must be at least 1")
        elif self.family == "nonorientable":
            if self.param < 1:
                raise ValueError("crosscap count must be at least 1")
        else:
            raise ValueError(f"unknown surface family: {self.family!r}")

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
    def is_orientable(self) -> bool:
        return self.family != "nonorientable"

    @property
    def label(self) -> str:
        if self.family == "sphere":
            return "sphere"
        return f"{self.family}:{self.param}"

    @staticmethod
    def from_label(text: str) -> "SurfaceKind":
        if text == "sphere":
            return SurfaceKind.sphere()
        head, sep, tail = text.partition(":")
        if sep and head in ("orientable", "nonorientable"):
            try:
                return SurfaceKind(head, int(tail))
            except ValueError as exc:
                raise ValueError(f"bad surface label: {text!r}") from exc
        raise ValueError(f"bad surface label: {text!r}")


class Element:
    """Homogeneous element: a degree plus a coefficient vector."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        self.degree = degree
        self.coeffs = np.asarray(coeffs, dtype=np.uint8) & 1

    def __add__(self, other: "Element") -> "Element":
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return Element(self.degree, self.coeffs ^ other.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self) -> str:
        return f"Element(degree={self.degree}, coeffs={self.coeffs.tolist()})"


class _GradedBasis:
    """A named basis in each degree, and products through `times`."""

    def __init__(self, basis: list[list[str]]):
        self.basis = [list(names) for names in basis]
        self.index = [
            {name: i for i, name in enumerate(names)} for names in self.basis
        ]

    # -- structure ------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, q: int) -> int:
        if 0 <= q <= self.top_degree:
            return len(self.basis[q])
        return 0

    def names(self, q: int) -> list[str]:
        if 0 <= q <= self.top_degree:
            return self.basis[q]
        return []

    def dims(self) -> list[int]:
        return [self.dim(q) for q in range(self.top_degree + 1)]

    # -- elements -------------------------------------------------------

    def zero(self, degree: int) -> Element:
        return Element(degree, np.zeros(self.dim(degree), dtype=np.uint8))

    def basis_element(self, degree: int, i: int) -> Element:
        v = np.zeros(self.dim(degree), dtype=np.uint8)
        v[i] = 1
        return Element(degree, v)

    def element(self, degree: int, names: Iterable[str]) -> Element:
        v = np.zeros(self.dim(degree), dtype=np.uint8)
        for name in names:
            v[self.index[degree][name]] ^= 1
        return Element(degree, v)

    def unit(self) -> Element:
        return self.basis_element(0, 0)

    # -- multiplication ---------------------------------------------------

    def times(self, a: int, z: Element) -> np.ndarray:
        """0/1 matrix of y -> y z on degree a: row i is basis element i times z."""
        raise NotImplementedError

    def mul(self, x: Element, y: Element) -> Element:
        """Product; degrees above the top are zero.

        The uint8 sums wrap modulo 256, which keeps their parity.
        """
        return Element(x.degree + y.degree, x.coeffs @ self.times(x.degree, y))


class GradedAlgebra(_GradedBasis):
    """Graded-commutative F2 algebra given by structure-constant arrays.

    mult[(p, q)], for p + q up to the top degree, has shape
    (dim p, dim q, dim p+q): entry [i, j] is the product of basis
    elements i and j.  Degrees above the top are not represented;
    products landing there are zero.
    """

    def __init__(self, basis: list[list[str]], mult: Mapping[tuple[int, int], np.ndarray]):
        super().__init__(basis)
        self.mult = {k: np.asarray(v, dtype=np.uint8) & 1 for k, v in mult.items()}
        self._check_table()

    def times(self, a: int, z: Element) -> np.ndarray:
        table = self.mult.get((a, z.degree))
        if table is None:
            return np.zeros((self.dim(a), self.dim(a + z.degree)), dtype=np.uint8)
        return np.einsum("ijk,j->ik", table, z.coeffs) & 1

    def _check_table(self) -> None:
        if self.dim(0) != 1:
            raise ValueError("expected a one-dimensional degree 0")
        top = self.top_degree
        if set(self.mult) != {(p, q) for p in range(top + 1) for q in range(top + 1 - p)}:
            raise ValueError("multiplication table does not cover exactly the degrees up to the top")
        for (p, q), table in self.mult.items():
            if table.shape != (self.dim(p), self.dim(q), self.dim(p + q)):
                raise ValueError("multiplication table entry has the wrong shape")
        for (p, q), table in self.mult.items():
            # commutativity holds on the nose in characteristic 2
            if not np.array_equal(table, self.mult[(q, p)].transpose(1, 0, 2)):
                raise ValueError("multiplication table is not commutative")
        for q in range(top + 1):
            if not np.array_equal(self.mult[(0, q)][0], np.eye(self.dim(q), dtype=np.uint8)):
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
    mult = {
        (p, q): np.zeros((dims[p], dims[q], dims[p + q]), dtype=np.uint8)
        for p in range(3)
        for q in range(3 - p)
    }
    for q in range(3):
        mult[(0, q)][0] = np.eye(dims[q], dtype=np.uint8)
        mult[(q, 0)][:, 0] = np.eye(dims[q], dtype=np.uint8)
    if kind.family == "orientable":
        mult[(1, 1)][:, :, 0] = np.roll(np.eye(dims[1], dtype=np.uint8), kind.param, axis=1)
    else:
        mult[(1, 1)][:, :, 0] = np.eye(dims[1], dtype=np.uint8)
    return GradedAlgebra([["1"], deg1, ["u"]], mult)


class KunnethAlgebra(_GradedBasis):
    """Tensor square of a surface ring with its swap involution.

    Basis elements in degree n are the pairs x|y with deg x + deg y = n,
    ordered by the degree of the left factor, then by the two factor
    indices: degree n is a run of blocks (p, n - p), and block (p, q)
    holds its dim p x dim q pairs in row-major order from offset[n][p].
    The swap exchanges the factors; swap_perm[n] is the permutation of
    degree n it induces on the basis.  There is no multiplication
    table: `times` evaluates products from the factor's arrays.
    """

    def __init__(self, factor: GradedAlgebra):
        self.factor = factor
        top = factor.top_degree
        names: list[list[str]] = []
        self.offset: list[dict[int, int]] = []
        self.swap_perm: list[np.ndarray] = []
        for n in range(2 * top + 1):
            blocks = range(max(0, n - top), min(n, top) + 1)
            sizes = [factor.dim(p) * factor.dim(n - p) for p in blocks]
            offset = dict(zip(blocks, np.cumsum([0] + sizes[:-1]).tolist()))
            perm = np.empty(sum(sizes), dtype=np.int64)
            label: list[str] = []
            for p in blocks:
                dp, dq = factor.dim(p), factor.dim(n - p)
                label += [f"{x}|{y}" for x in factor.names(p) for y in factor.names(n - p)]
                # x_i|y_j sits at offset + i dq + j, its swap y_j|x_i in block (q, p) at offset' + j dp + i
                swapped = np.arange(dq) * dp + np.arange(dp)[:, None]
                perm[offset[p] : offset[p] + dp * dq] = offset[n - p] + swapped.ravel()
            if not np.array_equal(perm[perm], np.arange(len(perm))):
                raise RuntimeError("swap is not an involution")
            names.append(label)
            self.offset.append(offset)
            self.swap_perm.append(perm)
        super().__init__(names)
        self.diagonal: Element | None = None

    def _blocks(self, n: int) -> dict[int, int]:
        return self.offset[n] if 0 <= n <= self.top_degree else {}

    def times(self, a: int, z: Element) -> np.ndarray:
        """Matrix of y -> y z on degree a, from (x1|x2)(y1|y2) = x1 y1 | x2 y2.

        Each block (p1, p2) of degree a against each block (q1, q2) of z
        contracts the factor arrays mult[(p1, q1)] and mult[(p2, q2)]
        with z's coefficients on that block, one factor at a time; the
        uint8 sums wrap modulo 256, which keeps their parity.
        """
        ring = self.factor
        b = z.degree
        out = np.zeros((self.dim(a), self.dim(a + b)), dtype=np.uint8)
        for p1, row in self._blocks(a).items():
            p2 = a - p1
            for q1, start in self._blocks(b).items():
                q2 = b - q1
                left, right = ring.mult.get((p1, q1)), ring.mult.get((p2, q2))
                coeffs = z.coeffs[start : start + ring.dim(q1) * ring.dim(q2)].reshape(ring.dim(q1), ring.dim(q2))
                if left is None or right is None or not coeffs.any():
                    continue
                block = np.einsum("isl,jlt->ijst", np.einsum("iks,kl->isl", left, coeffs), right)
                rows, cols = left.shape[0] * right.shape[0], left.shape[2] * right.shape[2]
                col = self.offset[a + b][p1 + q1]
                out[row : row + rows, col : col + cols] ^= block.reshape(rows, cols) & 1
        return out

    def cross(self, x: Element, y: Element) -> Element:
        """External product of two factor-ring elements."""
        out = self.zero(x.degree + y.degree)
        start = self.offset[out.degree][x.degree]
        out.coeffs[start : start + x.coeffs.size * y.coeffs.size] = np.outer(x.coeffs, y.coeffs).ravel()
        return out

    def swap(self, x: Element) -> Element:
        perm = self.swap_perm[x.degree]
        out = np.zeros_like(x.coeffs)
        out[perm] = x.coeffs
        return Element(x.degree, out)


def diagonal_class(square: KunnethAlgebra) -> Element:
    """Diagonal class of the square, from dual bases under the pairing.

    For each degree p, the pairing with the complementary degree is the
    top-class coefficient of the product, the array mult[(p, q)][:, :, 0];
    the sum of e x (dual of e) over all basis elements is the diagonal
    class.  A degenerate pairing raises ValueError.
    """
    ring = square.factor
    top = ring.top_degree
    if ring.dim(top) != 1:
        raise ValueError("top degree of the factor ring must be one-dimensional")
    out = square.zero(top)
    for p in range(top + 1):
        q = top - p
        dp, dq = ring.dim(p), ring.dim(q)
        if dp != dq:
            raise ValueError("pairing is degenerate: mismatched dimensions")
        if dp == 0:
            continue
        try:
            inv = invert(Mat2.from_dense(ring.mult[(p, q)][:, :, 0]))
        except ValueError as exc:
            raise ValueError("pairing is degenerate") from exc
        # row i of the transposed inverse: coefficients of the dual of basis element i
        start = square.offset[top][p]
        out.coeffs[start : start + dp * dq] = inv.to_dense().T.ravel()
    return out


def build_kunneth(ring: GradedAlgebra) -> KunnethAlgebra:
    """Square of a surface ring, with swap and diagonal class attached."""
    square = KunnethAlgebra(ring)
    diag = diagonal_class(square)
    if square.swap(diag) != diag:
        raise RuntimeError("diagonal class is not swap-invariant")
    square.diagonal = diag
    return square
