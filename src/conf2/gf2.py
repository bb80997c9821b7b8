"""Dense exact linear algebra over the two-element field, on Python ints.

A vector, and each matrix row, is one Python int with column (or basis
element) c at bit c, so a row operation is one XOR that runs over the
whole row in C; a permutation of the basis moves a row's ones
(`permute`).  A product runs over the ones of its left factor, so
products with sparse boundary matrices cost what their ones cost.

The one echelon format is the lowest-one table {lowest one: row} of
persistence reduction.  `rref` builds it row by row against the table
so far, so a row costs only the pivots it hits.  `eliminate` carries a
row transform in the same rows, so one elimination of a boundary matrix
gives two tables: its row space and its left kernel.  There is one
reduction loop, `_reduce`, and no back-substitution: a system is solved
by reducing against a table.  Results are deterministic given the row
order, and everything downstream inherits that.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "Mat2",
    "ones",
    "from_ones",
    "pack",
    "xor_rows",
    "permute",
    "rref",
    "rank",
    "eliminate",
    "select_independent_rows",
    "solve_many",
    "invert",
]


def ones(x: int) -> list[int]:
    """The positions of the ones of x, ascending.

    Takes the highest one off at a time, so each one costs an XOR over
    the bits below it: cheap for the wide sparse rows of boundary
    matrices, where a scan of every bit is not.
    """
    out = []
    while x:
        h = x.bit_length() - 1
        out.append(h)
        x ^= 1 << h
    out.reverse()
    return out


def from_ones(positions: Iterable[int]) -> int:
    """The int with a one at each position listed an odd number of times.

    A few ones are XORed in as shifted bits; many are set in a byte
    buffer first, so the cost stays linear in the width.
    """
    positions = list(positions)
    if len(positions) < 16:
        x = 0
        for i in positions:
            x ^= 1 << i
        return x
    buf = bytearray((max(positions) >> 3) + 1)
    for i in positions:
        buf[i >> 3] ^= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def pack(values: Iterable) -> int:
    """The int whose bit i is the parity of values[i], for any sequence of 0/1 entries."""
    return from_ones(i for i, v in enumerate(values) if int(v) & 1)


def xor_rows(rows: Sequence[int], x: int) -> int:
    """The sum of rows[i] over the ones i of x: the vector x times the matrix with these rows."""
    acc = 0
    while x:
        h = x.bit_length() - 1
        acc ^= rows[h]
        x ^= 1 << h
    return acc


def permute(x: int, perm: Sequence[int]) -> int:
    """The row x with its one at i moved to perm[i], for each of its ones."""
    return from_ones(perm[i] for i in ones(x))


class Mat2:
    """Matrix over F2, one int per row in `data`.  Treated as immutable once built."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if data is None:
            data = [0] * rows
        elif len(data) != rows:
            raise ValueError("one int per row is required")
        elif data and max(data) >> cols:
            raise ValueError("a row has a one past the last column")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Mat2":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def hstack(cls, left: "Mat2", right: "Mat2") -> "Mat2":
        if left.rows != right.rows:
            raise ValueError("row mismatch")
        return cls(left.rows, left.cols + right.cols, [a | b << left.cols for a, b in zip(left.data, right.data)])

    # -- access -------------------------------------------------------

    def take_rows(self, idx) -> "Mat2":
        data = [self.data[i] for i in idx]
        return Mat2(len(data), self.cols, data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    # -- arithmetic ---------------------------------------------------

    def transpose(self) -> "Mat2":
        """Collects the row index of each one per column; costs the ones and the new widths."""
        cols: list[list[int]] = [[] for _ in range(self.cols)]
        for i, x in enumerate(self.data):
            for j in ones(x):
                cols[j].append(i)
        return Mat2(self.cols, self.rows, [from_ones(c) for c in cols])

    def mul(self, other: "Mat2") -> "Mat2":
        """Matrix product over F2: row i is the sum of the rows of other at the ones of row i of self."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = other.data
        return Mat2(self.rows, other.cols, [xor_rows(right, x) for x in self.data])

    def mul_vec(self, vec: int) -> int:
        """Matrix times column vector, the vector and the result as ints."""
        if vec >> self.cols:
            raise ValueError("length mismatch")
        return from_ones(i for i, x in enumerate(self.data) if (x & vec).bit_count() & 1)


def _reduce(x: int, pivots: dict[int, int]) -> int:
    """What is left of the row x after reducing it by the rows of pivots, each keyed by its lowest one.

    Stops at the first lowest one that keys no row: what is left is zero
    or has its lowest one off the table.
    """
    while x:
        p = pivots.get((x & -x).bit_length() - 1)
        if p is None:
            break
        x ^= p
    return x


def _insert(x: int, pivots: dict[int, int]) -> bool:
    """Reduce the row x by the rows of pivots and add what is left; False when x lies in their span."""
    x = _reduce(x, pivots)
    if x:
        pivots[(x & -x).bit_length() - 1] = x
    return x != 0


def rref(m: Mat2) -> dict[int, int]:
    """The lowest-one table of the row space of m: {lowest one: row}.

    Each row is reduced against the table so far and kept when a one is
    left, keyed by its lowest one.  No two kept rows share a lowest one,
    and nothing above a row's lowest one is cleared.
    """
    pivots: dict[int, int] = {}
    for x in m.data:
        _insert(x, pivots)
    return pivots


def rank(m: Mat2) -> int:
    return len(rref(m))


def eliminate(m: Mat2, transform: Mat2) -> tuple[dict[int, int], dict[int, int]]:
    """One elimination of m that carries a row transform T in the same rows: two lowest-one tables.

    The table of [m | T], T with one row per row of m, splits at the
    width of m.  Its rows keyed below the width, masked to m's columns,
    are the table of the row space of m; the rest are rows whose m-part
    reduced to zero, and their T-parts, keyed by their lowest ones in
    T, are a table of the image of the left kernel {z : z m = 0} under
    z -> z T (the left kernel itself when T is the identity).
    """
    if transform.rows != m.rows:
        raise ValueError("the transform needs one row per row of the matrix")
    n, table = m.cols, rref(Mat2.hstack(m, transform))
    return {p: x & (1 << n) - 1 for p, x in table.items() if p < n}, {p - n: x >> n for p, x in table.items() if p >= n}


def select_independent_rows(m: Mat2) -> list[int]:
    """Greedy independent subset of the rows, earlier rows preferred.

    A row is kept exactly when it does not reduce to zero against the
    rows kept before it, so the rows of an echelon prefix are always
    kept, which is what basis completion needs.
    """
    pivots: dict[int, int] = {}
    return [i for i, x in enumerate(m.data) if _insert(x, pivots)]


def solve_many(m: Mat2, rhs: Mat2) -> list[int | None]:
    """Solve m x = b for every row b of rhs with a single elimination; each x as an int, None when there is none.

    b reduced to zero against the rows [z m^T | z] of the table of [m^T | I] keyed below the width leaves
    x, a sum of z's, above the width.
    """
    if rhs.cols != m.rows:
        raise ValueError("right-hand sides have the wrong length")
    n = m.rows
    table = {p: x for p, x in rref(Mat2.hstack(m.transpose(), Mat2.identity(m.cols))).items() if p < n}
    mask = (1 << n) - 1
    return [None if x & mask else x >> n for x in (_reduce(b, table) for b in rhs.data)]


def invert(m: Mat2) -> Mat2:
    """Inverse of a square matrix; raises ValueError when singular.

    Row i is e_i reduced against the table of [m | I], whose rows are [z m | z], read above the width.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    table = rref(Mat2.hstack(m, Mat2.identity(n)))
    if any(p >= n for p in table):
        raise ValueError("matrix is singular")
    return Mat2(n, n, [_reduce(1 << i, table) >> n for i in range(n)])
