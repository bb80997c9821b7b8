"""Dense exact linear algebra over the two-element field.

Each matrix row is packed into 64-bit words, so a row operation is a
word-parallel XOR.  Elimination converts each row to one Python int,
column c at bit c, and reduces the rows one at a time against a table
of pivot rows keyed by their lowest one: every XOR runs over whole rows
in C, and a row costs only the pivots it hits.  `eliminate` carries a
row transform in the same rows as the matrix it reduces, so one
elimination of a boundary matrix gives both its row space and its left
kernel.  A product runs over the ones of its left factor, so products
with sparse boundary matrices cost what their ones cost.

Pivot choice is deterministic everywhere: a pivot is the leftmost one
of its row, and the reduced row-echelon form is unique.  Everything
downstream (kernel bases, cohomology representatives) inherits that
determinism.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Mat2",
    "rref",
    "rank",
    "eliminate",
    "select_independent_rows",
    "solve_many",
    "invert",
]

_ONE = np.uint64(1)
# Rows `Mat2.transpose` and `Mat2.take_cols` unpack at once; a multiple of 64, so each block fills whole words.
_BLOCK_ROWS = 1024
# Words of the right factor's rows `Mat2.mul` gathers at once.
_MUL_WORDS = 1 << 20


def _word_count(cols: int) -> int:
    return (cols + 63) >> 6


def _pack_dense(dense: np.ndarray) -> np.ndarray:
    rows, cols = dense.shape
    nw = _word_count(cols)
    if rows == 0 or cols == 0:
        return np.zeros((rows, nw), dtype=np.uint64)
    by = np.packbits(dense.astype(np.uint8) & 1, axis=1, bitorder="little")
    padded = np.zeros((rows, nw * 8), dtype=np.uint8)
    padded[:, : by.shape[1]] = by
    return padded.view(np.uint64)


class Mat2:
    """Matrix over F2 with bit-packed rows.  Treated as immutable once built."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if words is None:
            words = np.zeros((rows, _word_count(cols)), dtype=np.uint64)
        if words.shape != (rows, _word_count(cols)):
            raise ValueError("packed storage has the wrong shape")
        self.words = words

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat2":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat2":
        m = cls(n, n)
        i = np.arange(n)
        m.words[i, i >> 6] = _ONE << (i & 63).astype(np.uint64)
        return m

    @classmethod
    def from_dense(cls, dense) -> "Mat2":
        arr = np.asarray(dense, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array of bits")
        return cls(arr.shape[0], arr.shape[1], _pack_dense(arr))

    @classmethod
    def from_entries(cls, rows: int, cols: int, i, j) -> "Mat2":
        """The sum of the unit matrices at (i[k], j[k]): a position listed an even number of times is 0."""
        m = cls(rows, cols)
        flat = np.asarray(i, dtype=np.int64) * cols + np.asarray(j, dtype=np.int64)
        pos, count = np.unique(flat, return_counts=True)
        r, c = np.divmod(pos[count & 1 == 1], max(cols, 1))
        np.bitwise_or.at(m.words, (r, c >> 6), _ONE << (c & 63).astype(np.uint64))
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Mat2":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        dense = np.array(rows, dtype=np.uint8).reshape(len(rows), cols)
        return cls.from_dense(dense)

    @classmethod
    def vstack(cls, mats: Iterable["Mat2"]) -> "Mat2":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column mismatch")
        words = np.vstack([m.words for m in mats])
        return cls(sum(m.rows for m in mats), cols, words)

    @classmethod
    def hstack(cls, left: "Mat2", right: "Mat2") -> "Mat2":
        if left.rows != right.rows:
            raise ValueError("row mismatch")
        rows = (a | b << left.cols for a, b in zip(_row_ints(left.words), _row_ints(right.words)))
        return _from_row_ints(left.rows, left.cols + right.cols, rows)

    # -- access -------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j >> 6] >> np.uint64(j & 63)) & _ONE)

    def to_dense(self) -> np.ndarray:
        if self.rows == 0 or self.cols == 0:
            return np.zeros((self.rows, self.cols), dtype=np.uint8)
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, : self.cols])

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, in row-major order; only nonzero words are unpacked."""
        wi, wj = np.nonzero(self.words)
        bits = np.unpackbits(self.words[wi, wj].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        return wi[k].astype(np.int64), wj[k].astype(np.int64) * 64 + b

    def take_rows(self, idx) -> "Mat2":
        idx = list(idx)
        return Mat2(len(idx), self.cols, self.words[idx].copy())

    def take_cols(self, idx) -> "Mat2":
        """The columns idx, in that order; unpacks `_BLOCK_ROWS` rows at a time."""
        idx = np.asarray(idx, dtype=np.int64)
        out = Mat2(self.rows, len(idx))
        for lo in range(0, self.rows, _BLOCK_ROWS):
            block = self.words[lo : lo + _BLOCK_ROWS]
            bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
            out.words[lo : lo + len(block)] = _pack_dense(bits[:, idx])
        return out

    def copy(self) -> "Mat2":
        return Mat2(self.rows, self.cols, self.words.copy())

    def is_zero(self) -> bool:
        return not self.words.any()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.words, other.words)

    def __hash__(self):
        raise TypeError("Mat2 is not hashable")

    def __repr__(self) -> str:
        return f"Mat2({self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "Mat2") -> "Mat2":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat2(self.rows, self.cols, self.words ^ other.words)

    def transpose(self) -> "Mat2":
        """Unpacks `_BLOCK_ROWS` rows at a time, so no dense copy of the whole matrix is made."""
        out = Mat2(self.cols, self.rows)
        for lo in range(0, self.rows, _BLOCK_ROWS):
            block = self.words[lo : lo + _BLOCK_ROWS]
            bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")[:, : self.cols]
            out.words[:, lo >> 6 : (lo >> 6) + _word_count(len(block))] = _pack_dense(bits.T)
        return out

    def mul(self, other: "Mat2") -> "Mat2":
        """Matrix product over F2: each one (i, l) of self XORs row l of other into row i.

        The rows of other are gathered `_MUL_WORDS` words at a time.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = np.zeros((self.rows, other.words.shape[1]), dtype=np.uint64)
        i, l = self.entries()
        step = max(1, _MUL_WORDS // max(1, out.shape[1]))
        for lo in range(0, len(i), step):
            np.bitwise_xor.at(out, i[lo : lo + step], other.words[l[lo : lo + step]])
        return Mat2(self.rows, other.cols, out)

    def mul_vec(self, vec) -> np.ndarray:
        """Matrix times column vector; returns a 0/1 uint8 vector."""
        v = np.asarray(vec, dtype=np.uint8).reshape(-1)
        if v.shape[0] != self.cols:
            raise ValueError("length mismatch")
        if self.rows == 0:
            return np.zeros(0, dtype=np.uint8)
        if self.cols == 0:
            return np.zeros(self.rows, dtype=np.uint8)
        vw = _pack_dense(v.reshape(1, -1))[0]
        x = self.words & vw
        for s in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(s))
        bits = (x & _ONE).astype(np.uint8)
        return (bits.sum(axis=1) & 1).astype(np.uint8)


def _row_ints(words: np.ndarray) -> Iterator[int]:
    """Each row of packed words as one Python int, column c at bit c.

    Lazy, so a caller that reduces the rows as they come holds no second
    copy of the matrix.
    """
    rows, nw = words.shape
    if nw == 0:
        return iter([0] * rows)
    data = memoryview(np.ascontiguousarray(words).reshape(-1).view(np.uint8))
    return (int.from_bytes(data[k : k + 8 * nw], "little") for k in range(0, len(data), 8 * nw))


def _from_row_ints(rows: int, cols: int, ints: Iterable[int]) -> Mat2:
    """The rows x cols matrix whose leading rows are ints, column c at bit c; the rows after them are zero."""
    out = Mat2(rows, cols)
    step = 8 * out.words.shape[1]
    data = memoryview(out.words.reshape(-1).view(np.uint8))
    for k, x in enumerate(ints):
        data[k * step : (k + 1) * step] = x.to_bytes(step, "little")
    return out


def _insert(x: int, pivots: dict[int, int]) -> bool:
    """Reduce the row x by the rows of pivots, each keyed by its lowest one, and add what is left.

    Returns False when x reduces to zero, i.e. lies in their span.
    """
    while x:
        low = (x & -x).bit_length() - 1
        p = pivots.get(low)
        if p is None:
            pivots[low] = x
            return True
        x ^= p
    return False


def rref(m: Mat2) -> tuple[Mat2, list[int]]:
    """Reduced row-echelon form and the ordered list of pivot columns.

    Lowest-one reduction: each row is reduced against the pivot rows
    found so far and kept when a one is left; back-substitution from
    the highest pivot down then clears every pivot column outside its
    own row.  The nonzero rows come first, ordered by pivot column.
    """
    pivots: dict[int, int] = {}
    for x in _row_ints(m.words):
        _insert(x, pivots)
    order = sorted(pivots)
    higher = 0  # the pivot columns above c
    for c in reversed(order):
        x = pivots[c]
        # the rows of the higher pivots are reduced already, so each clears one pivot bit and sets none
        hits = x & higher
        while hits:
            low = hits & -hits
            x ^= pivots[low.bit_length() - 1]
            hits ^= low
        pivots[c] = x
        higher |= 1 << c
    return _from_row_ints(m.rows, m.cols, [pivots[c] for c in order]), order


def rank(m: Mat2) -> int:
    return len(rref(m)[1])


def eliminate(m: Mat2, transform: Mat2) -> tuple[Mat2, list[int], Mat2, list[int]]:
    """One elimination of m that carries a row transform T in the same packed words.

    The rref of [m | T], T with one row per row of m, gives the
    reduced-echelon basis of the row space of m with its pivot columns,
    and below it the reduced-echelon basis of the T-parts of the rows
    that reduce to zero in m, with its pivot columns.  With T the
    identity that is a basis of the left kernel {z : z m = 0}; otherwise
    it spans the image of the left kernel under z -> z T.
    """
    if transform.rows != m.rows:
        raise ValueError("the transform needs one row per row of the matrix")
    lw = m.words.shape[1]
    R, piv = rref(Mat2(m.rows, 64 * lw + transform.cols, np.hstack([m.words, transform.words])))
    r = sum(p < m.cols for p in piv)
    basis = Mat2(r, m.cols, R.words[:r, :lw].copy())
    kernel = Mat2(len(piv) - r, transform.cols, R.words[r : len(piv), lw:].copy())
    return basis, piv[:r], kernel, [p - 64 * lw for p in piv[r:]]


def select_independent_rows(m: Mat2) -> list[int]:
    """Greedy independent subset of the rows, earlier rows preferred.

    A row is kept exactly when it does not reduce to zero against the
    rows kept before it, so the rows of an echelon prefix are always
    kept, which is what basis completion needs.
    """
    pivots: dict[int, int] = {}
    return [i for i, x in enumerate(_row_ints(m.words)) if _insert(x, pivots)]


def solve_many(m: Mat2, rhs: Mat2) -> list[np.ndarray | None]:
    """Solve m x = b for every row b of rhs with a single elimination."""
    if rhs.cols != m.rows:
        raise ValueError("right-hand sides have the wrong length")
    aug = Mat2.hstack(m, rhs.transpose())
    R, piv = rref(aug)
    Rd = R.to_dense()
    zero_rows = [i for i, p in enumerate(piv) if p >= m.cols]
    main = [(i, p) for i, p in enumerate(piv) if p < m.cols]
    out: list[np.ndarray | None] = []
    for k in range(rhs.rows):
        c = m.cols + k
        if any(Rd[i, c] for i in zero_rows):
            out.append(None)
            continue
        x = np.zeros(m.cols, dtype=np.uint8)
        for i, p in main:
            x[p] = Rd[i, c]
        out.append(x)
    return out


def invert(m: Mat2) -> Mat2:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    R, piv = rref(Mat2.hstack(m, Mat2.identity(n)))
    if piv[:n] != list(range(n)) or len(piv) != n:
        raise ValueError("matrix is singular")
    return Mat2.from_dense(R.to_dense()[:, n:])
