"""numpy as the tests' independent reference for the int-row GF(2) code.

`conf2` keeps every matrix row and vector as one Python int, column c
at bit c, and imports no numpy.  The tests build their inputs and check
their answers with numpy arrays, so the dense conversions live here:
`from_dense`/`to_dense` between a 0/1 array and a `Mat2`, `from_rows` for
nested 0/1 rows, `bits` for one int vector, `entries` for the ones of a
matrix, `from_entries` back, and `mul_vec` for a matrix-vector product
on arrays.  `from_boundaries` turns boundary matrices, one per
dimension, into the face lists a `CellComplex` holds.  `stack` puts matrices of one width
one above another, and `echelon` lists the rows of a lowest-one table.

`reference_rref` is the column-loop elimination `gf2.rref` replaced: it
loops over the columns left to right, takes the first not-yet-used row
with a one in the column as its pivot, and XORs it into every other row
carrying that bit, with numpy selecting and XORing the rows in packed
64-bit words.  Its reduced row-echelon form is unique, so it names a row
space exactly: `is_echelon_form_of` checks rows in ascending lowest one
against it, and `is_table_of` a lowest-one table, which `gf2.rref`
gives.
"""

import numpy as np

from conf2.cells import CellComplex
from conf2.gf2 import Mat2, ones, pack

_ONE = np.uint64(1)


def bits(x: int, n: int) -> np.ndarray:
    """The int x as a 0/1 uint8 vector of length n, bit i at entry i; OverflowError when x is wider."""
    raw = np.frombuffer(x.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].copy()


def _words(m: Mat2) -> np.ndarray:
    """The rows of m packed into 64-bit words, column c at bit c & 63 of word c >> 6."""
    nw = (m.cols + 63) >> 6
    raw = b"".join(x.to_bytes(8 * nw, "little") for x in m.data)
    return np.frombuffer(raw, dtype=np.uint64).reshape(m.rows, nw).copy()


def to_dense(m: Mat2) -> np.ndarray:
    """m as a rows x cols 0/1 uint8 array."""
    if m.rows == 0 or m.cols == 0:
        return np.zeros((m.rows, m.cols), dtype=np.uint8)
    unpacked = np.unpackbits(_words(m).view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(unpacked[:, : m.cols])


def from_dense(dense) -> Mat2:
    """A 2-d array of 0/1 entries (each counts by its parity) as a Mat2."""
    arr = np.asarray(dense).astype(np.uint8) & 1
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array of bits")
    packed = np.packbits(arr, axis=1, bitorder="little")
    return Mat2(arr.shape[0], arr.shape[1], [int.from_bytes(row.tobytes(), "little") for row in packed])


def from_rows(rows, cols: int | None = None) -> Mat2:
    """From nested 0/1 rows, numpy arrays included; each entry counts by its parity."""
    rows = [list(r) for r in rows]
    if cols is None:
        cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    return Mat2(len(rows), cols, [pack(r) for r in rows])


def entries(m: Mat2) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ones, in row-major order; costs the ones, not the dense size."""
    i: list[int] = []
    j: list[int] = []
    for r, x in enumerate(m.data):
        cols = ones(x)
        i += [r] * len(cols)
        j += cols
    return np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)


def from_entries(rows: int, cols: int, i, j) -> Mat2:
    """The sum of the unit matrices at (i[k], j[k]): a position listed an even number of times is 0."""
    data = [0] * rows
    for r, c in zip(i, map(int, j)):
        data[r] ^= 1 << c
    return Mat2(rows, cols, data)


def from_boundaries(cells, boundaries, involution=None, folded=None) -> CellComplex:
    """The cell complex whose d-cell j has the faces at the ones of column j of boundaries[d].

    folded, when given, is one matrix per dimension of the same shape, read the same way.
    """

    def faces(B: Mat2) -> list[tuple[int, ...]]:
        return [tuple(ones(x)) for x in B.transpose().data]

    return CellComplex(
        cells, [faces(B) for B in boundaries], involution, None if folded is None else [faces(F) for F in folded]
    )


def mul_vec(m: Mat2, vec) -> np.ndarray:
    """m times a 0/1 column vector, through `Mat2.mul_vec`, as a uint8 array."""
    v = np.asarray(vec, dtype=np.uint8).reshape(-1)
    if v.shape[0] != m.cols:
        raise ValueError("length mismatch")
    x = int.from_bytes(np.packbits(v & 1, bitorder="little").tobytes(), "little")
    return bits(m.mul_vec(x), m.rows)


def reference_rref(m: Mat2) -> tuple[Mat2, list[int]]:
    """Reduced row-echelon form and pivot columns by a Python loop over the columns."""
    w = _words(m)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        wi = c >> 6
        sh = np.uint64(c & 63)
        col = (w[r:, wi] >> sh) & _ONE
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            w[[r, p]] = w[[p, r]]
        mask = ((w[:, wi] >> sh) & _ONE).astype(bool)
        mask[r] = False
        if mask.any():
            w[mask] ^= w[r]
        pivots.append(c)
        r += 1
    return Mat2(m.rows, m.cols, [int.from_bytes(row.tobytes(), "little") for row in w]), pivots


def reference_span(m: Mat2) -> tuple[list[int], list[int]]:
    """The nonzero rows of m's reduced row-echelon form and its pivots: equal exactly when the row spaces are."""
    R, piv = reference_rref(m)
    return R.data[: len(piv)], piv


def lowest_one(x: int) -> int:
    return (x & -x).bit_length() - 1


def stack(*mats: Mat2) -> Mat2:
    """The rows of the matrices, one after another; all have the first one's width."""
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    return Mat2(sum(m.rows for m in mats), cols, [x for m in mats for x in m.data])


def echelon(table: dict[int, int], cols: int) -> Mat2:
    """The rows of a lowest-one table in ascending key, as a matrix of the given width."""
    return Mat2(len(table), cols, [table[p] for p in sorted(table)])


def is_echelon_form_of(R: Mat2, m: Mat2) -> bool:
    """Whether R's rows are nonzero with strictly ascending lowest ones and span the row space of m.

    Then R has the reference's pivots as its lowest ones.
    """
    lows = [lowest_one(x) for x in R.data]
    return all(R.data) and lows == sorted(set(lows)) and reference_span(R) == reference_span(m)


def is_table_of(table: dict[int, int], m: Mat2) -> bool:
    """Whether table is a lowest-one table of the row space of m: each row keyed by its lowest one."""
    return all(x and lowest_one(x) == p for p, x in table.items()) and is_echelon_form_of(echelon(table, m.cols), m)
