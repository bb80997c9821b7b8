"""The column-loop GF(2) elimination, kept as a test-only reference.

`gf2.rref` reduces one row at a time on Python-int bitsets.  This is
the kernel it replaced: it loops over the columns left to right, takes
the first not-yet-used row with a one in the column as its pivot, and
XORs it into every other row carrying that bit, with numpy selecting
and XORing the rows in packed words.  A reduced row-echelon form is
unique, so both must give the same matrix and pivot columns bit for bit.
"""

import numpy as np

from conf2.gf2 import Mat2

_ONE = np.uint64(1)


def reference_rref(m: Mat2) -> tuple[Mat2, list[int]]:
    """Reduced row-echelon form and pivot columns by a Python loop over the columns."""
    w = m.words.copy()
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
    return Mat2(m.rows, m.cols, w), pivots
