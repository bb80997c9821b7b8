import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2.gf2 import (
    Mat2,
    eliminate,
    from_ones,
    invert,
    ones,
    permute,
    rank,
    rref,
    select_independent_rows,
    solve_many,
    xor_rows,
)
from gf2_reference import (
    bits,
    echelon,
    entries,
    from_dense,
    from_rows,
    is_echelon_form_of,
    is_table_of,
    mul_vec,
    reference_rref,
    to_dense,
)
from sym_reference import Subspace, quotient_map_with_section, subspace_equal


def rank_and_kernel(m: Mat2) -> tuple[int, Mat2]:
    """Rank of m and a basis of {v : m v = 0}: the left kernel of the transpose, from one elimination."""
    basis, kernel = eliminate(m.transpose(), Mat2.identity(m.cols))
    return len(basis), echelon(kernel, m.cols)


def solve_one(m: Mat2, b) -> np.ndarray | None:
    sol = solve_many(m, from_dense(np.asarray(b, dtype=np.uint8).reshape(1, -1)))[0]
    return None if sol is None else bits(sol, m.cols)


def test_rref_collapses_equal_rows():
    assert rref(from_rows([[1, 1], [1, 1]])) == {0: 0b11}


def test_rref_identity_is_fixed():
    assert rref(Mat2.identity(3)) == {0: 0b001, 1: 0b010, 2: 0b100}


def test_rref_rank_two_example():
    """Nothing above a lowest one is cleared: the row keyed 0 keeps its one at column 1, the other row's key."""
    m = from_rows([[0, 1, 1], [1, 1, 0], [1, 0, 1]])
    table = rref(m)
    assert table == {0: 0b011, 1: 0b110}
    assert to_dense(echelon(table, 3)).tolist() == [[1, 1, 0], [0, 1, 1]]
    assert is_table_of(table, m)


def test_rank_and_kernel_zero_matrix():
    r, ker = rank_and_kernel(Mat2.zeros(2, 3))
    assert r == 0
    assert ker.rows == 3


def test_rank_and_kernel_identity():
    r, ker = rank_and_kernel(Mat2.identity(4))
    assert r == 4
    assert ker.rows == 0


def test_rank_and_kernel_rank_one():
    r, ker = rank_and_kernel(from_rows([[1, 1], [1, 1]]))
    assert r == 1
    assert ker.rows == 1
    assert to_dense(ker).tolist() == [[1, 1]]


def test_solve_identity():
    x = solve_one(Mat2.identity(2), [1, 0])
    assert x.tolist() == [1, 0]


def test_solve_underdetermined_row():
    m = from_rows([[1, 1]])
    x = solve_one(m, [1])
    assert x is not None
    assert mul_vec(m, x).tolist() == [1]


def test_solve_inconsistent():
    m = from_rows([[1, 1], [1, 1]])
    assert solve_one(m, [1, 0]) is None


def test_solve_many_mixed():
    m = from_rows([[1, 1], [1, 1]])
    sols = solve_many(m, from_rows([[1, 0], [1, 1]]))
    assert sols[0] is None
    assert sols[1] is not None
    assert mul_vec(m, bits(sols[1], m.cols)).tolist() == [1, 1]


def test_quotient_of_diagonal_line():
    sub = Subspace.spanned_by(2, [[1, 1]])
    proj, _, qdim = quotient_map_with_section(2, sub)
    assert qdim == 1
    assert mul_vec(proj, [1, 0]).tolist() == mul_vec(proj, [0, 1]).tolist()
    assert mul_vec(proj, [1, 1]).tolist() == [0]


def test_quotient_by_zero_subspace_is_identity():
    proj, _, qdim = quotient_map_with_section(3, Subspace.zero(3))
    assert qdim == 3
    assert proj == Mat2.identity(3)


def test_quotient_section_splits_projection():
    sub = Subspace.spanned_by(4, [[1, 0, 1, 0], [0, 1, 1, 1]])
    proj, sec, qdim = quotient_map_with_section(4, sub)
    assert qdim == 2
    assert proj.mul(sec) == Mat2.identity(2)
    for row in to_dense(sub.basis):
        assert not mul_vec(proj, row).any()


def test_subspace_equal_duplicate_generator():
    a = Subspace.spanned_by(3, [[1, 1, 0]])
    b = Subspace.spanned_by(3, [[1, 1, 0], [1, 1, 0]])
    assert subspace_equal(a, b)


def test_subspace_equal_distinguishes_lines():
    a = Subspace.spanned_by(2, [[1, 0]])
    b = Subspace.spanned_by(2, [[0, 1]])
    assert not subspace_equal(a, b)


def test_subspace_contains():
    s = Subspace.spanned_by(3, [[1, 1, 0], [0, 1, 1]])
    assert s.contains([1, 0, 1])
    assert not s.contains([1, 0, 0])


def test_empty_matrices_are_legal():
    m = Mat2.zeros(0, 5)
    assert rank(m) == 0
    assert rank_and_kernel(m)[1].rows == 5
    n = Mat2.zeros(5, 0)
    assert rank(n) == 0
    assert rank_and_kernel(n)[1].rows == 0
    assert m.mul(Mat2.zeros(5, 0)).shape == (0, 0)


def test_invert_round_trip():
    m = from_rows([[0, 1], [1, 0]])
    assert invert(m).mul(m) == Mat2.identity(2)
    with pytest.raises(ValueError):
        invert(from_rows([[1, 1], [1, 1]]))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_invert_is_a_two_sided_inverse_exactly_when_the_reference_rank_is_full(n, seed):
    """About 29% of random square matrices over F2 are invertible; the rank is the column-loop reference's."""
    m = from_dense(np.random.default_rng(seed).integers(0, 2, size=(n, n), dtype=np.uint8))
    if len(reference_rref(m)[1]) == n:
        inv = invert(m)
        assert inv.mul(m) == Mat2.identity(n) == m.mul(inv)
    else:
        with pytest.raises(ValueError, match="singular"):
            invert(m)


def test_select_independent_rows_prefers_earlier():
    m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]])
    assert select_independent_rows(m) == [0, 1, 3]


def test_wide_matrix_crosses_word_boundary():
    n = 130
    m = Mat2.identity(n)
    assert rank(m) == n
    assert m.data[129] >> 129 & 1
    assert m.mul(m) == m


@st.composite
def mat2s(draw, max_rows=7, max_cols=7):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return from_rows(bits, cols=c)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 24), st.integers(0, 140), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_rref_matches_the_column_loop_reference(rows, cols, inner, seed):
    """Products of rows x inner and inner x cols factors, so tall ones are rank-deficient;
    rows of the left factor zeroed at random give zero rows, and zero sizes give empty shapes."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 2, size=(rows, inner)) * (rng.random((rows, 1)) < 0.8)
    m = from_dense(left @ rng.integers(0, 2, size=(inner, cols)) % 2)
    assert is_table_of(rref(m), m)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 9), st.integers(0, 140), st.integers(0, 140), st.integers(0, 2**32 - 1))
def test_hstack_matches_dense(rows, left_cols, right_cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, left_cols), dtype=np.uint8)
    b = rng.integers(0, 2, size=(rows, right_cols), dtype=np.uint8)
    assert Mat2.hstack(from_dense(a), from_dense(b)) == from_dense(np.hstack([a, b]))


@settings(deadline=None, max_examples=150)
@given(mat2s())
def test_rref_is_idempotent(m):
    table = rref(m)
    assert rref(Mat2(len(table), m.cols, list(table.values()))) == table


@settings(deadline=None, max_examples=150)
@given(mat2s())
def test_rank_plus_kernel_dim_is_width(m):
    r, ker = rank_and_kernel(m)
    assert r + ker.rows == m.cols
    for row in to_dense(ker):
        assert not mul_vec(m, row).any()


@settings(deadline=None, max_examples=150)
@given(mat2s())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(deadline=None, max_examples=100)
@given(mat2s(max_rows=6, max_cols=6))
def test_solve_recovers_consistent_systems(m):
    for x in ([0] * m.cols, [1] * m.cols):
        b = mul_vec(m, x) if m.cols else np.zeros(m.rows, dtype=np.uint8)
        got = solve_one(m, b)
        assert got is not None
        assert mul_vec(m, got).tolist() == b.tolist()


@settings(deadline=None, max_examples=100)
@given(mat2s(max_rows=6, max_cols=6))
def test_quotient_projection_kills_exactly_the_subspace(m):
    sub = Subspace.spanned_by(m.cols, m)
    assert sub.basis == echelon(rref(m), m.cols) and is_echelon_form_of(sub.basis, m)
    proj, _, qdim = quotient_map_with_section(m.cols, sub)
    assert qdim == m.cols - sub.dim
    for row in to_dense(m):
        assert not mul_vec(proj, row).any()
    assert rank(proj) == qdim


@settings(deadline=None, max_examples=100)
@given(mat2s(max_rows=6, max_cols=6))
def test_selected_rows_span_the_row_space(m):
    picked = select_independent_rows(m)
    assert len(picked) == rank(m)
    if picked:
        assert subspace_equal(
            Subspace.spanned_by(m.cols, m.take_rows(picked)),
            Subspace.spanned_by(m.cols, m),
        )


def test_from_entries_cancels_repeated_positions():
    m = Mat2.from_entries(2, 70, [0, 1, 1, 0, 1], [3, 69, 69, 3, 0])
    dense = np.zeros((2, 70), dtype=np.uint8)
    dense[1, 0] = 1
    assert m == from_dense(dense)
    assert Mat2.from_entries(0, 0, [], []) == Mat2.zeros(0, 0)


@settings(deadline=None, max_examples=150)
@given(mat2s(max_rows=9, max_cols=70))
def test_entries_round_trip(m):
    i, j = entries(m)
    assert list(zip(i.tolist(), j.tolist())) == [tuple(ij) for ij in np.argwhere(to_dense(m)).tolist()]
    assert Mat2.from_entries(m.rows, m.cols, i, j) == m


def test_entries_cross_word_boundaries():
    rows, cols = [0, 0, 1, 2], [0, 63, 64, 129]
    i, j = entries(Mat2.from_entries(3, 130, rows, cols))
    assert i.tolist() == rows and j.tolist() == cols


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2100), st.integers(0, 70), st.integers(0, 2**32 - 1))
def test_transpose_matches_dense_across_row_blocks(rows, cols, seed):
    dense = np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    assert from_dense(dense).transpose() == from_dense(dense.T)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 9), st.integers(0, 140), st.integers(0, 140), st.integers(0, 2**32 - 1))
def test_mul_matches_dense_product(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
    b = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
    expected = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert from_dense(a).mul(from_dense(b)) == from_dense(expected)


@settings(deadline=None, max_examples=150)
@given(mat2s(max_rows=8, max_cols=70), st.data())
def test_eliminate_splits_row_space_and_left_kernel(m, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=m.rows * 5, max_size=m.rows * 5))
    transform = from_dense(np.array(bits, dtype=np.uint8).reshape(m.rows, 5))
    basis, kernel = eliminate(m, Mat2.identity(m.rows))
    assert basis == rref(m) and is_table_of(basis, m)
    Z = echelon(kernel, m.rows)
    assert len(kernel) == m.rows - len(basis) and rref(Z) == kernel
    assert Z.mul(m).is_zero()
    # with a transform T the kernel part is a table of {z T : z m = 0}
    image = eliminate(m, transform)[1]
    assert is_table_of(image, Z.mul(transform))


# -- the int-row code against numpy on dense 0/1 arrays -----------------------
# Shapes run from empty to 140 columns, so rows cross one and two 64-bit boundaries.


def random_bits(seed: int, rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)


SHAPES = (st.integers(0, 12), st.integers(0, 140), st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=100)
@given(*SHAPES)
def test_dense_round_trip_and_row_constructor(rows, cols, seed):
    a = random_bits(seed, rows, cols)
    m = from_dense(a)
    assert m.shape == a.shape and np.array_equal(to_dense(m), a)
    assert from_rows(a, cols=cols) == m
    assert all(ones(x) == np.flatnonzero(row).tolist() for x, row in zip(m.data, a))


@settings(deadline=None, max_examples=100)
@given(*SHAPES)
def test_transpose_matches_numpy(rows, cols, seed):
    a = random_bits(seed, rows, cols)
    assert from_dense(a).transpose() == from_dense(a.T)


@settings(deadline=None, max_examples=100)
@given(*SHAPES, st.data())
def test_permute_matches_numpy(rows, cols, seed, data):
    """The one at column i moves to perm[i]: numpy's columns taken by the inverse permutation."""
    a = random_bits(seed, rows, cols)
    perm = data.draw(st.permutations(range(cols)))
    moved = [permute(x, perm) for x in from_dense(a).data]
    assert Mat2(rows, cols, moved) == from_dense(a[:, np.argsort(perm)])


@settings(deadline=None, max_examples=100)
@given(*SHAPES)
def test_vector_products_match_numpy(rows, cols, seed):
    a = random_bits(seed, rows, cols)
    x, v = random_bits(seed + 1, 1, rows)[0], random_bits(seed + 2, 1, cols)[0]
    m = from_dense(a)
    assert xor_rows(m.data, from_dense(x[None]).data[0]) == from_dense((x @ a.astype(np.int64) % 2)[None]).data[0]
    assert mul_vec(m, v).tolist() == (a.astype(np.int64) @ v % 2).tolist()


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 12), st.integers(0, 140), st.data())
def test_from_entries_keeps_parity(rows, cols, data):
    """Repeated positions cancel in pairs, in any order, also across 64-bit words."""
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    listed = data.draw(st.lists(cells, max_size=60)) if rows and cols else []
    counts = np.zeros((rows, cols), dtype=np.int64)
    for i, j in listed:
        counts[i, j] += 1
    i, j = ([p[k] for p in listed] for k in (0, 1))
    assert Mat2.from_entries(rows, cols, i, j) == from_dense(counts % 2)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(0, 300), max_size=40))
def test_from_ones_keeps_parity(positions):
    odd = np.flatnonzero(np.bincount(np.asarray(positions, dtype=np.int64), minlength=1) % 2).tolist()
    assert ones(from_ones(positions)) == odd
