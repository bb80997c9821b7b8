"""Surface rings, their squares, swaps, and diagonal classes."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2.simplicial import builtin_triangulation
from conf2.surfaces import (
    Element,
    GradedAlgebra,
    KunnethAlgebra,
    SurfaceKind,
    build_kunneth,
    build_surface_ring,
    diagonal_class,
)
from conf2.gf2 import ones, pack
from sym_reference import basis_element, cross, element, mul, names, unit

SWEEP = [
    SurfaceKind.sphere(),
    SurfaceKind.orientable(1),
    SurfaceKind.orientable(2),
    SurfaceKind.orientable(3),
    SurfaceKind.nonorientable(1),
    SurfaceKind.nonorientable(2),
    SurfaceKind.nonorientable(3),
]


def describe(algebra, x: Element) -> str:
    """The basis names in the support of x, joined by +; "0" for zero."""
    support = [names(algebra, x.degree)[i] for i in ones(x.coeffs)]
    return " + ".join(support) if support else "0"


def check_associative(algebra) -> None:
    """Exhaustive associativity check over basis triples."""
    top = algebra.top_degree
    for p in range(top + 1):
        for q in range(top + 1):
            for r in range(top + 1 - p - q):
                for i in range(algebra.dim(p)):
                    x = basis_element(algebra, p, i)
                    for j in range(algebra.dim(q)):
                        y = basis_element(algebra, q, j)
                        for k in range(algebra.dim(r)):
                            z = basis_element(algebra, r, k)
                            left = mul(algebra, mul(algebra, x, y), z)
                            right = mul(algebra, x, mul(algebra, y, z))
                            if left != right:
                                raise RuntimeError("multiplication is not associative")


def test_kind_labels_roundtrip():
    for kind in SWEEP:
        parsed = SurfaceKind.from_label(kind.label)
        assert parsed == kind and hash(parsed) == hash(kind)
        # builtin_triangulation's cache keys on the kind, so the parsed one finds the same complex
        assert builtin_triangulation(parsed) is builtin_triangulation(kind)


def test_kind_rejects_bad_parameters():
    with pytest.raises(ValueError, match="^orientable genus must be at least 1$"):
        SurfaceKind("orientable", 0)
    with pytest.raises(ValueError, match="^crosscap count must be at least 1$"):
        SurfaceKind("nonorientable", -1)
    with pytest.raises(ValueError, match="^sphere takes no parameter$"):
        SurfaceKind("sphere", 1)
    with pytest.raises(ValueError, match="^unknown surface family: 'torus'$"):
        SurfaceKind("torus", 1)
    with pytest.raises(ValueError, match="^bad surface label: 'torus'$"):
        SurfaceKind.from_label("torus")
    with pytest.raises(ValueError, match=r"^bad surface label: 'orientable:0' \(orientable genus must be at least 1\)$"):
        SurfaceKind.from_label("orientable:0")
    # the parameter is ASCII decimal digits, nothing else int() would take
    for label in ("nonorientable:-1", "orientable:x", "orientable:1_0", "nonorientable: 2", "orientable:\u0663", "orientable:+2"):
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad surface label: {label!r}')}$"):
            SurfaceKind.from_label(label)


def test_kind_refuses_a_square_past_the_limit():
    """The limit is checked before anything is allocated, so an absurd parameter fails at once."""
    assert SurfaceKind.from_label("orientable:1024").param == 1024
    assert SurfaceKind.from_label("nonorientable:2048").param == 2048
    for label, degree_2 in (("orientable:1025", 4202502), ("nonorientable:2049", 4198403)):
        with pytest.raises(ValueError, match=f"too large: its square has {degree_2} degree-2 basis elements, more than 4194306"):
            SurfaceKind.from_label(label)
    with pytest.raises(ValueError, match="^bad surface label: 'orientable:99999999' .*too large"):
        SurfaceKind.from_label("orientable:99999999")


def test_euler_characteristics():
    assert SurfaceKind.sphere().euler == 2
    assert SurfaceKind.orientable(1).euler == 0
    assert SurfaceKind.orientable(2).euler == -2
    assert SurfaceKind.nonorientable(1).euler == 1
    assert SurfaceKind.nonorientable(2).euler == 0


def test_ring_dimensions():
    assert build_surface_ring(SurfaceKind.sphere()).dims() == [1, 0, 1]
    assert build_surface_ring(SurfaceKind.orientable(2)).dims() == [1, 4, 1]
    assert build_surface_ring(SurfaceKind.nonorientable(3)).dims() == [1, 3, 1]


def test_torus_products():
    ring = build_surface_ring(SurfaceKind.orientable(1))
    a = element(ring, 1, ["a1"])
    b = element(ring, 1, ["b1"])
    u = element(ring, 2, ["u"])
    assert mul(ring, a, b) == u
    assert mul(ring, b, a) == u
    assert not mul(ring, a, a).coeffs
    assert not mul(ring, b, b).coeffs
    # top-degree products overflow to zero
    assert not mul(ring, u, u).coeffs
    assert not mul(ring, u, a).coeffs


def test_genus_two_products():
    ring = build_surface_ring(SurfaceKind.orientable(2))
    u = element(ring, 2, ["u"])
    for i in (1, 2):
        ai = element(ring, 1, [f"a{i}"])
        bi = element(ring, 1, [f"b{i}"])
        assert mul(ring, ai, bi) == u
    a1 = element(ring, 1, ["a1"])
    a2 = element(ring, 1, ["a2"])
    b2 = element(ring, 1, ["b2"])
    assert not mul(ring, a1, a2).coeffs
    assert not mul(ring, a1, b2).coeffs


def test_nonorientable_products():
    ring = build_surface_ring(SurfaceKind.nonorientable(2))
    u = element(ring, 2, ["u"])
    w1 = element(ring, 1, ["w1"])
    w2 = element(ring, 1, ["w2"])
    assert mul(ring, w1, w1) == u
    assert mul(ring, w2, w2) == u
    assert not mul(ring, w1, w2).coeffs


def test_unit_and_describe():
    ring = build_surface_ring(SurfaceKind.nonorientable(1))
    one = unit(ring)
    w = element(ring, 1, ["w1"])
    assert mul(ring, one, w) == w
    assert describe(ring, w) == "w1"
    assert describe(ring, Element(1, 0)) == "0"


@pytest.mark.parametrize("kind", SWEEP)
def test_ring_associativity(kind):
    check_associative(build_surface_ring(kind))


def test_square_dimensions():
    assert build_kunneth(build_surface_ring(SurfaceKind.sphere())).dims() == [1, 0, 2, 0, 1]
    assert build_kunneth(build_surface_ring(SurfaceKind.orientable(1))).dims() == [1, 4, 6, 4, 1]
    assert build_kunneth(build_surface_ring(SurfaceKind.orientable(2))).dims() == [1, 8, 18, 8, 1]
    assert build_kunneth(build_surface_ring(SurfaceKind.nonorientable(1))).dims() == [1, 2, 3, 2, 1]
    assert build_kunneth(build_surface_ring(SurfaceKind.nonorientable(2))).dims() == [1, 4, 6, 4, 1]


def test_square_products_follow_factors():
    square = build_kunneth(build_surface_ring(SurfaceKind.orientable(1)))
    ring = square.factor
    a = element(ring, 1, ["a1"])
    b = element(ring, 1, ["b1"])
    u = element(ring, 2, ["u"])
    one = unit(ring)
    # (a x 1)(1 x b) = a x b and (a x b)(b x a) = u x u
    assert mul(square, cross(square, a, one), cross(square, one, b)) == cross(square, a, b)
    assert mul(square, cross(square, a, b), cross(square, b, a)) == cross(square, u, u)
    assert not mul(square, cross(square, a, one), cross(square, a, b)).coeffs


def test_swap_is_involution():
    for kind in SWEEP:
        square = build_kunneth(build_surface_ring(kind))
        for n in range(square.top_degree + 1):
            perm = np.asarray(square.swap_perm[n], dtype=np.int64)
            assert np.array_equal(perm[perm], np.arange(len(perm)))


def test_swap_exchanges_factors():
    square = build_kunneth(build_surface_ring(SurfaceKind.orientable(1)))
    ring = square.factor
    a = element(ring, 1, ["a1"])
    u = element(ring, 2, ["u"])
    assert square.swap(cross(square, a, u)) == cross(square, u, a)


def test_diagonal_class_sphere():
    square = build_kunneth(build_surface_ring(SurfaceKind.sphere()))
    assert square.diagonal == element(square, 2, ["u|1", "1|u"])


def test_diagonal_class_torus():
    square = build_kunneth(build_surface_ring(SurfaceKind.orientable(1)))
    assert square.diagonal == element(square, 2, ["u|1", "1|u", "a1|b1", "b1|a1"])


def test_diagonal_class_genus_two():
    square = build_kunneth(build_surface_ring(SurfaceKind.orientable(2)))
    expected = element(square, 2, ["u|1", "1|u", "a1|b1", "b1|a1", "a2|b2", "b2|a2"])
    assert square.diagonal == expected


def test_diagonal_class_projective_plane():
    square = build_kunneth(build_surface_ring(SurfaceKind.nonorientable(1)))
    assert square.diagonal == element(square, 2, ["u|1", "1|u", "w1|w1"])


def test_diagonal_class_klein_bottle():
    square = build_kunneth(build_surface_ring(SurfaceKind.nonorientable(2)))
    expected = element(square, 2, ["u|1", "1|u", "w1|w1", "w2|w2"])
    assert square.diagonal == expected


@pytest.mark.parametrize("kind", SWEEP)
def test_diagonal_swap_invariant(kind):
    square = build_kunneth(build_surface_ring(kind))
    assert square.swap(square.diagonal) == square.diagonal


@pytest.mark.parametrize("kind", SWEEP)
def test_diagonal_absorbs_the_swap(kind):
    """(x cross 1) d equals (1 cross x) d for every basis class x."""
    square = build_kunneth(build_surface_ring(kind))
    ring = square.factor
    one = unit(ring)
    d = square.diagonal
    for q in range(ring.top_degree + 1):
        for i in range(ring.dim(q)):
            x = basis_element(ring, q, i)
            left = mul(square, cross(square, x, one), d)
            right = mul(square, cross(square, one, x), d)
            assert left == right


@pytest.mark.parametrize(
    "kind",
    [SurfaceKind.orientable(1), SurfaceKind.orientable(2), SurfaceKind.nonorientable(2)],
)
def test_square_associativity(kind):
    check_associative(build_kunneth(build_surface_ring(kind)))


def packed_table(entries) -> list[list[int]]:
    """A (dim p, dim q, dim p+q) array of 0/1 entries as the table of ints GradedAlgebra takes."""
    return [[pack(e) for e in row] for row in entries]


def packed(mult) -> dict:
    return {pq: packed_table(entries) for pq, entries in mult.items()}


def test_degenerate_pairing_rejected():
    # one degree-1 class that squares to zero: the pairing matrix is singular
    one = np.ones((1, 1, 1), dtype=np.uint8)
    mult = {(0, 0): one, (0, 1): one, (1, 0): one, (0, 2): one, (2, 0): one, (1, 1): np.zeros((1, 1, 1))}
    ring = GradedAlgebra([["1"], ["v"], ["u"]], packed(mult))
    square = KunnethAlgebra(ring)
    with pytest.raises(ValueError):
        diagonal_class(square)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda m: m.pop((1, 1)), "does not cover"),
        (lambda m: m.update({(1, 1): packed_table(np.array([[[0, 1]]]))}), "wrong shape"),
        (lambda m: m.update({(0, 1): [[0]]}), "not commutative"),
        (lambda m: m.update({(0, 1): [[0]], (1, 0): [[0]]}), "not a unit"),
    ],
    ids=["missing", "shape", "commutative", "unit"],
)
def test_factor_table_is_validated(change, message):
    mult = dict(build_surface_ring(SurfaceKind.nonorientable(1)).mult)
    change(mult)
    with pytest.raises(ValueError, match=message):
        GradedAlgebra([["1"], ["w1"], ["u"]], mult)


@pytest.mark.parametrize("kind", SWEEP[:3] + SWEEP[4:6], ids=lambda k: k.label)
def test_square_product_is_the_factorwise_product(kind):
    """(x1|x2)(y1|y2) = x1 y1 | x2 y2 on every pair of basis elements."""
    square = build_kunneth(build_surface_ring(kind))
    ring = square.factor
    basis = [
        (basis_element(ring, p, i), basis_element(ring, n - p, j))
        for n in range(square.top_degree + 1)
        for p in square.offset[n]
        for i in range(ring.dim(p))
        for j in range(ring.dim(n - p))
    ]
    for x1, x2 in basis:
        for y1, y2 in basis:
            got = mul(square, cross(square, x1, x2), cross(square, y1, y2))
            left, right = mul(ring, x1, y1), mul(ring, x2, y2)
            if left.degree > ring.top_degree or right.degree > ring.top_degree:
                assert not got.coeffs
            else:
                assert got == cross(square, left, right)


def test_square_basis_order_and_swap_at_scale():
    square = build_kunneth(build_surface_ring(SurfaceKind.orientable(64)))
    assert square.dims() == [1, 256, 16386, 256, 1]
    labels = names(square, 2)
    assert labels[:2] == ["1|u", "a1|a1"] and labels[-1] == "u|1"
    a, b = element(square.factor, 1, ["a3"]), element(square.factor, 1, ["b5"])
    assert square.swap(cross(square, a, b)) == cross(square, b, a)
    fixed = np.flatnonzero(square.swap_perm[2] == np.arange(square.dim(2)))
    assert [labels[i] for i in fixed[:2]] == ["a1|a1", "a2|a2"] and len(fixed) == 128


@st.composite
def square_elements(draw, square, degree=None):
    if degree is None:
        degree = draw(st.integers(min_value=0, max_value=square.top_degree))
    bits = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=square.dim(degree),
            max_size=square.dim(degree),
        )
    )
    return Element(degree, pack(bits))


_SQUARE = build_kunneth(build_surface_ring(SurfaceKind.orientable(1)))


@settings(max_examples=60, deadline=None)
@given(
    x=square_elements(_SQUARE, degree=1),
    y=square_elements(_SQUARE, degree=1),
)
def test_swap_is_a_ring_map(x, y):
    lhs = _SQUARE.swap(mul(_SQUARE, x, y))
    rhs = mul(_SQUARE, _SQUARE.swap(x), _SQUARE.swap(y))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(x=square_elements(_SQUARE), y=square_elements(_SQUARE))
def test_square_commutative_on_elements(x, y):
    assert mul(_SQUARE, x, y) == mul(_SQUARE, y, x)
