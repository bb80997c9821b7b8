"""The oracle's stages on complexes that are not surfaces, against answers known without them.

UConf(2, S^n) is homotopy equivalent to RP^n, so for the boundary of
the (n+1)-simplex H*(Q) = F2[alpha]/alpha^(n+1), one tower, height n,
and Conf(2, S^n) ~ S^n has dims 1 in degrees 0 and n.  The deleted
products of K5 and K3,3 are closed orientable surfaces of genus 6 and 4
(Abrams, PhD thesis, UC Berkeley, 2000), with odd Euler characteristic,
so Q is N7 or N5 and alpha^2 = w2 is nonzero.  For a closed n-manifold M
the Gysin map of the diagonal is injective, so
dim H^q(Conf(2, M)) = dim H^q(M x M) - dim H^(q-n)(M), and the deleted
product has Euler characteristic chi^2 - chi.
"""

from functools import cache
from math import comb

import pytest

from conf2.borel import (
    Tower,
    check_norm_map,
    cover_counts,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    sw_height,
)
from conf2.cells import cohomology_f2, deleted_product_euler, quotient_complex, simplicial_cell_complex
from conf2.conf_symbolic import ConfRow, conf_cohomology
from conf2.simplicial import is_orientable, validate_surface
from conf2.surfaces import SurfaceKind
from known_answers import complete_bipartite, complete_graph, sphere_boundary, staircase_product

SPHERES = {f"S{n}": (lambda n=n: sphere_boundary(n)) for n in range(1, 6)}
INPUTS = {
    **SPHERES,
    "K5": lambda: complete_graph(5),
    "K3,3": lambda: complete_bipartite(3, 3),
    "S2xS1": lambda: staircase_product(sphere_boundary(2), sphere_boundary(1)),
    "torus": lambda: staircase_product(sphere_boundary(1), sphere_boundary(1)),
}
# The closed manifolds among the inputs, with their dimensions.
MANIFOLDS = {**{name: int(name[1:]) for name in SPHERES}, "S2xS1": 3, "torus": 2}


@cache
def oracle(name: str):
    """K, H*(K), the orbit complex Q, H*(Q) and the alpha-module, for the named input."""
    K = INPUTS[name]()
    Q = quotient_complex(K)
    HQ = cohomology_f2(Q)
    A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), HQ)
    return K, cohomology_f2(simplicial_cell_complex(K)), Q, HQ, A


@pytest.mark.parametrize("n", range(1, 6))
def test_sphere_quotient_is_truncated_polynomial(n):
    K, _, Q, _, A = oracle(f"S{n}")
    assert K.counts() == tuple(comb(n + 2, d + 1) for d in range(n + 1))
    assert A.dims == [1] * (n + 1) + [0] * n
    assert A.towers == [Tower(0, n + 1)]
    assert sw_height(A) == n
    assert cover_counts(A) == [(1, 0) if q in (0, n) else (0, 0) for q in range(2 * n + 1)]


@pytest.mark.parametrize("name,genus", [("K5", 6), ("K3,3", 4)])
def test_graph_quotients_are_nonorientable_surfaces(name, genus):
    """Q is the nonorientable surface N_(genus+1): alpha^2 = w2 lifts the unit to degree 2 and kills the rest of H^1."""
    _, _, _, _, A = oracle(name)
    assert A.dims == [1, genus + 1, 1]
    assert A.towers == [Tower(0, 3)] + [Tower(1, 1)] * genus
    assert sw_height(A) == 2


def test_s2_times_s1_sizes_and_cover():
    K, _, Q, _, A = oracle("S2xS1")
    assert K.counts() == (12, 48, 72, 36) and K.euler == 0
    assert sum(Q.cell_counts()) == 6520
    assert [dim for dim, _ in cover_counts(A)] == [1, 2, 3, 3, 2, 1, 0]


@pytest.mark.parametrize("name", MANIFOLDS)
def test_conf_dims_are_square_minus_shifted_manifold(name):
    K, HK, _, _, A = oracle(name)
    n = MANIFOLDS[name]
    betti = HK.dims + [0] * (n + 1)  # dim H^q(M), zero above n
    expected = [sum(betti[i] * betti[q - i] for i in range(q + 1)) - betti[q - n] * (q >= n) for q in range(2 * n + 1)]
    assert [dim for dim, _ in cover_counts(A)] == expected
    assert deleted_product_euler(K) == K.euler**2 - K.euler


@pytest.mark.parametrize("name", INPUTS)
def test_norm_classes_span_ker_alpha(name):
    K, HK, Q, HQ, A = oracle(name)
    assert check_norm_map(K, HK, Q, HQ, A) == [HQ.dims[n] - A.rank(n, 1) for n in range(len(Q.cells))]


def test_staircase_torus_matches_the_closed_form():
    """The product of two 3-cycles is a 9-vertex torus; its oracle rows equal the symbolic side's for orientable:1."""
    K, _, _, _, A = oracle("torus")
    info = validate_surface(K)
    assert (K.vertex_count, info["closed"], info["connected"], K.euler, is_orientable(K)) == (9, True, True, 0, True)
    rows = [ConfRow(q, dim, dim - 2 * f, f) for q, (dim, f) in enumerate(cover_counts(A))]
    assert rows == conf_cohomology(SurfaceKind.orientable(1)).rows
