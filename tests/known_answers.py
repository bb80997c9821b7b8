"""Simplicial complexes beyond surfaces whose two-point configuration spaces are known without the oracle.

`sphere_boundary(n)` is the boundary of the (n+1)-simplex, an n-sphere;
`complete_graph(n)` and `complete_bipartite(m, n)` are the graphs K_n and
K_{m,n}; `staircase_product(K, L)` triangulates |K| x |L| from the vertex
orders of K and L, so the product of the 2-sphere and the circle
`sphere_boundary(1)` is an S^2 x S^1 on 12 vertices and the product of
two circles a 9-vertex torus.
"""

from itertools import combinations

from conf2.simplicial import SimplicialComplex


def sphere_boundary(n: int) -> SimplicialComplex:
    """The boundary of the simplex on n + 2 vertices: its facets are the (n + 1)-vertex subsets."""
    return SimplicialComplex(n + 2, combinations(range(n + 2), n + 1))


def complete_graph(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> SimplicialComplex:
    return SimplicialComplex(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def staircase_product(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """|K| x |L| with vertex (a, b) numbered a * L.vertex_count + b.

    Facets s = (a_0 < ... < a_p) of K and t = (b_0 < ... < b_q) of L give
    the staircases from (a_0, b_0) to (a_p, b_q) that step up one
    coordinate at a time, C(p + q, p) simplices of dimension p + q.
    """
    m = L.vertex_count
    facets = []
    for s in K.facets:
        for t in L.facets:
            p, q = len(s) - 1, len(t) - 1
            for ups in combinations(range(p + q), p):  # the steps at which the K coordinate moves
                i = j = 0
                chain = [s[0] * m + t[0]]
                for step in range(p + q):
                    if step in ups:
                        i += 1
                    else:
                        j += 1
                    chain.append(s[i] * m + t[j])
                facets.append(chain)
    return SimplicialComplex(K.vertex_count * m, facets)
