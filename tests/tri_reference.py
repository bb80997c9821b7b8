"""Triangulation helpers the tests share.

`format_triangulation` writes the plain-text format that
`conf2.simplicial.parse_triangulation` reads, `relabelled` gives the
same complex under a seeded vertex permutation and facet order,
`barycentric_subdivide` gives finer triangulations of the same space,
`contractible_edges` lists the edges that meet the link condition, and
`betti` is the rank reference for the Betti numbers that
`conf2.simplicial` reads off the Euler characteristic.
"""

import random
from itertools import combinations

from conf2.gf2 import rank
from conf2.simplicial import SimplicialComplex


def format_triangulation(K: SimplicialComplex) -> str:
    lines = [f"vertices {K.vertex_count}"]
    lines.extend("f " + " ".join(str(v) for v in f) for f in K.facets)
    return "\n".join(lines) + "\n"


def relabelled(K: SimplicialComplex, seed: int) -> SimplicialComplex:
    rng = random.Random(seed)
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    facets = [[perm[v] for v in f] for f in K.facets]
    rng.shuffle(facets)
    return SimplicialComplex(K.vertex_count, facets)


def barycentric_subdivide(K: SimplicialComplex) -> SimplicialComplex:
    """One barycentric subdivision; new vertices are the old simplices."""
    simps = [s for d in range(3) for s in K.simplices(d)]
    index = {s: i for i, s in enumerate(simps)}
    facets = []
    for f in K.facets:
        if len(f) == 1:
            facets.append((index[f],))
        elif len(f) == 2:
            for v in f:
                facets.append((index[(v,)], index[f]))
        else:
            for e in combinations(f, 2):
                for v in e:
                    facets.append((index[(v,)], index[e], index[f]))
    return SimplicialComplex(len(simps), facets)


def betti(K: SimplicialComplex) -> tuple[int, int, int]:
    """F2 Betti numbers (b0, b1, b2) from the ranks of the boundary matrices."""
    r1 = rank(K.boundary_matrix(1))
    r2 = rank(K.boundary_matrix(2))
    v, e, t = (len(K.simplices(d)) for d in range(3))
    return (v - r1, e - r1 - r2, t - r2)


def contractible_edges(K: SimplicialComplex) -> list[tuple[int, int]]:
    """The edges whose ends share exactly two neighbours, the link condition on a closed surface."""
    nbrs = [set() for _ in range(K.vertex_count)]
    for a, b in K.simplices(1):
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [(a, b) for a, b in K.simplices(1) if len(nbrs[a] & nbrs[b]) == 2]
