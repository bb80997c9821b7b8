"""Triangulation helpers the tests share.

`format_triangulation` writes the plain-text format that
`conf2.simplicial.parse_triangulation` reads, and `relabelled` gives the
same complex under a seeded vertex permutation and facet order.
"""

import random

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
