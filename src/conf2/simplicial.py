"""Finite simplicial complexes and shipped surface triangulations.

Complexes are given by facets of up to three vertices and closed
downward.  The surface check (every edge in two triangles, every vertex
link a single cycle, connected) gates what needs a closed surface:
connected sums, edge contractions down to an irreducible triangulation,
and the oracle.  Built-in triangulations are loaded from data files and
re-validated; higher genus and crosscap counts come by connected sum.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations
from pathlib import Path

from .gf2 import Mat2, rank
from .surfaces import SurfaceKind

__all__ = [
    "SimplicialComplex",
    "validate_surface",
    "builtin_triangulation",
    "connected_sum",
    "barycentric_subdivide",
    "is_orientable",
    "irreducible",
    "parse_triangulation",
    "read_triangulation",
]


class SimplicialComplex:
    """Downward closure of a facet list on vertices 0..vertex_count-1.

    Facets may have one, two, or three vertices; a closed surface has
    pure triangle facets, which validate_surface enforces.
    """

    def __init__(self, vertex_count: int, facets):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for f in facets:
            face = tuple(sorted(int(v) for v in f))
            if len(face) not in (1, 2, 3):
                raise ValueError(f"facet size out of range: {face}")
            if len(set(face)) != len(face):
                raise ValueError(f"facet repeats a vertex: {face}")
            if face[0] < 0 or face[-1] >= vertex_count:
                raise ValueError(f"facet vertex out of range: {face}")
            canon.append(face)
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate facets")
        self.vertex_count = vertex_count
        self.facets: tuple[tuple[int, ...], ...] = tuple(sorted(canon))
        edges = set()
        triangles = []
        for face in self.facets:
            if len(face) == 3:
                triangles.append(face)
            for e in combinations(face, 2):
                edges.add(e)
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(sorted(triangles))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))
        self.vertices: tuple[tuple[int], ...] = tuple((v,) for v in range(vertex_count))
        self._index = [
            {s: i for i, s in enumerate(level)}
            for level in (self.vertices, self.edges, self.triangles)
        ]
        self._boundaries: dict[int, Mat2] = {}

    # -- structure ---------------------------------------------------------

    def simplices(self, d: int) -> tuple[tuple[int, ...], ...]:
        if d == 0:
            return self.vertices
        if d == 1:
            return self.edges
        if d == 2:
            return self.triangles
        return ()

    def simplex_index(self, s: tuple[int, ...]) -> int:
        return self._index[len(s) - 1][s]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.triangles))

    @property
    def euler(self) -> int:
        v, e, t = self.counts()
        return v - e + t

    def boundary_matrix(self, d: int) -> Mat2:
        """Boundary from d-chains to (d-1)-chains; d = 0 maps to nothing."""
        if d in self._boundaries:
            return self._boundaries[d]
        cols = self.simplices(d)
        rows = self.simplices(d - 1) if d >= 1 else ()
        i, j = [], []
        if d >= 1:
            idx = self._index[d - 1]
            for k, s in enumerate(cols):
                for face in combinations(s, d):
                    i.append(idx[face])
                    j.append(k)
        out = Mat2.from_entries(len(rows), len(cols), i, j)
        self._boundaries[d] = out
        return out

    def betti(self) -> tuple[int, int, int]:
        """F2 Betti numbers (b0, b1, b2)."""
        r1 = rank(self.boundary_matrix(1))
        r2 = rank(self.boundary_matrix(2))
        v, e, t = self.counts()
        return (v - r1, e - r1 - r2, t - r2)

    def component_count(self) -> int:
        adjacency = defaultdict(list)
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = [False] * self.vertex_count
        parts = 0
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            parts += 1
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return parts


def _links_are_single_cycles(K: SimplicialComplex) -> bool:
    link: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for a, b, c in K.triangles:
        link[a][b].append(c)
        link[a][c].append(b)
        link[b][a].append(c)
        link[b][c].append(a)
        link[c][a].append(b)
        link[c][b].append(a)
    for v in range(K.vertex_count):
        graph = link.get(v)
        if not graph:
            return False
        if any(len(nbrs) != 2 for nbrs in graph.values()):
            return False
        start = next(iter(graph))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in graph[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(graph):
            return False
    return True


def validate_surface(K: SimplicialComplex) -> dict:
    """Closed-surface report: closed, connected, euler, betti."""
    pure = all(len(f) == 3 for f in K.facets) and len(K.facets) > 0
    edge_count: dict[tuple[int, int], int] = defaultdict(int)
    for t in K.triangles:
        for e in combinations(t, 2):
            edge_count[e] += 1
    edges_ok = pure and all(edge_count[e] == 2 for e in K.edges)
    closed = edges_ok and _links_are_single_cycles(K)
    return {
        "closed": closed,
        "connected": K.component_count() == 1,
        "euler": K.euler,
        "betti": K.betti(),
    }


# -- file format ------------------------------------------------------------


def parse_triangulation(text: str) -> SimplicialComplex:
    """Parse the plain-text format: `vertices N`, then `f i j k` lines.

    The header must not declare vertices that no facet uses: a closed
    surface has none, and a huge count would otherwise be allocated.
    """
    vertex_count = None
    header_line = 0
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: repeated vertices header")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ValueError(f"line {lineno}: expected 'vertices N'")
            vertex_count = int(parts[1])
            header_line = lineno
        elif parts[0] == "f":
            if vertex_count is None:
                raise ValueError(f"line {lineno}: facet before vertices header")
            try:
                facets.append([int(p) for p in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad facet indices") from exc
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValueError("missing vertices header")
    # Ids out of range are left to SimplicialComplex, which rejects them before allocating.
    used = {v for f in facets for v in f}
    if len(used) < vertex_count and all(0 <= v < vertex_count for v in used):
        raise ValueError(
            f"line {header_line}: 'vertices {vertex_count}' declares vertices no facet uses"
            f" (the facets use {len(used)})"
        )
    try:
        return SimplicialComplex(vertex_count, facets)
    except ValueError as exc:
        raise ValueError(f"bad triangulation: {exc}") from exc


def read_triangulation(path) -> SimplicialComplex:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read triangulation file {path}: {exc}") from exc
    try:
        return parse_triangulation(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# -- constructions -----------------------------------------------------------


def _load_data(name: str) -> SimplicialComplex:
    from importlib import resources

    text = (resources.files("conf2.data") / name).read_text()
    return parse_triangulation(text)


@lru_cache(maxsize=None)
def builtin_triangulation(kind: SurfaceKind) -> SimplicialComplex:
    """Validated triangulation of the requested homeomorphism type."""
    if kind.family == "sphere":
        K = _load_data("sphere.tri")
        expected = (1, 0, 1)
    elif kind.family == "orientable":
        K = _load_data("torus.tri")
        for _ in range(kind.param - 1):
            K = connected_sum(K, _load_data("torus.tri"))
        expected = (1, 2 * kind.param, 1)
    else:
        K = _load_data("rp2.tri")
        for _ in range(kind.param - 1):
            K = connected_sum(K, _load_data("rp2.tri"))
        expected = (1, kind.param, 1)
    report = validate_surface(K)
    if not (report["closed"] and report["connected"] and report["betti"] == expected):
        raise RuntimeError(f"built-in triangulation failed validation for {kind.label}")
    return K


def _glue(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex | None:
    """Remove the last facet of each and identify them vertexwise."""
    f1 = K1.facets[-1]
    f2 = K2.facets[-1]
    rename = dict(zip(f2, f1))
    nxt = K1.vertex_count
    for v in range(K2.vertex_count):
        if v not in rename:
            rename[v] = nxt
            nxt += 1
    facets = [f for f in K1.facets if f != f1]
    facets.extend(
        tuple(sorted(rename[v] for v in f)) for f in K2.facets if f != f2
    )
    try:
        return SimplicialComplex(nxt, facets)
    except ValueError:
        return None


def connected_sum(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Glue two closed surfaces along a removed facet of each.

    Falls back to one barycentric subdivision of both inputs, computed
    only then, when the direct gluing damages a vertex link.
    """
    r1 = validate_surface(K1)
    r2 = validate_surface(K2)
    if not (r1["closed"] and r1["connected"] and r2["closed"] and r2["connected"]):
        raise ValueError("connected sum needs closed connected surfaces")
    target = r1["euler"] + r2["euler"] - 2
    for step in (lambda K: K, barycentric_subdivide):
        out = _glue(step(K1), step(K2))
        if out is None:
            continue
        report = validate_surface(out)
        if report["closed"] and report["connected"] and report["euler"] == target:
            return out
    raise RuntimeError("connected sum failed even after subdividing")


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


def is_orientable(K: SimplicialComplex) -> bool:
    """Whether the closed connected surface K has a coherent orientation.

    Triangle i runs its sorted vertices forwards when sign[i] = 1.  A
    search over edge-adjacent triangles signs each neighbour so that the
    shared edge runs both ways; a clash means K is nonorientable.
    """
    sides = defaultdict(list)  # edge -> (triangle, 1 or -1 as its sorted vertices run the edge up or down)
    for i, (a, b, c) in enumerate(K.triangles):
        for e, d in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            sides[e].append((i, d))
    flips = defaultdict(list)
    for (i, d), (j, e) in sides.values():
        flips[i].append((j, -d * e))
        flips[j].append((i, -d * e))
    sign, stack = {0: 1}, [0]
    while stack:
        i = stack.pop()
        for j, f in flips[i]:
            if j not in sign:
                sign[j] = sign[i] * f
                stack.append(j)
            elif sign[j] != sign[i] * f:
                return False
    return True


def _link_condition(nbrs: list[set[int]], a: int, b: int) -> bool:
    """Edge ab of a closed surface contracts to a surface: a and b share only the two vertices opposite ab."""
    return len(nbrs[a] & nbrs[b]) == 2


def irreducible(K: SimplicialComplex) -> SimplicialComplex:
    """An irreducible triangulation of the closed surface K, by edge contractions.

    While more than 4 vertices are left, the lowest vertex b on a work
    list is contracted onto its lowest neighbour a whose edge ab meets
    the link condition, which keeps the PL type; then a and b's other
    neighbours, whose neighbours changed, go on the list.  Survivors keep
    their order.  K comes back when nothing contracts; otherwise the
    result must be a closed connected surface with K's Euler
    characteristic and orientability, or RuntimeError is raised.
    """
    n = K.vertex_count
    nbrs: list[set[int]] = [set() for _ in range(n)]
    star: list[set[tuple[int, ...]]] = [set() for _ in range(n)]
    for t in K.triangles:
        for v in t:
            star[v].add(t)
            nbrs[v].update(w for w in t if w != v)
    queue, queued, alive = list(range(n)), set(range(n)), n
    while queue and alive > 4:
        b = heappop(queue)
        queued.discard(b)
        a = next((a for a in sorted(nbrs[b]) if _link_condition(nbrs, a, b)), None)
        if a is None:
            continue
        moved, star[b] = star[b], set()
        for t in moved:
            for v in t:
                star[v].discard(t)
            if a not in t:
                merged = tuple(sorted(a if v == b else v for v in t))
                for v in merged:
                    star[v].add(merged)
        changed, nbrs[b] = nbrs[b], set()
        for c in changed:
            nbrs[c].discard(b)
            if c != a:
                nbrs[c].add(a)
                nbrs[a].add(c)
        alive -= 1
        for v in changed - queued:
            heappush(queue, v)
        queued |= changed
    if alive == n:
        return K
    new = {v: i for i, v in enumerate(v for v in range(n) if nbrs[v])}
    out = SimplicialComplex(len(new), {tuple(new[v] for v in t) for v in new for t in star[v]})
    info = validate_surface(out)
    if not (info["closed"] and info["connected"] and out.euler == K.euler and is_orientable(out) == is_orientable(K)):
        raise RuntimeError(f"edge contraction changed the surface ({n} vertices to {len(new)})")
    return out
