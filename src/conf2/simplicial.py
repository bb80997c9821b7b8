"""Finite simplicial complexes and shipped surface triangulations.

Complexes are given by facets of any size and closed downward.  K is
numbered here, once, on first use: its simplices by dimension, then in
sorted order, with the vertex mask and the codimension-one face numbers
of each, which the boundary matrix and every construction on K read.
Triangulation files take facets of one to three vertices
only, as a facet of k vertices has 2^k faces.  The surface check (every
vertex link a single cycle, connected) gates the command line, connected
sums and the oracle's reduction, which contracts edges and makes seeded
2-2 flips down to the surface's vertex bound.  Built-in triangulations
are loaded from data files and re-validated; higher genus and crosscap
counts come by connected sum.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import accumulate, chain, combinations, count
from pathlib import Path
from random import Random

from .gf2 import Mat2
from .surfaces import SurfaceKind

__all__ = [
    "SimplicialComplex",
    "validate_surface",
    "builtin_triangulation",
    "connected_sum",
    "is_orientable",
    "vertex_bound",
    "irreducible",
    "parse_triangulation",
    "read_triangulation",
]

# irreducible's flip search: seeds tried, and flips per seed for each vertex above the bound.
FLIP_SEEDS, FLIPS_PER_VERTEX = 8, 200


class SimplicialComplex:
    """Downward closure of a facet list on vertices 0..vertex_count-1.

    Facets may have any positive number of vertices.  levels[d] holds
    the d-simplices in sorted order, every vertex among the 0-simplices.
    K's one numbering runs over the levels in turn: the d-simplices are
    numbers offsets[d] to offsets[d + 1] - 1, and simplex a has the
    vertex mask masks[a] and the codimension-one faces numbered
    faces[a] (none for a vertex), each table computed once, when first
    read.  Every construction on K uses this numbering.  A closed
    surface has pure triangle facets, which validate_surface enforces.
    """

    def __init__(self, vertex_count: int, facets):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for f in facets:
            face = tuple(sorted(int(v) for v in f))
            if not face:
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
        levels = [{(v,) for v in range(vertex_count)}] + [set() for _ in range(max(map(len, canon), default=1) - 1)]
        for face in canon:
            for d in range(1, len(face)):
                levels[d].update(combinations(face, d + 1))
        self.levels: tuple[tuple[tuple[int, ...], ...], ...] = tuple(tuple(sorted(level)) for level in levels)
        self._surface: dict | None = None

    # -- numbering, made on first use: a complex only glued or validated never needs it

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return (0, *accumulate(map(len, self.levels)))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in s) for level in self.levels for s in level)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        number = {s: a for a, s in enumerate(s for level in self.levels for s in level)}
        return tuple(tuple(number[f] for f in combinations(s, len(s) - 1)) if len(s) > 1 else () for s in number)

    # -- structure ---------------------------------------------------------

    def simplices(self, d: int) -> tuple[tuple[int, ...], ...]:
        return self.levels[d] if 0 <= d < len(self.levels) else ()

    def counts(self) -> tuple[int, ...]:
        """The number of simplices in each dimension."""
        return tuple(map(len, self.levels))

    @property
    def euler(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.counts()))

    def boundary_matrix(self, d: int) -> Mat2:
        """Boundary from d-chains to (d-1)-chains, read off the face numbers; d = 0 maps to nothing."""
        cols = self.simplices(d)
        i, j = [], []
        for k in range(len(cols)):
            for f in self.faces[self.offsets[d] + k]:
                i.append(f - self.offsets[d - 1])
                j.append(k)
        return Mat2.from_entries(len(self.simplices(d - 1)), len(cols), i, j)


def _connected(graph: dict) -> bool:
    """Whether a graph, a dict from each vertex to its neighbours, is non-empty and connected."""
    seen, stack = set(), list(graph)[:1]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(graph[v])
    return bool(graph) and len(seen) == len(graph)


def validate_surface(K: SimplicialComplex) -> dict:
    """Closed-surface report: closed, connected, euler; computed once per complex and kept on it.

    Closed: only triangle facets, and every vertex link one cycle (so
    every edge lies in two triangles).  A closed connected surface has
    mod-2 Betti numbers (1, 2 - euler, 1), so none are computed.
    """
    if K._surface is not None:
        return K._surface
    link: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for t in K.simplices(2):
        for i, v in enumerate(t):
            x, y = t[:i] + t[i + 1 :]
            link[v][x].append(y)
            link[v][y].append(x)
    pure = len(K.facets) > 0 and all(len(f) == 3 for f in K.facets) and len(link) == K.vertex_count
    cycles = all(len(ends) == 2 for g in link.values() for ends in g.values()) and all(map(_connected, link.values()))
    skeleton: dict[int, list[int]] = {v: [] for v in range(K.vertex_count)}
    for x, y in K.simplices(1):
        skeleton[x].append(y)
        skeleton[y].append(x)
    K._surface = {"closed": pure and cycles, "connected": _connected(skeleton), "euler": K.euler}
    return K._surface


# -- file format ------------------------------------------------------------


def _decimals(tokens: list[str], lineno: int, message: str) -> list[int]:
    """The tokens as ints when each is ASCII decimal digits that int() converts; else ValueError `line N: message`."""
    if all(t.isascii() and t.isdecimal() for t in tokens):
        try:
            return [int(t) for t in tokens]
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ValueError(f"line {lineno}: {message}")


def parse_triangulation(text: str) -> SimplicialComplex:
    """Parse the plain-text format: `vertices N`, then `f i j k` lines of one to three vertices.

    The count and the vertex ids are ASCII decimal digits only.  The
    header must not declare vertices that no facet uses: a closed
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
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vertices N'")
            (vertex_count,) = _decimals(parts[1:], lineno, "expected 'vertices N'")
            header_line = lineno
        elif parts[0] == "f":
            if vertex_count is None:
                raise ValueError(f"line {lineno}: facet before vertices header")
            if not 2 <= len(parts) <= 4:
                raise ValueError(f"line {lineno}: facet size out of range: {len(parts) - 1} vertices, not 1 to 3")
            facets.append(_decimals(parts[1:], lineno, "bad facet indices"))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValueError("missing vertices header")
    # Ids past the count are left to SimplicialComplex, which rejects them before allocating.
    used = {v for f in facets for v in f}
    if len(used) < vertex_count and all(v < vertex_count for v in used):
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


@lru_cache(maxsize=None)
def _load_data(name: str) -> SimplicialComplex:
    """A shipped triangulation, parsed once per process."""
    from importlib import resources

    return parse_triangulation((resources.files("conf2.data") / name).read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def builtin_triangulation(kind: SurfaceKind) -> SimplicialComplex:
    """Validated triangulation of the requested homeomorphism type."""
    if kind.family == "sphere":
        K = _load_data("sphere.tri")
    else:
        piece = "torus.tri" if kind.family == "orientable" else "rp2.tri"
        K = _load_data(piece)
        for _ in range(kind.param - 1):
            K = connected_sum(K, _load_data(piece))
    report = validate_surface(K)
    orientable = kind.family != "nonorientable"
    if not (report["closed"] and report["connected"] and K.euler == kind.euler and is_orientable(K) == orientable):
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
    """Glue two closed surfaces along a removed facet of each; RuntimeError when that damages a vertex link."""
    r1 = validate_surface(K1)
    r2 = validate_surface(K2)
    if not (r1["closed"] and r1["connected"] and r2["closed"] and r2["connected"]):
        raise ValueError("connected sum needs closed connected surfaces")
    out = _glue(K1, K2)
    if out is not None:
        report = validate_surface(out)
        if report["closed"] and report["connected"] and report["euler"] == r1["euler"] + r2["euler"] - 2:
            return out
    raise RuntimeError("connected sum failed: gluing along the last facets damages a vertex link")


def is_orientable(K: SimplicialComplex) -> bool:
    """Whether the closed connected surface K has a coherent orientation.

    Triangle i runs its sorted vertices forwards when sign[i] = 1.  A
    search over edge-adjacent triangles signs each neighbour so that the
    shared edge runs both ways; a clash means K is nonorientable.
    """
    sides = defaultdict(list)  # edge -> (triangle, 1 or -1 as its sorted vertices run the edge up or down)
    for i, (a, b, c) in enumerate(K.simplices(2)):
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


def _replace(star: list[set[tuple[int, ...]]], old, new) -> None:
    """Take the triangles `old` out of their vertices' stars and put the triangles `new` in."""
    for t in old:
        for v in t:
            star[v].discard(t)
    for t in new:
        for v in t:
            star[v].add(t)


def _contract(nbrs: list[set[int]], star: list[set[tuple[int, ...]]], queue, alive: int) -> int:
    """Contract edges while more than 4 vertices are alive, and return how many are: the lowest listed vertex
    b goes onto its lowest neighbour meeting the link condition, and b's neighbours go on the list."""
    queue = sorted(queued := set(queue))
    while queue and alive > 4:
        b = heappop(queue)
        queued.discard(b)
        a = next((a for a in sorted(nbrs[b]) if _link_condition(nbrs, a, b)), None)
        if a is None:
            continue
        moved = list(star[b])
        _replace(star, moved, [tuple(sorted(a if v == b else v for v in t)) for t in moved if a not in t])
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
    return alive


def _flips_at(nbrs: list[set[int]], star: list[set[tuple[int, ...]]], v: int) -> list[tuple[int, int, int, int]]:
    """The 2-2 flips (v, a, c, d) of the edges va, c and d opposite va, that keep a surface: cd is no edge
    and v and a keep degree 3."""
    link = defaultdict(list)
    for t in star[v]:
        x, y = t[: t.index(v)] + t[t.index(v) + 1 :]
        link[x].append(y)
        link[y].append(x)
    degree = len(nbrs[v])
    return [(v, a, c, d) for a, (c, d) in sorted(link.items()) if min(degree, len(nbrs[a])) > 3 and d not in nbrs[c]]


def _productive(nbrs: list[set[int]], v: int, a: int, c: int, d: int) -> bool:
    """After flipping va to cd an edge contracts: cd, or vz or az for another common neighbour z of v and a."""
    others = nbrs[v] & nbrs[a] - {c, d}
    return len(nbrs[c] & nbrs[d]) == 2 or any(3 in (len(nbrs[v] & nbrs[z]), len(nbrs[a] & nbrs[z])) for z in others)


def _flip(nbrs: list[set[int]], star: list[set[tuple[int, ...]]], rng: Random) -> tuple[int, ...] | None:
    """One seeded 2-2 flip, abc and abd to acd and bcd, returning (a, b, c, d), or None when there is none:
    with probability 0.8 at a vertex of lowest degree, else (or when that has none) at the next vertex with
    one from a random place in vertex order; a flip after which an edge contracts is preferred."""
    alive = [v for v, s in enumerate(nbrs) if s]
    low = min(len(nbrs[v]) for v in alive)
    first = [rng.choice([v for v in alive if len(nbrs[v]) == low])] if rng.random() < 0.8 else []
    k = rng.randrange(len(alive))
    for v in chain(first, alive[k:], alive[:k]):
        moves = _flips_at(nbrs, star, v)
        if moves:
            a, b, c, d = move = rng.choice([m for m in moves if _productive(nbrs, *m)] or moves)
            _replace(star, star[a] & star[b], [tuple(sorted((a, c, d))), tuple(sorted((b, c, d)))])
            nbrs[a].discard(b)
            nbrs[b].discard(a)
            nbrs[c].add(d)
            nbrs[d].add(c)
            return move
    return None


def vertex_bound(chi: int, orientable: bool) -> int:
    """The fewest vertices a triangulation of the closed surface with Euler characteristic chi can have.

    It is the least n >= 4 with n(n-1)/2 >= 3(n - chi) (Heawood), plus one for the orientable chi = -2
    and the nonorientable chi = 0 and -1 (Ringel; Jungerman and Ringel).
    """
    bound = next(m for m in count(4) if m * (m - 1) >= 6 * (m - chi))
    return bound + ((chi, orientable) in ((0, False), (-1, False), (-2, True)))


def irreducible(K: SimplicialComplex) -> SimplicialComplex:
    """An irreducible triangulation of the closed surface K, with as few vertices as a seeded search finds.

    Edges contract under the link condition.  Above the surface's `vertex_bound`, seeds 0, 1, ... each
    run from there, alternating a 2-2 flip with contraction from the four flipped vertices (only their
    edges can have become contractible) up to the bound or a step budget; the first seed at the bound,
    else the fewest vertices, wins.  K comes back when nothing contracts; otherwise the result must be a
    closed connected surface with K's Euler characteristic and orientability, or RuntimeError.
    """
    n, chi, orientable = K.vertex_count, K.euler, is_orientable(K)
    star: list[set[tuple[int, ...]]] = [set() for _ in range(n)]
    for t in K.simplices(2):
        for v in t:
            star[v].add(t)
    nbrs = [{w for t in s for w in t} - {v} for v, s in enumerate(star)]
    best = (alive := _contract(nbrs, star, range(n), n), nbrs, star)
    bound = vertex_bound(chi, orientable)
    for seed in range(FLIP_SEEDS if alive > bound else 0):
        rng, nb, st, left = Random(seed), [set(s) for s in nbrs], [set(s) for s in star], alive
        for _ in range(FLIPS_PER_VERTEX * (alive - bound)):
            move = left > bound and _flip(nb, st, rng)
            if not move:
                break
            left = _contract(nb, st, move, left)
        best = min(best, (left, nb, st), key=lambda b: b[0])
        if left <= bound:
            break
    left, nbrs, star = best
    if left == n:
        return K
    new = {v: i for i, v in enumerate(v for v in range(n) if nbrs[v])}
    out = SimplicialComplex(len(new), [tuple(new[v] for v in t) for t in set().union(*star)])
    info = validate_surface(out)
    if not (info["closed"] and info["connected"] and out.euler == chi and is_orientable(out) == orientable):
        raise RuntimeError(f"edge contraction changed the surface ({n} vertices to {len(new)})")
    return out
