"""Triangulations: validation, built-ins, sums, subdivision, orientability, the reduction to the vertex bound, file format."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2 import simplicial
from conf2.cli import main
from conf2.simplicial import (
    SimplicialComplex,
    builtin_triangulation,
    connected_sum,
    irreducible,
    is_orientable,
    parse_triangulation,
    read_triangulation,
    validate_surface,
)
from conf2.surfaces import SurfaceKind
from tri_reference import barycentric_subdivide, betti, contractible_edges, format_triangulation, relabelled

SRC = Path(__file__).resolve().parents[1] / "src"
BUILTINS = ("sphere", "orientable:1", "orientable:2", "orientable:3", "nonorientable:1", "nonorientable:2", "nonorientable:3")
# The fewest vertices a triangulation of each surface can have, which
# `irreducible` reaches: the tetrahedron, the 6-vertex RP2, the 7-vertex
# torus and the 8-vertex Klein bottle (Franklin).  The irreducible
# triangulations that contraction alone stops at have 6 or 7 vertices for
# RP2 (Barnette 1982) and 7 to 10 for the torus (Lawrencenko 1987).
IRREDUCIBLE_VERTICES = {"sphere": 4, "nonorientable:1": 6, "orientable:1": 7, "nonorientable:2": 8}
# The surfaces whose fewest vertices exceed the Heawood number (Ringel 1955;
# Jungerman and Ringel 1980).
HEAWOOD_EXCEPTIONS = {"orientable:2": 10, "nonorientable:2": 8, "nonorientable:3": 9}
REDUCED_BUILTINS = [f"{family}:{n}" for family in ("orientable", "nonorientable") for n in (*range(1, 9), 12, 16)]


def tetrahedron() -> SimplicialComplex:
    return SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_constructor_normalizes_and_indexes():
    """One numbering by dimension, then sorted order: vertices 0-2, edges 01, 02, 12 as 3-5, the triangle 6."""
    K = SimplicialComplex(3, [(2, 1, 0)])
    assert K.facets == ((0, 1, 2),)
    assert K.counts() == (3, 3, 1)
    assert K.offsets == (0, 3, 6, 7)
    assert K.masks == (0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
    assert K.faces == ((), (), (), (0, 1), (0, 2), (1, 2), (3, 4, 5))


def test_constructor_rejects_bad_facets():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, 1, 5)])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, -1)])
    with pytest.raises(ValueError):
        SimplicialComplex(4, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        SimplicialComplex(3, [()])


def test_constructor_takes_facets_of_any_size():
    """A 4-vertex facet is a solid tetrahedron: one list of simplices per dimension, every vertex a 0-simplex."""
    K = SimplicialComplex(5, [(3, 2, 1, 0)])
    assert K.counts() == (5, 6, 4, 1)
    assert K.levels[3] == ((0, 1, 2, 3),)
    assert K.simplices(4) == ()
    assert K.euler == 2


def test_tetrahedron_is_a_sphere():
    report = validate_surface(tetrahedron())
    assert report["closed"] and report["connected"]
    assert report["euler"] == 2
    assert betti(tetrahedron()) == (1, 0, 1)


def test_single_triangle_is_not_closed():
    report = validate_surface(SimplicialComplex(3, [(0, 1, 2)]))
    assert not report["closed"]
    assert report["connected"]


def test_disjoint_spheres_are_closed_but_disconnected():
    K1 = tetrahedron()
    shifted = [(a + 4, b + 4, c + 4) for a, b, c in K1.facets]
    K = SimplicialComplex(8, list(K1.facets) + shifted)
    report = validate_surface(K)
    assert report["closed"]
    assert not report["connected"]
    assert betti(K)[0] == 2


def test_pinched_spheres_are_not_closed():
    """Two tetrahedra sharing vertex 0: every edge lies in two triangles, but the link of 0 is two cycles."""
    K1 = tetrahedron()
    other = [tuple(0 if v == 0 else v + 3 for v in f) for f in K1.facets]
    report = validate_surface(SimplicialComplex(7, list(K1.facets) + other))
    assert not report["closed"]
    assert report["connected"]


def test_edge_complex_not_closed():
    report = validate_surface(SimplicialComplex(2, [(0, 1)]))
    assert not report["closed"]


def test_builtin_sphere():
    K = builtin_triangulation(SurfaceKind.sphere())
    assert K.counts() == (4, 6, 4)
    assert K.euler == 2
    assert betti(K) == (1, 0, 1)


def test_builtin_torus():
    K = builtin_triangulation(SurfaceKind.orientable(1))
    assert K.counts() == (7, 21, 14)
    assert K.euler == 0
    assert betti(K) == (1, 2, 1)


def test_builtin_projective_plane():
    K = builtin_triangulation(SurfaceKind.nonorientable(1))
    assert K.counts() == (6, 15, 10)
    assert K.euler == 1
    assert betti(K) == (1, 1, 1)


@pytest.mark.parametrize(
    "kind,expected",
    [
        (SurfaceKind.orientable(2), (1, 4, 1)),
        (SurfaceKind.orientable(3), (1, 6, 1)),
        (SurfaceKind.nonorientable(2), (1, 2, 1)),
        (SurfaceKind.nonorientable(3), (1, 3, 1)),
    ],
    ids=["genus2", "genus3", "klein", "crosscap3"],
)
def test_builtin_connected_sums(kind, expected):
    K = builtin_triangulation(kind)
    report = validate_surface(K)
    assert report["closed"] and report["connected"]
    assert report["euler"] == kind.euler
    assert betti(K) == expected


def test_connected_sum_euler_additivity():
    torus = builtin_triangulation(SurfaceKind.orientable(1))
    out = connected_sum(torus, torus)
    assert out.euler == -2
    assert betti(out) == (1, 4, 1)


def test_connected_sum_of_projective_planes_is_klein():
    rp2 = builtin_triangulation(SurfaceKind.nonorientable(1))
    out = connected_sum(rp2, rp2)
    assert betti(out) == (1, 2, 1)
    assert out.euler == 0


def test_connected_sum_with_sphere_keeps_betti():
    sphere = builtin_triangulation(SurfaceKind.sphere())
    torus = builtin_triangulation(SurfaceKind.orientable(1))
    out = connected_sum(sphere, torus)
    assert betti(out) == betti(torus)


def test_connected_sum_rejects_open_input():
    disk = SimplicialComplex(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        connected_sum(disk, tetrahedron())


def test_builtin_sums_glue_without_subdividing():
    """connected_sum glues once or raises, so building a builtin shows that each of its sums glued directly."""
    for kind in (SurfaceKind.orientable(24), SurfaceKind.nonorientable(24)):
        assert builtin_triangulation(kind).euler == kind.euler


def test_connected_sum_raises_when_direct_gluing_fails(monkeypatch):
    glue, tried = simplicial._glue, []

    def first_fails(a, b):
        tried.append((a.vertex_count, b.vertex_count))
        return None if len(tried) == 1 else glue(a, b)

    monkeypatch.setattr(simplicial, "_glue", first_fails)
    torus = builtin_triangulation(SurfaceKind.orientable(1))
    with pytest.raises(RuntimeError, match="^connected sum failed"):
        connected_sum(torus, torus)
    # no second attempt on a subdivision
    assert tried == [(7, 7)]


def test_subdivision_counts_for_sphere():
    K = barycentric_subdivide(tetrahedron())
    assert K.counts() == (14, 36, 24)
    assert K.euler == 2
    assert betti(K) == (1, 0, 1)


@pytest.mark.parametrize(
    "kind",
    [SurfaceKind.sphere(), SurfaceKind.orientable(1), SurfaceKind.nonorientable(1)],
    ids=["sphere", "torus", "rp2"],
)
def test_subdivision_preserves_betti(kind):
    K = builtin_triangulation(kind)
    fine = barycentric_subdivide(K)
    assert fine.euler == K.euler
    assert betti(fine) == betti(K)
    assert validate_surface(fine)["closed"]


def test_subdivision_of_edge_facets():
    K = barycentric_subdivide(SimplicialComplex(2, [(0, 1)]))
    assert K.counts() == (3, 2)


def subdivided(label: str, times: int, seed: int | None = None) -> SimplicialComplex:
    K = builtin_triangulation(SurfaceKind.from_label(label))
    for _ in range(times):
        K = barycentric_subdivide(K)
    return K if seed is None else relabelled(K, seed)


def vertex_bound(label: str) -> int:
    """ceil((7 + sqrt(49 - 24 chi)) / 2), or the exception's count."""
    chi = SurfaceKind.from_label(label).euler
    root = math.isqrt(49 - 24 * chi)
    root += root * root < 49 - 24 * chi
    return HEAWOOD_EXCEPTIONS.get(label, (8 + root) // 2)


@settings(max_examples=20, deadline=None)
@given(label=st.sampled_from(BUILTINS), times=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_betti_numbers_follow_the_euler_characteristic(label, times, seed):
    """Mod-2 Poincare duality, which validate_surface and the file classification rely on."""
    K = subdivided(label, times, seed)
    assert betti(K) == (1, 2 - K.euler, 1)


@pytest.mark.parametrize("label", BUILTINS)
def test_orientability_follows_the_family(label):
    kind = SurfaceKind.from_label(label)
    K = builtin_triangulation(kind)
    assert is_orientable(K) == (kind.family != "nonorientable")
    assert is_orientable(subdivided(label, 1, seed=5)) == is_orientable(K)


def test_tetrahedron_is_irreducible():
    K = tetrahedron()
    assert irreducible(K) is K


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(sorted(IRREDUCIBLE_VERTICES)), times=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_contraction_keeps_the_surface_and_ends_irreducible(label, times, seed):
    K = subdivided(label, times, seed)
    L = irreducible(K)
    info = validate_surface(L)
    assert info["closed"] and info["connected"]
    assert L.euler == K.euler
    assert is_orientable(L) == is_orientable(K) == (not label.startswith("non"))
    assert L.vertex_count == IRREDUCIBLE_VERTICES[label] == vertex_bound(label)
    # irreducible: no edge is left that could contract
    assert L.vertex_count == 4 or not contractible_edges(L)
    assert irreducible(L) is L


@pytest.mark.parametrize("times,vertices", [(1, 8), (2, 8), (3, 8)])
def test_klein_bottle_contracts_to_a_fixed_count(times, vertices):
    """The search is seeded, so the subdivided builtin Klein bottle always ends at the same triangulation."""
    L = irreducible(subdivided("nonorientable:2", times))
    assert L.vertex_count == vertices
    assert irreducible(subdivided("nonorientable:2", times)).facets == L.facets


@pytest.mark.parametrize("label", REDUCED_BUILTINS)
def test_builtins_reduce_to_the_vertex_bound(label):
    K = builtin_triangulation(SurfaceKind.from_label(label))
    L = irreducible(K)
    assert L.vertex_count == vertex_bound(label)
    info = validate_surface(L)
    assert info["closed"] and info["connected"]
    assert (L.euler, is_orientable(L)) == (K.euler, is_orientable(K))
    assert not contractible_edges(L)


def test_search_does_not_depend_on_the_hash_seed():
    code = (
        "from conf2.simplicial import builtin_triangulation, irreducible\n"
        "from conf2.surfaces import SurfaceKind\n"
        "print(irreducible(builtin_triangulation(SurfaceKind.orientable(3))).facets)\n"
    )
    facets = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert facets[0] == facets[1] == repr(irreducible(builtin_triangulation(SurfaceKind.orientable(3))).facets) + "\n"


def test_builtin_check_tells_orientable_from_nonorientable(monkeypatch):
    """Two Klein bottles make nonorientable:4, which has orientable:2's Betti numbers but not its orientability."""
    klein = format_triangulation(builtin_triangulation(SurfaceKind.nonorientable(2)))
    monkeypatch.setattr(simplicial, "_load_data", lambda name: parse_triangulation(klein))
    builtin_triangulation.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="failed validation for orientable:2"):
            builtin_triangulation(SurfaceKind.orientable(2))
    finally:
        builtin_triangulation.cache_clear()


def test_format_parse_roundtrip():
    K = builtin_triangulation(SurfaceKind.orientable(1))
    text = format_triangulation(K)
    back = parse_triangulation(text)
    assert back.facets == K.facets
    assert back.vertex_count == K.vertex_count


def test_parse_ignores_comments_and_blanks():
    text = "# a sphere\n\nvertices 4\nf 0 1 2  # first\nf 0 1 3\nf 0 2 3\nf 1 2 3\n"
    K = parse_triangulation(text)
    assert K.counts() == (4, 6, 4)


# A facet of 64 vertices would have 2^64 faces, so the parser refuses it before building a complex.
LONG_FACET = "vertices 64\nf " + " ".join(map(str, range(64))) + "\n"

# Each malformed text with the start of the message it must raise.
MALFORMED = {
    "f 0 1 2\n": "line 1: facet before vertices header",
    "vertices x\n": "line 1: expected 'vertices N'",
    "vertices ²\nf 0 1 2\n": "line 1: expected 'vertices N'",
    "vertices 4\nvertices 4\n": "line 2: repeated vertices header",
    "vertices 3\nf 0 1 q\n": "line 2: bad facet indices",
    "vertices 3\ntriangle 0 1 2\n": "line 2: unknown directive 'triangle'",
    "": "missing vertices header",
    "vertices 3\nf 0 1 1\n": "line 1: 'vertices 3' declares vertices no facet uses",
    "vertices 3\nf\n": "line 2: facet size out of range: 0 vertices",
    LONG_FACET: "line 2: facet size out of range: 64 vertices",
    # ids and counts are ASCII decimal digits only, however int() would read them
    "vertices 3\nf 1 2 +3\n": "line 2: bad facet indices",
    "vertices 3\nf 1 2 0_3\n": "line 2: bad facet indices",
    "vertices 3\nf 1 2 \u0663\n": "line 2: bad facet indices",
    "vertices 3\nf 0 1 -1\n": "line 2: bad facet indices",
    "vertices \u0664\nf 0 1 2\n": "line 1: expected 'vertices N'",
    "vertices " + "9" * 5000 + "\nf 0 1 2\n": "line 1: expected 'vertices N'",
    "vertices 3\nf 0 1 " + "9" * 5000 + "\n": "line 2: bad facet indices",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ValueError, match="^" + re.escape(MALFORMED[text])):
        parse_triangulation(text)


def test_parser_gates_facet_size_before_building_a_complex(monkeypatch):
    """Without the parser's own gate the long facet would reach the class and enumerate its faces."""

    def refuse(*args):
        raise AssertionError("parse_triangulation built a complex from a facet it should refuse")

    monkeypatch.setattr(simplicial, "SimplicialComplex", refuse)
    with pytest.raises(ValueError, match="^line 2: facet size out of range: 64 vertices"):
        parse_triangulation(LONG_FACET)


# Tokens for the parser fuzz: its keywords, small and huge ids, and characters that look like digits or spaces.
TOKENS = ("vertices", "f", "#", "0", "1", "2", "3", "4", "-1", "²", "٣", "\x00", "\t", str(10**30), "9" * 5000)
token_soups = st.lists(
    st.lists(st.one_of(st.sampled_from(TOKENS), st.integers(-(10**40), 10**40).map(str)), max_size=6).map(" ".join),
    max_size=8,
).map("\n".join)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(max_size=200), token_soups, token_soups.map("vertices 4\n".__add__)))
def test_parser_raises_only_value_error_and_the_cli_reports_it(tmp_path_factory, text):
    """A guard, not a fix: any text parses or raises ValueError, and a rejected file is an error record, exit 2."""
    try:
        parse_triangulation(text)
    except ValueError:
        pass
    else:
        return
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "input.tri", folder / "report.json"
    path.write_bytes(text.encode("utf-8"))
    assert main(["--triangulation", str(path), "--no-oracle", "--output", str(out)]) == 2
    (record,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
    assert record["surface"] == str(path) and record["error"]


def test_parse_rejects_vertices_no_facet_uses():
    text = "# a sphere\nvertices 1000\nf 0 1 2\nf 0 1 3\nf 0 2 3\nf 1 2 3\n"
    with pytest.raises(ValueError, match="line 2: 'vertices 1000' declares vertices no facet uses"):
        parse_triangulation(text)


def test_read_triangulation_missing_file(tmp_path):
    with pytest.raises(ValueError):
        read_triangulation(tmp_path / "missing.tri")


def test_read_triangulation_roundtrip(tmp_path):
    K = tetrahedron()
    path = tmp_path / "sphere.tri"
    path.write_text(format_triangulation(K))
    assert read_triangulation(path).facets == K.facets
