"""Pipeline reports: cross-checks, stated-table comparison, emitters, CLI."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf2 import report as report_module
from conf2 import simplicial
from conf2.borel import (
    Tower,
    cover_counts,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    sw_height,
)
from conf2.cells import CohomologyResult, cohomology_f2, quotient_complex
from conf2.cli import main
from conf2.conf_symbolic import ConfCohomology, ConfRow, conf_cohomology
from conf2.gf2 import Mat2
from conf2.report import (
    MAX_QUOTIENT_CELLS,
    CheckRecord,
    MismatchRecord,
    RunConfig,
    SurfaceReport,
    UConfSummary,
    emit_report,
    exit_code,
    paper_check,
    _check_oracle_size,
    _oracle_side,
    run_pipeline,
)
from conf2.simplicial import builtin_triangulation, connected_sum
from conf2.surfaces import SurfaceKind
from tri_reference import barycentric_subdivide, format_triangulation, relabelled


def _run(*surfaces, **kw):
    return run_pipeline(RunConfig(surfaces=tuple(surfaces), **kw))


@pytest.fixture(scope="module")
def sphere_reports():
    return _run(("kind", "sphere"), paper_check=True)


@pytest.fixture(scope="module")
def torus_reports():
    return _run(("kind", "orientable:1"), paper_check=True)


@pytest.fixture(scope="module")
def rp2_reports():
    return _run(("kind", "nonorientable:1"), paper_check=True)


# -- config validation --------------------------------------------------------


def test_config_requires_surfaces():
    with pytest.raises(ValueError, match="^at least one surface is required$"):
        RunConfig(surfaces=())


def test_cli_rejects_unknown_format(capsys):
    """The format goes from the command line straight to emit_report; argparse refuses any other first."""
    for output_format in ("xml", "markdown"):
        with pytest.raises(SystemExit) as exc:
            main(["--surface", "sphere", "--format", output_format])
        assert exc.value.code == 2
        assert f"invalid choice: '{output_format}'" in capsys.readouterr().err


def test_config_rejects_unknown_source():
    with pytest.raises(ValueError, match="^unknown surface source: 'label'$"):
        RunConfig(surfaces=(("label", "sphere"),))


def test_config_takes_keywords_and_normalises_surfaces():
    cfg = RunConfig(surfaces=[["kind", "sphere"], ["file", "t.tri"]], paper_check=True)
    assert cfg.surfaces == (("kind", "sphere"), ("file", "t.tri"))
    assert all(type(pair) is tuple for pair in cfg.surfaces)
    assert (cfg.oracle_enabled, cfg.paper_check) == (True, True)


# -- record semantics ------------------------------------------------------------

_SPHERE = conf_cohomology(SurfaceKind.sphere())
_TORUS = conf_cohomology(SurfaceKind.orientable(1))

# Each record type with the fields of one instance and, per field, a different value.
VALUE_RECORDS = {
    "Tower": (Tower, {"start": 0, "length": 3}, {"start": 1, "length": 2}),
    "ConfRow": (ConfRow, {"q": 2, "dim": 5, "t": 3, "f": 1}, {"q": 1, "dim": 4, "t": 2, "f": 0}),
    "ConfCohomology": (
        ConfCohomology,
        {"kind": _SPHERE.kind, "square": _SPHERE.square, "rows": _SPHERE.rows},
        {"kind": _TORUS.kind, "square": _TORUS.square, "rows": _TORUS.rows},
    ),
    "CohomologyResult": (
        CohomologyResult,
        {
            "cocycle_basis": [Mat2.identity(1)],
            "coboundaries": [{}],
        },
        {
            "cocycle_basis": [Mat2.zeros(0, 1)],
            "coboundaries": [{0: 1}],
        },
    ),
    "CheckRecord": (
        CheckRecord,
        {"name": "c", "passed": True, "expected": [1, 2], "got": [1, 2]},
        {"name": "d", "passed": False, "expected": 1, "got": 2},
    ),
    "MismatchRecord": (
        MismatchRecord,
        {"name": "m", "stated": 2, "consistent": 1, "computed": 1},
        {"name": "n", "stated": 3, "consistent": 2, "computed": 2},
    ),
    "UConfSummary": (
        UConfSummary,
        {"dims": (1, 1, 1, 0, 0), "towers": (Tower(0, 3),), "height": 2},
        {"dims": (1, 1, 1, 1, 0), "towers": (Tower(0, 4),), "height": 3},
    ),
    "SurfaceKind": (SurfaceKind, {"family": "orientable", "param": 2}, {"family": "nonorientable", "param": 3}),
    "RunConfig": (
        RunConfig,
        {"surfaces": (("kind", "sphere"),), "oracle_enabled": True, "paper_check": False},
        {"surfaces": (("file", "t.tri"),), "oracle_enabled": False, "paper_check": True},
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_by_fields(name):
    cls, fields, others = VALUE_RECORDS[name]
    assert cls(**fields) == cls(**fields)
    for field in fields:
        assert cls(**{**fields, field: others[field]}) != cls(**fields), field


@pytest.mark.parametrize("name", sorted(set(VALUE_RECORDS) - {"CohomologyResult"}))
def test_frozen_records_reject_assignment(name):
    cls, fields, others = VALUE_RECORDS[name]
    record = cls(**fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, others[field])
    assert record == cls(**fields)


def test_surface_reports_get_fresh_lists():
    a, b = SurfaceReport(surface="a"), SurfaceReport(surface="b")
    for field in ("conf", "checks", "discrepancies", "notes"):
        getattr(a, field).append(None)
        assert getattr(b, field) == [], field
    assert (b.kind, b.uconf, b.paper_checked, b.error) == (None, None, False, None)


# -- pipeline content ----------------------------------------------------------


def test_sphere_report_values(sphere_reports):
    (r,) = sphere_reports
    assert r.error is None
    assert [row.dim for row in r.conf] == [1, 0, 1, 0, 0]
    assert r.uconf.dims == (1, 1, 1, 0, 0)
    assert r.uconf.height == 2
    assert all(c.passed for c in r.checks)


def test_torus_report_values(torus_reports):
    (r,) = torus_reports
    assert [row.dim for row in r.conf] == [1, 4, 5, 2, 0]
    assert [(row.t, row.f) for row in r.conf] == [(1, 0), (0, 2), (3, 1), (2, 0), (0, 0)]
    assert r.uconf.dims == (1, 3, 4, 2, 0)
    assert sorted((t.start, t.length) for t in r.uconf.towers) == [
        (0, 3), (1, 1), (1, 1), (2, 1), (2, 2), (2, 2),
    ]
    assert all(c.passed for c in r.checks)


def test_oracle_agreement_recorded(torus_reports):
    (r,) = torus_reports
    byname = {c.name: c for c in r.checks}
    assert byname["oracle-conf-dims"].passed
    assert byname["oracle-conf-decomposition"].passed


@pytest.mark.parametrize(
    "label", ["sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3"]
)
def test_oracle_and_closed_form_give_equal_rows(label):
    kind = SurfaceKind.from_label(label)
    rows, _, _ = _oracle_side(builtin_triangulation(kind), kind.euler)
    assert rows == conf_cohomology(kind).rows


@lru_cache(maxsize=None)
def _builtin_oracle_uconf(label: str) -> UConfSummary:
    kind = SurfaceKind.from_label(label)
    return _oracle_side(builtin_triangulation(kind), kind.euler)[1]


def assert_oracle_matches(K, label: str) -> None:
    """On K, a triangulation of the surface `label`, the oracle's conf rows are the closed form's, its unordered
    summary is the one it gives on the builtin triangulation, and every check passes."""
    kind = SurfaceKind.from_label(label)
    rows, uconf, checks = _oracle_side(K, K.euler)
    assert rows == conf_cohomology(kind).rows
    assert uconf == _builtin_oracle_uconf(label)
    assert all(c.passed for c in checks)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["sphere", "orientable:1", "nonorientable:1", "nonorientable:2"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_oracle_is_invariant_under_relabelling_and_subdivision(label, subdivide, seed):
    """The sphere, the torus, RP^2 and the Klein bottle, subdivided or not, under a random vertex labelling."""
    K = builtin_triangulation(SurfaceKind.from_label(label))
    assert_oracle_matches(relabelled(barycentric_subdivide(K) if subdivide else K, seed), label)


@settings(deadline=None, max_examples=50)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_oracle_is_invariant_under_connected_sum_order(torus_first, torus_seed, rp2_seed):
    """Torus # RP^2 and RP^2 # torus, glued at facets a random labelling picks, are the builtin RP^2 # RP^2 # RP^2."""
    torus = relabelled(builtin_triangulation(SurfaceKind.orientable(1)), torus_seed)
    rp2 = relabelled(builtin_triangulation(SurfaceKind.nonorientable(1)), rp2_seed)
    assert_oracle_matches(connected_sum(torus, rp2) if torus_first else connected_sum(rp2, torus), "nonorientable:3")


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from(["orientable:2", "orientable:3", "nonorientable:2", "nonorientable:3"]),
    st.integers(1, 2**32 - 1),
)
def test_oracle_is_invariant_under_the_flip_seeds(label, offset):
    """irreducible's flip search run from seeds offset, offset + 1, ... instead of 0, 1, ...: other flips,
    another reduced triangulation, the same answers.  Contraction alone leaves these builtins above their
    vertex bound, so every example flips."""
    _builtin_oracle_uconf(label)  # the reference summary, under the usual seeds
    seeds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "Random", lambda seed: seeds.append(offset + seed) or Random(offset + seed))
        assert_oracle_matches(builtin_triangulation(SurfaceKind.from_label(label)), label)
    assert seeds


@pytest.mark.parametrize("label", ["sphere", "nonorientable:1", "orientable:1"])
def test_oracle_side_on_the_contraction_equals_the_stages_on_the_file(label):
    """_oracle_side contracts K first; the stages run on K itself must give the same answers."""
    K = relabelled(barycentric_subdivide(builtin_triangulation(SurfaceKind.from_label(label))), seed=17)
    rows, uconf, checks = _oracle_side(K, K.euler)
    Q = quotient_complex(K)
    A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(Q), cohomology_f2(Q))
    counts = cover_counts(A) + [(0, 0)] * 5
    assert rows == [ConfRow(q, dim, dim - 2 * free, free) for q, (dim, free) in enumerate(counts[:5])]
    assert uconf == UConfSummary(dims=tuple(A.dims[:5]), towers=tuple(A.towers), height=sw_height(A))
    assert all(c.passed for c in checks)


def test_oracle_size_is_refused_before_anything_is_built(tmp_path, monkeypatch):
    """A surface whose orbit complex would pass MAX_QUOTIENT_CELLS is an error record naming the predicted
    size; the stubs show that no builtin triangulation, reduction or orbit complex was made for it."""
    path = tmp_path / "genus64.tri"
    path.write_text(format_triangulation(builtin_triangulation(SurfaceKind.orientable(64))))

    def refuse(*args):
        raise AssertionError("the oracle started on a surface past its size limit")

    for name in ("builtin_triangulation", "irreducible", "quotient_complex"):
        monkeypatch.setattr(report_module, name, refuse)
    too_large = (
        "the oracle's orbit complex would have about {} cells, more than 200000;"
        " --no-oracle runs the closed form alone"
    )
    reports = _run(("kind", "orientable:64"), ("kind", "nonorientable:200"), ("file", str(path)))
    assert [r.error for r in reports] == [too_large.format(281736), too_large.format(645490), too_large.format(281736)]
    assert exit_code(reports) == 2
    (report,) = _run(("kind", "orientable:64"), oracle_enabled=False)
    assert report.error is None and report.uconf is None


@pytest.mark.parametrize("kind", ["orientable:32", "orientable:48", "nonorientable:96"])
def test_oracle_size_admits_the_measured_surfaces(kind):
    """The limit was set from peak RSS at orientable:32 and orientable:48, which must keep running."""
    kind = SurfaceKind.from_label(kind)
    assert MAX_QUOTIENT_CELLS == 200_000
    assert _check_oracle_size(kind.euler, kind.family != "nonorientable") is None


def test_corrupted_contraction_is_error_record(tmp_path, monkeypatch):
    path = tmp_path / "torus.tri"
    path.write_text(format_triangulation(barycentric_subdivide(builtin_triangulation(SurfaceKind.orientable(1)))))
    # contract every edge, whether or not it meets the link condition
    monkeypatch.setattr(simplicial, "_link_condition", lambda nbrs, a, b: True)
    reports = _run(("file", str(path)), ("kind", "sphere"))
    assert reports[0].error == "edge contraction changed the surface (42 vertices to 4)"
    assert reports[1].error is None
    assert exit_code(reports) == 0


def _flips_ignoring_the_edge_rule(nbrs, star, v):
    """simplicial._flips_at without its rule that the new edge cd is not an edge already."""
    link = {}
    for t in star[v]:
        x, y = (w for w in t if w != v)
        link.setdefault(x, []).append(y)
        link.setdefault(y, []).append(x)
    return [(v, a, c, d) for a, (c, d) in sorted(link.items()) if len(nbrs[a]) > 3] if len(nbrs[v]) > 3 else []


def test_corrupted_flip_is_error_record(monkeypatch):
    # orientable:2's builtin triangulation has 11 vertices, one above its bound, so only flips can reduce it
    monkeypatch.setattr(simplicial, "_flips_at", _flips_ignoring_the_edge_rule)
    reports = _run(("kind", "orientable:2"), ("kind", "sphere"))
    assert reports[0].error == "edge contraction changed the surface (11 vertices to 10)"
    assert reports[1].error is None
    assert exit_code(reports) == 0


def test_unexpected_exception_is_error_record(monkeypatch):
    def fails_on_the_torus(K):
        if K.vertex_count == 7:
            raise KeyError("no such cell")
        return quotient_complex(K)

    monkeypatch.setattr(report_module, "quotient_complex", fails_on_the_torus)
    reports = _run(("kind", "orientable:1"), ("kind", "sphere"), paper_check=True)
    assert reports[0].error == "KeyError: 'no such cell'"
    assert not reports[0].paper_checked
    assert reports[1].error is None and all(c.passed for c in reports[1].checks)
    # a surface ran clean, so the run exits 0; a run whose only surface failed exits 2
    assert exit_code(reports) == 0
    assert exit_code(_run(("kind", "orientable:1"))) == 2


def test_keyboard_interrupt_ends_the_run(monkeypatch):
    def interrupted(K):
        raise KeyboardInterrupt

    monkeypatch.setattr(report_module, "quotient_complex", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run(("kind", "sphere"))


def test_no_oracle_runs_symbolic_only():
    (r,) = _run(("kind", "orientable:2"), oracle_enabled=False)
    assert r.uconf is None
    assert [row.dim for row in r.conf] == [1, 8, 17, 4, 0]
    assert {c.name for c in r.checks} == {
        "conf-top-degree-vanishes",
        "conf-euler-identity",
        "conf-dimension-accounting",
        "gysin-kernel-is-diagonal-ideal",
    }
    assert all(c.passed for c in r.checks)


def test_bad_label_is_error_record():
    reports = _run(("kind", "orientable:0"), ("kind", "sphere"))
    assert reports[0].error == "bad surface label: 'orientable:0' (orientable genus must be at least 1)"
    assert reports[1].error is None
    assert exit_code(reports) == 0


def test_unreadable_file_is_error_record(tmp_path):
    missing = str(tmp_path / "missing.tri")
    reports = _run(("file", missing))
    assert reports[0].error is not None and missing in reports[0].error
    assert exit_code(reports) == 2


def test_non_utf8_file_error_names_the_file(tmp_path):
    path = tmp_path / "binary.tri"
    path.write_bytes(b"vertices 4\n\xff\xfe f 0 1 2\n")
    (r,) = _run(("file", str(path)))
    assert r.error is not None and str(path) in r.error


def test_malformed_file_error_names_the_file(tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("vertices 3\nf 0 1 x\n")
    (r,) = _run(("file", str(path)))
    assert r.error == f"{path}: line 2: bad facet indices"


def test_failed_norm_check_is_error_record(monkeypatch):
    from conf2 import report as report_module

    # a zero connecting map still commutes with the coboundary, but alpha = 0 breaks the norm check
    monkeypatch.setattr(
        report_module,
        "equivariant_cochain_complex",
        lambda Q: [Mat2.zeros(*m.shape) for m in equivariant_cochain_complex(Q)],
    )
    (r,) = _run(("kind", "sphere"))
    assert r.error is not None and "norm map check fails" in r.error


def test_miscounted_rank_fails_the_quotient_dims_record(monkeypatch):
    from conf2 import report as report_module
    from conf2.cells import cohomology_f2

    def miscounting(C):
        # A coboundary table with one key too many, a representative's lowest one, and a zero row for it:
        # the rank count is off by one while the classes and every solve stay right.
        H = cohomology_f2(C)
        d = max(n for n, dim in enumerate(H.dims) if dim)
        rep = H.cocycle_basis[d].data[0]
        tables = list(H.coboundaries)
        tables[d] = {**tables[d], (rep & -rep).bit_length() - 1: 0}
        return H._replace(coboundaries=tables)

    monkeypatch.setattr(report_module, "cohomology_f2", miscounting)
    (r,) = _run(("kind", "sphere"))
    assert r.error is None
    (record,) = [c for c in r.checks if c.name == "uconf-dims-match-quotient"]
    assert not record.passed
    assert record.expected == [1, 0, 0, 0, 0] and record.got == [1, 1, 1, 0, 0]
    assert all(c.passed for c in r.checks if c is not record)


def test_nonvanishing_top_degree_fails_its_record(monkeypatch, tmp_path):
    """With the degree-4 Gysin kernel emptied, H^4(M x M) survives: the record fails and the surface is reported."""
    from conf2 import conf_symbolic

    kernel = conf_symbolic.gysin_kernel

    def emptied(square, q):
        K = kernel(square, q)
        return K.take_rows([]) if q == 4 else K

    monkeypatch.setattr(conf_symbolic, "gysin_kernel", emptied)
    out = tmp_path / "r.json"
    assert main(["--no-oracle", "--surface", "sphere", "--output", str(out)]) == 1
    (r,) = json.loads(out.read_text())["reports"]
    assert r["kind"] == "sphere" and "error" not in r
    assert r["conf"][4] == {"q": 4, "dim": 1, "t": 1, "f": 0}
    (record,) = [c for c in r["checks"] if c["name"] == "conf-top-degree-vanishes"]
    assert record == {"name": "conf-top-degree-vanishes", "pass": False, "expected": 0, "got": 1}


def test_open_surface_file_rejected(tmp_path):
    path = tmp_path / "disk.tri"
    path.write_text("vertices 3\nf 0 1 2\n")
    (r,) = _run(("file", str(path)))
    assert r.error is not None and "closed" in r.error


def test_file_with_odd_betti_is_classified(tmp_path):
    path = tmp_path / "p.tri"
    path.write_text(format_triangulation(builtin_triangulation(SurfaceKind.nonorientable(1))))
    (r,) = _run(("file", str(path)))
    assert r.kind == SurfaceKind.nonorientable(1)
    assert {c.name for c in r.checks} >= {"euler-matches-classification", "oracle-conf-dims"}
    assert all(c.passed for c in r.checks)


def test_file_with_even_betti_is_ambiguous(tmp_path):
    path = tmp_path / "t.tri"
    path.write_text(format_triangulation(builtin_triangulation(SurfaceKind.orientable(1))))
    (r,) = _run(("file", str(path)))
    assert r.kind is None
    assert r.notes and "orientable:1" in r.notes[0] and "nonorientable:2" in r.notes[0]
    # oracle numbers still come through
    assert [row.dim for row in r.conf] == [1, 4, 5, 2, 0]
    assert r.uconf.dims == (1, 3, 4, 2, 0)
    assert all(c.passed for c in r.checks)


def test_ambiguous_file_without_oracle_is_error(tmp_path):
    path = tmp_path / "t.tri"
    path.write_text(format_triangulation(builtin_triangulation(SurfaceKind.orientable(1))))
    (r,) = _run(("file", str(path)), oracle_enabled=False)
    assert r.error is not None and "oracle" in r.error


def test_exit_code_flags_failed_checks():
    bad = SurfaceReport(surface="x", checks=[CheckRecord("c", False, 1, 2)])
    good = SurfaceReport(surface="y", checks=[CheckRecord("c", True, 1, 1)])
    assert exit_code([bad, good]) == 1
    assert exit_code([good]) == 0
    assert exit_code([SurfaceReport(surface="z", error="boom")]) == 2


# -- stated-table comparison ---------------------------------------------------


def test_paper_check_sphere(sphere_reports):
    (r,) = sphere_reports
    assert [m.name for m in r.discrepancies] == ["sphere-module-head"]
    m = r.discrepancies[0]
    assert m.consistent == 3 and m.computed == 3


def test_paper_check_torus(torus_reports):
    (r,) = torus_reports
    assert {m.name for m in r.discrepancies} == {
        "theorem-1.1-degree-2-free",
        "theorem-1.2-x-count",
        "theorem-1.2-z-degree",
    }
    byname = {m.name: m for m in r.discrepancies}
    assert byname["theorem-1.1-degree-2-free"].stated == 3
    assert byname["theorem-1.1-degree-2-free"].consistent == 1
    assert byname["theorem-1.1-degree-2-free"].computed == 1
    assert byname["theorem-1.2-x-count"].stated == 1
    assert byname["theorem-1.2-x-count"].computed == 2
    assert byname["theorem-1.2-z-degree"].stated == 3
    assert byname["theorem-1.2-z-degree"].computed == 2


def test_paper_check_rp2(rp2_reports):
    (r,) = rp2_reports
    assert {m.name for m in r.discrepancies} == {"theorem-1.3-degree-2-free"}
    m = r.discrepancies[0]
    assert m.stated == 2 and m.consistent == 1 and m.computed == 1


def _fabricated(kind, tf_rows, towers, height):
    rows = [ConfRow(q, t + 2 * f, t, f) for q, (t, f) in enumerate(tf_rows)]
    dims = [0] * 5
    for t in towers:
        for n in range(t.start, t.start + t.length):
            dims[n] += 1
    return SurfaceReport(
        surface=kind.label,
        kind=kind,
        conf=rows,
        uconf=UConfSummary(dims=tuple(dims), towers=tuple(towers), height=height),
    )


def _genus_report(g):
    tf = [(1, 0), (0, 2 * g), (2 * g + 1, 2 * g * g - g), (2 * g, 0), (0, 0)]
    towers = [Tower(0, 3)] + [Tower(1, 1)] * (2 * g) + [Tower(2, 1)] * (2 * g * g - g) + [Tower(2, 2)] * (2 * g)
    return _fabricated(SurfaceKind.orientable(g), tf, towers, 2)


def _crosscap_report(k):
    f2 = k * (k - 1) // 2 + 1
    tf = [(1, 0), (0, k), (k - 1, f2), (k, 0), (0, 0)]
    towers = [Tower(0, 4)] + [Tower(1, 1)] * k + [Tower(2, 1)] * f2 + [Tower(2, 2)] * (k - 1)
    return _fabricated(SurfaceKind.nonorientable(k), tf, towers, 3)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_paper_check_orientable_set(g):
    records = paper_check(_genus_report(g))
    assert {m.name for m in records} == {
        "theorem-1.1-degree-2-free",
        "theorem-1.2-x-count",
        "theorem-1.2-z-degree",
    }
    byname = {m.name: m for m in records}
    assert byname["theorem-1.1-degree-2-free"].stated == 2 * g * g + g
    assert byname["theorem-1.1-degree-2-free"].consistent == 2 * g * g - g
    assert byname["theorem-1.2-x-count"].stated == g
    assert byname["theorem-1.2-x-count"].consistent == 2 * g


@pytest.mark.parametrize("k", [1, 2, 3])
def test_paper_check_nonorientable_set(k):
    records = paper_check(_crosscap_report(k))
    assert {m.name for m in records} == {"theorem-1.3-degree-2-free"}
    (m,) = records
    assert m.stated == k * (k + 1) // 2 + 1
    assert m.consistent == k * (k - 1) // 2 + 1


def test_paper_check_skips_unclassified():
    r = SurfaceReport(surface="f.tri", kind=None, conf=[ConfRow(0, 1, 1, 0)])
    assert paper_check(r) == []


def test_paper_check_without_oracle_has_conf_records_only():
    (r,) = _run(("kind", "orientable:1"), oracle_enabled=False, paper_check=True)
    assert {m.name for m in r.discrepancies} == {"theorem-1.1-degree-2-free"}


# -- emitters -------------------------------------------------------------------


def test_json_round_trip(torus_reports):
    text = emit_report(torus_reports, "json")
    doc = json.loads(text)
    assert doc["schema"] == "conf2-report/1"
    assert json.loads(json.dumps(doc)) == doc
    r = doc["reports"][0]
    assert list(r.keys()) == ["surface", "kind", "conf", "uconf", "checks", "discrepancies"]
    assert r["conf"][2] == {"q": 2, "dim": 5, "t": 3, "f": 1}
    assert r["uconf"]["dims"] == [1, 3, 4, 2, 0]
    assert {"start": 0, "len": 3} in r["uconf"]["towers"]
    assert r["uconf"]["sw_height"] == 2


def test_json_byte_determinism():
    a = emit_report(_run(("kind", "nonorientable:1"), paper_check=True), "json")
    b = emit_report(_run(("kind", "nonorientable:1"), paper_check=True), "json")
    assert a == b


def test_markdown_torus_row(torus_reports):
    text = emit_report(torus_reports, "md")
    assert "H^2 | 5 | 3 | 1" in text


def test_empty_report_list_keeps_schema_header():
    text = emit_report([], "json")
    assert json.loads(text) == {"schema": "conf2-report/1", "reports": []}
    md = emit_report([], "md")
    assert "conf2-report/1" in md and md.count("##") == 0


def test_error_record_serialization():
    (r,) = _run(("kind", "orientable:-2"))
    doc = json.loads(emit_report([r], "json"))
    assert list(doc["reports"][0].keys()) == ["surface", "error"]
    md = emit_report([r], "md")
    assert "error:" in md


def test_failed_check_keeps_both_values():
    r = SurfaceReport(surface="x", conf=[ConfRow(0, 1, 1, 0)], checks=[CheckRecord("c", False, [1, 2], [3, 4])])
    doc = json.loads(emit_report([r], "json"))
    rec = doc["reports"][0]["checks"][0]
    assert rec["pass"] is False and rec["expected"] == [1, 2] and rec["got"] == [3, 4]


def test_emit_rejects_unknown_format(sphere_reports):
    for output_format in ("yaml", "markdown"):
        with pytest.raises(ValueError):
            emit_report(sphere_reports, output_format)


# -- CLI --------------------------------------------------------------------------


def test_cli_json_output(capsys):
    code = main(["--surface", "nonorientable:1", "--paper-check"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["reports"][0]["uconf"]["sw_height"] == 3
    assert [m["name"] for m in doc["reports"][0]["discrepancies"]] == ["theorem-1.3-degree-2-free"]


def test_cli_markdown_to_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(["--surface", "sphere", "--format", "md", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "H^0 | 1 | 1 | 0" in out.read_text()


def test_cli_mixed_sources_keep_order(tmp_path, capsys):
    path = tmp_path / "p.tri"
    path.write_text(format_triangulation(builtin_triangulation(SurfaceKind.nonorientable(1))))
    code = main(["--surface", "sphere", "--triangulation", str(path), "--no-oracle"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["surface"] for r in doc["reports"]] == ["sphere", str(path)]
    assert doc["reports"][1]["kind"] == "nonorientable:1"


def test_cli_partial_failure_exit_zero(tmp_path, capsys):
    code = main(["--surface", "sphere", "--triangulation", str(tmp_path / "nope.tri"), "--no-oracle"])
    capsys.readouterr()
    assert code == 0


def test_cli_total_failure_exit_two(tmp_path, capsys):
    code = main(["--triangulation", str(tmp_path / "nope.tri")])
    capsys.readouterr()
    assert code == 2


def test_cli_refuses_an_absurd_parameter_before_allocating(capsys):
    code = main(["--no-oracle", "--surface", "orientable:99999999"])
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert code == 2
    assert report["error"].startswith("bad surface label: 'orientable:99999999' (orientable:99999999 is too large")


def test_cli_requires_surfaces():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "r.json"
    code = main(["--surface", "sphere", "--no-oracle", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("conf2: ") and str(target) in lines[0]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_cli_writes_utf8_under_an_ascii_locale(tmp_path, to_file):
    """An error record quoting a non-ASCII directive is written as UTF-8, whatever the locale says; exit 2."""
    path = tmp_path / "u.tri"
    path.write_text("vertices 3\n\u00fc 0 1 2\n", encoding="utf-8")
    out = tmp_path / "report.md"
    argv = ["--triangulation", str(path), "--format", "md"] + (["--output", str(out)] if to_file else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"} | {
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
    }
    proc = subprocess.run([sys.executable, "-m", "conf2", *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 2, proc.stderr.decode("utf-8", "replace")
    assert proc.stderr == b""
    text = (out.read_bytes() if to_file else proc.stdout).decode("utf-8")
    assert f"error: {path}: line 2: unknown directive '\u00fc'" in text
