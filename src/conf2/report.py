"""Pipeline orchestration, cross-checks, and report emission.

Runs the closed-form computation over a list of surfaces, optionally the
triangulation-based oracle next to it, records named pass/fail checks
for everything the two sides can compare, and renders the result as JSON
or markdown.  The oracle works on the orbit complex Q of the deleted
product alone: the unordered space is H*(Q) with alpha, and the ordered
space's rows come from the transfer sequence, as the same `ConfRow`s the
closed form gives.  Before the oracle builds anything, a surface whose
orbit complex is predicted past MAX_QUOTIENT_CELLS becomes an error
record.  A report holds only what it emits: the closed-form
rows (the oracle's for an unclassified file), the unordered summary with
its integer height, and the check records, which carry both sides.
`paper_check` additionally compares the computed multiplicities against
the stated classification tables, encoded both as printed and as the
accompanying generator lists imply; disagreements become first-class
mismatch records, never silent corrections.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from typing import NamedTuple

from .borel import (
    Tower,
    check_norm_map,
    cover_counts,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    sw_height,
)
from .cells import (
    cohomology_f2,
    deleted_product,  # not run here; kept importable under its traced name
    deleted_product_euler,
    predicted_quotient_cells,
    quotient_complex,
    simplicial_cell_complex,
)
from .conf_symbolic import TOP_DEGREE, ConfRow, conf_cohomology, kernel_ideal_check
from .simplicial import (
    SimplicialComplex,
    builtin_triangulation,
    irreducible,
    is_orientable,
    read_triangulation,
    validate_surface,
    vertex_bound,
)
from .surfaces import SurfaceKind

SCHEMA = "conf2-report/1"
# The uconf-top-degree-vanishes record of conf2-report/1 lists H^4..H^8 of
# the unordered space; the orbit complex has no cells above degree 4.
UCONF_TAIL_DEGREES = range(TOP_DEGREE, 9)
# The most orbit-complex cells the oracle takes on.  Its peak RSS grows as the square of the cells:
# 539 MB at orientable:32 (80,857 cells) and 2,168 MB at orientable:48 (165,249), so 200,000 cells
# come to about 3.2 GB, under half of an 8 GB machine.
MAX_QUOTIENT_CELLS = 200_000


class RunConfig(namedtuple("RunConfig", "surfaces oracle_enabled paper_check")):
    """What to run: surfaces as ("kind", label) or ("file", path) pairs."""

    __slots__ = ()

    def __new__(cls, surfaces, oracle_enabled: bool = True, paper_check: bool = False) -> "RunConfig":
        surfaces = tuple((s, v) for s, v in surfaces)
        if not surfaces:
            raise ValueError("at least one surface is required")
        for source, _ in surfaces:
            if source not in ("kind", "file"):
                raise ValueError(f"unknown surface source: {source!r}")
        return super().__new__(cls, surfaces, oracle_enabled, paper_check)


class CheckRecord(NamedTuple):
    """One named cross-check: it passes exactly when the two values it keeps are equal."""

    name: str
    expected: object
    got: object

    @property
    def passed(self) -> bool:
        return self.expected == self.got


class MismatchRecord(NamedTuple):
    """A stated value that disagrees with the computation.

    `stated` is the multiplicity as printed in the theorem, `consistent`
    the value the theorem's own generator list gives, `computed` ours.
    """

    name: str
    stated: object
    consistent: object
    computed: object


class UConfSummary(NamedTuple):
    dims: tuple[int, ...]
    towers: tuple[Tower, ...]
    height: int


class SurfaceReport:
    """One surface's results; `error` replaces them when the surface failed."""

    def __init__(self, surface, *, kind=None, conf=None, uconf=None, checks=None, notes=None, error=None):
        self.surface: str = surface
        self.kind: SurfaceKind | None = kind
        self.conf: list[ConfRow] = [] if conf is None else conf
        self.uconf: UConfSummary | None = uconf
        self.checks: list[CheckRecord] = [] if checks is None else checks
        self.notes: list[str] = [] if notes is None else notes
        self.error: str | None = error
        # None until run_pipeline runs the stated-table comparison.
        self.discrepancies: list[MismatchRecord] | None = None


# -- pipeline ----------------------------------------------------------------


def run_pipeline(cfg: RunConfig) -> list[SurfaceReport]:
    """One report per requested surface, in input order.

    A surface that fails (unreadable file, invalid complex, any other
    Exception, named by its type) contributes an error record; the
    remaining surfaces still run.  KeyboardInterrupt ends the run.
    """
    reports: list[SurfaceReport] = []
    for source, value in cfg.surfaces:
        try:
            report = _surface_report(source, value, cfg)
        except (ValueError, RuntimeError) as exc:
            report = SurfaceReport(surface=value, error=str(exc))
        except Exception as exc:
            report = SurfaceReport(surface=value, error=f"{type(exc).__name__}: {exc}")
        if cfg.paper_check and report.error is None:
            report.discrepancies = paper_check(report)
        reports.append(report)
    return reports


def _surface_report(source: str, value: str, cfg: RunConfig) -> SurfaceReport:
    if source == "kind":
        kind = SurfaceKind.from_label(value)
        return _report(kind.label, kind, None, cfg)

    K = read_triangulation(value)
    info = validate_surface(K)
    if not (info["closed"] and info["connected"]):
        raise ValueError(
            f"{value}: not a closed connected surface "
            f"(closed={info['closed']}, connected={info['connected']})"
        )
    # Mod-2 Poincare duality: a closed connected surface has Betti numbers (1, 2 - euler, 1).
    b1 = 2 - info["euler"]
    if b1 == 0:
        return _report(value, SurfaceKind.sphere(), K, cfg)
    if b1 % 2 == 1:
        return _report(value, SurfaceKind.nonorientable(b1), K, cfg)
    # Even b1 fits both an orientable and a nonorientable surface, and the
    # Betti numbers cannot tell them apart; report oracle output only.
    fits = f"Betti numbers (1, {b1}, 1) fit both orientable:{b1 // 2} and nonorientable:{b1}"
    if not cfg.oracle_enabled:
        raise ValueError(f"{value}: {fits}; nothing to report with the oracle disabled")
    return _report(value, None, K, cfg, [f"{fits}; closed-form comparison skipped"])


def _report(
    label: str, kind: SurfaceKind | None, K: SimplicialComplex | None, cfg: RunConfig, notes: list[str] | None = None
) -> SurfaceReport:
    """The closed form's rows and records when `kind` is known, the oracle's when it is on, and the
    comparison of the two when both run.  An unclassified surface reports the oracle's rows."""
    chi = K.euler if kind is None else kind.euler
    if cfg.oracle_enabled:
        _check_oracle_size(chi, is_orientable(K) if kind is None else kind.family != "nonorientable")
    rows, uconf, checks = [], None, []
    if kind is not None:
        sym = conf_cohomology(kind)
        rows, dims = sym.rows, sym.dims()
        checks = [
            CheckRecord("conf-top-degree-vanishes", 0, dims[TOP_DEGREE]),
            CheckRecord("conf-euler-identity", chi * chi - chi, sym.euler()),
            CheckRecord("conf-dimension-accounting", dims, [r.t + 2 * r.f for r in rows]),
            CheckRecord(
                "gysin-kernel-is-diagonal-ideal",
                [True] * (TOP_DEGREE + 1),
                [kernel_ideal_check(sym.square, q) for q in range(TOP_DEGREE + 1)],
            ),
        ]
        if K is not None:
            checks.append(CheckRecord("euler-matches-classification", chi, K.euler))
    if cfg.oracle_enabled:
        oracle_rows, uconf, oracle_checks = _oracle_side(K or builtin_triangulation(kind), chi)
        checks += oracle_checks
        if kind is None:
            rows = oracle_rows
        else:
            checks += [
                CheckRecord("oracle-conf-dims", dims, [r.dim for r in oracle_rows]),
                CheckRecord("oracle-conf-decomposition", [[r.t, r.f] for r in rows], [[r.t, r.f] for r in oracle_rows]),
                CheckRecord("sw-height-by-family", 3 if kind.family == "nonorientable" else 2, uconf.height),
            ]
    return SurfaceReport(surface=label, kind=kind, conf=rows, uconf=uconf, checks=checks, notes=notes)


def _check_oracle_size(chi: int, orientable: bool) -> None:
    """ValueError, before any triangulation is built or reduced, when the oracle's orbit complex would
    exceed MAX_QUOTIENT_CELLS at the surface's vertex bound, where `irreducible` aims."""
    cells = predicted_quotient_cells(vertex_bound(chi, orientable), chi)
    if cells > MAX_QUOTIENT_CELLS:
        raise ValueError(
            f"the oracle's orbit complex would have about {cells} cells, more than {MAX_QUOTIENT_CELLS};"
            " --no-oracle runs the closed form alone"
        )


def _oracle_side(K: SimplicialComplex, chi: int) -> tuple[list[ConfRow], UConfSummary, list[CheckRecord]]:
    """Conf rows, the unordered summary and the oracle's check records for a triangulation.

    They depend on the surface alone, so they are computed on `irreducible(K)`, vertex-minimal wherever
    its flips reach the bound.  The deleted product is never built: its Euler characteristic is counted
    from the disjoint pairs.  Failed checks that raise (the reduction, the connecting map, alpha, the
    norm map) become the surface's error record.
    """
    K = irreducible(K)
    conf_chi = chi * chi - chi
    checks = [CheckRecord("deleted-product-euler", conf_chi, deleted_product_euler(K))]

    quotient = quotient_complex(K)
    checks.append(CheckRecord("quotient-euler-halves", conf_chi // 2, quotient.euler))
    Q = cohomology_f2(quotient)
    # Rank-nullity from the sizes of the coboundary tables, against the number of classes.
    ranks = [len(table) for table in Q.coboundaries] + [0] * (TOP_DEGREE + 2)
    rank_nullity = [quotient.n_cells(n) - ranks[n + 1] - ranks[n] for n in range(TOP_DEGREE + 1)]

    A = equivariant_cohomology_with_alpha(equivariant_cochain_complex(quotient), Q)
    check_norm_map(K, cohomology_f2(simplicial_cell_complex(K)), quotient, Q, A)
    # The transfer sequence gives H*(Conf) with its swap from Q and alpha.
    counts = cover_counts(A) + [(0, 0)] * (TOP_DEGREE + 1)
    rows = [ConfRow(q, dim, dim - 2 * free, free) for q, (dim, free) in enumerate(counts[: TOP_DEGREE + 1])]
    dims = A.dims[: TOP_DEGREE + 1]
    tail = [A.dims[n] if n < len(A.dims) else 0 for n in UCONF_TAIL_DEGREES]
    coverage = [sum(1 for t in A.towers if t.start <= n < t.start + t.length) for n in range(TOP_DEGREE + 1)]
    checks += [
        CheckRecord("uconf-dims-match-quotient", rank_nullity, dims),
        CheckRecord("uconf-top-degree-vanishes", [0] * len(tail), tail),
        CheckRecord("tower-reconstruction", dims, coverage),
        CheckRecord("uconf-euler-halves-conf", conf_chi // 2, A.euler),
    ]

    uconf = UConfSummary(dims=tuple(dims), towers=tuple(A.towers), height=sw_height(A))
    return rows, uconf, checks


# -- stated-table comparison -------------------------------------------------


def paper_check(report: SurfaceReport) -> list[MismatchRecord]:
    """Compare computed multiplicities with the stated classification.

    Every quantity the tables pin down is compared against both encoded
    variants (as printed, and as the generator lists imply); a record is
    emitted exactly when the printed value disagrees with the computed
    one.  Reports without a resolved kind have nothing to compare.
    """
    if report.error is not None or report.kind is None:
        return []
    rows = {r.q: r for r in report.conf}
    uconf = report.uconf
    comparisons: list[tuple[str, object, object, object]] = []

    if report.kind.family == "sphere":
        if uconf is not None:
            comparisons.append(("sphere-module-head", "F_2[alpha] (no truncation)", 3, _head_length(uconf.towers)))
    elif report.kind.family == "orientable":
        g = report.kind.param
        comparisons += [
            ("theorem-1.1-degree-1-free", 2 * g, 2 * g, rows[1].f),
            ("theorem-1.1-degree-2-trivial", 2 * g + 1, 2 * g + 1, rows[2].t),
            ("theorem-1.1-degree-2-free", 2 * g * g + g, 2 * g * g - g, rows[2].f),
            ("theorem-1.1-degree-3-trivial", 2 * g, 2 * g, rows[3].t),
        ]
        if uconf is not None:
            comparisons += [
                ("theorem-1.2-head-length", 3, 3, _head_length(uconf.towers)),
                ("theorem-1.2-x-count", g, 2 * g, _tower_count(uconf.towers, start=1, length=1)),
                ("theorem-1.2-z-count", 2 * g, 2 * g, _tower_count(uconf.towers, length=2)),
            ]
            zdeg = _length_two_start(uconf.towers)
            if zdeg is not None:
                comparisons.append(("theorem-1.2-z-degree", 3, 2, zdeg))
    else:
        k = report.kind.param
        comparisons += [
            ("theorem-1.3-degree-1-free", k, k, rows[1].f),
            ("theorem-1.3-degree-2-trivial", k - 1, k - 1, rows[2].t),
            ("theorem-1.3-degree-2-free", k * (k + 1) // 2 + 1, k * (k - 1) // 2 + 1, rows[2].f),
            ("theorem-1.3-degree-3-trivial", k, k, rows[3].t),
        ]
        if uconf is not None:
            # The z-degree slip is recorded once, under the orientable
            # statement; both statements place z_i in degree 3.
            comparisons += [
                ("theorem-1.4-head-length", 4, 4, _head_length(uconf.towers)),
                ("theorem-1.4-x-count", k, k, _tower_count(uconf.towers, start=1, length=1)),
                ("theorem-1.4-z-count", k - 1, k - 1, _tower_count(uconf.towers, length=2)),
            ]
    if uconf is not None:
        height = 3 if report.kind.family == "nonorientable" else 2
        comparisons.append(("corollary-sw-height", height, height, uconf.height))

    return [
        MismatchRecord(name=name, stated=stated, consistent=consistent, computed=computed)
        for name, stated, consistent, computed in comparisons
        if stated != computed
    ]


def _head_length(towers: tuple[Tower, ...]) -> int:
    return max((t.length for t in towers if t.start == 0), default=0)


def _tower_count(towers: tuple[Tower, ...], start: int | None = None, length: int | None = None) -> int:
    return sum(
        1
        for t in towers
        if (start is None or t.start == start) and (length is None or t.length == length)
    )


def _length_two_start(towers: tuple[Tower, ...]):
    starts = sorted({t.start for t in towers if t.length == 2})
    if not starts:
        return None
    return starts[0] if len(starts) == 1 else starts


# -- emission ----------------------------------------------------------------


def report_to_dict(report: SurfaceReport) -> dict:
    """JSON-ready dict with a fixed key order."""
    d: dict = {"surface": report.surface}
    if report.error is not None:
        d["error"] = report.error
        return d
    d["kind"] = report.kind.label if report.kind is not None else None
    d["conf"] = [{"q": r.q, "dim": r.dim, "t": r.t, "f": r.f} for r in report.conf]
    if report.uconf is not None:
        d["uconf"] = {
            "dims": list(report.uconf.dims),
            "towers": [{"start": t.start, "len": t.length} for t in report.uconf.towers],
            "sw_height": report.uconf.height,
        }
    else:
        d["uconf"] = None
    d["checks"] = [
        {"name": c.name, "pass": c.passed, "expected": c.expected, "got": c.got}
        for c in report.checks
    ]
    if report.discrepancies is not None:
        d["discrepancies"] = [
            {"name": m.name, "stated": m.stated, "consistent": m.consistent, "computed": m.computed}
            for m in report.discrepancies
        ]
    if report.notes:
        d["notes"] = list(report.notes)
    return d


def emit_report(reports: list[SurfaceReport], output_format: str = "json") -> str:
    """Render reports; identical inputs give byte-identical output."""
    if output_format == "json":
        doc = {"schema": SCHEMA, "reports": [report_to_dict(r) for r in reports]}
        return json.dumps(doc, indent=2) + "\n"
    if output_format == "md":
        return _markdown(reports)
    raise ValueError(f"unknown output format: {output_format!r}")


def _markdown(reports: list[SurfaceReport]) -> str:
    lines = [f"# Two-point configuration report ({SCHEMA})", ""]
    for r in reports:
        lines.append(f"## {r.surface}")
        lines.append("")
        if r.error is not None:
            lines.append(f"error: {r.error}")
            lines.append("")
            continue
        if r.kind is not None and r.kind.label != r.surface:
            lines.append(f"classified as {r.kind.label}")
            lines.append("")
        for note in r.notes:
            lines.append(f"note: {note}")
            lines.append("")
        lines.append("| degree | dim | trivial | free |")
        lines.append("| --- | --- | --- | --- |")
        for row in r.conf:
            lines.append(f"| H^{row.q} | {row.dim} | {row.t} | {row.f} |")
        lines.append("")
        if r.uconf is not None:
            lines.append(f"- unordered dims (H^0..H^{TOP_DEGREE}): " + ", ".join(str(d) for d in r.uconf.dims))
            lines.append(f"- towers: {_grouped_towers(r.uconf.towers)}")
            lines.append(f"- Stiefel-Whitney height: {r.uconf.height}")
            lines.append("")
        if r.checks:
            lines.append("| check | status | expected | got |")
            lines.append("| --- | --- | --- | --- |")
            for c in r.checks:
                status = "pass" if c.passed else "FAIL"
                lines.append(
                    f"| {c.name} | {status} | {_compact(c.expected)} | {_compact(c.got)} |"
                )
            lines.append("")
        if r.discrepancies is not None:
            if r.discrepancies:
                lines.append("| stated value | as printed | per generator list | computed |")
                lines.append("| --- | --- | --- | --- |")
                for m in r.discrepancies:
                    lines.append(
                        f"| {m.name} | {_compact(m.stated)} | {_compact(m.consistent)} | {_compact(m.computed)} |"
                    )
            else:
                lines.append("no stated-value mismatches")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _grouped_towers(towers: tuple[Tower, ...]) -> str:
    if not towers:
        return "none"
    counts = Counter((t.start, t.length) for t in towers)
    parts = []
    for (start, length), n in sorted(counts.items()):
        label = f"(start {start}, length {length})"
        parts.append(label if n == 1 else f"{label} x{n}")
    return "; ".join(parts)


def _compact(value) -> str:
    return json.dumps(value) if isinstance(value, (list, tuple)) else str(value)


def exit_code(reports: list[SurfaceReport]) -> int:
    """0 when everything ran clean, 1 on failed checks, 2 when nothing ran."""
    done = [r for r in reports if r.error is None]
    if not done:
        return 2
    if any(not c.passed for r in done for c in r.checks):
        return 1
    return 0
