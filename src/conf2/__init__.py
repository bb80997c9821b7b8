"""Mod-2 cohomology of two-point configuration spaces of closed surfaces.

Two independent pipelines compute the same invariants:

* a symbolic one, working in the cohomology ring of the surface square
  and dividing out the image of the diagonal pushforward, and
* a simplicial oracle, running over the deleted product of an actual
  triangulation, its free swap involution, and the orbit complex of
  that involution.

On the orbit complex the package takes the polynomial generator action
as the connecting map of the transfer (Smith-Gysin) sequence of the
double cover, decomposes the result into exact truncated towers, and
reads off the Stiefel-Whitney height.
"""

from __future__ import annotations

from .gf2 import (
    Mat2,
    Subspace,
    invert,
    kernel_basis,
    quotient_map,
    quotient_map_with_section,
    rank,
    rank_and_kernel,
    rref,
    select_independent_rows,
    solve_linear,
    solve_many,
    subspace_equal,
)
from .surfaces import (
    Element,
    GradedAlgebra,
    KunnethAlgebra,
    SurfaceKind,
    build_kunneth,
    build_surface_ring,
    cup_product,
    diagonal_class,
    swap_involution,
)
from .conf_symbolic import (
    ConfCohomology,
    ConfDegree,
    RepDecomposition,
    conf_cohomology,
    gysin_kernel,
    kernel_ideal_check,
    rep_decompose,
)
from .simplicial import (
    SimplicialComplex,
    barycentric_subdivide,
    builtin_triangulation,
    connected_sum,
    format_triangulation,
    parse_triangulation,
    read_triangulation,
    validate_surface,
)
from .cells import (
    CellComplex,
    CohomologyResult,
    cohomology_f2,
    deleted_product,
    induced_involution,
    orbit_representatives,
    quotient_complex,
)
from .borel import (
    AlphaModule,
    SWHeight,
    Tower,
    check_smith_gysin,
    equivariant_cochain_complex,
    equivariant_cohomology_with_alpha,
    module_decompose,
    sw_height,
)
from .report import (
    CheckRecord,
    ConfRow,
    MismatchRecord,
    RunConfig,
    SurfaceReport,
    UConfSummary,
    emit_report,
    exit_code,
    paper_check,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "Subspace",
    "invert",
    "kernel_basis",
    "quotient_map",
    "quotient_map_with_section",
    "rank",
    "rank_and_kernel",
    "rref",
    "select_independent_rows",
    "solve_linear",
    "solve_many",
    "subspace_equal",
    "Element",
    "GradedAlgebra",
    "KunnethAlgebra",
    "SurfaceKind",
    "build_kunneth",
    "build_surface_ring",
    "cup_product",
    "diagonal_class",
    "swap_involution",
    "ConfCohomology",
    "ConfDegree",
    "RepDecomposition",
    "conf_cohomology",
    "gysin_kernel",
    "kernel_ideal_check",
    "rep_decompose",
    "SimplicialComplex",
    "barycentric_subdivide",
    "builtin_triangulation",
    "connected_sum",
    "format_triangulation",
    "parse_triangulation",
    "read_triangulation",
    "validate_surface",
    "CellComplex",
    "CohomologyResult",
    "cohomology_f2",
    "deleted_product",
    "induced_involution",
    "orbit_representatives",
    "quotient_complex",
    "AlphaModule",
    "SWHeight",
    "Tower",
    "check_smith_gysin",
    "equivariant_cochain_complex",
    "equivariant_cohomology_with_alpha",
    "module_decompose",
    "sw_height",
    "CheckRecord",
    "ConfRow",
    "MismatchRecord",
    "RunConfig",
    "SurfaceReport",
    "UConfSummary",
    "emit_report",
    "exit_code",
    "paper_check",
    "run_pipeline",
    "__version__",
]
