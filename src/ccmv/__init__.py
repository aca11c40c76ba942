"""Exact-arithmetic verification engine for complex contact metric
geometry on homogeneous frame models.

A model is a frame presentation of a Lie group with a left-invariant
metric: bracket structure constants plus three frame endomorphisms and
two distinguished vertical directions.  Everything downstream — the
metric connection, curvature, and a registry of structure identities —
is computed in exact rational arithmetic, so every reported equality or
inequality is a theorem about the model, not a numerical impression.
"""
from .core import (
    DimensionMismatch,
    Scalar,
    Status,
    Table,
    format_scalar,
    format_sparse_vector,
    parse_scalar,
    parse_sparse_vector,
)
from .model import (
    CheckResult,
    HEISENBERG_CCM,
    InvalidModelError,
    MAX_N,
    ManifoldModel,
    ModelFormatError,
    SuiteReport,
    build_abelian,
    build_heisenberg,
    lie_checks,
    load_model,
    require_lie_algebra,
    structure_tensor_checks,
    validate_structure,
)
from .connection import (
    exterior_d_oneform,
    levi_civita,
    sigma_form,
    wedge,
)
from .structures import check_normality
from .curvature import (
    DegeneratePlane,
    holomorphic_sectional,
    ricci,
    riemann,
    riemann_symmetry_failures,
    scalar_curvature,
    sectional,
)
from .verify import (
    DiffReport,
    ExpectedFormatError,
    SELECTORS,
    Workspace,
    diff_expected,
    diff_text_rows,
    diff_tsv_rows,
    parse_expected,
    registry_ids,
    run_suite,
    suite_tsv_rows,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DegeneratePlane",
    "DiffReport",
    "DimensionMismatch",
    "ExpectedFormatError",
    "HEISENBERG_CCM",
    "InvalidModelError",
    "ManifoldModel",
    "MAX_N",
    "ModelFormatError",
    "SELECTORS",
    "Scalar",
    "Status",
    "SuiteReport",
    "Table",
    "Workspace",
    "build_abelian",
    "build_heisenberg",
    "check_normality",
    "diff_expected",
    "diff_text_rows",
    "diff_tsv_rows",
    "exterior_d_oneform",
    "format_scalar",
    "format_sparse_vector",
    "holomorphic_sectional",
    "levi_civita",
    "lie_checks",
    "load_model",
    "parse_expected",
    "parse_scalar",
    "parse_sparse_vector",
    "registry_ids",
    "require_lie_algebra",
    "ricci",
    "riemann",
    "riemann_symmetry_failures",
    "run_suite",
    "scalar_curvature",
    "sectional",
    "sigma_form",
    "suite_tsv_rows",
    "structure_tensor_checks",
    "validate_structure",
    "wedge",
]
