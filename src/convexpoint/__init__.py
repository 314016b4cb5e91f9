"""convexpoint: point-in-convex-polygon classification and benchmarking.

The package exposes three classifiers under one instrumentation contract
(the perpendicular-admission fast path plus ray-cast and fan-triangulation
baselines), an exact half-plane oracle for differential testing, a seeded
convex polygon generator, and a benchmark harness that validates the
expected trial-count model E = N / sigma.
"""

from .geom import EPS, GeometryError, Point
from .polygon import (
    BoundingBox,
    Classification,
    ConvexPolygon,
    DuplicateVertexError,
    GenerationError,
    NotConvexError,
    NotSimpleError,
    PolygonError,
    Quad,
    TooFewVerticesError,
    adjacent_quad,
    bounding_box,
    dump_polygon,
    load_polygon,
    oracle_classify,
    random_convex,
    sigma,
    validate_convex,
)
from .classify import (
    DEFAULT_SEED,
    SeededShuffle,
    TrialStats,
    classify_fan_triangulation,
    classify_improved,
    classify_quad,
    classify_raycast,
    edge_order,
)
from .bench import (
    CENTROID_RULE,
    NEAR_BOUNDARY_RULE,
    BenchConfig,
    ExpectationReport,
    FuzzResult,
    OracleDisagreementError,
    QueryRule,
    SweepCell,
    SweepReport,
    UnsupportedFormatError,
    emit_report,
    parse_report,
    run_fuzz,
    run_point_sweep,
    run_polygon_sweep,
    trial_expectation_check,
)

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "DEFAULT_SEED",
    "Point",
    "GeometryError",
    "Classification",
    "ConvexPolygon",
    "Quad",
    "BoundingBox",
    "PolygonError",
    "TooFewVerticesError",
    "NotConvexError",
    "DuplicateVertexError",
    "NotSimpleError",
    "GenerationError",
    "validate_convex",
    "adjacent_quad",
    "random_convex",
    "oracle_classify",
    "bounding_box",
    "sigma",
    "load_polygon",
    "dump_polygon",
    "SeededShuffle",
    "TrialStats",
    "edge_order",
    "classify_quad",
    "classify_improved",
    "classify_raycast",
    "classify_fan_triangulation",
    "BenchConfig",
    "SweepCell",
    "SweepReport",
    "ExpectationReport",
    "QueryRule",
    "CENTROID_RULE",
    "NEAR_BOUNDARY_RULE",
    "FuzzResult",
    "OracleDisagreementError",
    "UnsupportedFormatError",
    "run_point_sweep",
    "run_polygon_sweep",
    "trial_expectation_check",
    "run_fuzz",
    "emit_report",
    "parse_report",
]
