"""Command line front end: classify, generate, validate, bench, fuzz.

Every seed defaults to the fixed constant 1729 so bare invocations are
reproducible. Exit codes: 0 success, 1 fuzz disagreement or oracle mismatch,
2 usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import (
    CENTROID_RULE,
    CLASSIFIERS,
    NEAR_BOUNDARY_RULE,
    BenchConfig,
    OracleDisagreementError,
    UnsupportedFormatError,
    emit_report,
    run_fuzz,
    run_point_sweep,
    run_polygon_sweep,
    trial_expectation_check,
)
from .classify import DEFAULT_SEED, SeededShuffle
from .geom import GeometryError, Point, _require_finite
from .polygon import PolygonError, dump_polygon, load_polygon, random_convex

_RULES = {"centroid": CENTROID_RULE, "near-boundary": NEAR_BOUNDARY_RULE}


def _parse_point(text: str) -> Point:
    try:
        sx, sy = text.split(",")
        p = Point(float(sx), float(sy))
    except ValueError as exc:
        raise GeometryError(f"point must be 'x,y' decimal, got {text!r}") from exc
    _require_finite(*p)
    return p


def _cmd_classify(args) -> int:
    poly = load_polygon(args.polygon)
    p = _parse_point(args.point)
    verdict, stats = CLASSIFIERS[args.algorithm](
        poly, p, SeededShuffle(args.policy_seed))
    print(verdict.value)
    print(f"edges_tried={stats.edges_tried} "
          f"intersection_tests={stats.intersection_tests}")
    return 0


def _cmd_generate(args) -> int:
    poly = random_convex(args.n, args.seed, args.radius)
    dump_polygon(poly, args.out)
    print(f"wrote {args.out} (n={poly.n}, radius={args.radius}, "
          f"seed={args.seed})")
    return 0


def _cmd_validate(args) -> int:
    poly = load_polygon(args.polygon)
    print(f"ok: {poly.n} vertices, counter-clockwise, strictly convex")
    return 0


def _cmd_bench(args) -> int:
    overrides = {}
    if args.sizes:
        overrides["polygon_sizes"] = tuple(
            int(s) for s in args.sizes.split(","))
    cfg = BenchConfig(
        seed=args.seed,
        points_per_set=args.points_per_set,
        num_point_sets=args.num_point_sets,
        warmup_rounds=args.warmup,
        repetitions=args.repetitions,
        **overrides,
    )
    if args.mode == "point-sweep":
        poly = random_convex(args.polygon_n, args.seed, args.radius)
        report = run_point_sweep(poly, cfg)
    elif args.mode == "polygon-sweep":
        report = run_polygon_sweep(cfg, _RULES[args.query_rule], args.radius)
    else:
        poly = random_convex(args.polygon_n, args.seed, args.radius)
        q = _RULES[args.query_rule].point(poly,
                                          np.random.default_rng(args.seed))
        report = trial_expectation_check(poly, q, args.runs, args.seed)

    out = args.out or f"report.{args.format}"
    content = emit_report(report, args.format)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"wrote {out}")
    return 0


def _cmd_fuzz(args) -> int:
    result = run_fuzz(args.cases, args.max_n, args.seed)
    if result.ok:
        print(f"{result.agreed}/{result.cases_run} agree")
        return 0
    out = args.out or "fuzz-repro.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result.disagreement, fh, indent=2)
        fh.write("\n")
    print(f"{result.agreed}/{result.cases_run} agree; "
          f"disagreement reproduction written to {out}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexpoint",
        description="Point-in-convex-polygon classification and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a point against a polygon")
    c.add_argument("polygon", help='polygon JSON file {"vertices": [[x, y], ...]}')
    c.add_argument("--point", required=True, help="query point as 'x,y'")
    c.add_argument("--algorithm", choices=tuple(CLASSIFIERS),
                   default="improved")
    c.add_argument("--policy-seed", type=int, default=DEFAULT_SEED,
                   help="edge shuffle seed for the improved classifier")
    c.set_defaults(func=_cmd_classify)

    g = sub.add_parser("generate", help="generate a random convex polygon")
    g.add_argument("--n", type=int, required=True, help="vertex count (>= 3)")
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--out", default="polygon.json")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("validate", help="validate a polygon JSON file")
    v.add_argument("polygon")
    v.set_defaults(func=_cmd_validate)

    b = sub.add_parser("bench", help="run a benchmark sweep or the "
                                     "trial-count expectation check")
    b.add_argument("--mode",
                   choices=("point-sweep", "polygon-sweep", "expectation"),
                   default="point-sweep")
    b.add_argument("--seed", type=int, default=DEFAULT_SEED)
    b.add_argument("--polygon-n", type=int, default=1000,
                   help="polygon size for point-sweep and expectation modes")
    b.add_argument("--radius", type=float, default=100.0)
    b.add_argument("--points-per-set", type=int, default=1000)
    b.add_argument("--num-point-sets", type=int, default=10)
    b.add_argument("--sizes", default=None,
                   help="comma list overriding polygon-sweep sizes")
    b.add_argument("--query-rule", choices=tuple(_RULES), default="centroid")
    b.add_argument("--warmup", type=int, default=1)
    b.add_argument("--repetitions", type=int, default=3)
    b.add_argument("--runs", type=int, default=10000,
                   help="classifier runs for expectation mode")
    b.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bench)

    f = sub.add_parser("fuzz", help="differential oracle fuzzing")
    f.add_argument("--cases", type=int, default=1000)
    f.add_argument("--max-n", type=int, default=64)
    f.add_argument("--seed", type=int, default=DEFAULT_SEED)
    f.add_argument("--out", default=None,
                   help="path for the reproduction file on disagreement")
    f.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleDisagreementError as exc:
        print(f"error: oracle disagreement: {exc}", file=sys.stderr)
        return 1
    except (PolygonError, GeometryError, UnsupportedFormatError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
