"""Benchmark sweeps, the trial-count expectation check, differential
fuzzing, and report emission.

Two sweeps mirror the classic comparison setup: a point sweep (many points
sampled from one polygon's bounding rectangle) and a polygon sweep (one
query point against polygon sets of growing edge count). Every verdict is
cross-checked against the half-plane reference oracle; a single mismatch
aborts the sweep with the offending instance serialized. Timing is wall
clock per point set with warmup rounds and a median over repetitions,
reported relative to ray casting on the first set.
"""
from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, replace
from statistics import median
from typing import Optional

import numpy as np

from .classify import (
    DEFAULT_SEED,
    SeededShuffle,
    classify_fan_triangulation,
    classify_improved,
    classify_raycast,
)
from .geom import EPS, Point
from .polygon import (
    ConvexPolygon,
    PolygonError,
    bounding_box,
    oracle_classify,
    polygon_to_dict,
    random_convex,
    sigma,
    validate_convex,
)

# Every classifier the sweeps, the fuzz and the CLI run, as
# (poly, p, policy) -> (Classification, TrialStats), with policy a
# SeededShuffle that only "improved" reads. The order is the report order
# and the SVG colour order.
CLASSIFIERS = {
    "improved": classify_improved,
    "raycast": lambda poly, p, policy: classify_raycast(poly, p),
    "fan": lambda poly, p, policy: classify_fan_triangulation(poly, p),
}

_SEED_BOUND = 2**63 - 1
_DRAW_BLOCK = 1 << 20


class UnsupportedFormatError(ValueError):
    pass


class OracleDisagreementError(RuntimeError):
    """A classifier verdict differed from the oracle; payload holds the
    serialized (polygon, point, verdicts) instance."""

    def __init__(self, payload: dict):
        super().__init__(json.dumps(payload, sort_keys=True))
        self.payload = payload


@dataclass(frozen=True)
class BenchConfig:
    polygon_sizes: tuple[int, ...] = (100, 100, 100, 500, 500, 500,
                                      1000, 1000, 1000, 2000)
    points_per_set: int = 1000
    num_point_sets: int = 10
    seed: int = DEFAULT_SEED
    warmup_rounds: int = 1
    repetitions: int = 3

    def __post_init__(self) -> None:
        if (not self.polygon_sizes or min(self.polygon_sizes) < 3
                or self.points_per_set < 1 or self.num_point_sets < 1
                or self.warmup_rounds < 0 or self.repetitions < 1):
            raise ValueError(f"invalid bench config: {self}")


@dataclass(frozen=True)
class SweepCell:
    algorithm: str
    set_index: int
    walltime_ns: int
    relative_time: float
    intersection_tests: int
    edges_tried: int
    exhausted_all: int


@dataclass(frozen=True)
class SweepReport:
    kind: str  # "point-sweep" or "polygon-sweep"
    config: BenchConfig
    meta: dict
    baseline_ns: int
    cells: tuple[SweepCell, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        config = {**d["config"],
                  "polygon_sizes": tuple(d["config"]["polygon_sizes"])}
        return cls(**{**d, "config": BenchConfig(**config),
                      "cells": tuple(SweepCell(**c) for c in d["cells"])})

    def total(self, algorithm: str, field_name: str) -> float:
        return sum(getattr(c, field_name) for c in self.cells
                   if c.algorithm == algorithm)


@dataclass(frozen=True)
class ExpectationReport:
    """Measured trial counts against the model E = N / sigma.

    ``observed_mean_trials`` comes from real shuffled classifier runs;
    ``with_replacement_mean_trials`` is the same experiment under the
    model's own assumption of independent retrials, derived run by run from
    the shuffled prefix so the shuffle mean can never exceed it. Both the
    prediction and the relative error are absent when sigma is zero.
    """

    n_edges: int
    sigma: int
    predicted: Optional[float]
    observed_mean_trials: float
    with_replacement_mean_trials: Optional[float]
    runs: int
    relative_error: Optional[float]
    seed: int = DEFAULT_SEED

    def to_dict(self) -> dict:
        return {"kind": "expectation", **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExpectationReport":
        return cls(**{k: v for k, v in d.items() if k != "kind"})


@dataclass(frozen=True)
class QueryRule:
    """Query point selection for the polygon sweep and the expectation
    check: start at the centroid and move the given fraction toward a
    seed-chosen vertex."""

    name: str
    fraction: float

    def point(self, poly: ConvexPolygon, rng: np.random.Generator) -> Point:
        """The rule's query point for ``poly``; the vertex is drawn from
        ``rng``."""
        cen = poly.centroid()
        v = poly.vertices[int(rng.integers(0, poly.n))]
        return Point(cen.x + self.fraction * (v.x - cen.x),
                     cen.y + self.fraction * (v.y - cen.y))


CENTROID_RULE = QueryRule("centroid", 0.0)
NEAR_BOUNDARY_RULE = QueryRule("near-boundary", 0.9)


@dataclass(frozen=True)
class FuzzResult:
    cases_run: int
    agreed: int
    disagreement: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.disagreement is None


def _disagreement_payload(poly: ConvexPolygon, p: Point, verdicts: dict) -> dict:
    return {
        "polygon": polygon_to_dict(poly),
        "point": [p.x, p.y],
        "verdicts": {k: v.value for k, v in verdicts.items()},
    }


def _classify_pass(algorithm: str, poly: ConvexPolygon, points: list[Point],
                   policies: list[SeededShuffle]):
    """One full classification pass over a point set; returns the
    (classification, stats) pairs. This is also the timed unit, so the
    policies are built before it, with the jobs."""
    classify = CLASSIFIERS[algorithm]
    return [classify(poly, p, policy) for p, policy in zip(points, policies)]


def _measure_cells(jobs, cfg: BenchConfig,
                   time_batch: int = 1) -> tuple[list[SweepCell], int]:
    """jobs: list of (set_index, poly, points, policies, oracle_verdicts).

    Per job: one counted pass per algorithm with an oracle cross-check, then
    warmup rounds, then timed repetitions with the algorithms interleaved
    back to back inside every repetition, so a background load burst lands
    on all of them rather than skewing one. ``time_batch`` repeats the set
    inside each timed sample; relative times are unaffected by the common
    factor, but microsecond-scale sets (single query points) get lifted out
    of the timer-noise regime.
    """
    cells = []
    for set_index, poly, points, policies, truths in jobs:
        counters = {}
        for algorithm in CLASSIFIERS:
            results = _classify_pass(algorithm, poly, points, policies)
            for p, (verdict, _), truth in zip(points, results, truths):
                if verdict is not truth:
                    raise OracleDisagreementError(_disagreement_payload(
                        poly, p, {algorithm: verdict, "oracle": truth}))
            counters[algorithm] = (
                sum(st.intersection_tests for _, st in results),
                sum(st.edges_tried for _, st in results),
                sum(1 for _, st in results if st.exhausted_all),
            )

        for _ in range(cfg.warmup_rounds):
            for algorithm in CLASSIFIERS:
                _classify_pass(algorithm, poly, points, policies)
        samples = {algorithm: [] for algorithm in CLASSIFIERS}
        gc_was_enabled = gc.isenabled()
        gc.disable()  # keep collection pauses out of individual samples
        try:
            for _ in range(cfg.repetitions):
                for algorithm in CLASSIFIERS:
                    t0 = time.perf_counter_ns()
                    for _ in range(time_batch):
                        _classify_pass(algorithm, poly, points, policies)
                    samples[algorithm].append(time.perf_counter_ns() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()

        for algorithm in CLASSIFIERS:
            its, tried, exhausted = counters[algorithm]
            cells.append(SweepCell(
                algorithm=algorithm,
                set_index=set_index,
                walltime_ns=int(median(samples[algorithm])),
                relative_time=0.0,  # filled once the baseline is known
                intersection_tests=its,
                edges_tried=tried,
                exhausted_all=exhausted,
            ))
    baseline = next(c.walltime_ns for c in cells
                    if c.algorithm == "raycast" and c.set_index == 0)
    baseline = max(baseline, 1)
    cells = [replace(c, relative_time=c.walltime_ns / baseline)
             for c in cells]
    return cells, baseline


def run_point_sweep(poly: ConvexPolygon, cfg: BenchConfig) -> SweepReport:
    """Classify num_point_sets x points_per_set bounding-box points with every
    classifier in CLASSIFIERS, cross-checking every verdict against the
    oracle."""
    rng = np.random.default_rng(cfg.seed)
    box = bounding_box(poly)
    total = cfg.num_point_sets * cfg.points_per_set
    xs = rng.uniform(box.min.x, box.max.x, total)
    ys = rng.uniform(box.min.y, box.max.y, total)
    policies = [SeededShuffle(s)
                for s in rng.integers(0, _SEED_BOUND, total).tolist()]
    points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]

    jobs = []
    pps = cfg.points_per_set
    for s in range(cfg.num_point_sets):
        pts = points[s * pps:(s + 1) * pps]
        truths = [oracle_classify(poly, p) for p in pts]
        jobs.append((s, poly, pts, policies[s * pps:(s + 1) * pps], truths))

    cells, baseline = _measure_cells(jobs, cfg)
    meta = {"mode": "point-sweep", "polygon_n": poly.n, "eps": EPS}
    return SweepReport("point-sweep", cfg, meta, baseline, tuple(cells))


# a polygon-sweep set is one query point, microseconds of work; each timed
# sample repeats it this many times so medians sit at the millisecond scale
_POLYGON_SWEEP_TIME_BATCH = 32


def run_polygon_sweep(cfg: BenchConfig, rule: QueryRule = CENTROID_RULE,
                      radius: float = 100.0) -> SweepReport:
    """One polygon per entry of cfg.polygon_sizes; each set classifies the
    rule-selected query point with every classifier in CLASSIFIERS."""
    rng = np.random.default_rng(cfg.seed)
    jobs = []
    for k, nk in enumerate(cfg.polygon_sizes):
        poly = random_convex(int(nk), int(rng.integers(0, _SEED_BOUND)),
                             radius)
        q = rule.point(poly, rng)
        policies = [SeededShuffle(int(rng.integers(0, _SEED_BOUND)))]
        truths = [oracle_classify(poly, q)]
        jobs.append((k, poly, [q], policies, truths))

    cells, baseline = _measure_cells(jobs, cfg,
                                     time_batch=_POLYGON_SWEEP_TIME_BATCH)
    meta = {
        "mode": "polygon-sweep",
        "query_rule": rule.name,
        "query_fraction": rule.fraction,
        "radius": radius,
        "generator": "sorted-angle circle placement, bounded gaps, "
                     "curvature-capped radial jitter",
        "eps": EPS,
    }
    return SweepReport("polygon-sweep", cfg, meta, baseline, tuple(cells))


def trial_expectation_check(poly: ConvexPolygon, p: Point, runs: int,
                            seed: int = DEFAULT_SEED) -> ExpectationReport:
    """Compare measured trial counts against the model E = N / sigma.

    Runs the real shuffled classifier ``runs`` times. The with-replacement
    mean is derived from the very same runs: after t distinct edges a
    with-replacement sampler would repeat an already-seen edge with
    probability t/N before drawing a new one, so each shuffled prefix of
    length k expands by the corresponding geometric repeat counts. The
    expansion never shrinks a run, so the shuffle mean is at most the
    with-replacement mean by construction, and the expanded counts are
    exactly geometric with success rate sigma/N.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n = poly.n
    sig = sigma(poly, p)

    rng = np.random.default_rng(seed)
    run_seeds = rng.integers(0, _SEED_BOUND, runs).tolist()
    trials = []
    for s in run_seeds:
        _, stats = classify_improved(poly, p, SeededShuffle(s))
        trials.append(stats.edges_tried)
    observed = sum(trials) / runs

    if sig == 0:
        return ExpectationReport(n, 0, None, observed, None, runs, None, seed)

    # A run of k trials draws one uniform for each t = 1 .. k - 1, in run
    # order, as consecutive values of the one stream. Runs go in blocks of
    # at most _DRAW_BLOCK draws, so memory stays bounded at any ``runs``.
    log_step = np.array([0.0] + [math.log(t / n) for t in range(1, n)])
    steps = np.array(trials) - 1
    wr_total = sum(trials)
    block = max(1, _DRAW_BLOCK // n)
    for lo in range(0, runs, block):
        k = steps[lo:lo + block]
        t = np.arange(int(k.sum())) - np.repeat(np.cumsum(k) - k, k) + 1
        u = np.maximum(rng.random(t.size), 5e-324)
        wr_total += int((np.log(u) / log_step[t]).astype(np.int64).sum())
    wr_mean = wr_total / runs
    predicted = n / sig
    rel = abs(wr_mean - predicted) / predicted
    return ExpectationReport(n, sig, predicted, observed, wr_mean, runs, rel,
                             seed)


def _verdicts(poly: ConvexPolygon, p: Point, policy_seed: int):
    policy = SeededShuffle(policy_seed)
    verdicts = {name: classify(poly, p, policy)[0]
                for name, classify in CLASSIFIERS.items()}
    verdicts["oracle"] = oracle_classify(poly, p, 0.0)
    return verdicts


def _minimize_disagreement(poly: ConvexPolygon, p: Point,
                           policy_seed: int) -> dict:
    """Greedy vertex-removal shrink keeping the disagreement."""

    def disagrees(vs):
        try:
            cand = validate_convex(vs)
        except PolygonError:
            return None
        verdicts = _verdicts(cand, p, policy_seed)
        if len(set(verdicts.values())) > 1:
            return cand
        return None

    current = poly
    shrinking = True
    while shrinking and current.n > 3:
        shrinking = False
        for j in range(current.n):
            vs = current.vertices[:j] + current.vertices[j + 1:]
            cand = disagrees(vs)
            if cand is not None:
                current = cand
                shrinking = True
                break
    payload = _disagreement_payload(current, p,
                                    _verdicts(current, p, policy_seed))
    payload["policy_seed"] = policy_seed
    return payload


_FUZZ_POINTS_PER_POLYGON = 50


def run_fuzz(cases: int, max_n: int = 256,
             seed: int = DEFAULT_SEED) -> FuzzResult:
    """Differential suite: every classifier in CLASSIFIERS against the
    half-plane oracle.

    Query points are integer lattice points covering the polygon's bounding
    box. Every point drawn is checked, none skipped: at the fuzz's radii
    (>= 5) a lattice point lies within EPS of an edge with probability
    below 4e-9, and one that does is reported like any other. Stops at the
    first disagreement with a minimized reproduction payload.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    rng = np.random.default_rng(seed)
    run = 0
    while run < cases:
        n = int(rng.integers(3, max_n + 1))
        radius = float(10.0 ** rng.uniform(0.7, 2.5))
        poly = random_convex(n, int(rng.integers(0, _SEED_BOUND)), radius)
        box = bounding_box(poly)
        lo_x = math.floor(box.min.x) - 1
        hi_x = math.ceil(box.max.x) + 1
        lo_y = math.floor(box.min.y) - 1
        hi_y = math.ceil(box.max.y) + 1
        count = min(_FUZZ_POINTS_PER_POLYGON, cases - run)
        ixs = rng.integers(lo_x, hi_x + 1, count)
        iys = rng.integers(lo_y, hi_y + 1, count)
        pseeds = rng.integers(0, _SEED_BOUND, count).tolist()
        for ix, iy, ps in zip(ixs, iys, pseeds):
            p = Point(float(ix), float(iy))
            run += 1
            if len(set(_verdicts(poly, p, ps).values())) > 1:
                return FuzzResult(run, run - 1,
                                  _minimize_disagreement(poly, p, ps))
    return FuzzResult(run, run, None)


# The SweepCell fields in order; "set" is set_index.
_CSV_SWEEP_HEADER = ("algorithm,set,walltime_ns,relative_time,"
                     "intersection_tests,edges_tried,exhausted_all")

_CSV_EXPECTATION_HEADER = ("n_edges,sigma,predicted,observed_mean_trials,"
                           "with_replacement_mean_trials,runs,relative_error")


def _csv(header: str, rows) -> str:
    def cell(v):
        return "" if v is None else v if isinstance(v, str) else repr(v)

    return "\n".join([header] + [",".join(map(cell, row))
                                 for row in rows]) + "\n"


def emit_report(report, fmt: str) -> str:
    """Render a report as csv, json, or (sweeps only) a simple svg chart."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        if isinstance(report, SweepReport):
            return _csv(_CSV_SWEEP_HEADER, map(astuple, report.cells))
        if isinstance(report, ExpectationReport):
            return _csv(_CSV_EXPECTATION_HEADER,
                        [[getattr(report, name) for name
                          in _CSV_EXPECTATION_HEADER.split(",")]])
        raise UnsupportedFormatError(f"cannot render {type(report).__name__} as csv")
    if fmt == "svg":
        if isinstance(report, SweepReport):
            return _render_svg(report)
        raise UnsupportedFormatError(
            "svg output is only defined for sweep reports")
    raise UnsupportedFormatError(f"unknown format {fmt!r}")


def parse_report(text: str):
    """Inverse of emit_report(..., "json")."""
    d = json.loads(text)
    if d.get("kind") == "expectation":
        return ExpectationReport.from_dict(d)
    return SweepReport.from_dict(d)


# Legend colours by position in CLASSIFIERS; they repeat past the palette.
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")


def _render_svg(report: SweepReport) -> str:
    width, height, pad = 640, 400, 50
    sets = sorted({c.set_index for c in report.cells})
    max_rel = max(c.relative_time for c in report.cells) or 1.0
    span_x = max(len(sets) - 1, 1)

    def sx(i):
        return pad + (width - 2 * pad) * (i / span_x)

    def sy(rel):
        return height - pad - (height - 2 * pad) * (rel / max_rel)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">set index</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">relative time</text>',
    ]
    for k, alg in enumerate(CLASSIFIERS):
        pts = [(c.set_index, c.relative_time) for c in report.cells
               if c.algorithm == alg]
        pts.sort()
        coords = " ".join(f"{sx(i):.1f},{sy(r):.1f}" for i, r in pts)
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * k}" '
                     f'font-size="11" fill="{color}">{alg}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
