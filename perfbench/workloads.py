"""Seeded inputs for the benchmark workloads.

Every workload classifies query points against polygons from
``random_convex`` at N in ``SIZES`` and runs a fixed slice of the
differential fuzz. Query angles are stratified, so the mix of cheap and expensive queries
(early exits in the fan scan and in the oracle) is nearly the same for every
seed and run-to-run spread comes from timing, not from the draw.

Each query carries two references:

* ``truth`` checks the three classifiers. It is ``oracle_classify`` on the
  exterior and interior workloads and the placement verdict on
  near-boundary.
* ``placed`` checks the oracle. It is the verdict implied by where the point
  was put.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from convexpoint import (
    EPS,
    Classification,
    ConvexPolygon,
    Point,
    SeededShuffle,
    oracle_classify,
    random_convex,
    validate_convex,
)

WORKLOADS = ("exterior", "interior", "near-boundary")
SIZES = (12, 100, 1000, 2000)

# Queries per N, 1000 in all, so that ten lie beyond the p99. The two small
# sizes hold more than half of them and N=2000 more than 1%, so the p50
# falls among the small sizes and the p99 inside the N=2000 group instead of
# on a group boundary. The large sizes take most of a repetition's time and
# are kept few, so that a run holds enough repetitions (see
# measure.Bench.measure).
QUERIES = {12: 450, 100: 450, 1000: 50, 2000: 50}
POLYGONS_PER_SIZE = 4
RADIUS = 100.0

NEAR_RADII = (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)
# Edges probed per polygon on near-boundary; ten points per edge.
NEAR_EDGES = {12: 9, 100: 9, 1000: 4, 2000: 4}
EPS_OFFSETS = (2.0, 5.0, 10.0)
REL_OFFSET = 1e-6
# near-boundary builds the same polygons for every --seed. Which of them
# random_convex fails to build decides how many queries of each size run,
# and a mix that moved with the seed would move the per-query figures by
# about a tenth. The seed still picks the probed edges, the points on them
# and the edge orders. The constant is the acceptance fuzz seed, as for
# FUZZ_SEEDS.
NEAR_POLYGON_SEED = 987654321

# Fuzz slice: one run_fuzz call of FUZZ_CASES cases per seed, a new polygon
# every 50 cases, as the differential suite runs it. Every workload reports
# every end-to-end metric, so every workload runs the slice. The seeds start
# at the seed of the acceptance fuzz test and do not follow --seed, so cases
# per second is measured on the same 20 polygons in every run instead of
# moving with the sizes (3 to 256) that each seed draws.
FUZZ_MAX_N = 256
FUZZ_CASES = 50
FUZZ_SEEDS = tuple(range(987654321, 987654341))

_SEED_BOUND = 2**63 - 1
_OUT, _IN, _ON = (Classification.OUTSIDE, Classification.INSIDE,
                  Classification.ON_BOUNDARY)


@dataclass(frozen=True)
class Query:
    poly: ConvexPolygon
    point: Point
    policy: SeededShuffle
    truth: Classification
    placed: Classification


@dataclass(frozen=True)
class Build:
    """One planned polygon: ``poly`` is None when it could not be built, in
    which case all ``planned`` queries on it count as failed."""

    n: int
    radius: float
    poly: Optional[ConvexPolygon]
    planned: int


@dataclass(frozen=True)
class Inputs:
    builds: tuple[Build, ...]
    queries: dict  # n -> tuple[Query, ...]


def _rng(seed: int, workload: str, part: str) -> np.random.Generator:
    tag = [WORKLOADS.index(workload), ("poly", "query").index(part)]
    return np.random.default_rng([seed & _SEED_BOUND, *tag])


def _stratified_angles(rng: np.random.Generator, k: int) -> np.ndarray:
    return (2.0 * math.pi / k) * (np.arange(k) + rng.random(k)) \
        + 2.0 * math.pi * rng.random()


def _inradius(poly: ConvexPolygon, c: Point) -> float:
    verts = poly.vertices
    best = math.inf
    for i in range(poly.n):
        ax, ay = verts[i - 1]
        bx, by = verts[i]
        cross = (bx - ax) * (c.y - ay) - (by - ay) * (c.x - ax)
        best = min(best, cross / math.hypot(bx - ax, by - ay))
    return best


def _polygon_specs(workload: str, rng: np.random.Generator):
    """(n, radius, polygon seed, planned queries) for every planned build."""
    specs = []
    if workload == "near-boundary":
        for n in SIZES:
            for radius in NEAR_RADII:
                specs.append((n, radius, int(rng.integers(0, _SEED_BOUND)),
                              10 * NEAR_EDGES[n]))
        return specs
    for n in SIZES:
        per, extra = divmod(QUERIES[n], POLYGONS_PER_SIZE)
        for k in range(POLYGONS_PER_SIZE):
            specs.append((n, RADIUS, int(rng.integers(0, _SEED_BOUND)),
                          per + (k < extra)))
    return specs


def _build(n: int, radius: float, seed: int, planned: int, tracer) -> Build:
    """Generate one polygon and re-validate it, each under its own span."""
    try:
        with tracer.span("polygon.random_convex", n):
            poly = random_convex(n, seed, radius)
    except RuntimeError:
        # random_convex gives up after its retry budget; the planned queries
        # on this polygon are failed operations, not skipped ones.
        return Build(n, radius, None, planned)
    with tracer.span("polygon.validate_convex", n):
        validate_convex(poly.vertices)
    return Build(n, radius, poly, planned)


def _exterior(poly, rng, k):
    c = poly.centroid()
    radius = max(math.hypot(v.x - c.x, v.y - c.y) for v in poly.vertices)
    out = []
    for theta in _stratified_angles(rng, k):
        r = radius * (1.1 + 0.9 * rng.random())
        out.append((Point(c.x + r * math.cos(theta),
                          c.y + r * math.sin(theta)), _OUT))
    return out


def _interior(poly, rng, k):
    c = poly.centroid()
    limit = 0.9 * _inradius(poly, c)
    out = []
    for theta in _stratified_angles(rng, k):
        r = limit * math.sqrt(rng.random())
        out.append((Point(c.x + r * math.cos(theta),
                          c.y + r * math.sin(theta)), _IN))
    return out


def _near_boundary(poly, rng, k):
    """Ten points for each of ``k // 10`` evenly spread edges: the edge's
    start vertex, a point on the edge, and normal offsets of +-2, 5, 10 eps
    and +-1e-6 R from that point (positive is outward)."""
    verts = poly.vertices
    n = poly.n
    radius = max(math.hypot(v.x, v.y) for v in verts)
    edges = k // 10
    first = int(rng.integers(0, n))
    out = []
    for j in range(edges):
        e = (first + (j * n) // edges) % n
        (ax, ay), (bx, by) = verts[e], verts[(e + 1) % n]
        t = 0.25 + 0.5 * rng.random()
        mx, my = ax + t * (bx - ax), ay + t * (by - ay)
        length = math.hypot(bx - ax, by - ay)
        # CCW ring: the outward normal is the edge direction turned clockwise.
        nx, ny = (by - ay) / length, -(bx - ax) / length
        out.append((verts[e], _ON))
        out.append((Point(mx, my), _ON))
        offsets = [s * f * EPS for f in EPS_OFFSETS for s in (1.0, -1.0)]
        offsets += [REL_OFFSET * radius, -REL_OFFSET * radius]
        for d in offsets:
            if abs(d) <= EPS:
                placed = _ON
            else:
                placed = _OUT if d > 0 else _IN
            out.append((Point(mx + d * nx, my + d * ny), placed))
    return out


_PLACERS = {"exterior": _exterior, "interior": _interior,
            "near-boundary": _near_boundary}


def make_inputs(workload: str, seed: int, tracer, pause) -> Inputs:
    """Build the workload's polygons, query points and references.

    The same seed gives the same inputs. This is the benchmark's set-up;
    ``pause()`` runs before each polygon is built.
    """
    poly_rng = _rng(NEAR_POLYGON_SEED if workload == "near-boundary"
                    else seed, workload, "poly")
    query_rng = _rng(seed, workload, "query")
    builds = []
    queries = {n: [] for n in SIZES}
    for n, radius, pseed, planned in _polygon_specs(workload, poly_rng):
        pause()
        b = _build(n, radius, pseed, planned, tracer)
        builds.append(b)
        if b.poly is None:
            continue
        placed = _PLACERS[workload](b.poly, query_rng, planned)
        policy_seeds = query_rng.integers(0, _SEED_BOUND, len(placed))
        for (p, where), s in zip(placed, policy_seeds.tolist()):
            truth = (where if workload == "near-boundary"
                     else oracle_classify(b.poly, p))
            queries[n].append(Query(b.poly, p, SeededShuffle(s), truth, where))
    return Inputs(tuple(builds), {n: tuple(q) for n, q in queries.items()})


def tolerated(workload: str, algorithm: str) -> bool:
    """Mismatches that count as failed operations but leave the run correct.

    These are the documented boundary defects of ``fan`` and the oracle,
    which compare a raw cross product (a length squared) with eps, so on
    near-boundary they reach beyond the 10-eps band at small radii. Any other
    mismatch makes the run incorrect, in particular every mismatch of
    ``improved`` or ``raycast`` and every mismatch on the other workloads.
    """
    return workload == "near-boundary" and algorithm in ("fan", "oracle")


def tolerated_build(b: Build) -> bool:
    """``random_convex`` is known to give up below radius 1; a failed build
    at a larger radius makes the run incorrect."""
    return b.radius < 1.0
