"""Point-in-convex-polygon classifiers under a shared instrumentation
contract.

``classify_improved`` is the fast path: it searches for an edge whose
perpendicular construction admits the query point, then answers with an
even-odd ray cast against just the four ring vertices around that edge.
``classify_raycast`` and ``classify_fan_triangulation`` are the linear
baselines. All three decide "on the boundary" with the same eps ring scan
(``geom._ring_scan``, or its column-array form ``polygon._boundary_scan``
on large polygons), so comparisons measure algorithmic work, not boundary
handling.

Admission rule ("legality"): edge (a, b) with outer neighbors c and d admits
a point p exactly when p lies strictly on the edge side of the chord c-d.
In that closed half-plane the quad (c, a, b, d) is precisely the polygon's
share, so the quad verdict transfers to the whole polygon; on the other side
the perpendicular from p to the edge's supporting line is cut off by the
chord. Testing the chord side directly is a single cross product and also
rejects the sideways configurations where a raw segment-versus-segment check
against the chord would admit an edge whose quad cannot answer for the
polygon (see tests/test_classify_regressions.py). For triangles the chord
collapses to the opposite vertex and the rule becomes: the perpendicular
segment must not pass through that vertex.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .geom import EPS, Point, _require_finite, _ring_scan
from .polygon import (
    Classification,
    ConvexPolygon,
    Quad,
    _admission_mask,
    _boundary_scan,
    _fan_wedge,
    _triangle_admits,
    adjacent_quad,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SeededShuffle:
    """Visit edges in a seed-determined random permutation."""

    seed: int


@dataclass(frozen=True)
class Sequential:
    """Visit edges start, start+1, ... wrapping mod N."""

    start: int = 0


EdgeOrderPolicy = Union[SeededShuffle, Sequential]


class TrialStats(NamedTuple):
    """Per-call instrumentation.

    ``edges_tried`` is the number of admission trials, ``intersection_tests``
    adds the fixed quad ray-cast work (4 ring edges, 3 for a triangle) on the
    successful trial. ``legal_edge`` is the admitting edge index, absent when
    every edge was rejected and ``exhausted_all`` is set.
    """

    edges_tried: int
    intersection_tests: int
    legal_edge: Optional[int]
    exhausted_all: bool


_MASK64 = (1 << 64) - 1
_PCG_INC = 0x5851F42D4C957F2D  # any odd increment gives a full-period stream
# Knuth's MMIX LCG; only the high bits of its state pick swap positions.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
# Positions a query tries one at a time, and a seeded order draws one at a
# time, before the query tests every edge in one vectorised step (and, if
# an edge admits, shuffles the rest of the order in bulk). Exterior and
# near-boundary queries admit within a few trials and rarely get past them.
# Fewer trials do not pay: at 8, the queries that admit at trials 9-16 also
# paid for the vectorised step, and exterior p99 rose 1.8-1.9x. Points deep
# inside, where no edge admits, skip the trials instead through the kernel
# disk (see ``classify_improved``).
_LAZY_DRAWS = 16

_tls = threading.local()


def _mix64(x: int) -> int:
    # SplitMix64 finalizer; decorrelates nearby seeds before they become
    # generator state.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _lazy_draws(seed: int, n: int, moved: dict[int, int]) -> Iterator[int]:
    # Forward Fisher-Yates over a virtual identity array a (Knuth, TAOCP
    # vol. 2, 3.4.2, Algorithm P, run from the front): position i takes a[j]
    # for j uniform in [i, n), and a[j] takes a[i]. ``moved`` holds the
    # entries of a that differ from their index. j comes from the high bits
    # of state * (n - i) (Lemire's multiply-shift), biased by under n / 2**64.
    state = _mix64(seed & _MASK64)
    get = moved.get
    for i in range(min(n, _LAZY_DRAWS)):
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        j = i + ((state * (n - i)) >> 64)
        out = get(j, j)
        moved[j] = get(i, i)
        yield out


def _bulk_rest(seed: int, n: int, moved: dict[int, int]) -> np.ndarray:
    # The positions past the lazy draws hold the unvisited edges; one numpy
    # shuffle of them completes a uniform permutation. Resetting a
    # thread-local PCG64's state is a pure function of the seed and several
    # microseconds cheaper than fresh SeedSequence entropy mixing.
    gen = getattr(_tls, "gen", None)
    if gen is None:
        _tls.bg = np.random.PCG64(0)
        _tls.gen = gen = np.random.Generator(_tls.bg)
    hi = _mix64(seed & _MASK64)
    lo = _mix64(hi)
    _tls.bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": (hi << 64) | lo, "inc": _PCG_INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    rest = np.arange(_LAZY_DRAWS, n)
    for j, v in moved.items():
        if j >= _LAZY_DRAWS:
            rest[j - _LAZY_DRAWS] = v
    gen.shuffle(rest)
    return rest


def _require_policy(policy: object) -> None:
    if not isinstance(policy, (SeededShuffle, Sequential)):
        raise TypeError(f"unknown edge order policy: {policy!r}")


def _order_parts(policy: EdgeOrderPolicy, n: int
                 ) -> tuple[Iterable[int], Callable[[], np.ndarray]]:
    # The policy's order as its first min(n, _LAZY_DRAWS) edges and a
    # callable that builds the remaining positions as an array. Call it only
    # when n > _LAZY_DRAWS and after the whole prefix has been read: a seeded
    # prefix records its swaps in ``moved`` as it is drawn. The caller has
    # checked the policy with ``_require_policy``.
    if isinstance(policy, SeededShuffle):
        moved: dict[int, int] = {}
        return (_lazy_draws(policy.seed, n, moved),
                partial(_bulk_rest, policy.seed, n, moved))
    s = policy.start % n
    return ([(s + i) % n for i in range(min(n, _LAZY_DRAWS))],
            lambda: (s + np.arange(_LAZY_DRAWS, n)) % n)


def edge_order(policy: EdgeOrderPolicy, n: int) -> list[int]:
    """The complete edge order that ``classify_improved`` visits under
    ``policy``; a query reads only the prefix up to its admitting edge."""
    _require_policy(policy)
    prefix, rest = _order_parts(policy, n)
    order = list(prefix)
    if n > _LAZY_DRAWS:
        order += rest().tolist()
    return order


def legality_test(poly: ConvexPolygon, i: int, p: Point,
                  eps: float = EPS) -> bool:
    """Admission test for edge ``i`` and query point ``p``: the chord-side
    test around the edge's quad, or for a triangle ``_triangle_admits``."""
    quad = adjacent_quad(poly, i)
    if quad.degenerate:
        return _triangle_admits(poly.vertices, i, p.x, p.y, eps)
    c, d = quad.c, quad.d
    return ((d.x - c.x) * (p.y - c.y) - (d.y - c.y) * (p.x - c.x)) < -eps


def _quad_verdict(r: int, n_polygon: int) -> Classification:
    # ``r`` is ``_ring_scan`` over the quad ring (a, b, d, c), or over the
    # triangle itself. Ring edge 3 is the closing side d-c, a polygon edge
    # only when the polygon is a square; otherwise it is an interior chord.
    if r < 0:
        if r == -4 and n_polygon != 4:
            return Classification.INSIDE
        return Classification.ON_BOUNDARY
    if r % 2 == 1:
        return Classification.INSIDE
    return Classification.OUTSIDE


def classify_quad(quad: Quad, p: Point, n_polygon: int,
                  eps: float = EPS) -> Classification:
    """Classify ``p`` against the quad ring (c, a, b, d).

    The three sides c-a, a-b, b-d are polygon edges, so landing on them is
    ON_BOUNDARY. The closing side d-c is a real edge only when the source
    polygon is a square (N=4); for N >= 5 it is an interior chord and points
    on it are INSIDE. The scan visits d-c last, so a point near it and near
    a polygon side (the outer vertices c and d) stays ON_BOUNDARY. For a
    degenerate (triangle) quad the closing side is the single point c, which
    the c-a side already covers.
    """
    px, py = p
    c, a, b, d = quad.c, quad.a, quad.b, quad.d
    ring = (a, b, c) if quad.degenerate else (a, b, d, c)
    return _quad_verdict(_ring_scan(ring, px, py, eps), n_polygon)


def _admitted(verts: tuple[Point, ...], i: int, tried: int, px: float,
              py: float, eps: float) -> tuple[Classification, TrialStats]:
    # Edge i admits the point, so the quad ring (a, b, d, c) around it
    # answers for the whole polygon.
    n = len(verts)
    ring = (verts[i], verts[(i + 1) % n], verts[(i + 2) % n], verts[i - 1])
    verdict = _quad_verdict(_ring_scan(ring, px, py, eps), n)
    return verdict, TrialStats(tried, tried + 4, i, False)


def classify_improved(poly: ConvexPolygon, p: Point,
                      policy: Optional[EdgeOrderPolicy] = None,
                      eps: float = EPS) -> tuple[Classification, TrialStats]:
    """Perpendicular-admission classifier.

    Tries edges in the policy order; the first admitting edge reduces the
    problem to its quad. When every edge rejects, the point sits on the
    polygon side of every neighbor chord, which only happens inside, so the
    verdict is INSIDE with ``exhausted_all`` set. The first
    ``_LAZY_DRAWS`` edges of the order are tried one at a time, so a query
    that admits early pays only for the edges it tries. A query that gets
    past them tests every edge in one vectorised step; only when some edge
    admits does it build the rest of the order, to find the first admitting
    edge in it. A point strictly inside ``poly.kernel_disk``, which no edge
    admits up to rounding, runs the vectorised step first; when no edge
    admits it, the answer is INSIDE without building any order, and
    otherwise the query goes on as above with that step's result. The disk
    only orders the work: every INSIDE from exhaustion comes from testing
    all N edges. The counters are those of trying the edges one at a time.
    """
    px, py = p
    _require_finite(px, py)
    if policy is None:
        policy = SeededShuffle(DEFAULT_SEED)
    _require_policy(policy)
    verts = poly.vertices
    n = len(verts)
    tried = 0

    if n == 3:
        # The quad of a triangle is the triangle itself; the prefix is the
        # whole order.
        for idx in _order_parts(policy, n)[0]:
            tried += 1
            if _triangle_admits(verts, idx, px, py, eps):
                verdict = _quad_verdict(_ring_scan(verts, px, py, eps), n)
                return verdict, TrialStats(tried, tried + 3, idx, False)
        return Classification.INSIDE, TrialStats(n, n, None, True)

    mask = None
    ox, oy, r2 = poly.kernel_disk
    dx, dy = px - ox, py - oy
    if dx * dx + dy * dy < r2:
        mask = _admission_mask(poly, px, py, eps)
        # count_nonzero costs about a third of ndarray.any here
        if not np.count_nonzero(mask):
            return Classification.INSIDE, TrialStats(n, n, None, True)
    prefix, rest = _order_parts(policy, n)
    chords = poly.chords
    neg = -eps
    for idx in prefix:
        tried += 1
        cx, cy, ux, uy = chords[idx]
        if ux * (py - cy) - uy * (px - cx) < neg:
            return _admitted(verts, idx, tried, px, py, eps)
    if n > _LAZY_DRAWS:
        # The prefix edges reject in the mask too, so any admitting edge is
        # in the rest; a point that none admits (sigma = 0) needs no order.
        if mask is None:
            mask = _admission_mask(poly, px, py, eps)
        if np.count_nonzero(mask):
            order = rest()
            pos = int(mask[order].argmax())
            return _admitted(verts, int(order[pos]), tried + pos + 1,
                             px, py, eps)
    return Classification.INSIDE, TrialStats(n, n, None, True)


def classify_raycast(poly: ConvexPolygon, p: Point,
                     eps: float = EPS) -> tuple[Classification, TrialStats]:
    """Even-odd ray casting with an explicit boundary pre-check.

    A horizontal rightward ray is crossed by an edge iff exactly one
    endpoint's y strictly exceeds the point's y and the crossing lies
    strictly right of the point. ``intersection_tests`` is the nominal N
    edge-crossing tests.
    """
    verts = poly.vertices
    n = len(verts)
    px, py = p
    _require_finite(px, py)
    stats = TrialStats(n, n, None, False)
    r = _boundary_scan(poly, px, py, eps)
    if r < 0:
        return Classification.ON_BOUNDARY, stats
    if r % 2 == 1:
        return Classification.INSIDE, stats
    return Classification.OUTSIDE, stats


def classify_fan_triangulation(poly: ConvexPolygon, p: Point,
                               eps: float = EPS
                               ) -> tuple[Classification, TrialStats]:
    """Linear scan of the fan triangles (V0, Vi, Vi+1), i = 1 .. N-2.

    Shares the boundary pre-check with the other classifiers, so the scan
    needs no tolerance: every point within eps of an edge is already
    answered, and a point that survives to the scan is compared with 0.
    Triangle i holds p iff p is on or left of the spoke V0->Vi, on or left
    of the edge Vi->Vi+1, and on or right of the spoke V0->Vi+1. Each spoke's
    side value is computed once and serves both triangles that share it, so
    a point on a fan diagonal lands in at least one of them. The two spoke
    tests alone place p in the wedge between the spokes V0->Vi and V0->Vi+1,
    which the polygon meets only in triangle i, so when the edge test then
    rejects, p is outside and the scan stops there. Counters:
    ``intersection_tests`` records every orientation test done (pre-check
    plus scan), ``edges_tried`` the number of triangles scanned: up to the
    one that holds p, up to the wedge p lies in, or all N-2 for a point
    outside the angle at V0.
    """
    verts = poly.vertices
    n = len(verts)
    px, py = p
    _require_finite(px, py)
    if _boundary_scan(poly, px, py, eps) < 0:
        return Classification.ON_BOUNDARY, TrialStats(0, n, None, False)

    # intersection_tests: the pre-check's n, the first spoke, one spoke per
    # triangle up to the wedge's, and the wedge's edge test.
    i = _fan_wedge(poly, px, py)
    if i == n - 1:
        return Classification.OUTSIDE, TrialStats(n - 2, 2 * n - 1, None,
                                                  False)
    (ax, ay), (bx, by) = verts[i], verts[i + 1]
    stats = TrialStats(i, n + 2 + i, None, False)
    if (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0:
        return Classification.INSIDE, stats
    return Classification.OUTSIDE, stats
