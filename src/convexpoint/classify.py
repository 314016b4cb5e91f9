"""Point-in-convex-polygon classifiers under a shared instrumentation
contract.

``classify_improved`` is the fast path: it searches for an edge whose
perpendicular construction admits the query point, then answers with an
even-odd ray cast against just the four ring vertices around that edge.
``classify_raycast`` and ``classify_fan_triangulation`` are the linear
baselines. All three decide "on the boundary" with the same ring scan
(``geom._ring_scan``, or its column-array form ``polygon._boundary_scan``
on large polygons) and the one band ``geom.EPS``, so comparisons measure
algorithmic work, not boundary handling. No function here, nor ``sigma``,
takes a tolerance; only the ground truth ``oracle_classify`` does. Each
polygon carries one certified table about one centre,
``ConvexPolygon.disks``: an inner disk that answers deep points INSIDE, an
outer disk beyond which the admitting edge answers OUTSIDE without its quad
scan, and chord caps through which a query on a polygon of more than 16
edges finds the edges that admit it before its trials
(``polygon._cap_admitting``). Where the caps cannot answer, a query that
gets past its first trials tests every edge at once; ``sigma`` keeps that
exhaustive test, the reference count.

Admission rule ("legality"): edge (a, b) with outer neighbors c and d admits
a point p exactly when p lies strictly on the edge side of the chord c-d.
In that closed half-plane the quad (c, a, b, d) is precisely the polygon's
share, so the quad verdict transfers to the whole polygon; on the other side
the perpendicular from p to the edge's supporting line is cut off by the
chord. Testing the chord side directly is a single cross product and also
rejects the sideways configurations where a raw segment-versus-segment check
against the chord would admit an edge whose quad cannot answer for the
polygon (see tests/test_classify_regressions.py). A triangle's chord
collapses to its apex, but its quad is the triangle itself, so any
half-plane serves; ``ConvexPolygon.chords`` gives it one that admits every
point of the closed triangle, and every polygon runs the one rule.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .geom import EPS, Point, _require_finite, _ring_scan
from .polygon import (
    Classification,
    ConvexPolygon,
    Quad,
    _admission_mask,
    _boundary_scan,
    _cap_admitting,
    _fan_wedge,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SeededShuffle:
    """Visit edges in a seed-determined random permutation.

    The policy carries its seed mixed into generator state, each part
    computed once: every query under the policy starts its draws from
    ``state``, mixed when the policy is built, and a query that ranks the
    rest of the order seeds its key generator with ``pcg_state``, the
    128-bit PCG64 state ``(state << 64) | _mix64(state)``, mixed the first
    time a query under the policy ranks. So build a policy once and reuse
    it across queries. Equality, hashing and repr see only ``seed``. A seed
    that is not an integer raises TypeError here, not at the first query.
    """

    seed: int
    state: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # frozen: write the derived field past __setattr__
        self.__dict__["state"] = _mix64(self.seed & _MASK64)

    @cached_property
    def pcg_state(self) -> int:
        return (self.state << 64) | _mix64(self.state)


class TrialStats(NamedTuple):
    """Per-call instrumentation.

    ``edges_tried`` is the number of admission trials, ``intersection_tests``
    adds the fixed quad ray-cast work (4 ring edges, 3 for a triangle) on the
    successful trial. The quad's share is nominal: a point beyond the outer
    disk of ``ConvexPolygon.disks`` is answered without the scan and still
    counts it, as a point in its inner disk counts the N trials it skips.
    ``legal_edge`` is the admitting edge index, absent when every edge was
    rejected and ``exhausted_all`` is set, and for a point beyond
    ``geom._FAR``, which no edge is tried for (every counter is 0).
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
# Positions a query tries one at a time, drawing each one in its trial
# loop, before it ranks the first admitting edge among the rest of the
# order by uniform keys. A polygon with more edges finds the admitting set
# through the chord caps before the draws, or, where they cannot answer,
# through the vectorised mask after them.
# ``edge_order`` draws the same positions in a loop of its own, the
# reference the query's inline draws are tested against. Exterior queries
# admit within a few trials, and so do most near-boundary queries of small
# polygons. Fewer trials do not pay: at 8, the queries that admit at trials
# 9-16 also paid for the vectorised step, and exterior p99 rose 1.8-1.9x.
# Points deep inside, where no edge admits, skip the trials instead through
# the inner disk (see ``classify_improved``).
_LAZY_DRAWS = 16

_tls = threading.local()
# Builds a TrialStats from one tuple without NamedTuple's Python-level
# __new__, at under half its cost; the result is the same tuple subclass.
_new = tuple.__new__


def _mix64(x: int) -> int:
    # SplitMix64 finalizer; decorrelates nearby seeds before they become
    # generator state.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_DEFAULT_POLICY = SeededShuffle(DEFAULT_SEED)


def _rest_keys(n: int, drawn: list[int], pcg_state: int) -> np.ndarray:
    # One uniform key in [0, 1) per edge from a thread-local PCG64 set to a
    # policy's ``pcg_state``. Uniform keys sort into a uniform permutation
    # (Knuth, TAOCP vol. 2, 3.4.2), so the edges not in ``drawn``, by
    # increasing (key, index), are the rest of the seeded order; the drawn
    # edges get +inf and count toward no rank. Setting the state is a pure
    # function of the seed, several µs cheaper than SeedSequence mixing, and
    # rewrites one dict entry per thread. Call it only past the whole prefix.
    pcg = getattr(_tls, "pcg", None)
    if pcg is None:
        _tls.pcg = pcg = (np.random.Generator(np.random.PCG64(0)), {
            "bit_generator": "PCG64", "state": {"state": 0, "inc": _PCG_INC},
            "has_uint32": 0, "uinteger": 0})
    gen, state = pcg
    state["state"]["state"] = pcg_state
    gen.bit_generator.state = state
    keys = gen.random(n)
    keys.put(drawn, np.inf)
    return keys


def _rank_step(n: int, drawn: list[int], admitting: list[int],
               pcg_state: int) -> tuple[int, int]:
    # (edge, i) for a query whose lazy prefix ``drawn`` admitted nothing:
    # the first of ``admitting`` (edge indices in increasing order, not
    # empty) in the rest of the order, and its index in the whole order. It
    # has the least (key, index); ``min`` keeps the first least key of the
    # sorted list, so ties go to the lower index. Its rank counts the
    # undrawn edges before it in that order.
    keys = _rest_keys(n, drawn, pcg_state)
    edge = min(admitting, key=keys.item)
    key = keys.item(edge)
    rank = int(np.count_nonzero(keys[:edge] <= key)
               + np.count_nonzero(keys[edge:] < key))
    return edge, _LAZY_DRAWS + rank


def edge_order(policy: SeededShuffle, n: int) -> list[int]:
    """The complete edge order that ``classify_improved`` visits under
    ``policy``; a query reads only the prefix up to its admitting edge."""
    if not isinstance(policy, SeededShuffle):
        raise TypeError(f"unknown edge order policy: {policy!r}")
    base = state = _mix64(policy.seed & _MASK64)
    # The first min(n, _LAZY_DRAWS) edges: forward Fisher-Yates over a
    # virtual identity array a (Knuth, TAOCP vol. 2, 3.4.2, Algorithm P, run
    # from the front): position i takes a[j] for j uniform in [i, n), and
    # a[j] takes a[i]. ``moved`` holds the entries of a that differ from
    # their index. j comes from the high bits of state * (n - i) (Lemire's
    # multiply-shift), biased by under n / 2**64. ``classify_improved`` runs
    # the same steps inline in its trial loop.
    drawn: list[int] = []
    moved: dict[int, int] = {}
    get = moved.get
    for i in range(min(n, _LAZY_DRAWS)):
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        j = i + ((state * (n - i)) >> 64)
        drawn.append(get(j, j))
        moved[j] = get(i, i)
    if n <= _LAZY_DRAWS:
        return drawn
    keys = _rest_keys(n, drawn, (base << 64) | _mix64(base))
    return drawn + np.argsort(keys, kind="stable")[:n - _LAZY_DRAWS].tolist()


def _quad_verdict(ring: tuple[Point, ...], px: float, py: float,
                  n_polygon: int) -> Classification:
    # ``ring`` is the quad ring (a, b, d, c), for a triangle (a, b, c). Ring
    # edge 3 is the closing side d-c, a polygon edge only when the polygon
    # is a square; otherwise it is an interior chord.
    r = _ring_scan(ring, px, py)
    if r >= 0:
        if r & 1:
            return Classification.INSIDE
        return Classification.OUTSIDE
    if r == -4 and n_polygon != 4:
        return Classification.INSIDE
    return Classification.ON_BOUNDARY


def classify_quad(quad: Quad, p: Point, n_polygon: int) -> Classification:
    """Classify ``p`` against the quad ring (c, a, b, d).

    The three sides c-a, a-b, b-d are polygon edges, so landing on them is
    ON_BOUNDARY. The closing side d-c is a real edge only when the source
    polygon is a square (N=4); for N >= 5 it is an interior chord and points
    on it are INSIDE. The scan visits d-c last, so a point near it and near
    a polygon side (the outer vertices c and d) stays ON_BOUNDARY. For a
    triangle (N=3) c == d, and the ring is the triangle (a, b, c).
    """
    px, py = p
    if not _require_finite(px, py):
        return Classification.OUTSIDE
    ring = (quad.a, quad.b, quad.d, quad.c)[:n_polygon]
    return _quad_verdict(ring, px, py, n_polygon)


def _admitted(verts: tuple[Point, ...], i: int, tried: int, px: float,
              py: float) -> tuple[Classification, TrialStats]:
    # Edge i admits the point, so the quad ring (a, b, d, c) around it
    # answers for the whole polygon; for a triangle, d == c and the ring is
    # the triangle (a, b, c). Indices i + 1 - n and i + 2 - n wrap without
    # a modulo.
    n = len(verts)
    if n == 3:
        ring = (verts[i], verts[i - 2], verts[i - 1])
    else:
        ring = (verts[i], verts[i + 1 - n], verts[i + 2 - n], verts[i - 1])
    return _quad_verdict(ring, px, py, n), _new(
        TrialStats, (tried, tried + len(ring), i, False))


def classify_improved(poly: ConvexPolygon, p: Point,
                      policy: Optional[SeededShuffle] = None
                      ) -> tuple[Classification, TrialStats]:
    """Perpendicular-admission classifier.

    Tries edges in the seeded order of ``policy`` (``SeededShuffle``, by
    default ``DEFAULT_SEED``); the first admitting edge reduces the problem
    to its quad. When every edge rejects, the point sits on the polygon side
    of every neighbor chord, which only happens inside, so the verdict is
    INSIDE with ``exhausted_all`` set. The first ``_LAZY_DRAWS`` edges of
    the order are tried one at a time, each drawn in the trial loop itself
    (the steps of ``edge_order``), so a query that admits early pays only
    for the edges it tries. On a polygon of more than ``_LAZY_DRAWS``
    edges, a point within the outer disk first finds every edge that admits
    it through the caps alone (``polygon._cap_admitting``), in O(log N)
    plus the few chords whose certified cap faces the point; each draw then
    asks whether its edge is in that set instead of testing its chord, with
    the same answer; when the set is empty, every draw rejects and the
    query answers INSIDE after them, as when no edge admits, drawing no key.
    Where the caps cannot answer (a polygon without caps, a point beyond
    the outer disk, a window of more than ``polygon._VECTOR_MIN`` chords),
    each draw tests its chord, and a query that gets past the draws tests
    every edge in one vectorised step, which gives the same set. Only when
    some edge admits does it draw the keys that rank the rest of the order
    (see ``_rank_step``), and the first admitting edge in it is the
    admitting edge with the least (key, index), found without building the
    order.

    ``poly.disks``, built at the polygon's first query, holds the centre g,
    the inner and outer squared radii and the caps; the query computes its
    squared distance from g once, and both disks read it. A point strictly
    inside the inner disk is answered at once: INSIDE with
    ``TrialStats(n, n, None, True)``, the verdict and counters of trying
    all N edges. The disk decides only because its radius carries a forward
    error bound, which proves the float chord test false for every chord at
    every float point inside it; a point outside the disk, however close,
    goes through the trials. A point beyond the outer disk is answered at
    its admitting edge, found by the trials or the rank step as above,
    without the quad scan: OUTSIDE with ``TrialStats(t, t + 4, e, False)``
    (``t + 3`` for a triangle), which its quad would have answered, as the
    same bound proves. A query that exhausts never reaches it. The
    counters, the quad's 4 (or 3) tests included, are those of trying the
    edges one at a time and scanning the quad.

    The query starts its draws from ``policy.state``, the seed the policy
    mixed when it was built, and mixes no seed itself; so a caller that
    classifies many points under one order builds the policy once and
    passes it to every query. Without a policy it uses one module-level
    ``SeededShuffle(DEFAULT_SEED)``.
    """
    px, py = p
    if policy is None:
        policy = _DEFAULT_POLICY
    if not isinstance(policy, SeededShuffle):
        raise TypeError(f"unknown edge order policy: {policy!r}")
    if not _require_finite(px, py):
        return Classification.OUTSIDE, TrialStats(0, 0, None, False)
    verts = poly.vertices
    n = len(verts)
    gx, gy, inner, outer, caps = poly.disks
    dx, dy = px - gx, py - gy
    d2 = dx * dx + dy * dy
    if d2 < inner:
        return Classification.INSIDE, _new(TrialStats, (n, n, None, True))
    admitting = None
    if d2 <= outer and n > _LAZY_DRAWS and caps is not None:
        # Every edge that admits the point is in its cap window, so the
        # window's chord tests give the whole admitting set, and a drawn
        # edge admits iff it is in that set.
        admitting = _cap_admitting(poly, px, py, caps, dx, dy)
    drawn: list[int] = []
    # ``edge_order``'s draws from the mixed seed, one per trial
    state = policy.state
    moved: dict[int, int] = {}
    get = moved.get
    chords = poly.chords
    neg = -EPS
    for i in range(min(n, _LAZY_DRAWS)):
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        j = i + ((state * (n - i)) >> 64)
        e = get(j, j)
        if admitting is None:
            cx, cy, ux, uy = chords[e]
            if ux * (py - cy) - uy * (px - cx) < neg:
                break
        elif e in admitting:
            break
        moved[j] = get(i, i)
        drawn.append(e)
    else:
        # No draw admits. The drawn edges reject in the mask too, so any
        # admitting edge is in the rest of the order; a point that none
        # admits (sigma = 0) draws no keys, nor does a polygon of at most
        # _LAZY_DRAWS edges, whose draws were its whole order.
        if admitting is None and n > _LAZY_DRAWS:
            admitting = _admission_mask(poly, px, py).nonzero()[0].tolist()
        if not admitting:
            return Classification.INSIDE, _new(TrialStats, (n, n, None, True))
        e, i = _rank_step(n, drawn, admitting, policy.pcg_state)
    # edge e, at index i of the order, admits the point
    if d2 > outer:
        # i + 1 trials and the quad's nominal 4 tests, 3 for a triangle
        return Classification.OUTSIDE, _new(
            TrialStats, (i + 1, i + (5 if n > 3 else 4), e, False))
    return _admitted(verts, e, i + 1, px, py)


def classify_raycast(poly: ConvexPolygon, p: Point
                     ) -> tuple[Classification, TrialStats]:
    """Even-odd ray casting with an explicit boundary pre-check.

    A horizontal rightward ray is crossed by an edge iff exactly one
    endpoint's y strictly exceeds the point's y and the crossing lies
    strictly right of the point. ``intersection_tests`` is the nominal N
    edge-crossing tests. A point beyond ``geom._FAR`` is answered at the
    gate without a scan, and every counter is 0.
    """
    px, py = p
    if not _require_finite(px, py):
        return Classification.OUTSIDE, TrialStats(0, 0, None, False)
    n = len(poly.vertices)
    stats = TrialStats(n, n, None, False)
    r = _boundary_scan(poly, px, py)
    if r < 0:
        return Classification.ON_BOUNDARY, stats
    if r % 2 == 1:
        return Classification.INSIDE, stats
    return Classification.OUTSIDE, stats


def classify_fan_triangulation(poly: ConvexPolygon, p: Point
                               ) -> tuple[Classification, TrialStats]:
    """Linear scan of the fan triangles (V0, Vi, Vi+1), i = 1 .. N-2.

    Shares the boundary pre-check with the other classifiers, so the scan
    needs no tolerance: every point within EPS of an edge is already
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
    if not _require_finite(px, py):
        return Classification.OUTSIDE, TrialStats(0, 0, None, False)
    if _boundary_scan(poly, px, py) < 0:
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
