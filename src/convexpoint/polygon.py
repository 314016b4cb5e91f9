"""Convex polygon representation, validation, quadrilateral extraction,
random generation, the half-plane reference oracle, and bounding boxes.

A ``ConvexPolygon`` is immutable once validated: vertices are stored
counter-clockwise, strictly convex (no collinear consecutive triple), with no
duplicate consecutive vertices and no self-intersection.
"""
from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geom import (
    EPS,
    _COORD_MAX,
    GeometryError,
    Point,
    _dist_point_segment,
    _on_segment_coords,
    _require_finite,
    _ring_scan,
)


# Rings with at least this many vertices take the column-array boundary
# scan, fan scan and oracle; smaller ones take the scalar loops, where the
# fixed cost of a dozen numpy calls outweighs the per-edge saving. For
# bounding-box points the column path wins from about 30 vertices for
# raycast and from about 40 for fan (CPython 3.11, numpy 2.4, shared 2-vCPU
# Xeon). The oracle's column path, against its carry-forward loop, costs
# 2.0-2.1x at 16 vertices, 1.4-1.6x at 24, 1.07-1.13x at 32, 0.89-1.10x at
# 40, 0.73-0.78x at 48 and 0.61-0.68x at 64 (same host, 5 polygons per size,
# 400 box points each, two runs).
_VECTOR_MIN = 40

# The certified disks' one relative allowance, delta = 32 units of roundoff
# (32 * 2**-53), and the angular slack each cap gains. See
# ``ConvexPolygon.disks``.
_DELTA = 2.0 ** -48
_CAP_SLACK = 2.0 ** -40

class PolygonError(ValueError):
    """Base class for polygon validation failures."""


class TooFewVerticesError(PolygonError):
    pass


class NotConvexError(PolygonError):
    pass


class DuplicateVertexError(PolygonError):
    pass


class NotSimpleError(PolygonError):
    pass


class GenerationError(PolygonError, RuntimeError):
    """``random_convex`` found no valid polygon within its attempts. Also a
    ``RuntimeError``, so callers that catch that still catch it."""


class Classification(Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConvexPolygon:
    """A validated, CCW-normalized, strictly convex vertex ring.

    Construct through :func:`validate_convex` (or the JSON loader); the raw
    constructor performs no checks and is reserved for internal use.
    """

    vertices: tuple[Point, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def chords(self) -> tuple[tuple[float, float, float, float], ...]:
        """Per edge i, the chord c = V[i-1] -> d = V[i+2] as
        ``(cx, cy, dx - cx, dy - cy)``, built on first use.

        Edge i admits p iff ``ux * (py - cy) - uy * (px - cx) < -EPS``: p
        lies strictly on the edge side of its neighbors' chord. A
        triangle's chord collapses to its apex c = V[i-1]. Its quad is the
        triangle itself, so any half-plane serves, and its row is the line
        parallel to edge a -> b at twice the apex's height,
        ``(2 cx - ax, 2 cy - ay, bx - ax, by - ay)``. With A the turn cross
        product and mu the apex's barycentric coordinate of p, the test
        reads ``A * (2 - mu) > EPS``: all three edges admit every point of
        the closed triangle, and as the three values sum to 5A, some edge
        admits any point. The cache lives in the instance ``__dict__``,
        outside the dataclass fields, so equality, hashing and repr see
        only ``vertices``.
        """
        v = self.vertices
        if len(v) == 3:
            return tuple((2.0 * c.x - a.x, 2.0 * c.y - a.y,
                          b.x - a.x, b.y - a.y)
                         for c, a, b in zip(v[-1:] + v[:-1], v, v[1:] + v[:1]))
        return tuple((c.x, c.y, d.x - c.x, d.y - c.y)
                     for c, d in zip(v[-1:] + v[:-1], v[2:] + v[:2]))

    @cached_property
    def chord_columns(self) -> tuple[np.ndarray, ...]:
        """The chord table as the contiguous float64 columns ``cx, cy, ux,
        uy``, built on first use; see ``_admission_mask``. A tuple of
        arrays, like ``ring_columns``."""
        n = len(self.vertices)
        return tuple(np.fromiter(chain.from_iterable(self.chords), np.float64,
                                 4 * n).reshape(n, 4).T.copy())

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        # the vertices as an (n, 2) float64 array, read in one pass and
        # shared by ``ring_columns``, ``spoke_columns`` and ``disks``
        n = len(self.vertices)
        return np.fromiter(chain.from_iterable(self.vertices), np.float64,
                           2 * n).reshape(n, 2)

    @cached_property
    def ring_columns(self) -> tuple[np.ndarray, ...]:
        """Per ring edge k, from V[k-1] to V[k], the float64 columns
        ``ax, ay, by, ux, uy, band`` with ``ux = bx - ax``, ``uy = by - ay``
        and ``band = EPS * (|ux| + |uy|)``, built on first use; see
        ``_boundary_scan``. A tuple of arrays: unpacking the rows of a 2-D
        array would build a view per row on every call, about 1 µs for
        four rows."""
        v = self._vertex_array
        a = np.roll(v, 1, axis=0)
        ux = v[:, 0] - a[:, 0]
        uy = v[:, 1] - a[:, 1]
        return (a[:, 0].copy(), a[:, 1].copy(), v[:, 1].copy(), ux, uy,
                EPS * (np.abs(ux) + np.abs(uy)))

    @cached_property
    def spoke_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex i, the spoke ``V[i] - V[0]`` as the float64 columns
        ``sx, sy``, built on first use; see ``_fan_wedge``."""
        v = self._vertex_array
        return v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]

    @cached_property
    def disks(self) -> tuple:
        """``(gx, gy, inner, outer, caps)``, built on a query's first use in
        one numpy pass over ``chord_columns``: a centre g and three
        certified tables about it. For a float point p, let dx = px - gx and
        dy = py - gy, both rounded, and d2 = dx * dx + dy * dy.

        - If ``d2 < inner``, no edge admits p: the float test of ``chords``
          is false for every chord.
        - If ``d2 > outer``, p is OUTSIDE for the quad scan of every edge:
          ``geom._ring_scan`` over the ring (a, b, d, c), or the triangle
          (a, b, c), finds no ring edge within EPS and an even crossing
          count.
        - If ``d2 <= outer``, p faces the cap of every chord that admits it.
          ``caps`` is ``(width, theta, edge)``: entry k is the chord of edge
          ``edge[k]``, in increasing order of ``theta[k]``, the angle of its
          outward normal (uy, -ux), and ``math.atan2(dy, dx)`` lies within
          ``width`` of the ``theta[k]`` of every chord that admits p. The
          table is unrolled once: the angles in [-pi, pi] hold every chord
          once, and the chords within ``width`` of either end are also
          copied past the other end, shifted by 2 pi, so the window of every
          angle in [-pi, pi] is one run of it. The caps bound the
          directions in which each chord can admit, not which chords do:
          admitting sets need not form one run of edges, and on thin rings
          they split.

        The inner disk and the caps rest on one lower bound h (below); when
        it is not positive, ``inner`` is -1, an empty disk, and ``caps`` None.

        g is the vertex mean or the bounding box's midpoint, whichever has
        the larger least t / hypot(ux, uy) (t below), and the vertex mean when
        neither is positive: a ranking, not a bound, so rho, R and h are
        computed for g alone. Neither is always the deeper: the vertex mean
        is on many rings of a dozen vertices, the box midpoint on most random
        rings of thousands, where the vertex mean's caps are many times wider.

        The bound, by forward error analysis (u = 2**-53; Higham, "Accuracy
        and Stability of Numerical Algorithms", ch. 3; the static filter of
        Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast
        Robust Geometric Predicates", 1997). Two rounded differences, two
        products and one subtraction put a chord's float test value at p
        within c M(p) of its exact value T(p) = ux (py - cy) - uy (px - cx),
        with c = 3u(1 + u)**2 and M(p) = |ux| |py - cy| + |uy| |px - cx|;
        underflow adds under 2**-1070, far below ``EPS``. The test compares
        with -EPS < 0, so it is false wherever T(p) > c M(p). Let D = T(g),
        A = M(g), r = |p - g| and s = (p - g) . (uy, -ux) / hypot(ux, uy),
        p's reach along the outward normal; then T(p) = D - hypot(ux, uy) s,
        s <= r and M(p) <= A + r (|ux| + |uy|). One relative allowance,
        delta = 2**-48 = 32u, stands in for every rounding below. The table
        computes t = D - 2 delta A per chord; as |D| <= A, the excess of
        2 delta over c covers the rounding of D, A and t, so t <= D - c A.

        One bound, two uses. Let R be the caps' radius (see Caps) and let
        chord j's test pass at a float point p with r <= R. Then T(p) <
        c M(p) <= c (A + R (|ux| + |uy|)), so s > (D - c A - c R (|ux| +
        |uy|)) / hypot(ux, uy). The table's h_j = (t - delta R (|ux| + |uy|))
        / hypot(ux, uy), less delta of itself, lies below that bound: delta
        covers c and the rounding of delta R (|ux| + |uy|), the factor
        (1 - delta) that of the subtraction, the division and numpy's hypot.
        h, the least h_j, is below R, as each chord line passes through a
        vertex, within rho (1 + 4u) of g (see Outer). Inner: the query's d2
        is at least (1 - u)**4 r**2 and ``inner`` = h**2 (1 - delta) at most
        h**2 (1 - delta) (1 + u)**2, so ``d2 < inner`` gives r < h < R, and a
        chord j that admitted p would give s > h_j >= h > r >= s.

        Outer. With rho the largest computed vertex distance from g, the
        exact one is at most rho (1 + 4u) (two rounded differences, numpy's
        hypot under 1 ulp). The radius rho_o = rho + 2 EPS + delta S, with
        S = |gx| + |gy| + rho, takes at most three roundings on any term, so
        it comes out at least (1 - 3u) times its exact value, and ``outer``
        = rho_o**2 (1 + delta) takes two more. The query's d2 is at most
        (1 + u)**4 r**2 (+inf only for a p far beyond the disk), so it
        exceeds ``outer`` only when r > rho_o. Every point X of a ring edge
        lies within rho (1 + 4u) of g, as the disk is convex, so |p - X| > m
        = 2 EPS (1 - 3u) + S (delta - 11u). No ring edge is within EPS:
        ``_dist_point_segment`` measures p's distance to a rounded point (ax
        + t ux, ay + t uy), t a float in [0, 1], or to a, which is within
        11u S of an exact point X of the edge; the differences and ``hypot``
        then lose under 3u relative, so the distance it returns exceeds (m -
        11u S)(1 - 3u) > EPS, as delta > 22u. The crossing count is even:
        whether an edge straddles the ray's height is an exact comparison,
        and around a closed ring the straddling edges are even in number. A
        straddling edge crosses height py at X = a + t (b - a), with t = (py
        - ay) / (by - ay) exactly in [0, 1], so |px - Xx| = |p - X| > m,
        while the abscissa the scan computes is within 12u S of Xx, less
        than m as delta > 23u. So each straddling edge counts as its exact
        crossing lies right of p or not. Every crossing lies in the disk of
        radius rho (1 + 4u) about g, whose chord at height py is one
        interval, and p at that height lies outside the disk and so beyond
        one end of the interval: all the crossings or none count.

        Caps. Their radius R is rho_o (1 + delta), at least rho_o (1 + delta
        - 2u) after its rounding. The query's d2 is at least (1 - u)**4 r**2
        and ``outer`` at most rho_o**2 (1 + delta) (1 + u)**2, so ``d2 <=
        outer`` gives r < rho_o (1 + delta / 2 + 4u) < R. For a chord j that
        admits p, s / r = cos(phi - theta) > h_j / R >= h / R, with phi the
        exact angle of p - g: phi lies within acos(h / R) of theta, and h /
        R after its rounding still lies below every such bound. acos
        decreases, so ``width``, ``math.acos`` of it plus 2**-40 radians, is
        at least every chord's acos(h / R) plus 2**-40 less a few ulp of pi.
        Rounding dx and dy turns p - g by at most u / (1 - u) radians, atan2
        and numpy's arctan2 are off by a few ulp of pi, and the window's
        bounds, the table's copies shifted by 2 pi and the cut of its
        margins round by as much again: under 1e-14 radians in all, far
        inside the 2**-40, so a chord that rounding moves across a bound
        never admits. As ``width`` is below pi / 2 + 2**-40, no window holds
        a chord twice. As h < R, acos sees no argument beyond its domain.

        The inner disk is empty and ``caps`` None, about any centre, for a
        triangle, whose rows admit its whole closed area, a square, whose
        chords are its edges reversed, a pentagon, where the inner sides of
        chords 1 and 3 meet only at V0, and a hexagon, whose chords i and
        i + 3 are one line, reversed. Arrays keep the caps compact, 32 kB at
        N = 2000 with a margin of a few entries, and ``bisect`` searches
        ``theta`` as it is.
        """
        cx, cy, ux, uy = self.chord_columns
        n = len(cx)
        # from 4 vertices on, (cx[i], cy[i]) is vertex i - 1; a triangle's
        # rows are not its vertices
        vx, vy = (cx, cy) if n > 3 else self._vertex_array.T
        # the candidate centres as rows: the vertex mean, the box midpoint
        ox = np.array(((vx.sum() / n,), (0.5 * (vx.min() + vx.max()),)))
        oy = np.array(((vy.sum() / n,), (0.5 * (vy.min() + vy.max()),)))
        ex, ey = ox - cx, oy - cy
        au, av = abs(ux), abs(uy)
        hyp = np.hypot(ux, uy)
        t = (ux * ey - uy * ex) - 2.0 * _DELTA * (au * abs(ey) + av * abs(ex))
        depth = (t / hyp).min(axis=1).tolist()
        k = 1 if depth[1] > max(depth[0], 0.0) else 0
        gx, gy = float(ox[k, 0]), float(oy[k, 0])
        rho = float(np.hypot(vx - gx, vy - gy).max())
        r = rho + 2.0 * EPS + _DELTA * (abs(gx) + abs(gy) + rho)
        cap_r = r * (1.0 + _DELTA)
        # the one lower bound: the least h gives the inner radius and the
        # widest cap, as acos decreases
        h = float(((t[k] - _DELTA * cap_r * (au + av)) / hyp).min())
        inner, caps = -1.0, None
        if h > 0.0:
            h -= _DELTA * h
            width = math.acos(h / cap_r) + _CAP_SLACK
            theta = np.arctan2(-ux, uy)
            order = theta.argsort(kind="stable")
            theta = theta[order]
            # the chords within width of +pi again before the run, less
            # 2 pi, and those within width of -pi after it, plus 2 pi
            i, j = theta.searchsorted((width - math.pi, math.pi - width))
            theta = np.concatenate((theta[j:] - math.tau, theta,
                                    theta[:i] + math.tau))
            order = np.concatenate((order[j:], order, order[:i]))
            inner = h * h * (1.0 - _DELTA)
            caps = (width, array("d", theta.tobytes()),
                    array("q", order.astype(np.int64, copy=False).tobytes()))
        return gx, gy, inner, r * r * (1.0 + _DELTA), caps

    def centroid(self) -> Point:
        xs = sum(v.x for v in self.vertices)
        ys = sum(v.y for v in self.vertices)
        return Point(xs / self.n, ys / self.n)


@dataclass(frozen=True)
class Quad:
    """Four consecutive ring vertices (c, a, b, d) around the edge (a, b).

    ``c`` and ``d`` are the outer endpoints of the two edges adjacent to
    (a, b). For a triangle the ring wraps onto itself and c == d.
    """

    c: Point
    a: Point
    b: Point
    d: Point


class BoundingBox(NamedTuple):
    min: Point
    max: Point


def validate_convex(raw: Sequence[Point] | Iterable[Sequence[float]]
                    ) -> ConvexPolygon:
    """Validate a vertex list and return a normalized polygon.

    Clockwise input is reversed to counter-clockwise. Raises
    TooFewVerticesError, DuplicateVertexError, NotConvexError or
    NotSimpleError when the ring cannot be normalized, and PolygonError
    when an entry is not two numbers that convert to floats (an integer
    beyond the float range does not) or exceeds ``_COORD_MAX`` in
    magnitude, which keeps every product formed for points in the bounding
    box finite.
    Entries are parsed one by one; the ring rules then run as array
    expressions over one float64 array, in ``_ccw_ring``.
    """
    try:
        entries = list(raw)
    except TypeError:
        raise PolygonError(
            f"vertices must be a list of [x, y] pairs, got {raw!r}") from None
    verts = []
    for k, v in enumerate(entries):
        try:
            x, y = v
            verts.append(Point(float(x), float(y)))
        except (TypeError, ValueError, OverflowError):
            raise PolygonError(
                f"vertex {k} must be two numbers [x, y], got {v!r}") from None
    xy = np.fromiter(chain.from_iterable(verts), np.float64).reshape(-1, 2)
    if _ccw_ring(xy) is not xy:
        verts.reverse()
    return ConvexPolygon(tuple(verts))


def _ccw_ring(xy: np.ndarray) -> np.ndarray:
    """Check the (n, 2) float64 ring ``xy`` by the rules of
    ``validate_convex``, raising its errors, and return it counter-clockwise:
    ``xy`` itself or its reversed view. Each rule is an array expression in
    the float64 operations of the per-vertex loop that the tests keep."""
    n = len(xy)
    if n < 3 or not abs(xy).max() <= _COORD_MAX:  # a NaN max fails too
        if not np.isfinite(xy).all():  # the first non-finite entry raises
            _require_finite(*xy[np.isfinite(xy).all(axis=1).argmin()].tolist())
        if n < 3:
            raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
        raise PolygonError(f"a coordinate's magnitude exceeds {_COORD_MAX:g},"
                           " past which a product of coordinates overflows")
    # Views of [V[n-1], V[0], ..., V[n-1], V[0]]: a = V[i-1], b = V[i],
    # c = V[i+1] around vertex i are [:-2], [1:-1], [2:]; e is edge b -> c.
    w = np.concatenate((xy[-1:], xy, xy[:1]))
    e = w[2:] - w[1:-1]
    # hypot(ex, ey) >= max(|ex|, |ey|), so only these edges can coincide
    near = abs(e) <= EPS
    for i in (near[:, 0] & near[:, 1]).nonzero()[0].tolist():
        if math.hypot(*e[i].tolist()) <= EPS:
            raise DuplicateVertexError(f"vertices {i} and {(i + 1) % n} "
                                       f"coincide at {Point(*xy[i].tolist())}")
    # Signed area decides the winding; flip CW rings to CCW. The shoelace
    # sum is taken about V[0]: about the origin it cancels for a small ring
    # far out, and a CCW ring can sum below 0. cumsum adds left to right,
    # as a loop would, where sum() adds pairwise.
    x, y = w.T
    sx, sy = x - x[1], y - y[1]
    if np.cumsum(sx[1:-1] * sy[2:] - sx[2:] * sy[1:-1])[-1] < 0.0:
        xy, w = xy[::-1], w[::-1]
        x, y, e = *w.T, w[2:] - w[1:-1]

    # All turns are strictly left; the ring is simple iff it winds exactly
    # once (a star polygon turns left everywhere but winds more than once).
    (ux, uy), (wx, wy) = (w[1:-1] - w[:-2]).T, e.T
    d = ux * (y[2:] - y[:-2]) - uy * (x[2:] - x[:-2])  # (b - a) x (c - a)
    if d.min() <= EPS:
        i = int((d <= EPS).argmax())
        kind = "collinear" if abs(d[i]) <= EPS else "clockwise"
        raise NotConvexError(
            f"consecutive triple around vertex {i} is {kind}; "
            "strict convexity requires a counter-clockwise turn")
    # np.arctan2 may differ from math.atan2 by an ulp, far inside the 1e-6
    turning = float(np.arctan2(ux * wy - uy * wx, ux * wx + uy * wy).sum())
    if abs(turning - 2.0 * math.pi) > 1e-6:
        raise NotSimpleError(
            f"ring winds {turning / (2.0 * math.pi):.3f} times; "
            "a simple convex polygon winds exactly once")
    return xy


def adjacent_quad(poly: ConvexPolygon, i: int) -> Quad:
    """Quad around edge ``i``: a = V_i, b = V_{i+1}, c = V_{i-1},
    d = V_{i+2}, indices mod N, so c == d for a triangle."""
    n = poly.n
    if not 0 <= i < n:
        raise IndexError(f"edge index {i} out of range for {n}-gon")
    v = poly.vertices
    return Quad(
        c=v[i - 1],
        a=v[i],
        b=v[(i + 1) % n],
        d=v[(i + 2) % n],
    )


_MAX_GENERATOR_ATTEMPTS = 64


def random_convex(n: int, seed: int, radius: float = 1.0) -> ConvexPolygon:
    """Deterministic random strictly convex n-gon.

    Vertices sit on a circle of the given radius at sorted random angles with
    mild radial jitter. Angle gaps are drawn in [0.7, 1.3] of the mean gap so
    consecutive triples keep a healthy margin above the collinearity
    tolerance even for thousands of vertices; the jitter amplitude is capped
    both at 5% and at what the local gaps can absorb without creating a
    reflex vertex. ``_ccw_ring`` checks each candidate array, and ``Point``s
    are built once, on success, so a rejected attempt is a few dozen numpy
    calls, and giving up after every attempt at n = 2000 takes about 10 ms.
    ``GenerationError`` is raised when every attempt fails.
    """
    if n < 3:
        raise PolygonError(f"need n >= 3, got {n}")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise PolygonError(f"radius must be positive and finite, got {radius}")

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_GENERATOR_ATTEMPTS):
        gaps = 0.7 + 0.6 * rng.random(n)
        gaps *= (2.0 * math.pi) / float(gaps.sum())
        phase = 2.0 * math.pi * rng.random()
        angles = phase + np.cumsum(gaps)

        min_gap = float(gaps.min())
        jitter_amp = min(0.05, min_gap * min_gap / 8.0)
        radii = radius * (1.0 + jitter_amp * (2.0 * rng.random(n) - 1.0))

        xy = np.stack((radii * np.cos(angles), radii * np.sin(angles)), 1)
        try:
            xy = _ccw_ring(xy)
        except PolygonError:
            continue
        return ConvexPolygon(tuple(map(Point, *xy.T.tolist())))
    raise GenerationError(
        f"could not generate a valid convex polygon for n={n}, "
        f"radius={radius} after {_MAX_GENERATOR_ATTEMPTS} attempts")


def bounding_box(poly: ConvexPolygon) -> BoundingBox:
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    return BoundingBox(Point(min(xs), min(ys)), Point(max(xs), max(ys)))


def oracle_classify(poly: ConvexPolygon, p: Point,
                    eps: float = EPS) -> Classification:
    """Reference classification by the all-half-planes convexity test, a
    float predicate like the classifiers it checks.

    INSIDE iff the point is strictly left of every directed edge;
    ON_BOUNDARY iff it is never strictly right and some edge with a cross
    product within ``eps`` holds it in its closed segment; OUTSIDE otherwise.

    Two paths collect the near edges, in ring order the endpoints of the
    edges V[k-1]->V[k] whose cross product is within ``eps``, and return
    OUTSIDE once the point is strictly right of an edge: from ``_VECTOR_MIN``
    vertices on, one column expression over ``ConvexPolygon.ring_columns``,
    in the float64 operations of the scalar loop that smaller rings run.
    One tail then decides: ON_BOUNDARY at the first near edge whose closed
    segment holds the point, else OUTSIDE if any edge is near, else INSIDE.
    The oracle shares only the edge vectors with ``_boundary_scan``, not its
    predicate. The edge order cannot change the verdict: any edge strictly
    right gives OUTSIDE, and otherwise a point on some edge beats a point on
    an edge's line beyond the segment, which beats INSIDE.

    ``eps`` must be finite and non-negative; any other value raises
    ValueError, since NaN, a negative or an infinite band each turn the
    half-plane tests into a wrong verdict rather than an error.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    verts = poly.vertices
    px, py = p
    if not _require_finite(px, py):
        return Classification.OUTSIDE  # beyond _FAR; see geom
    near = []
    if len(verts) >= _VECTOR_MIN:
        ax, ay, _, ux, uy, _ = poly.ring_columns
        cr = ux * (py - ay) - uy * (px - ax)
        if np.count_nonzero(cr < -eps):
            return Classification.OUTSIDE
        for k in (cr <= eps).nonzero()[0].tolist():
            near.append((verts[k - 1], verts[k]))
    else:
        ax, ay = verts[-1]
        for bx, by in verts:
            cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if cr < -eps:
                return Classification.OUTSIDE
            if cr <= eps:
                near.append(((ax, ay), (bx, by)))
            ax, ay = bx, by
    tol = max(eps, EPS)
    for (x0, y0), (x1, y1) in near:
        if _on_segment_coords(px, py, x0, y0, x1, y1, tol):
            return Classification.ON_BOUNDARY
    return Classification.OUTSIDE if near else Classification.INSIDE


def _admission_mask(poly: ConvexPolygon, px: float, py: float) -> np.ndarray:
    """Per edge, whether it admits ``(px, py)``: the chord-side test of
    ``ConvexPolygon.chords`` over all edges at once. numpy evaluates the
    same float64 operations one at a time, without fusing them, so entry i
    equals the scalar test of edge i bit for bit. The caller's gate keeps
    the point within ``geom._FAR``, so no product overflows."""
    cx, cy, ux, uy = poly.chord_columns
    return ux * (py - cy) - uy * (px - cx) < -EPS


def _cap_admitting(poly: ConvexPolygon, px: float, py: float, caps: tuple,
                   dx: float, dy: float) -> list[int] | None:
    """The edges that admit ``(px, py)``, in increasing order, found in
    O(log N + window) through ``caps``, the caps of ``poly.disks``, for a
    point that is not beyond the outer disk; ``dx`` and ``dy`` are its
    offset from the table's centre g. One bisection pair finds the window of
    chords whose normal angle lies within the caps' ``width`` of the
    point's angle about g: one run of ``theta``, whose copies past -pi and
    +pi stand for the chords at the other end, so no window wraps. The
    table's proof puts every admitting chord in the window, and each chord
    in it runs the scalar test of ``chords``, bit for bit the entry of
    ``_admission_mask``. Testing a chord costs about as much as testing
    whether its own cap holds the angle, so the window is not narrowed
    further. None when the window holds more than ``_VECTOR_MIN``
    chords (thin rings), where the scalar loop stops paying."""
    width, theta, edge = caps
    phi = math.atan2(dy, dx)
    i, j = bisect_left(theta, phi - width), bisect_right(theta, phi + width)
    if j - i > _VECTOR_MIN:
        return None
    chords = poly.chords
    found = []
    for e in edge[i:j]:
        cx, cy, ux, uy = chords[e]
        if ux * (py - cy) - uy * (px - cx) < -EPS:
            found.append(e)
    found.sort()
    return found


def _boundary_scan(poly: ConvexPolygon, px: float, py: float) -> int:
    """``_ring_scan(poly.vertices, px, py)``, the same value, over
    ``ConvexPolygon.ring_columns`` once the polygon has ``_VECTOR_MIN``
    vertices. The ``EPS`` candidates come from the same cross product over
    all edges at once and are confirmed in ring order by the scalar distance,
    so the first near edge is the same one. The ray then meets only the
    edges that straddle ``py``; each crossing is the scalar expression in
    the same float64 operations, and no horizontal edge straddles, so
    nothing divides by zero."""
    verts = poly.vertices
    if len(verts) < _VECTOR_MIN:
        return _ring_scan(verts, px, py)
    ax, ay, by, ux, uy, band = poly.ring_columns
    near = abs(ux * (py - ay) - uy * (px - ax)) <= band
    for k in near.nonzero()[0].tolist():
        (x0, y0), (x1, y1) = verts[k - 1], verts[k]
        if _dist_point_segment(px, py, x0, y0, x1, y1) <= EPS:
            return -1 - k
    crossings = 0
    for k in ((ay > py) != (by > py)).nonzero()[0].tolist():
        (x0, y0), (x1, y1) = verts[k - 1], verts[k]
        if x0 + (py - y0) * (x1 - x0) / (y1 - y0) > px:
            crossings += 1
    return crossings


def _fan_wedge(poly: ConvexPolygon, px: float, py: float) -> int:
    """The first fan triangle i in 1 .. N-2 whose wedge holds ``(px, py)``:
    the spoke V0->Vi's side value is >= 0 and V0->Vi+1's is <= 0. N - 1
    when there is none. Each side value is ``sx * (py - oy) - sy * (px -
    ox)`` over ``ConvexPolygon.spoke_columns``, all at once from
    ``_VECTOR_MIN`` vertices on. As in ``_admission_mask``, the point lies
    within ``geom._FAR``."""
    verts = poly.vertices
    n = len(verts)
    ox, oy = verts[0]
    if n >= _VECTOR_MIN:
        sx, sy = poly.spoke_columns
        side = sx * (py - oy) - sy * (px - ox)
        wedge = (side[1:-1] >= 0.0) & (side[2:] <= 0.0)
        j = int(wedge.argmax())
        return j + 1 if wedge[j] else n - 1
    ax, ay = verts[1]
    side_a = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    for i in range(1, n - 1):
        bx, by = verts[i + 1]
        side_b = (bx - ox) * (py - oy) - (by - oy) * (px - ox)
        if side_a >= 0.0 and side_b <= 0.0:
            return i
        side_a = side_b
    return n - 1


def sigma(poly: ConvexPolygon, p: Point) -> int:
    """Number of edges that admit ``p`` by the chord-side test, counted by
    exhaustive scan over all N edges with ``_admission_mask``, the reference
    count for the edges that ``classify_improved`` finds through
    ``_cap_admitting`` or that mask. It counts rather than classifies, so a
    point beyond ``geom._FAR`` raises GeometryError."""
    px, py = p
    if not _require_finite(px, py):
        raise GeometryError(f"too far out to count admissions: {p!r}")
    return int(np.count_nonzero(_admission_mask(poly, px, py)))


def polygon_to_dict(poly: ConvexPolygon) -> dict:
    return {"vertices": [[v.x, v.y] for v in poly.vertices]}


def polygon_from_dict(data: dict) -> ConvexPolygon:
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonError('polygon document must be {"vertices": [[x, y], ...]}')
    return validate_convex(data["vertices"])


def load_polygon(path: str) -> ConvexPolygon:
    """Read a polygon from a JSON document {"vertices": [[x, y], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return polygon_from_dict(data)


def dump_polygon(poly: ConvexPolygon, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polygon_to_dict(poly), fh)
        fh.write("\n")
