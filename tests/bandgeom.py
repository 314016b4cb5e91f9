"""Test-only geometry: the two-line band construction the admission rule
was derived from (directed lines, their intersection, side-of-line and band
containment, orientation, closed segments and their intersection), the
perpendicular foot it drops, ``legality_test``, the scalar admission test
of one edge that the vectorised tests are checked against, and
``scalar_validate_convex`` / ``scalar_random_convex``, the per-vertex loops
that the array ring checks of ``validate_convex`` and ``random_convex``
replaced, kept as their reference.

The package classifies with the chord-side test and the ring scan in
``convexpoint.geom``; nothing in it calls these. They run in plain double
precision with the same absolute tolerance ``EPS``; ``orientation``
compares the raw cross product magnitude against ``eps``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from convexpoint.geom import (
    EPS,
    _COORD_MAX,
    GeometryError,
    Point,
    _dist_point_segment,
    _on_segment_coords,
    _require_finite,
)
from convexpoint.polygon import (
    _MAX_GENERATOR_ATTEMPTS,
    ConvexPolygon,
    DuplicateVertexError,
    GenerationError,
    NotConvexError,
    NotSimpleError,
    PolygonError,
    TooFewVerticesError,
)


class DegenerateEdgeError(GeometryError):
    """An operation needed two distinct endpoints but got coincident ones."""


class InvalidReferenceError(GeometryError):
    """A band reference point lies on its own line and selects no side."""


class Orientation(Enum):
    COUNTERCLOCKWISE = "ccw"
    CLOCKWISE = "cw"
    COLLINEAR = "collinear"


@dataclass(frozen=True)
class Segment:
    """A closed segment with distinct endpoints.

    The standard constructor rejects zero-length input; a zero-length
    perpendicular (the one legitimate degenerate case) must be built
    explicitly with :meth:`zero_length`.
    """

    p: Point
    q: Point

    def __post_init__(self) -> None:
        _require_finite(self.p.x, self.p.y)
        _require_finite(self.q.x, self.q.y)
        if self.p == self.q:
            raise DegenerateEdgeError(
                f"segment endpoints coincide at {self.p}; "
                "use Segment.zero_length for an intentional degenerate segment"
            )

    @classmethod
    def zero_length(cls, at: Point) -> "Segment":
        _require_finite(at.x, at.y)
        seg = object.__new__(cls)
        object.__setattr__(seg, "p", at)
        object.__setattr__(seg, "q", at)
        return seg

    @property
    def is_zero_length(self) -> bool:
        return self.p == self.q


@dataclass(frozen=True)
class DirLine:
    """An infinite line in point-direction form: base + t * (dx, dy)."""

    base: Point
    dx: float
    dy: float

    def __post_init__(self) -> None:
        _require_finite(self.base.x, self.base.y)
        _require_finite(self.dx, self.dy)
        if self.dx == 0.0 and self.dy == 0.0:
            raise GeometryError("direction vector must be nonzero")


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    # z-component of (a - o) x (b - o)
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def orientation(a: Point, b: Point, c: Point, eps: float = EPS) -> Orientation:
    """Turn direction of the triple (a, b, c).

    Cross product magnitudes at or below ``eps`` report COLLINEAR.
    """
    d = _cross(a.x, a.y, b.x, b.y, c.x, c.y)
    if d > eps:
        return Orientation.COUNTERCLOCKWISE
    if d < -eps:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def line_intersection(l1: DirLine, l2: DirLine, eps: float = EPS) -> Optional[Point]:
    """Intersection point of two lines, or None when they are parallel
    (including coincident) within ``eps``.
    """
    denom = l2.dy * l1.dx - l1.dy * l2.dx
    if abs(denom) <= eps:
        return None
    bx = l2.base.x - l1.base.x
    by = l2.base.y - l1.base.y
    t = (bx * l2.dy - by * l2.dx) / denom
    return Point(l1.base.x + t * l1.dx, l1.base.y + t * l1.dy)


def point_on_segment(p: Point, s: Segment, eps: float = EPS) -> bool:
    """True iff ``p`` lies within ``eps`` of the closed segment ``s``."""
    return _dist_point_segment(p.x, p.y, s.p.x, s.p.y, s.q.x, s.q.y) <= eps


def segments_intersect(s1: Segment, s2: Segment, eps: float = EPS) -> bool:
    """Closed-segment intersection test.

    Endpoint touches and collinear overlaps count as intersections. A
    zero-length segment intersects the other iff its point lies on it.
    """
    if s1.is_zero_length:
        return _dist_point_segment(s1.p.x, s1.p.y, s2.p.x, s2.p.y,
                                   s2.q.x, s2.q.y) <= eps
    if s2.is_zero_length:
        return _dist_point_segment(s2.p.x, s2.p.y, s1.p.x, s1.p.y,
                                   s1.q.x, s1.q.y) <= eps

    p1, q1, p2, q2 = s1.p, s1.q, s2.p, s2.q

    o1 = orientation(p1, q1, p2, eps)
    o2 = orientation(p1, q1, q2, eps)
    o3 = orientation(p2, q2, p1, eps)
    o4 = orientation(p2, q2, q1, eps)

    if (o1 is not o2
            and o1 is not Orientation.COLLINEAR
            and o2 is not Orientation.COLLINEAR
            and o3 is not o4
            and o3 is not Orientation.COLLINEAR
            and o4 is not Orientation.COLLINEAR):
        return True

    if o1 is Orientation.COLLINEAR and _on_segment_coords(
            p2.x, p2.y, p1.x, p1.y, q1.x, q1.y, eps):
        return True
    if o2 is Orientation.COLLINEAR and _on_segment_coords(
            q2.x, q2.y, p1.x, p1.y, q1.x, q1.y, eps):
        return True
    if o3 is Orientation.COLLINEAR and _on_segment_coords(
            p1.x, p1.y, p2.x, p2.y, q2.x, q2.y, eps):
        return True
    if o4 is Orientation.COLLINEAR and _on_segment_coords(
            q1.x, q1.y, p2.x, p2.y, q2.x, q2.y, eps):
        return True
    return False


def side_of_line(p: Point, l: DirLine, eps: float = EPS) -> Orientation:
    """Side of ``p`` relative to the directed line ``l``.

    Points within distance ``eps`` of the line report COLLINEAR; otherwise
    the sign of dir x (p - base) decides.
    """
    cr = l.dx * (p.y - l.base.y) - l.dy * (p.x - l.base.x)
    band = eps * math.hypot(l.dx, l.dy)
    if cr > band:
        return Orientation.COUNTERCLOCKWISE
    if cr < -band:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def band_contains(p: Point, l1: DirLine, l2: DirLine,
                  ref1: Point, ref2: Point, eps: float = EPS) -> bool:
    """True iff ``p`` is in the closed intersection of the half-plane of
    ``l1`` containing ``ref1`` and the half-plane of ``l2`` containing
    ``ref2``.

    The reference points must lie strictly off their lines; they pick the
    side of each half-plane without any slope case analysis.
    """
    s1 = side_of_line(ref1, l1, eps)
    if s1 is Orientation.COLLINEAR:
        raise InvalidReferenceError(f"ref1 {ref1} lies on l1")
    s2 = side_of_line(ref2, l2, eps)
    if s2 is Orientation.COLLINEAR:
        raise InvalidReferenceError(f"ref2 {ref2} lies on l2")
    p1 = side_of_line(p, l1, eps)
    if p1 is not s1 and p1 is not Orientation.COLLINEAR:
        return False
    p2 = side_of_line(p, l2, eps)
    return p2 is s2 or p2 is Orientation.COLLINEAR


def perpendicular_foot(p: Point, a: Point, b: Point) -> Point:
    """Orthogonal projection of ``p`` onto the supporting line of (a, b).

    The foot is never clamped to the segment: when the projection falls
    beyond an endpoint it is returned on the line's extension.
    """
    ux = b.x - a.x
    uy = b.y - a.y
    d2 = ux * ux + uy * uy
    if d2 == 0.0:
        raise DegenerateEdgeError(f"edge endpoints coincide at {a}")
    t = ((p.x - a.x) * ux + (p.y - a.y) * uy) / d2
    return Point(a.x + t * ux, a.y + t * uy)


def legality_test(poly: ConvexPolygon, i: int, p: Point) -> bool:
    """Admission test for edge ``i`` in [0, N) and query point ``p``: the
    chord-side test of row i of ``ConvexPolygon.chords``. A point beyond
    ``geom._FAR`` raises GeometryError, as in ``sigma``."""
    if not 0 <= i < poly.n:
        raise IndexError(f"edge index {i} out of range for {poly.n}-gon")
    if not _require_finite(p.x, p.y):
        raise GeometryError(f"too far out to count admissions: {p!r}")
    cx, cy, ux, uy = poly.chords[i]
    return ux * (p.y - cy) - uy * (p.x - cx) < -EPS


def scalar_validate_convex(raw) -> ConvexPolygon:
    """``validate_convex`` as per-vertex Python loops: the same parse,
    rules, order of checks and messages, one vertex or edge at a time."""
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
    coords = list(chain.from_iterable(verts))
    if not math.isfinite(sum(coords)):
        for x, y in verts:
            _require_finite(x, y)
    n = len(verts)
    if n < 3:
        raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
    if max(map(abs, coords)) > _COORD_MAX:
        raise PolygonError(f"a coordinate's magnitude exceeds {_COORD_MAX:g},"
                           " past which a product of coordinates overflows")

    area2 = 0.0
    x0, y0 = verts[0]
    for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
        if math.hypot(b.x - a.x, b.y - a.y) <= EPS:
            raise DuplicateVertexError(
                f"vertices {i} and {(i + 1) % n} coincide at {a}")
        area2 += (a.x - x0) * (b.y - y0) - (b.x - x0) * (a.y - y0)
    if area2 < 0.0:
        verts.reverse()

    turning = 0.0
    a, b = verts[-1], verts[0]
    for i, c in enumerate(verts[1:] + verts[:1]):
        d = _cross(a.x, a.y, b.x, b.y, c.x, c.y)
        if d <= EPS:
            kind = "collinear" if abs(d) <= EPS else "clockwise"
            raise NotConvexError(
                f"consecutive triple around vertex {i} is {kind}; "
                "strict convexity requires a counter-clockwise turn")
        ux, uy = b.x - a.x, b.y - a.y
        wx, wy = c.x - b.x, c.y - b.y
        turning += math.atan2(ux * wy - uy * wx, ux * wx + uy * wy)
        a, b = b, c
    if abs(turning - 2.0 * math.pi) > 1e-6:
        raise NotSimpleError(
            f"ring winds {turning / (2.0 * math.pi):.3f} times; "
            "a simple convex polygon winds exactly once")

    return ConvexPolygon(tuple(verts))


def scalar_random_convex(n: int, seed: int, radius: float = 1.0
                         ) -> ConvexPolygon:
    """``random_convex`` with the same draws per attempt, each candidate
    checked by ``scalar_validate_convex``."""
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
        xs = radii * np.cos(angles)
        ys = radii * np.sin(angles)
        try:
            return scalar_validate_convex(
                [Point(float(x), float(y)) for x, y in zip(xs, ys)])
        except PolygonError:
            continue
    raise GenerationError(
        f"could not generate a valid convex polygon for n={n}, "
        f"radius={radius} after {_MAX_GENERATOR_ATTEMPTS} attempts")
