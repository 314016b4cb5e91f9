"""Convex polygon representation, validation, quadrilateral extraction,
random generation, the exact half-plane oracle, and bounding boxes.

A ``ConvexPolygon`` is immutable once validated: vertices are stored
counter-clockwise, strictly convex (no collinear consecutive triple), with no
duplicate consecutive vertices and no self-intersection.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geom import (
    EPS,
    Point,
    _cross,
    _dist_point_segment,
    _on_segment_coords,
    _require_finite,
    _ring_scan,
    perpendicular_foot,
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

        Edge i admits p iff ``ux * (py - cy) - uy * (px - cx) < -eps``: p
        lies strictly on the edge side of its neighbors' chord. For a
        triangle the chord collapses to the opposite vertex (u = 0), so the
        table cannot express the triangle rule; see ``_triangle_admits``. The
        cache lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and repr see only ``vertices``.
        """
        v = self.vertices
        return tuple((c.x, c.y, d.x - c.x, d.y - c.y)
                     for c, d in zip(v[-1:] + v[:-1], v[2:] + v[:2]))

    @cached_property
    def chord_columns(self) -> tuple[np.ndarray, ...]:
        """The chord table as the contiguous float64 columns ``cx, cy, ux,
        uy``, built on first use; see ``_admission_mask``. A tuple of
        arrays, like ``ring_columns``."""
        return tuple(np.array(self.chords, dtype=np.float64).T.copy())

    @cached_property
    def ring_columns(self) -> tuple[np.ndarray, ...]:
        """Per ring edge k, from V[k-1] to V[k], the float64 columns
        ``ax, ay, by, ux, uy, tol`` with ``ux = bx - ax``, ``uy = by - ay``
        and ``tol = |ux| + |uy|``, built on first use; see
        ``_boundary_scan``. A tuple of arrays: unpacking the rows of a 2-D
        array would build a view per row on every call, about 1 µs for
        four rows."""
        v = np.array(self.vertices, dtype=np.float64)
        a = np.roll(v, 1, axis=0)
        ux = v[:, 0] - a[:, 0]
        uy = v[:, 1] - a[:, 1]
        return (a[:, 0].copy(), a[:, 1].copy(), v[:, 1].copy(), ux, uy,
                np.abs(ux) + np.abs(uy))

    @cached_property
    def spoke_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex i, the spoke ``V[i] - V[0]`` as the float64 columns
        ``sx, sy``, built on first use; see ``_fan_wedge``."""
        v = np.array(self.vertices, dtype=np.float64)
        return v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]

    @cached_property
    def kernel_disk(self) -> tuple[float, float, float]:
        """``(ox, oy, r2)``: the vertex centroid and the squared smallest
        distance from it to the chord lines, measured toward their inner
        side, built on first use. A point strictly inside this disk lies on
        the inner side of every chord, so up to rounding no edge admits it.
        ``r2`` is -1, an empty disk, when the centroid is not strictly on
        the inner side of every chord; that always holds for a triangle,
        whose chords collapse to a vertex, for a square, whose chords are
        its edges reversed, and for a pentagon.
        """
        o = self.centroid()
        if self.n == 3:
            return o.x, o.y, -1.0
        cx, cy, ux, uy = self.chord_columns
        r = float(((ux * (o.y - cy) - uy * (o.x - cx))
                   / np.hypot(ux, uy)).min())
        return o.x, o.y, r * r if r > 0.0 else -1.0

    def centroid(self) -> Point:
        xs = sum(v.x for v in self.vertices)
        ys = sum(v.y for v in self.vertices)
        return Point(xs / self.n, ys / self.n)


@dataclass(frozen=True)
class Quad:
    """Four consecutive ring vertices (c, a, b, d) around the edge (a, b).

    ``c`` and ``d`` are the outer endpoints of the two edges adjacent to
    (a, b). For a triangle the ring wraps onto itself, c == d, and
    ``degenerate`` is set: the closing side collapses to the single point c.
    """

    c: Point
    a: Point
    b: Point
    d: Point
    degenerate: bool


class BoundingBox(NamedTuple):
    min: Point
    max: Point


def validate_convex(raw: Sequence[Point] | Iterable[Sequence[float]]
                    ) -> ConvexPolygon:
    """Validate a vertex list and return a normalized polygon.

    Clockwise input is reversed to counter-clockwise. Raises
    TooFewVerticesError, DuplicateVertexError, NotConvexError or
    NotSimpleError when the ring cannot be normalized, and PolygonError
    when an entry is not two numbers or the ring's cross products overflow.
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
        except (TypeError, ValueError):
            raise PolygonError(
                f"vertex {k} must be two numbers [x, y], got {v!r}") from None
    _require_finite(*chain.from_iterable(verts))
    n = len(verts)
    if n < 3:
        raise TooFewVerticesError(f"need at least 3 vertices, got {n}")

    # Signed area decides the winding; flip CW rings to CCW.
    area2 = 0.0
    for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
        if math.hypot(b.x - a.x, b.y - a.y) <= EPS:
            raise DuplicateVertexError(
                f"vertices {i} and {(i + 1) % n} coincide at {a}")
        area2 += a.x * b.y - b.x * a.y
    if area2 < 0.0:
        verts.reverse()

    # All turns are strictly left; the ring is simple iff it winds exactly
    # once (a star polygon turns left everywhere but winds more than once).
    # A product of coordinates above about 1e154 overflows to inf or NaN,
    # which passes a plain ``<= EPS`` or ``> 1e-6`` test.
    turning = 0.0
    a, b = verts[-1], verts[0]
    for i, c in enumerate(verts[1:] + verts[:1]):
        d = _cross(a.x, a.y, b.x, b.y, c.x, c.y)
        if d <= EPS:
            kind = "collinear" if abs(d) <= EPS else "clockwise"
            raise NotConvexError(
                f"consecutive triple around vertex {i} is {kind}; "
                "strict convexity requires a counter-clockwise turn")
        if not math.isfinite(d):
            raise PolygonError(
                f"cross product around vertex {i} overflows: {d}")
        ux, uy = b.x - a.x, b.y - a.y
        wx, wy = c.x - b.x, c.y - b.y
        turning += math.atan2(ux * wy - uy * wx, ux * wx + uy * wy)
        a, b = b, c
    if not abs(turning - 2.0 * math.pi) <= 1e-6:  # a NaN sum fails too
        raise NotSimpleError(
            f"ring winds {turning / (2.0 * math.pi):.3f} times; "
            "a simple convex polygon winds exactly once")

    return ConvexPolygon(tuple(verts))


def adjacent_quad(poly: ConvexPolygon, i: int) -> Quad:
    """Quad around edge ``i``: a = V_i, b = V_{i+1}, c = V_{i-1},
    d = V_{i+2}, indices mod N. ``degenerate`` is set iff N == 3."""
    n = poly.n
    if not 0 <= i < n:
        raise IndexError(f"edge index {i} out of range for {n}-gon")
    v = poly.vertices
    return Quad(
        c=v[i - 1],
        a=v[i],
        b=v[(i + 1) % n],
        d=v[(i + 2) % n],
        degenerate=(n == 3),
    )


_MAX_GENERATOR_ATTEMPTS = 64


def random_convex(n: int, seed: int, radius: float = 1.0) -> ConvexPolygon:
    """Deterministic random strictly convex n-gon.

    Vertices sit on a circle of the given radius at sorted random angles with
    mild radial jitter. Angle gaps are drawn in [0.7, 1.3] of the mean gap so
    consecutive triples keep a healthy margin above the collinearity
    tolerance even for thousands of vertices; the jitter amplitude is capped
    both at 5% and at what the local gaps can absorb without creating a
    reflex vertex. The result is re-validated and resampled on failure;
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

        xs = radii * np.cos(angles)
        ys = radii * np.sin(angles)
        try:
            return validate_convex(
                [Point(float(x), float(y)) for x, y in zip(xs, ys)])
        except PolygonError:
            continue
    raise GenerationError(
        f"could not generate a valid convex polygon for n={n}, "
        f"radius={radius} after {_MAX_GENERATOR_ATTEMPTS} attempts")


def bounding_box(poly: ConvexPolygon) -> BoundingBox:
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    return BoundingBox(Point(min(xs), min(ys)), Point(max(xs), max(ys)))


def oracle_classify(poly: ConvexPolygon, p: Point,
                    eps: float = EPS) -> Classification:
    """Ground-truth classification by the all-half-planes convexity test.

    INSIDE iff the point is strictly left of every directed edge;
    ON_BOUNDARY iff it is collinear with some edge and within that closed
    segment while never strictly right; OUTSIDE otherwise. With ``eps=0``
    and inputs whose signs are exactly representable this is exact.

    From ``_VECTOR_MIN`` vertices on, the cross product of every edge
    V[k-1]->V[k] is computed at once over ``ConvexPolygon.ring_columns``,
    in the same float64 operations as the scalar loop below. The oracle
    shares only those edge vectors with ``_boundary_scan``, not its
    predicate. The edge order cannot change the verdict: any edge strictly
    right gives OUTSIDE, and otherwise a point on some edge beats a point on
    an edge's line beyond the segment, which beats INSIDE.
    """
    verts = poly.vertices
    px, py = p
    _require_finite(px, py)
    tol = max(eps, EPS)
    if len(verts) >= _VECTOR_MIN:
        ax, ay, _, ux, uy, _ = poly.ring_columns
        cr = ux * (py - ay) - uy * (px - ax)
        if np.count_nonzero(cr < -eps):
            return Classification.OUTSIDE
        near = (cr <= eps).nonzero()[0].tolist()
        for k in near:
            (x0, y0), (x1, y1) = verts[k - 1], verts[k]
            if _on_segment_coords(px, py, x0, y0, x1, y1, tol):
                return Classification.ON_BOUNDARY
        return Classification.OUTSIDE if near else Classification.INSIDE
    on_edge = False
    off_line = False
    ax, ay = verts[-1]
    for bx, by in verts:
        cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cr < -eps:
            return Classification.OUTSIDE
        if cr <= eps:
            if _on_segment_coords(px, py, ax, ay, bx, by, tol):
                on_edge = True
            else:
                off_line = True
        ax, ay = bx, by
    if on_edge:
        return Classification.ON_BOUNDARY
    if off_line:
        return Classification.OUTSIDE
    return Classification.INSIDE


def _admission_mask(poly: ConvexPolygon, px: float, py: float,
                    eps: float) -> np.ndarray:
    """Per edge, whether it admits ``(px, py)``: the chord-side test of
    ``ConvexPolygon.chords`` over all edges at once. numpy evaluates the
    same float64 operations one at a time, without fusing them, so entry i
    equals the scalar test of edge i bit for bit. Meaningless for a
    triangle, whose chords collapse to the apex."""
    cx, cy, ux, uy = poly.chord_columns
    return ux * (py - cy) - uy * (px - cx) < -eps


def _triangle_admits(verts: tuple[Point, ...], i: int, px: float, py: float,
                     eps: float) -> bool:
    """Whether edge i of the triangle ``verts`` admits ``(px, py)``. Its
    chord collapses to the opposite vertex c, so the perpendicular from p to
    the edge's supporting line must not run through c; when p already sits
    on that line, the perpendicular is p itself."""
    cx, cy = verts[i - 1]
    fx, fy = perpendicular_foot(Point(px, py), verts[i], verts[(i + 1) % 3])
    if math.hypot(px - fx, py - fy) <= eps:
        return math.hypot(cx - px, cy - py) > eps
    return not _on_segment_coords(cx, cy, px, py, fx, fy, eps)


def _boundary_scan(poly: ConvexPolygon, px: float, py: float,
                   eps: float) -> int:
    """``_ring_scan(poly.vertices, px, py, eps)``, the same value, over
    ``ConvexPolygon.ring_columns`` once the polygon has ``_VECTOR_MIN``
    vertices. The eps candidates come from the same cross product over all
    edges at once and are confirmed in ring order by the scalar distance,
    so the first near edge is the same one. The ray then meets only the
    edges that straddle ``py``; each crossing is the scalar expression in
    the same float64 operations, and no horizontal edge straddles, so
    nothing divides by zero."""
    verts = poly.vertices
    if len(verts) < _VECTOR_MIN:
        return _ring_scan(verts, px, py, eps)
    ax, ay, by, ux, uy, tol = poly.ring_columns
    near = abs(ux * (py - ay) - uy * (px - ax)) <= eps * tol
    for k in near.nonzero()[0].tolist():
        (x0, y0), (x1, y1) = verts[k - 1], verts[k]
        if _dist_point_segment(px, py, x0, y0, x1, y1) <= eps:
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
    ``_VECTOR_MIN`` vertices on."""
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


def sigma(poly: ConvexPolygon, p: Point, eps: float = EPS) -> int:
    """Number of edges whose perpendicular passes the legality test for
    ``p``, counted by exhaustive scan over all N edges with the admission
    test of ``classify_improved``: ``_admission_mask``, or for a triangle
    ``_triangle_admits``."""
    px, py = p
    if poly.n == 3:
        return sum(_triangle_admits(poly.vertices, i, px, py, eps)
                   for i in range(3))
    return int(np.count_nonzero(_admission_mask(poly, px, py, eps)))


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
