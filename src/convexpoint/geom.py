"""Planar primitives the classifiers and the polygon module share: the
query-point gate, point-to-segment distance, on-segment tests and the
boundary-and-crossing ring scan. ``validate_convex``'s ring rules need no
scalar helper here: they are array expressions in ``polygon._ccw_ring``.

Everything here runs in plain double precision. ``EPS`` = 1e-9 is the one
absolute distance tolerance; only ``oracle_classify`` lets a caller set
another. ``_require_finite`` is the one gate for query points (see _FAR).

All functions are pure; the value types are immutable and safe to share
across threads.
"""
from __future__ import annotations

import math
from typing import NamedTuple

EPS = 1e-9
# ``validate_convex`` rejects polygon coordinates above _COORD_MAX in
# magnitude. A query coordinate up to _FAR = 2**512, about 1.3e154, then
# keeps every product of a query offset and an edge, chord or spoke vector
# below 3e306, so nothing overflows. A point beyond it lies outside every
# polygon and far from every edge, so each public gate answers or rejects it
# and no kernel computes with it.
_COORD_MAX = 1e152
_FAR = 2.0 ** 512


class GeometryError(ValueError):
    """Base class for invalid geometric constructions."""


class Point(NamedTuple):
    x: float
    y: float


def _require_finite(x: float, y: float) -> bool:
    """The query-point gate: raise GeometryError unless ``x`` and ``y`` are
    finite; return whether both are within ``_FAR`` in magnitude. ``abs(v)
    <= _FAR`` is false for NaN and +-inf too, so a point within the bound
    costs two comparisons."""
    if abs(x) <= _FAR and abs(y) <= _FAR:
        return True
    for v in (x, y):
        if not math.isfinite(v):
            raise GeometryError(f"coordinate is not finite: {v!r}")
    return False


def _dist_point_segment(px: float, py: float, ax: float, ay: float,
                        bx: float, by: float) -> float:
    ux = bx - ax
    uy = by - ay
    d2 = ux * ux + uy * uy
    if d2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ux + (py - ay) * uy) / d2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * ux), py - (ay + t * uy))


def _on_segment_coords(px: float, py: float, ax: float, ay: float,
                       bx: float, by: float, eps: float) -> bool:
    # Quick rejection: |cross| > eps * (|dx| + |dy|) implies the distance to
    # the supporting line alone already exceeds eps.
    cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if abs(cr) > eps * (abs(bx - ax) + abs(by - ay)):
        return False
    return _dist_point_segment(px, py, ax, ay, bx, by) <= eps


def _ring_scan(ring, px: float, py: float) -> int:
    """One pass over the closed vertex ``ring``: the even-odd crossing count
    of the rightward ray from (px, py), or ``-1 - k`` for the first ring edge
    k = (ring[k-1], ring[k]) that lies within ``EPS`` of the point.

    The ray counts an edge iff exactly one endpoint is strictly above it and
    the crossing lies strictly right of the point (half-open vertex rule).
    """
    eps = EPS  # the loop then reads a local, not a global
    crossings = 0
    ax, ay = ring[-1]
    for k, (bx, by) in enumerate(ring):
        ux = bx - ax
        uy = by - ay
        cr = ux * (py - ay) - uy * (px - ax)
        if abs(cr) <= eps * (abs(ux) + abs(uy)):
            if _dist_point_segment(px, py, ax, ay, bx, by) <= eps:
                return -1 - k
        if (ay > py) != (by > py):
            if ax + (py - ay) * ux / uy > px:
                crossings += 1
        ax, ay = bx, by
    return crossings
