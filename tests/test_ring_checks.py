"""The array ring checks of ``validate_convex`` and ``random_convex``
against the per-vertex loops they replaced (``bandgeom``), and exact
transforms of a ring that must not change the verdict."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexpoint.geom import GeometryError, Point
from convexpoint.polygon import (
    DuplicateVertexError,
    NotConvexError,
    NotSimpleError,
    PolygonError,
    TooFewVerticesError,
    random_convex,
    validate_convex,
)

from bandgeom import scalar_random_convex, scalar_validate_convex


def outcome(build, *args):
    """``("ok", vertices)`` or ``(exception class, message)``; vertices
    must be ``Point``s of Python floats, not numpy scalars."""
    try:
        poly = build(*args)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)
    for v in poly.vertices:
        assert type(v) is Point
        assert type(v.x) is float and type(v.y) is float
    return "ok", poly.vertices


def star(n, step, radius=1.0):
    """The regular star polygon {n/step}: every turn is left, and the ring
    winds ``step`` times."""
    return [(radius * math.cos(2 * math.pi * step * k / n),
             radius * math.sin(2 * math.pi * step * k / n))
            for k in range(n)]


# every class of outcome, in the order the checks run
RINGS = {
    "not a list": 5,
    "entry not two numbers": [(0, 0), (1, 0, 2), (0, 1)],
    "nan": [(0, 0), (1, math.nan), (0, 1)],
    "inf after huge": [(1e200, 0), (0, -math.inf), (1, 1)],
    "inf in a short ring": [(math.inf, 0), (1, 1)],
    "empty": [],
    "two vertices": [(0, 0), (1, 0)],
    "above the coordinate bound": [(0, 0), (2e152, 0), (0, 1)],
    "at the coordinate bound": [(0, 0), (1e152, 0), (1e152, 1e152),
                                (-1e152, 1)],
    "duplicate": [(0, 0), (0, 0), (1, 0), (1, 1)],
    "duplicate within eps": [(0, 0), (1, 0), (1 + 5e-10, 5e-10), (0, 1)],
    "duplicate across the wrap": [(0, 0), (1, 0), (1, 1), (1e-10, 0)],
    "ccw square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "cw square": [(0, 0), (0, 1), (1, 1), (1, 0)],
    "cw hexagon": star(6, 1)[::-1],
    "collinear": [(0, 0), (1, 0), (2, 0), (1, 1)],
    "collinear within eps": [(0, 0), (1, 0), (2, 1e-10), (1, 1)],
    "reflex": [(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)],
    "reflex cw": [(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)][::-1],
    "bow tie": [(0, 0), (1, 1), (1, 0), (0, 1)],
    "pentagram": star(5, 2),
    "heptagram {7/2}": star(7, 2),
    "heptagram {7/3}": star(7, 3),
    "{9/4} at 1e6": star(9, 4, 1e6),
    "huge triangle": [(0, 0), (1e152, 0), (0, 1e152)],
    "tiny triangle": [(0, 0), (1e-4, 0), (0, 1e-4)],
    "integer beyond a float": [(10**400, 0), (1, 0), (0, 1)],
    "small ccw square far out": [(1e6, 1e6), (1e6 + 1.4e-3, 1e6),
                                 (1e6 + 1.4e-3, 1e6 + 1.4e-3),
                                 (1e6, 1e6 + 1.4e-3)],
}


class TestMatchesScalarLoops:
    @pytest.mark.parametrize("name", list(RINGS))
    def test_named_ring(self, name):
        ring = RINGS[name]
        assert outcome(validate_convex, ring) \
            == outcome(scalar_validate_convex, ring)

    def test_named_rings_reach_every_outcome(self):
        kinds = {outcome(validate_convex, r)[0] for r in RINGS.values()}
        assert kinds == {"ok", PolygonError, GeometryError,
                         TooFewVerticesError, DuplicateVertexError,
                         NotConvexError, NotSimpleError}

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 40, 100, 1000, 2000])
    def test_random_convex(self, n):
        # below radius 1 many of these give up after every attempt; at
        # 1e152 some coordinates exceed the bound
        seeds = (1,) if n >= 1000 else (1, 2, 3)
        for radius in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e6, 1e50, 1e100, 1e150,
                       1e152):
            for seed in seeds:
                assert outcome(random_convex, n, seed, radius) \
                    == outcome(scalar_random_convex, n, seed, radius), \
                    (n, seed, radius)

    @pytest.mark.parametrize("n", [5, 40])
    def test_random_convex_reversed_and_scaled(self, n):
        for seed in range(5):
            ring = scalar_random_convex(n, seed, 10.0).vertices
            for scale in (1.0, 1e-9, 3e-10, 1e140):
                cw = [(x * scale, y * scale) for x, y in reversed(ring)]
                assert outcome(validate_convex, cw) \
                    == outcome(scalar_validate_convex, cw), (seed, scale)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=9),
           st.sampled_from([1.0, 1e-10, 1e-9, 2e-9, 1e-4, 1e6, 1e150]),
           st.sampled_from([None, math.nan, math.inf, -math.inf, 3e152]),
           st.integers(0, 17))
    def test_drawn_rings(self, cells, scale, special, where):
        ring = [[x * scale, y * scale] for x, y in cells]
        if special is not None and ring:
            ring[where // 2 % len(ring)][where % 2] = special
        assert outcome(validate_convex, ring) \
            == outcome(scalar_validate_convex, ring)


def rotate(ring):
    """The exact quarter turn (x, y) -> (-y, x)."""
    return [(-y, x) for x, y in ring]


def is_cyclic_shift(a, b):
    return len(a) == len(b) and any(a[k:] + a[:k] == b for k in range(len(a)))


class TestExactTransforms:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 2**32), st.integers(-2, 8),
           st.booleans(), st.integers(0, 59))
    def test_valid_ring(self, n, seed, exponent, clockwise, shift):
        ring = list(random_convex(n, seed, 10.0 ** exponent).vertices)
        if clockwise:
            ring.reverse()
        base = list(validate_convex(ring).vertices)
        k = shift % n
        relabelled = validate_convex(ring[k:] + ring[:k]).vertices
        assert is_cyclic_shift(base, list(relabelled))
        assert list(validate_convex(rotate(ring)).vertices) == rotate(base)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=8),
           st.integers(-40, 40), st.integers(0, 7))
    def test_invalid_ring(self, cells, exponent, shift):
        # power-of-two scales keep every product and sum of the checks
        # exact, so no transform can move a value across a threshold
        scale = 2.0 ** exponent
        ring = [(x * scale, y * scale) for x, y in cells]
        try:
            validate_convex(ring)
        except ValueError as exc:
            cls = type(exc)
        else:
            return
        k = shift % len(ring)
        for moved in (ring[k:] + ring[:k], rotate(ring)):
            with pytest.raises(cls) as info:
                validate_convex(moved)
            assert type(info.value) is cls

    @pytest.mark.parametrize("ring", [
        RINGS["small ccw square far out"],
        RINGS["small ccw square far out"][::-1]])
    def test_small_square_far_out_builds_under_every_relabelling(self, ring):
        # about the origin its shoelace sum cancels and can come out
        # negative, which reversed the CCW ring and then rejected it
        ccw = RINGS["small ccw square far out"]
        for k in range(len(ring)):
            got = validate_convex(ring[k:] + ring[:k]).vertices
            assert is_cyclic_shift([tuple(v) for v in got], ccw), k

    @pytest.mark.parametrize("name", [name for name in RINGS if name not in (
        "not a list", "entry not two numbers", "empty", "two vertices")])
    def test_named_rings(self, name):
        ring = RINGS[name]
        expected = outcome(validate_convex, ring)[0]
        for k in range(len(ring)):
            for moved in (ring[k:] + ring[:k], rotate(ring[k:] + ring[:k])):
                assert outcome(validate_convex, moved)[0] == expected, k
