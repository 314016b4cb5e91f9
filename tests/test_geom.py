"""Unit and property tests for the planar primitives."""

import math

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from convexpoint.geom import GeometryError, Point

from bandgeom import (
    DegenerateEdgeError,
    DirLine,
    InvalidReferenceError,
    Orientation,
    Segment,
    band_contains,
    line_intersection,
    orientation,
    perpendicular_foot,
    point_on_segment,
    segments_intersect,
    side_of_line,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestOrientation:
    def test_left_turn(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) \
            is Orientation.COUNTERCLOCKWISE

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) \
            is Orientation.COLLINEAR

    def test_right_turn(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 1)) \
            is Orientation.CLOCKWISE

    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        o1 = orientation(a, b, c)
        o2 = orientation(a, c, b)
        if o1 is Orientation.COLLINEAR:
            assert o2 is Orientation.COLLINEAR
        else:
            flipped = {Orientation.COUNTERCLOCKWISE: Orientation.CLOCKWISE,
                       Orientation.CLOCKWISE: Orientation.COUNTERCLOCKWISE}
            assert o2 is flipped[o1]


class TestLineIntersection:
    def test_diagonal_meets_horizontal(self):
        # independent oracle: solve the 2x2 system for
        # base1 + t*dir1 == base2 + s*dir2 by Cramer's rule
        l1 = DirLine(Point(0, 0), 1, 1)
        l2 = DirLine(Point(0, 1), 1, 0)
        det = l1.dx * (-l2.dy) - l1.dy * (-l2.dx)
        rx, ry = l2.base.x - l1.base.x, l2.base.y - l1.base.y
        t = (rx * (-l2.dy) - ry * (-l2.dx)) / det
        expected = Point(l1.base.x + t * l1.dx, l1.base.y + t * l1.dy)
        assert expected == Point(1, 1)
        got = line_intersection(l1, l2)
        assert got is not None
        assert math.isclose(got.x, 1) and math.isclose(got.y, 1)

    def test_axes_cross_at_origin(self):
        got = line_intersection(DirLine(Point(0, 0), 1, 0),
                                DirLine(Point(0, 0), 0, 1))
        assert got is not None
        assert got == Point(0, 0)

    def test_parallel_returns_none(self):
        assert line_intersection(DirLine(Point(0, 0), 1, 1),
                                 DirLine(Point(0, 1), 2, 2)) is None

    def test_matches_closed_form_on_random_lines(self):
        # closed form for the intersection x of two point-direction lines:
        # x = (u1*u2*(yg - ym) - v1*u2*xg + v2*u1*xm) / (v2*u1 - v1*u2)
        import random
        rnd = random.Random(1234)
        checked = 0
        while checked < 2000:
            xg, yg, xm, ym = (rnd.uniform(-100, 100) for _ in range(4))
            u1, v1, u2, v2 = (rnd.uniform(-10, 10) for _ in range(4))
            denom = v2 * u1 - v1 * u2
            if abs(denom) < 1e-3:
                continue
            x_closed = (u1 * u2 * (yg - ym) - v1 * u2 * xg
                        + v2 * u1 * xm) / denom
            got = line_intersection(DirLine(Point(xg, yg), u1, v1),
                                    DirLine(Point(xm, ym), u2, v2))
            assert got is not None
            assert math.isclose(got.x, x_closed, rel_tol=1e-9, abs_tol=1e-9)
            checked += 1

    def test_rejects_zero_direction(self):
        with pytest.raises(GeometryError):
            DirLine(Point(0, 0), 0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            DirLine(Point(float("nan"), 0), 1, 0)


class TestPerpendicularFoot:
    def test_projects_onto_x_axis(self):
        assert perpendicular_foot(Point(0, 1), Point(-1, 0), Point(1, 0)) \
            == Point(0, 0)

    def test_foot_beyond_segment_stays_on_supporting_line(self):
        assert perpendicular_foot(Point(5, 5), Point(0, 0), Point(1, 0)) \
            == Point(5, 0)

    def test_point_already_on_line(self):
        got = perpendicular_foot(Point(0.3, 0), Point(0, 0), Point(1, 0))
        assert math.isclose(got.x, 0.3) and got.y == 0

    def test_degenerate_edge_raises(self):
        with pytest.raises(DegenerateEdgeError):
            perpendicular_foot(Point(0, 1), Point(2, 2), Point(2, 2))

    @given(points, points, points)
    def test_idempotent(self, p, a, b):
        assume(math.hypot(b.x - a.x, b.y - a.y) > 1e-6)
        g1 = perpendicular_foot(p, a, b)
        g2 = perpendicular_foot(g1, a, b)
        scale = max(1.0, abs(g1.x), abs(g1.y))
        assert math.hypot(g2.x - g1.x, g2.y - g1.y) <= 1e-7 * scale


class TestSegments:
    def test_crossing_diagonals(self):
        s1 = Segment(Point(0, 0), Point(2, 2))
        s2 = Segment(Point(0, 2), Point(2, 0))
        assert segments_intersect(s1, s2)

    def test_disjoint_parallels(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(0, 1), Point(1, 1))
        assert not segments_intersect(s1, s2)

    def test_endpoint_touch_counts(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(1, 0), Point(2, 1))
        assert segments_intersect(s1, s2)

    def test_collinear_overlap_counts(self):
        s1 = Segment(Point(0, 0), Point(2, 0))
        s2 = Segment(Point(1, 0), Point(3, 0))
        assert segments_intersect(s1, s2)

    def test_zero_length_intersects_iff_on_other(self):
        z = Segment.zero_length(Point(0.5, 0))
        assert z.is_zero_length
        assert segments_intersect(z, Segment(Point(0, 0), Point(1, 0)))
        assert not segments_intersect(z, Segment(Point(0, 1), Point(1, 1)))

    def test_standard_constructor_rejects_degenerate(self):
        with pytest.raises(DegenerateEdgeError):
            Segment(Point(1, 1), Point(1, 1))

    @given(points, points, points, points)
    @settings(max_examples=300)
    def test_symmetric(self, a, b, c, d):
        assume(a != b and c != d)
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)


class TestPointOnSegment:
    def test_midpoint(self):
        assert point_on_segment(Point(0.5, 0), Segment(Point(0, 0), Point(1, 0)))

    def test_endpoint(self):
        assert point_on_segment(Point(1, 0), Segment(Point(0, 0), Point(1, 0)))

    def test_beyond_endpoint_on_supporting_line(self):
        assert not point_on_segment(Point(2, 0),
                                    Segment(Point(0, 0), Point(1, 0)))


class TestSideOfLine:
    x_axis = DirLine(Point(0, 0), 1, 0)

    def test_above(self):
        assert side_of_line(Point(0, 1), self.x_axis) \
            is Orientation.COUNTERCLOCKWISE

    def test_below(self):
        assert side_of_line(Point(0, -1), self.x_axis) is Orientation.CLOCKWISE

    def test_on_line(self):
        assert side_of_line(Point(3, 0), self.x_axis) is Orientation.COLLINEAR


class TestBandContains:
    l1 = DirLine(Point(0, 0), 1, 0)   # x axis
    l2 = DirLine(Point(0, 0), 0, 1)   # y axis
    ref1 = Point(0, 1)
    ref2 = Point(1, 0)

    def test_first_quadrant(self):
        assert band_contains(Point(1, 1), self.l1, self.l2,
                             self.ref1, self.ref2)

    def test_wrong_side(self):
        assert not band_contains(Point(-1, 1), self.l1, self.l2,
                                 self.ref1, self.ref2)

    def test_closed_boundary_included(self):
        assert band_contains(Point(0, 0.5), self.l1, self.l2,
                             self.ref1, self.ref2)

    def test_reference_on_line_rejected(self):
        with pytest.raises(InvalidReferenceError):
            band_contains(Point(1, 1), self.l1, self.l2,
                          Point(2, 0), self.ref2)

    def test_perpendicular_drop_stays_in_band(self):
        # a quick version of the band theorem: the segment from a point M of
        # one line to its perpendicular foot G on the other stays inside the
        # closed region the two lines bound on its side
        import random
        rnd = random.Random(99)
        done = 0
        while done < 500:
            l1 = DirLine(Point(rnd.uniform(-10, 10), rnd.uniform(-10, 10)),
                         rnd.uniform(-5, 5), rnd.uniform(-5, 5) or 1.0)
            l2 = DirLine(Point(rnd.uniform(-10, 10), rnd.uniform(-10, 10)),
                         rnd.uniform(-5, 5), rnd.uniform(-5, 5) or 1.0)
            if abs(l1.dx * l2.dy - l1.dy * l2.dx) < 1e-3:
                continue
            u = rnd.uniform(-5, 5)
            m = Point(l2.base.x + u * l2.dx, l2.base.y + u * l2.dy)
            g = perpendicular_foot(m, l1.base,
                                   Point(l1.base.x + l1.dx, l1.base.y + l1.dy))
            if math.hypot(m.x - g.x, m.y - g.y) < 1e-6:
                continue
            mid = Point((m.x + g.x) / 2, (m.y + g.y) / 2)
            if (side_of_line(mid, l1) is Orientation.COLLINEAR
                    or side_of_line(mid, l2) is Orientation.COLLINEAR):
                continue
            for j in range(20):
                t = j / 19
                s = Point(g.x + t * (m.x - g.x), g.y + t * (m.y - g.y))
                assert band_contains(s, l1, l2, mid, mid)
            done += 1
