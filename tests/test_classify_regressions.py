"""Minimized instances pinning down why edge admission tests the chord
side rather than segment intersection against the chord.

A tempting admission rule is "the perpendicular segment PG misses the
closing chord c-d". These fixtures show that rule is unsound: PG can miss
the chord *segment* sideways while the query point sits outside the quad's
half-plane, so the quad ray cast would answer OUTSIDE for a point that is
inside the polygon. The chord-side rule rejects exactly these edges, and
every admitted edge's quad verdict provably matches the polygon verdict.
"""

import math

from convexpoint.classify import (
    SeededShuffle,
    classify_improved,
    classify_quad,
)
from convexpoint.geom import Point
from convexpoint.polygon import (
    Classification,
    adjacent_quad,
    oracle_classify,
    validate_convex,
)

from bandgeom import (
    Segment,
    legality_test,
    perpendicular_foot,
    segments_intersect,
)
from orders import first_edge_seed

HEXAGON = validate_convex([(0, 0), (1, 0), (1.05, 0.1), (1.3, 0.9),
                           (1.2, 2.2), (-1, 3)])
P_INSIDE = Point(1.15, 0.5)


def _perp_segment(poly, i, p):
    q = adjacent_quad(poly, i)
    foot = perpendicular_foot(p, q.a, q.b)
    return q, Segment(p, foot)


class TestSidewaysMissHexagon:
    def test_point_is_inside(self):
        assert oracle_classify(HEXAGON, P_INSIDE) is Classification.INSIDE

    def test_perpendicular_misses_chord_segment(self):
        # the naive rule would admit edge 0 here
        q, pg = _perp_segment(HEXAGON, 0, P_INSIDE)
        assert not segments_intersect(pg, Segment(q.c, q.d))

    def test_quad_cannot_answer_for_the_polygon(self):
        q = adjacent_quad(HEXAGON, 0)
        assert classify_quad(q, P_INSIDE, HEXAGON.n) is Classification.OUTSIDE

    def test_admission_rejects_edge0(self):
        assert not legality_test(HEXAGON, 0, P_INSIDE)

    def test_classifier_still_correct_from_any_start(self):
        n = HEXAGON.n
        for k in range(n):
            verdict, _ = classify_improved(
                HEXAGON, P_INSIDE, SeededShuffle(first_edge_seed(k, n)))
            assert verdict is Classification.INSIDE


class TestSidewaysMissLargePolygon:
    """Same failure shape on a near-circular 100-gon: for an interior point
    halfway out toward angle 0, the perpendicular to a sideways (top) edge
    misses that edge's tiny chord segment entirely."""

    def setup_method(self):
        n = 100
        self.poly = validate_convex(
            [(100 * math.cos(2 * math.pi * k / n),
              100 * math.sin(2 * math.pi * k / n)) for k in range(n)])
        self.p = Point(50.0, 0.0)
        self.top_edge = 25

    def test_point_is_inside(self):
        assert oracle_classify(self.poly, self.p) is Classification.INSIDE

    def test_perpendicular_misses_chord_but_quad_disagrees(self):
        q, pg = _perp_segment(self.poly, self.top_edge, self.p)
        assert not segments_intersect(pg, Segment(q.c, q.d))
        assert classify_quad(q, self.p, self.poly.n) is Classification.OUTSIDE

    def test_admission_rejects_and_classifier_recovers(self):
        assert not legality_test(self.poly, self.top_edge, self.p)
        seed = first_edge_seed(self.top_edge, self.poly.n)
        verdict, _ = classify_improved(self.poly, self.p, SeededShuffle(seed))
        assert verdict is Classification.INSIDE
