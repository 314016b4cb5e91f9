"""Tests for the three classifiers: unit examples from hand-checked
geometry, policy invariance, reduction soundness, and counter contracts."""

import dataclasses
import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexpoint.classify as classify_module
import convexpoint.polygon as polygon_module
from convexpoint.classify import (
    _LAZY_DRAWS,
    _MASK64,
    DEFAULT_SEED,
    SeededShuffle,
    TrialStats,
    classify_fan_triangulation,
    classify_improved,
    classify_quad,
    classify_raycast,
    edge_order,
)
from convexpoint.geom import (
    _FAR,
    EPS,
    GeometryError,
    Point,
)
from convexpoint.polygon import (
    Classification,
    ConvexPolygon,
    PolygonError,
    _boundary_scan,
    adjacent_quad,
    bounding_box,
    oracle_classify,
    random_convex,
    sigma,
    validate_convex,
)

from bandgeom import legality_test, perpendicular_foot
from orders import first_edge_seed

SQUARE = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = validate_convex([(0, 0), (1, 0), (0, 1)])


def regular_ngon(n, radius=1.0):
    return validate_convex([
        (radius * math.cos(2 * math.pi * k / n),
         radius * math.sin(2 * math.pi * k / n)) for k in range(n)])


def off_midpoint(a, b, off):
    # the point ``off`` along the outward normal from the midpoint of the
    # counter-clockwise edge a -> b
    length = math.hypot(b.x - a.x, b.y - a.y)
    return Point((a.x + b.x) / 2 + off * (b.y - a.y) / length,
                 (a.y + b.y) / 2 - off * (b.x - a.x) / length)


def lattice_probe_points(poly, rng, count, clear_of_edges=False):
    box = bounding_box(poly)
    lo_x, hi_x = math.floor(box.min.x) - 1, math.ceil(box.max.x) + 1
    lo_y, hi_y = math.floor(box.min.y) - 1, math.ceil(box.max.y) + 1
    xs = rng.integers(lo_x, hi_x + 1, count)
    ys = rng.integers(lo_y, hi_y + 1, count)
    pts = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    if clear_of_edges:
        pts = [p for p in pts if _boundary_scan(poly, *p) >= 0]
    return pts


class TestEdgeOrder:
    def test_shuffle_is_permutation_and_deterministic(self):
        a = edge_order(SeededShuffle(7), 40)
        assert sorted(a) == list(range(40))
        assert a == edge_order(SeededShuffle(7), 40)
        assert a != edge_order(SeededShuffle(8), 40)

    @pytest.mark.parametrize("n", [3, _LAZY_DRAWS - 1, _LAZY_DRAWS,
                                   _LAZY_DRAWS + 1, 2000])
    def test_seeded_order_is_deterministic_permutation(self, n):
        # below, at and just past the lazy draws, and deep into the bulk part
        for seed in (0, 1, 2**63 - 1):
            a = edge_order(SeededShuffle(seed), n)
            assert sorted(a) == list(range(n))
            assert a == edge_order(SeededShuffle(seed), n)

    def test_seeded_order_uniform_over_all_orders_of_four(self):
        counts = {}
        for seed in range(24_000):
            key = tuple(edge_order(SeededShuffle(seed), 4))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        chi2 = sum((c - 1000) ** 2 / 1000 for c in counts.values())
        assert chi2 < 49.73  # 0.999 quantile, 23 degrees of freedom

    def test_seeded_order_uniform_first_lazy_and_first_bulk_position(self):
        # position 0 comes from the lazy draws, position _LAZY_DRAWS from
        # the uniform keys
        n, runs = 40, 20_000
        for pos in (0, _LAZY_DRAWS):
            counts = [0] * n
            for seed in range(runs):
                counts[edge_order(SeededShuffle(seed), n)[pos]] += 1
            expected = runs / n
            chi2 = sum((c - expected) ** 2 / expected for c in counts)
            assert chi2 < 72.05, pos  # 0.999 quantile, 39 degrees of freedom

    # edge_order(SeededShuffle(seed), n)[:_LAZY_DRAWS] as the lazy
    # Fisher-Yates draws have produced them since they were introduced
    PINNED_PREFIXES = {
        (0, 17): [4, 0, 9, 13, 3, 10, 6, 12, 16, 15, 8, 7, 5, 14, 2, 11],
        (0, 2000): [577, 406, 954, 1439, 1416, 949, 128, 1030, 1814, 1556,
                    1847, 510, 1996, 928, 1059, 1417],
        (1, 17): [10, 8, 3, 4, 11, 16, 5, 7, 15, 1, 13, 14, 2, 12, 0, 6],
        (1, 2000): [1201, 994, 210, 183, 1166, 1904, 1825, 159, 1659, 1573,
                    1011, 1150, 1176, 708, 613, 1650],
        (2**63 - 1, 17): [13, 8, 1, 14, 12, 2, 10, 11, 6, 3, 0, 9, 7, 15, 4,
                          16],
        (2**63 - 1, 2000): [1617, 948, 814, 1672, 1264, 532, 818, 811, 526,
                            1275, 872, 1150, 1043, 1445, 74, 1478],
    }

    @pytest.mark.parametrize("seed, n", sorted(PINNED_PREFIXES))
    def test_seeded_prefix_stream_is_pinned(self, seed, n):
        order = edge_order(SeededShuffle(seed), n)
        assert order[:_LAZY_DRAWS] == self.PINNED_PREFIXES[seed, n]


class TestSeededShuffle:
    SEEDS = (0, 1, -1, -(2**63), 2**63 - 1, 2**64, 2**64 + 5, 2**100 + 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_is_the_mixed_seed(self, seed):
        mix = classify_module._mix64
        policy = SeededShuffle(seed)
        assert "pcg_state" not in policy.__dict__
        assert policy.state == mix(seed & _MASK64)
        assert policy.pcg_state == (policy.state << 64) | mix(policy.state)
        assert 0 <= policy.pcg_state < 2**128

    def test_value_semantics_see_only_the_seed(self):
        # 5 and 2**64 + 5 mix to the same states, yet differ as values
        a, b, c = SeededShuffle(5), SeededShuffle(5), SeededShuffle(2**64 + 5)
        assert (a.state, a.pcg_state) == (c.state, c.pcg_state)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert repr(a) == "SeededShuffle(seed=5)"
        for name in ("state", "pcg_state"):
            object.__setattr__(b, name, 0)
            assert a == b and hash(a) == hash(b)
            assert repr(b) == "SeededShuffle(seed=5)"
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replace_and_pickle_carry_the_right_state(self, seed):
        want = SeededShuffle(seed)
        policy = dataclasses.replace(SeededShuffle(7), seed=seed)
        back = pickle.loads(pickle.dumps(want))
        assert back == want
        for got in (policy, back):
            assert (got.state, got.pcg_state) == (want.state, want.pcg_state)

    @pytest.mark.parametrize("seed", [1.0, 2.5, "3", None, (1,)])
    def test_non_integer_seed_rejected_at_construction(self, seed):
        with pytest.raises(TypeError):
            SeededShuffle(seed)

    def test_default_policy_is_the_default_seed(self):
        # past the lazy draws too: 2 EPS either side of an edge midpoint of
        # a 2000-gon few edges admit
        for n, seed in [(3, 40), (12, 41), (100, 42), (2000, 43)]:
            poly = random_convex(n, seed, radius=10)
            v = poly.vertices
            rng = np.random.default_rng(seed)
            points = lattice_probe_points(poly, rng, 20)
            for k in rng.integers(0, n, 4).tolist():
                points += [off_midpoint(v[k], v[(k + 1) % n], off)
                           for off in (2 * EPS, -2 * EPS)]
            policy = SeededShuffle(DEFAULT_SEED)
            for p in points:
                assert classify_improved(poly, p) == classify_improved(
                    poly, p, policy)


class TestLegality:
    def test_point_inside_near_bottom_edge(self):
        assert legality_test(SQUARE, 0, Point(0.5, 0.25))

    def test_point_on_edge_zero_length(self):
        assert legality_test(SQUARE, 0, Point(0.5, 0.0))

    def test_point_beyond_far_chord_rejected(self):
        # the perpendicular from (0.5, 2) to the bottom edge's line runs
        # through the connecting segment (0,1)-(1,1), so edge 0 cannot
        # answer for this point
        assert not legality_test(SQUARE, 0, Point(0.5, 2.0))

    def test_edge_index_out_of_range(self):
        for poly in (TRIANGLE, SQUARE):
            for i in (-1, poly.n):
                with pytest.raises(IndexError):
                    legality_test(poly, i, Point(0.25, 0.25))

    def test_triangle_perpendicular_through_apex_rejected(self):
        # the base's row is its parallel at twice the apex's height, y = 2,
        # and (1, 5) lies beyond it
        tri = validate_convex([(0, 0), (2, 0), (1, 1)])
        assert not legality_test(tri, 0, Point(1.0, 5.0))
        assert legality_test(tri, 0, Point(1.0, 0.5))


class TestTriangleConvention:
    # A triangle's chord row is edge i's parallel at twice the apex's
    # height, so every edge admits every point of the closed triangle and
    # some edge admits any point: no triangle query exhausts, and the
    # verdict is the triangle's own ring scan. The two thin triangles hold
    # their centroid within EPS of the base; the parallel through the apex
    # itself admits it by no edge there.
    THIN = (((0.0, 0.0), (1.0, 0.0), (0.5, 1.00005e-9)),
            ((0.0, 0.0), (1.0, 0.0), (0.5, 1.5e-9)))

    @staticmethod
    def _probes(tri):
        # the vertices, the centroid, and per edge a -> b with apex c: the
        # midpoint, +-0.5 and +-2 EPS off it, the altitude ray beyond c,
        # and the edge's parallels at once and twice c's height
        v = tri.vertices
        pts = list(v) + [tri.centroid()]
        for i in range(3):
            a, b, c = v[i], v[(i + 1) % 3], v[i - 1]
            pts += [off_midpoint(a, b, f * EPS)
                    for f in (0.0, 0.5, -0.5, 2.0, -2.0)]
            foot = perpendicular_foot(c, a, b)
            hx, hy = c.x - foot.x, c.y - foot.y
            pts += [Point(foot.x + t * hx, foot.y + t * hy)
                    for t in (1.5, 2.0, 3.0, 10.0)]
            pts += [Point(a.x + s * (b.x - a.x) + k * hx,
                          a.y + s * (b.y - a.y) + k * hy)
                    for k in (1.0, 2.0) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        return pts

    @staticmethod
    def _closed(tri, p):
        # exactly, whether p is on the left of or on every edge
        v = [(Fraction(x), Fraction(y)) for x, y in tri.vertices]
        px, py = Fraction(p.x), Fraction(p.y)
        return all((bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
                   for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]))

    def _violations(self, tri):
        # every probe at which ``tri`` breaks the convention
        bad = []
        for k, p in enumerate(self._probes(tri)):
            sig = sigma(tri, p)
            if sig < 1 or (self._closed(tri, p) and sig != 3):
                bad.append((p, "sigma", sig))
            truth = classify_raycast(tri, p)[0]
            # a probe's own seed, and one seed per first edge
            for policy in [SeededShuffle(k)] + [
                    SeededShuffle(first_edge_seed(e, 3)) for e in range(3)]:
                verdict, stats = classify_improved(tri, p, policy)
                if verdict is not truth or stats.exhausted_all or (
                        edge_order(policy, 3)[stats.edges_tried - 1]
                        != stats.legal_edge):
                    bad.append((p, policy, verdict, stats))
        return bad

    def test_every_probe(self):
        tris = [random_convex(3, seed, radius)
                for radius in (1e-2, 1.0, 1e4) for seed in range(8)]
        tris += [validate_convex(t) for t in self.THIN]
        for tri in tris:
            assert self._violations(tri) == [], tri.vertices

    def test_the_apex_parallel_row_fails_on_the_thin_triangles(self):
        for verts in self.THIN:
            tri = validate_convex(verts)
            v = tri.vertices
            rows = tuple((c.x, c.y, b.x - a.x, b.y - a.y)
                         for c, a, b in zip(v[-1:] + v[:-1], v, v[1:] + v[:1]))
            apex = ConvexPolygon(v)
            apex.__dict__["chords"] = rows
            apex.__dict__["chord_columns"] = tuple(np.array(rows).T.copy())
            o = tri.centroid()
            assert sigma(apex, o) == 0
            assert classify_improved(apex, o)[0] is Classification.INSIDE
            assert classify_raycast(tri, o)[0] is Classification.ON_BOUNDARY
            assert self._violations(apex) != []


class TestTriangleRule:
    # One triangle, base (0,0)-(2,0) and apex (1,1), on its edges, on an
    # edge's line, at its apex and beyond twice the base's apex height: per
    # point, legality_test of edges 0, 1, 2, then sigma, the verdict, and
    # classify_improved's TrialStats under SeededShuffle(1729),
    # SeededShuffle(5) and the least seeds whose orders start at edges 0
    # and 2 (the orders 0, 1, 2 and 2, 0, 1).
    TRI = validate_convex([(0, 0), (2, 0), (1, 1)])
    POLICIES = (SeededShuffle(1729), SeededShuffle(5),
                SeededShuffle(first_edge_seed(0, 3)),
                SeededShuffle(first_edge_seed(2, 3)))
    CASES = {
        # on the base: a zero-length perpendicular for edge 0
        "on_edge": ((1.0, 0.0), (True, True, True), 3, "boundary",
                    ((1, 4, 1), (1, 4, 0), (1, 4, 0), (1, 4, 2))),
        # on the base's line past its end: zero length again, off the edge
        "line_past_end": ((3.0, 0.0), (True, True, True), 3, "outside",
                          ((1, 4, 1), (1, 4, 0), (1, 4, 0), (1, 4, 2))),
        # past the base's row, the parallel at twice the apex's height
        "beyond_apex": ((1.0, 5.0), (False, True, True), 2, "outside",
                        ((1, 4, 1), (2, 5, 2), (2, 5, 1), (1, 4, 2))),
        # every edge admits every point of the closed triangle
        "apex": ((1.0, 1.0), (True, True, True), 3, "boundary",
                 ((1, 4, 1), (1, 4, 0), (1, 4, 0), (1, 4, 2))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, name):
        (x, y), legal, sig, verdict, stats = self.CASES[name]
        p = Point(x, y)
        assert tuple(legality_test(self.TRI, i, p) for i in range(3)) == legal
        assert sigma(self.TRI, p) == sig
        for policy, (tried, tests, edge) in zip(self.POLICIES, stats):
            assert classify_improved(self.TRI, p, policy) == (
                Classification(verdict),
                TrialStats(tried, tests, edge, False)), policy


class TestClassifyQuad:
    def test_square_quad_center(self):
        q = adjacent_quad(SQUARE, 0)
        assert classify_quad(q, Point(0.5, 0.5), 4) is Classification.INSIDE

    def test_closing_side_is_real_edge_for_square(self):
        q = adjacent_quad(SQUARE, 0)
        assert classify_quad(q, Point(0.5, 1.0), 4) \
            is Classification.ON_BOUNDARY

    def test_closing_side_is_interior_chord_for_hexagon(self):
        poly = regular_ngon(6)
        q = adjacent_quad(poly, 0)
        mid = Point((q.d.x + q.c.x) / 2, (q.d.y + q.c.y) / 2)
        assert classify_quad(q, mid, 6) is Classification.INSIDE
        assert oracle_classify(poly, mid) is Classification.INSIDE

    def test_outer_vertices_are_boundary_for_hexagon(self):
        # c and d are polygon vertices that also end the interior chord d-c;
        # the polygon sides through them must win over the chord
        for poly in (regular_ngon(6), random_convex(6, seed=11, radius=3)):
            for i in range(6):
                q = adjacent_quad(poly, i)
                for v in (q.c, q.d):
                    assert classify_quad(q, v, 6) \
                        is Classification.ON_BOUNDARY
                    for k in range(8):
                        t = 2 * math.pi * k / 8
                        p = Point(v.x + 0.5 * EPS * math.cos(t),
                                  v.y + 0.5 * EPS * math.sin(t))
                        assert classify_quad(q, p, 6) \
                            is Classification.ON_BOUNDARY, (i, v, k)

    def test_polygon_sides_are_boundary(self):
        q = adjacent_quad(SQUARE, 0)
        assert classify_quad(q, Point(0.5, 0.0), 4) \
            is Classification.ON_BOUNDARY
        assert classify_quad(q, Point(0.0, 0.5), 4) \
            is Classification.ON_BOUNDARY

    def test_degenerate_quad_triangle(self):
        q = adjacent_quad(TRIANGLE, 0)
        assert classify_quad(q, Point(0.25, 0.25), 3) is Classification.INSIDE
        assert classify_quad(q, Point(0, 1), 3) is Classification.ON_BOUNDARY
        assert classify_quad(q, Point(2, 2), 3) is Classification.OUTSIDE


class TestClassifyImproved:
    def test_square_center(self):
        verdict, stats = classify_improved(
            SQUARE, Point(0.5, 0.5), SeededShuffle(first_edge_seed(0, 4)))
        assert verdict is Classification.INSIDE
        assert stats.legal_edge == 0
        assert stats.edges_tried == 1

    def test_edge_point_any_policy(self):
        for policy in (SeededShuffle(first_edge_seed(0, 4)),
                       SeededShuffle(first_edge_seed(2, 4)), SeededShuffle(5),
                       SeededShuffle(77)):
            verdict, _ = classify_improved(SQUARE, Point(0.5, 0.0), policy)
            assert verdict is Classification.ON_BOUNDARY

    def test_regular_64gon_center_exhausts(self):
        poly = regular_ngon(64)
        assert sigma(poly, Point(0, 0)) == 0
        verdict, stats = classify_improved(poly, Point(0, 0))
        assert verdict is Classification.INSIDE
        assert stats.exhausted_all
        assert stats.legal_edge is None
        assert stats.edges_tried == 64
        assert stats.intersection_tests == 64

    def test_counter_consistency(self):
        rng = np.random.default_rng(17)
        for n, seed in [(3, 1), (4, 2), (9, 3), (50, 4)]:
            poly = random_convex(n, seed, radius=20)
            for p in lattice_probe_points(poly, rng, 30):
                _, st = classify_improved(poly, p, SeededShuffle(9))
                if st.exhausted_all:
                    assert st.legal_edge is None
                    assert st.edges_tried == n
                    assert st.intersection_tests == n
                else:
                    quad_work = 3 if n == 3 else 4
                    assert st.intersection_tests == st.edges_tried + quad_work
                assert st.edges_tried <= n

    def test_legal_edge_position_matches_policy_order(self):
        # triangles, squares and both sides of _LAZY_DRAWS check the query's
        # inline draws against edge_order; 40 edges and more reach past the
        # lazy draws into the vector step and the bulk order, and points
        # just inside or outside an edge are admitted by few edges, so their
        # admitting edge usually lies there
        for n, seed in [(3, 4), (4, 5), (5, 6), (12, 8), (_LAZY_DRAWS, 13),
                        (_LAZY_DRAWS + 1, 14), (40, 9), (300, 10), (1000, 11),
                        (2000, 12)]:
            poly = random_convex(n, seed=seed, radius=10)
            rng = np.random.default_rng(3)
            points = lattice_probe_points(poly, rng, 40)
            v = poly.vertices
            for k in rng.integers(0, n, 8).tolist():
                a, b = v[k], v[(k + 1) % n]
                length = math.hypot(b.x - a.x, b.y - a.y)
                for off in (2 * EPS, -2 * EPS, 1e-5, -1e-5):
                    points.append(
                        Point((a.x + b.x) / 2 + off * (b.y - a.y) / length,
                              (a.y + b.y) / 2 - off * (b.x - a.x) / length))
            policy = SeededShuffle(21)
            order = edge_order(policy, poly.n)
            for p in points:
                _, st = classify_improved(poly, p, policy)
                if st.legal_edge is None:
                    assert st == TrialStats(n, n, None, True)
                    continue
                quad_work = 3 if n == 3 else 4
                assert st == TrialStats(st.edges_tried,
                                        st.edges_tried + quad_work,
                                        st.legal_edge, False)
                assert order[st.edges_tried - 1] == st.legal_edge
                # the reported edge passes the admission test in isolation
                assert legality_test(poly, st.legal_edge, p)
                # and every edge tried before it rejects
                assert not any(legality_test(poly, e, p)
                               for e in order[:st.edges_tried - 1])

    def test_sigma_zero_never_builds_the_bulk_order(self, monkeypatch):
        def fail(*args):
            raise AssertionError("keys drawn for a sigma = 0 query")

        monkeypatch.setattr(classify_module, "_rest_keys", fail)
        for n in (_LAZY_DRAWS + 1, 100, 2000):
            poly = regular_ngon(n)
            # the chord lines bound a regular n-gon with the inner disk as
            # its incircle; halfway out toward one of its corners (direction
            # V0) no edge admits, but the point is outside the disk, so it
            # goes through the lazy prefix first
            r = math.sqrt(poly.disks[2])
            corner = Point(r * (1 + 0.5 * (1 / math.cos(math.pi / n) - 1)),
                           0.0)
            assert corner.x > r
            for p in (Point(0, 0), corner):
                assert sigma(poly, p) == 0
                for seed in range(5):
                    verdict, stats = classify_improved(poly, p,
                                                       SeededShuffle(seed))
                    assert verdict is Classification.INSIDE
                    assert stats == TrialStats(n, n, None, True)

    def test_tied_keys_rank_by_edge_index(self, monkeypatch):
        # with every key tied, the rest of a seeded order is the undrawn
        # edges by index, on the query path and in edge_order alike
        def tied(n, drawn, pcg_state):
            keys = np.zeros(n)
            keys.put(drawn, np.inf)
            return keys

        monkeypatch.setattr(classify_module, "_rest_keys", tied)
        past_prefix = 0
        for n, seed in [(17, 30), (100, 31), (2000, 32)]:
            poly = random_convex(n, seed=seed, radius=10)
            v = poly.vertices
            points = [
                off_midpoint(v[k], v[(k + 1) % n], off)
                for k in np.random.default_rng(seed).integers(0, n, 6).tolist()
                for off in (2 * EPS, -2 * EPS, 1e-5, -1e-5)]
            for policy in map(SeededShuffle, range(4)):
                order = edge_order(policy, n)
                assert order[_LAZY_DRAWS:] == sorted(order[_LAZY_DRAWS:])
                for p in points:
                    _, st = classify_improved(poly, p, policy)
                    # plain ints, as the reports' JSON needs
                    assert type(st.edges_tried) is type(st.legal_edge) is int
                    assert order[st.edges_tried - 1] == st.legal_edge
                    assert not any(legality_test(poly, e, p)
                                   for e in order[:st.edges_tried - 1])
                    past_prefix += st.edges_tried > _LAZY_DRAWS
        assert past_prefix > 0

    def test_query_admitting_edge_is_uniform(self):
        # 1e-5 outside the midpoint of an edge of a 200-gon, the edge and
        # its two neighbours admit (sigma = 3), so most queries get past
        # the lazy draws and rank the admitting edge by its key
        n, runs = 200, 6000
        poly = random_convex(n, seed=33, radius=10)
        p = off_midpoint(poly.vertices[50], poly.vertices[51], 1e-5)
        admitting = [e for e in range(n) if legality_test(poly, e, p)]
        sig = len(admitting)
        assert sig == sigma(poly, p) == 3
        counts = dict.fromkeys(admitting, 0)
        total_tried = 0
        for seed in range(runs):
            _, st = classify_improved(poly, p, SeededShuffle(seed))
            counts[st.legal_edge] += 1
            total_tried += st.edges_tried
        expected = runs / sig
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.82  # 0.999 quantile, 2 degrees of freedom
        # the first of sig marked positions in a uniform permutation of n:
        # mean (n + 1) / (sig + 1), variance
        # sig (n + 1) (n - sig) / ((sig + 1)^2 (sig + 2))
        mean = (n + 1) / (sig + 1)
        var = sig * (n + 1) * (n - sig) / ((sig + 1) ** 2 * (sig + 2))
        # 3.29 standard errors: two-sided 0.999 normal quantile
        assert abs(total_tried / runs - mean) < 3.29 * math.sqrt(var / runs)

    def test_deep_sigma_zero_draws_no_order(self, monkeypatch):
        def fail(*args):
            raise AssertionError("work done for a point in the disk")

        # the policy mixes its seed when it is built, and any query that
        # ranks the rest of the order draws keys; the disk answers without
        # mixing anything, testing a single chord or reading the caps
        policy = SeededShuffle(3)
        monkeypatch.setattr(classify_module, "_mix64", fail)
        monkeypatch.setattr(classify_module, "_rest_keys", fail)
        monkeypatch.setattr(classify_module, "_cap_admitting", fail)
        monkeypatch.setattr(classify_module, "_admission_mask", fail)
        monkeypatch.setattr(polygon_module, "_admission_mask", fail)
        for n in (12, _LAZY_DRAWS + 1, 100, 2000):
            poly = regular_ngon(n)
            ox, oy, r2, _, _ = poly.disks
            r = math.sqrt(r2)
            deep = [Point(ox, oy)] + [
                Point(ox + 0.5 * r * math.cos(t), oy + 0.5 * r * math.sin(t))
                for t in (0.3, 2.0, 4.4)]
            for p in deep:
                verdict, stats = classify_improved(poly, p, policy)
                assert verdict is Classification.INSIDE
                assert stats == TrialStats(n, n, None, True)

    def test_no_query_mixes_its_seed(self, monkeypatch):
        # a policy mixes its seed and its key generator's state once, when
        # it is built; queries start from policy.state and seed the rank
        # step's keys with policy.pcg_state. Far exterior queries of a
        # 2000-gon admit at a trial or after the rank step, and a point
        # 2 EPS inside an edge midpoint, admitted by 3 edges, mostly gets
        # past the lazy draws. No query calls _mix64 at all.
        policies = [SeededShuffle(s) for s in range(8)]

        def guarded(x):
            raise AssertionError("a query mixed a state")

        n = 2000
        poly = regular_ngon(n)
        ox, oy, _, r2, _ = poly.disks
        r = math.sqrt(r2)
        v = poly.vertices
        points = [Point(ox + f * r * math.cos(t), oy + f * r * math.sin(t))
                  for f in (1.001, 3.0) for t in (0.0, 2.0)]
        points += [off_midpoint(v[k], v[k + 1], -2 * EPS) for k in (0, 700)]
        expected = [[classify_improved(poly, p, policy) for policy in policies]
                    for p in points]
        monkeypatch.setattr(classify_module, "_mix64", guarded)
        past_prefix = 0
        for p, want in zip(points, expected):
            got = [classify_improved(poly, p, policy) for policy in policies]
            assert got == want
            past_prefix += sum(st.edges_tried > _LAZY_DRAWS for _, st in got)
        assert past_prefix > 0

    def test_far_exterior_point_scans_no_quad(self, monkeypatch):
        def fail(*args):
            raise AssertionError("quad scanned for a point beyond the disk")

        # beyond the outer disk the admitting edge answers OUTSIDE without
        # its quad scan, at a scalar trial and after the rank step alike;
        # 1.001 r out toward V0 of a regular 2000-gon about 28 edges admit,
        # so most seeds get past the lazy draws
        monkeypatch.setattr(classify_module, "_admitted", fail)
        past_prefix = 0
        for n in (3, 4, 12, _LAZY_DRAWS + 1, 100, 2000):
            poly = regular_ngon(n)
            ox, oy, _, r2, _ = poly.disks
            r = math.sqrt(r2)
            far = [Point(ox + f * r * math.cos(t), oy + f * r * math.sin(t))
                   for f in (1.001, 3.0) for t in (0.0, 0.3, 2.0, 4.4)]
            for p in far:
                for seed in range(8):
                    verdict, st = classify_improved(poly, p,
                                                    SeededShuffle(seed))
                    assert verdict is Classification.OUTSIDE
                    assert st == TrialStats(st.edges_tried,
                                            st.edges_tried + min(n, 4),
                                            st.legal_edge, False)
                    assert legality_test(poly, st.legal_edge, p)
                    past_prefix += st.edges_tried > _LAZY_DRAWS
        assert past_prefix > 0

    def test_unknown_policy_rejected_for_every_point(self):
        for poly in (TRIANGLE, SQUARE, regular_ngon(12), regular_ngon(100)):
            ox, oy = poly.disks[:2]
            for p in (Point(ox, oy), poly.vertices[1]):
                with pytest.raises(TypeError):
                    classify_improved(poly, p, object())
            with pytest.raises(TypeError):
                edge_order(object(), poly.n)

    def test_policy_invariance(self):
        rng = np.random.default_rng(5)
        for n, seed in [(3, 61), (4, 62), (7, 63), (20, 64)]:
            poly = random_convex(n, seed, radius=15)
            for p in lattice_probe_points(poly, rng, 15):
                verdicts = set()
                for k in range(n):
                    v, _ = classify_improved(
                        poly, p, SeededShuffle(first_edge_seed(k, n)))
                    verdicts.add(v)
                for s in range(40):
                    v, _ = classify_improved(poly, p, SeededShuffle(s))
                    verdicts.add(v)
                assert len(verdicts) == 1

    def test_reduction_soundness(self):
        # whenever an edge admits the point, its quad verdict must equal the
        # whole-polygon classification
        rng = np.random.default_rng(23)
        for n, seed in [(4, 71), (5, 72), (6, 73), (13, 74), (40, 75)]:
            poly = random_convex(n, seed, radius=25)
            for p in lattice_probe_points(poly, rng, 25, clear_of_edges=True):
                truth = oracle_classify(poly, p)
                for i in range(n):
                    if legality_test(poly, i, p):
                        got = classify_quad(adjacent_quad(poly, i), p, n)
                        assert got is truth


def _centroid_radii(poly):
    # (ox, oy, r2, R2): the vertex centroid o, and the squared radii about o
    # of the inner and outer disks by the formulas that held when DIGEST
    # was taken, when both disks were centred there; the pinned points are
    # placed by them
    o = poly.centroid()
    cx, cy, ux, uy = poly.chord_columns
    ex, ey = o.x - cx, o.y - cy
    au, av = abs(ux), abs(uy)
    d = ux * ey - uy * ex
    a = au * abs(ey) + av * abs(ex)
    gamma, shrink = 2.0 ** -50, 1.0 - 2.0 ** -48
    rho = (d - 2.0 * gamma * a) / (np.hypot(ux, uy) + gamma * (au + av))
    r = float(rho.min()) * shrink
    far = max(math.hypot(x - o.x, y - o.y) for x, y in poly.vertices)
    big = far + 2.0 * EPS + 2.0 ** -40 * (abs(o.x) + abs(o.y) + far)
    return (o.x, o.y, r * r * shrink if r > 0.0 else -1.0,
            big * big * (1.0 + 2.0 ** -48))


def _digest_queries():
    # (poly, p, policy) of a fixed seeded batch that reaches every return
    # of classify_improved at n in {3, 4, 12, 17, 100, 1000}
    for n, seed in [(3, 81), (4, 82), (12, 83), (17, 84), (100, 85),
                    (1000, 86)]:
        poly = random_convex(n, seed, radius=10)
        rng = np.random.default_rng(seed)
        v = poly.vertices
        ox, oy, rk2, r2 = _centroid_radii(poly)
        r = math.sqrt(r2)
        points = [Point(1e300, -1e300), Point(ox, oy)]
        # uniform in the disk of radius 1.2 r, inside and outside
        for t, f in zip(rng.uniform(0, 2 * math.pi, 12),
                        rng.uniform(0, 1.2, 12)):
            points.append(Point(ox + f * r * math.cos(t),
                                oy + f * r * math.sin(t)))
        # just outside the kernel disk, where few edges or none admit
        rk = math.sqrt(max(rk2, 0.0))
        for t in rng.uniform(0, 2 * math.pi, 4):
            for f in (1.02, 1.1):
                points.append(Point(ox + f * rk * math.cos(t),
                                    oy + f * rk * math.sin(t)))
        # beyond the outer disk, just past it and far
        for t in rng.uniform(0, 2 * math.pi, 4):
            for f in (1.001, 2.0):
                points.append(Point(ox + f * r * math.cos(t),
                                    oy + f * r * math.sin(t)))
        # off edge midpoints, in the band and past it
        for k in rng.integers(0, n, 4).tolist():
            points += [off_midpoint(v[k], v[(k + 1) % n], off)
                       for off in (2 * EPS, -2 * EPS, 1e-5, -1e-5)]
        for p in points:
            for policy in (None, SeededShuffle(0), SeededShuffle(5)):
                yield poly, p, policy


def _window_digest_queries():
    # (poly, p, policy) of a fixed seeded batch for the cap window's path:
    # points in and past the band off edge midpoints of a 1000-gon and a
    # 2000-gon, which twelve policies admit at a draw or after the rank
    # step, and points near the corners of the chord lines of a regular
    # 1000-gon, outside its inner disk, which no edge admits
    for n, seed in [(1000, 87), (2000, 88)]:
        poly = random_convex(n, seed, radius=10)
        rng = np.random.default_rng(seed)
        v = poly.vertices
        points = [off_midpoint(v[k], v[(k + 1) % n], off)
                  for k in rng.integers(0, n, 6).tolist()
                  for off in (2 * EPS, -2 * EPS, 1e-5, -1e-5)]
        for p in points:
            for s in range(12):
                yield poly, p, SeededShuffle(s)
    poly = regular_ngon(1000)
    # the chords lie cos(3 pi / n) from the centre, and meet in the
    # directions of the vertices, cos(3 pi / n) / cos(pi / n) out
    h, c = math.cos(3 * math.pi / 1000), math.cos(math.pi / 1000)
    f = h * (1 + 0.5 * (1 / c - 1))
    for k in range(0, 1000, 97):
        t = 2 * math.pi * k / 1000
        yield poly, Point(f * math.cos(t), f * math.sin(t)), SeededShuffle(k)


def _return_path(poly, p, st):
    # which return of classify_improved gave the counters ``st``
    if st.edges_tried == 0:
        return "far gate"
    gx, gy, inner, outer, _ = poly.disks
    dx, dy = p.x - gx, p.y - gy
    d2 = dx * dx + dy * dy
    if st.exhausted_all:
        return "kernel disk" if d2 < inner else "sigma 0"
    step = "rank" if st.edges_tried > _LAZY_DRAWS else "trial"
    return step + (" outer disk" if d2 > outer else " quad")


class TestPinnedAnswers:
    # sha256 over repr((verdict.value, *TrialStats)) of every query of
    # _digest_queries, in order, as classify_improved has answered them
    # since the outer disk; a speed-up must leave every answer unchanged
    DIGEST = "e0a3efbe6eda65d740bbe67d15511097566f788a3861a0d3600b20dad72fdf43"

    def test_every_return_path_is_pinned(self):
        digest = hashlib.sha256()
        paths = set()
        for poly, p, policy in _digest_queries():
            verdict, st = classify_improved(poly, p, policy)
            digest.update(repr((verdict.value, *st)).encode())
            paths.add((_return_path(poly, p, st), poly.n == 3))
        assert paths == {
            ("far gate", False), ("kernel disk", False), ("sigma 0", False),
            ("trial quad", False), ("trial outer disk", False),
            ("rank quad", False), ("rank outer disk", False),
            ("far gate", True), ("trial quad", True),
            ("trial outer disk", True)}
        assert digest.hexdigest() == self.DIGEST

    # the same over _window_digest_queries, taken before the cap window
    # answered any of them
    WINDOW_DIGEST = (
        "6091158ef31f83a3e4514b370087f0a75aedf6d302e33990bb76d1d81290331c")

    @staticmethod
    def _window_returns(queries, monkeypatch):
        # the sha256 of the batch's answers, and the returns its queries
        # reached through the cap window, which only sizes past
        # _LAZY_DRAWS take
        digest = hashlib.sha256()
        windows = []
        returns = set()

        def window(*args, real=classify_module._cap_admitting):
            windows.append(real(*args))
            return windows[-1]

        monkeypatch.setattr(classify_module, "_cap_admitting", window)
        for poly, p, policy in queries:
            del windows[:]
            verdict, st = classify_improved(poly, p, policy)
            digest.update(repr((verdict.value, *st)).encode())
            if windows and windows[0] is not None:
                assert poly.n > _LAZY_DRAWS
                returns.add("sigma 0" if st.exhausted_all else "rank"
                            if st.edges_tried > _LAZY_DRAWS else "trial")
        return digest.hexdigest(), returns

    def test_window_path_returns_are_pinned(self, monkeypatch):
        # DIGEST's 17-, 100- and 1000-gon queries take the cap window to
        # every return; so does this batch, at a draw, after the rank step,
        # and not at all
        digest, returns = self._window_returns(_digest_queries(), monkeypatch)
        assert digest == self.DIGEST
        assert returns == {"trial", "rank", "sigma 0"}
        digest, returns = self._window_returns(_window_digest_queries(),
                                               monkeypatch)
        assert digest == self.WINDOW_DIGEST
        assert returns == {"trial", "rank", "sigma 0"}

    def test_rest_step_takes_the_caps_and_the_mask(self, monkeypatch):
        # past the lazy draws the pinned batch finds admitting edges both
        # through the chord caps, before the draws, and through the mask,
        # after them (points beyond the outer disk), and no query takes both
        calls = []

        def spy(name, real):
            def kernel(*args):
                found = real(*args)
                calls.append((name, found is not None))
                return found
            return kernel

        monkeypatch.setattr(classify_module, "_cap_admitting", spy(
            "caps", classify_module._cap_admitting))
        monkeypatch.setattr(classify_module, "_admission_mask", spy(
            "mask", classify_module._admission_mask))
        rest = set()
        for poly, p, policy in _digest_queries():
            del calls[:]
            _, st = classify_improved(poly, p, policy)
            if st.edges_tried > _LAZY_DRAWS and not st.exhausted_all:
                rest.add(tuple(calls))
        assert rest == {(("caps", True),), (("mask", True),)}


def _scaled_convex(n, seed, radius):
    # random_convex cannot build large n at small radius (its validator
    # compares a raw cross product with eps), so scale a unit polygon
    return ConvexPolygon(tuple(Point(radius * v.x, radius * v.y)
                               for v in random_convex(n, seed).vertices))


def _reference_answer(poly, p, order):
    # (verdict, TrialStats) of trying the edges in ``order`` one at a time
    # with the mask's test, then scanning the first admitting edge's quad
    n = poly.n
    hits = polygon_module._admission_mask(poly, p.x, p.y)[order]
    if not hits.any():
        return Classification.INSIDE, TrialStats(n, n, None, True)
    t = int(hits.argmax()) + 1
    e = int(order[t - 1])
    return (classify_quad(adjacent_quad(poly, e), p, n),
            TrialStats(t, t + 4, e, False))


def _window_probes(poly, rng):
    # points whose admitting edges the cap window can find: on, and
    # +-{0.5, 1, 2, 5, 10} EPS and +-1e-6 R off, edge points and vertices,
    # of random edges and of the edges facing -pi or +pi from g, where the
    # window wraps; points at angles within the caps' width of +-pi; points
    # just outside the inner disk, where sigma is mostly 0; and points
    # within 4 ulp of the outer disk's radius, on both sides of it
    v = poly.vertices
    n = len(v)
    gx, gy, inner, outer, (width, _, _) = poly.disks
    ri, ro = math.sqrt(max(inner, 0.0)), math.sqrt(outer)
    offs = [0.0] + [s * f * EPS for f in (0.5, 1, 2, 5, 10) for s in (1, -1)]
    offs += [1e-6 * ro, -1e-6 * ro]
    wrap = [k for k in range(n)
            if abs(abs(math.atan2((v[k].y + v[(k + 1) % n].y) / 2 - gy,
                                  (v[k].x + v[(k + 1) % n].x) / 2 - gx))
                   - math.pi) < width]
    edges = rng.integers(0, n, 8).tolist() + wrap[:4] + wrap[-4:]
    points = []
    for k in edges:
        a, b = v[k], v[(k + 1) % n]
        length = math.hypot(b.x - a.x, b.y - a.y)
        nx, ny = (b.y - a.y) / length, -(b.x - a.x) / length
        t = rng.uniform(0.25, 0.75)
        for x, y in ((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)),
                     (a.x, a.y)):
            points += [Point(x + d * nx, y + d * ny) for d in offs]
    for f in rng.uniform(-1, 1, 12).tolist():
        theta = math.pi + f * width
        for r in (ri + rng.uniform() * (ro - ri), 1.001 * ri):
            points.append(Point(gx + r * math.cos(theta),
                                gy + r * math.sin(theta)))
    for theta in rng.uniform(0, 2 * math.pi, 12).tolist():
        r = 1.001 * ri
        points.append(Point(gx + r * math.cos(theta),
                            gy + r * math.sin(theta)))
    for theta in rng.uniform(0, 2 * math.pi, 6).tolist():
        points += [Point(gx + ro * (1 + j * 2.0**-52) * math.cos(theta),
                         gy + ro * (1 + j * 2.0**-52) * math.sin(theta))
                   for j in range(-4, 5)]
    return points


class TestCapWindowTrials:
    # past _LAZY_DRAWS edges, a point within the outer disk finds its
    # admitting set through its cap window before the draws; every answer
    # must be that of trying the edge order one edge at a time
    POLICIES = (0, 5, 21)

    def _check(self, poly, points, monkeypatch):
        # every answer against the reference; returns the window path's
        # returns, by kind
        took = []
        real = classify_module._cap_admitting

        def spy(*args):
            found = real(*args)
            took.append(found)
            return found

        monkeypatch.setattr(classify_module, "_cap_admitting", spy)
        kinds = {"sigma 0": 0, "trial": 0, "rank": 0, "trials first": 0}
        for seed in self.POLICIES:
            policy = SeededShuffle(seed)
            order = np.array(edge_order(policy, poly.n))
            for p in points:
                del took[:]
                got = classify_improved(poly, p, policy)
                assert got == _reference_answer(poly, p, order), (seed, p)
                _, st = got
                if not took or took[0] is None:
                    kinds["trials first"] += 1
                elif st.exhausted_all:
                    kinds["sigma 0"] += 1
                else:
                    kinds["rank" if st.edges_tried > _LAZY_DRAWS
                          else "trial"] += 1
        return kinds

    @pytest.mark.parametrize("n", [17, 100, 128, 1000, 2000])
    def test_random_rings_match_the_order(self, n, monkeypatch):
        # at radius 1e-2 and n >= 1000 every chord test value is below EPS,
        # so no edge admits any probe there
        rng = np.random.default_rng(n)
        kinds = {}
        for radius in (1e-2, 1.0, 1e6):
            poly = _scaled_convex(n, n + 11, radius)
            assert poly.disks[4] is not None
            for kind, count in self._check(poly, _window_probes(poly, rng),
                                           monkeypatch).items():
                kinds[kind] = kinds.get(kind, 0) + count
        assert min(kinds.values()) > 0, kinds

    def test_regular_ring_corners_have_sigma_zero(self, monkeypatch):
        # halfway out from the inner disk toward a corner of a regular
        # 1000-gon no chord admits (see test_sigma_zero_never_builds_the_
        # bulk_order); the window finds no edge, and every draw rejects
        poly = regular_ngon(1000)
        r = math.sqrt(poly.disks[2])
        f = r * (1 + 0.5 * (1 / math.cos(math.pi / 1000) - 1))
        points = [Point(f * math.cos(2 * math.pi * k / 1000),
                        f * math.sin(2 * math.pi * k / 1000))
                  for k in range(0, 1000, 37)]
        assert all(sigma(poly, p) == 0 for p in points)
        kinds = self._check(poly, points, monkeypatch)
        assert kinds["sigma 0"] == len(points) * len(self.POLICIES)

    def test_an_empty_window_answers_after_the_draws(self, monkeypatch):
        # a sigma = 0 point outside the inner disk of a regular 100-gon,
        # halfway out toward a corner: its cap window is empty, so every
        # draw rejects, and the query answers as when no edge admits,
        # without the rank step or the mask
        def fail(*args):
            raise AssertionError("rank step or mask for an empty window")

        windows = []
        real = classify_module._cap_admitting

        def spy(*args):
            windows.append(real(*args))
            return windows[-1]

        monkeypatch.setattr(classify_module, "_cap_admitting", spy)
        monkeypatch.setattr(classify_module, "_rank_step", fail)
        monkeypatch.setattr(classify_module, "_admission_mask", fail)
        n = 100
        poly = regular_ngon(n)
        gx, gy, inner, _, caps = poly.disks
        assert caps is not None and n > _LAZY_DRAWS
        r = math.sqrt(inner)
        f = r * (1 + 0.5 * (1 / math.cos(math.pi / n) - 1))
        for k in (0, 13, 50):
            t = 2 * math.pi * k / n
            p = Point(f * math.cos(t), f * math.sin(t))
            assert (p.x - gx) ** 2 + (p.y - gy) ** 2 > inner
            assert sigma(poly, p) == 0
            for seed in self.POLICIES:
                del windows[:]
                got = classify_improved(poly, p, SeededShuffle(seed))
                assert windows == [[]]
                assert got == (Classification.INSIDE,
                               TrialStats(n, n, None, True))

    def test_the_window_starts_past_the_lazy_draws(self, monkeypatch):
        # at n = _LAZY_DRAWS no query computes a window; at _LAZY_DRAWS + 1
        # every query within the outer disk computes it before its first
        # draw. A window that names only the first edge of the order, an
        # edge whose chord does not admit the point, makes the first draw
        # admit, so the draws read the window's set
        calls = []

        def window(poly, *rest):
            calls.append(poly.n)
            return [first]

        monkeypatch.setattr(classify_module, "_cap_admitting", window)
        for n in (_LAZY_DRAWS, _LAZY_DRAWS + 1):
            poly = random_convex(n, seed=n, radius=10)
            gx, gy, _, outer, caps = poly.disks
            assert caps is not None
            v = poly.vertices
            points = [off_midpoint(v[k], v[(k + 1) % n], off)
                      for k in range(n) for off in (2 * EPS, -2 * EPS)]
            assert all((p.x - gx) ** 2 + (p.y - gy) ** 2 < 0.99 * outer
                       for p in points)
            checked = 0
            for seed in self.POLICIES:
                policy = SeededShuffle(seed)
                order = np.array(edge_order(policy, n))
                first = int(order[0])
                for p in points:
                    if legality_test(poly, first, p):
                        continue
                    checked += 1
                    del calls[:]
                    got = classify_improved(poly, p, policy)
                    if n == _LAZY_DRAWS:
                        assert calls == []
                        assert got == _reference_answer(poly, p, order)
                    else:
                        assert calls == [n]
                        assert got[1][:3] == (1, 5, first)
            assert checked > len(points)

    def test_the_mask_route_ranks_a_large_sigma(self, monkeypatch):
        # 1.5 outer radii from g, beyond the outer disk of a 1000-gon, 268
        # edges admit the point; under these policy seeds none of the 16
        # draws is one of them, so the mask gives the whole admitting set
        # and the rank step picks the order's first admitting edge in it
        poly = random_convex(1000, seed=99, radius=10)
        gx, gy, _, outer, _ = poly.disks
        p = Point(gx + 1.5 * math.sqrt(outer), gy)
        mask = polygon_module._admission_mask(poly, p.x, p.y)
        assert mask.sum() == sigma(poly, p) == 268
        calls = []
        real = classify_module._admission_mask

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(classify_module, "_admission_mask", counted)
        for seed in (276, 294, 390, 479):
            policy = SeededShuffle(seed)
            order = np.array(edge_order(policy, poly.n))
            assert not mask[order[:_LAZY_DRAWS]].any()
            t = int(mask[order].argmax())
            del calls[:]
            verdict, st = classify_improved(poly, p, policy)
            assert calls == [1]
            assert verdict is Classification.OUTSIDE
            assert st == (t + 1, t + 5, int(order[t]), False), seed
            assert st.edges_tried > _LAZY_DRAWS

    def test_a_wide_window_takes_the_trials_first(self, monkeypatch):
        # on a 2000-gon on a 1:100 ellipse a window holds about half the
        # chords, more than _VECTOR_MIN, so the query falls back to the
        # trials, then the mask
        n = 2000
        poly = validate_convex([
            (10 * math.cos(2 * math.pi * k / n),
             0.1 * math.sin(2 * math.pi * k / n)) for k in range(n)])
        assert poly.disks[4] is not None and poly.disks[4][0] > 1.5
        v = poly.vertices
        points = [off_midpoint(v[k], v[k + 1], off)
                  for k in (500, 1500) for off in (2 * EPS, -2 * EPS, -1e-8)]
        masks = []
        real = classify_module._admission_mask

        def counted(poly, px, py):
            masks.append(1)
            return real(poly, px, py)

        kinds = self._check(poly, points, monkeypatch)
        assert kinds == {"sigma 0": 0, "trial": 0, "rank": 0,
                         "trials first": len(points) * len(self.POLICIES)}
        monkeypatch.setattr(classify_module, "_admission_mask", counted)
        for p in points:
            _, st = classify_improved(poly, p, SeededShuffle(5))
            assert st.edges_tried > _LAZY_DRAWS
        assert len(masks) == len(points)


_DISK_FIELDS = ("gx", "gy", "inner", "outer", "caps")


def _with_disks(poly, **fields):
    # the same polygon with the named fields of its disk table replaced
    assert set(fields) <= set(_DISK_FIELDS)
    table = dict(zip(_DISK_FIELDS, poly.disks)) | fields
    copy = ConvexPolygon(poly.vertices)
    copy.__dict__["disks"] = tuple(table.values())
    return copy


def _depth(poly, x, y):
    # the least signed distance of (x, y) inside the chord lines, in floats
    return min((ux * (y - cy) - uy * (x - cx)) / math.hypot(ux, uy)
               for cx, cy, ux, uy in poly.chords)


class TestKernelDisk:
    def test_points_on_the_circle_are_admitted_by_no_edge(self):
        for n in (12, 100, 2000):
            for radius in (1e-2, 1.0, 1e6):
                poly = _scaled_convex(n, n + 7, radius)
                ox, oy, r2, _, _ = poly.disks
                assert r2 > 0
                r = (1 - 1e-9) * math.sqrt(r2)
                for k in range(64):
                    t = 2 * math.pi * k / 64
                    p = Point(ox + r * math.cos(t), oy + r * math.sin(t))
                    assert sigma(poly, p) == 0, (n, radius, k)
                    assert classify_improved(poly, p)[1] == \
                        TrialStats(n, n, None, True)

    def test_matches_a_scalar_loop_over_the_chords(self):
        # the centre is the vertex mean or the box midpoint, whichever lies
        # deeper inside the chord lines, and the radius is its depth
        for n, seed in [(7, 81), (12, 82), (100, 83), (1000, 84), (2000, 85)]:
            for radius in (1e-2, 40, 1e6):
                poly = _scaled_convex(n, seed, radius)
                # the vertex mean summed as the table sums it, by numpy from
                # V[n-1] on: a Python sum, or one from V[0], differs from it
                # by up to 2e-14 relative at R = 1e6
                v = poly.vertices
                xs, ys = (np.array(c) for c in zip(*v[-1:] + v[:-1]))
                mean = (float(xs.sum()) / n, float(ys.sum()) / n)
                box = bounding_box(poly)
                mid = ((box.min.x + box.max.x) / 2,
                       (box.min.y + box.max.y) / 2)
                centre = max(mean, mid, key=lambda c: _depth(poly, *c))
                ox, oy, r2, _, _ = poly.disks
                assert (ox, oy) == pytest.approx(centre, rel=1e-15,
                                                 abs=1e-13), (n, radius)
                r = _depth(poly, ox, oy)
                assert r > 0 and r2 == pytest.approx(r * r, rel=1e-12), (
                    n, radius)

    def test_centre_is_the_deeper_candidate(self):
        # the vertex mean lies deeper inside the chord lines than the box
        # midpoint on this 12-gon, and the box midpoint on this 2000-gon
        for n, mean_deeper in [(12, True), (2000, False)]:
            poly = random_convex(n, 0, radius=10)
            o = poly.centroid()
            box = bounding_box(poly)
            mid = ((box.min.x + box.max.x) / 2, (box.min.y + box.max.y) / 2)
            assert (_depth(poly, o.x, o.y) > _depth(poly, *mid)) is mean_deeper
            gx, gy, inner, _, _ = poly.disks
            if mean_deeper:
                assert (gx, gy) == pytest.approx((o.x, o.y), rel=1e-15,
                                                 abs=1e-13)
                assert (gx, gy) != mid
            else:
                assert (gx, gy) == mid
            assert inner == pytest.approx(_depth(poly, gx, gy) ** 2,
                                          rel=1e-12)

    def test_generation_and_validation_build_no_table(self):
        for n in (3, 4, 12, 2000):
            poly = random_convex(n, n, radius=10)
            again = validate_convex(poly.vertices)
            assert "disks" not in poly.__dict__
            assert "disks" not in again.__dict__
            classify_improved(again, poly.vertices[0])
            assert "disks" in again.__dict__
            assert "disks" not in poly.__dict__

    def test_triangles_squares_and_pentagons_get_an_empty_disk(self):
        # A triangle's chords collapse to a vertex and a square's are its
        # edges reversed. In a pentagon the inner sides of the chords of
        # edges 1 and 3 hold the triangles V0V1V2 and V3V4V0, which meet
        # only at V0.
        polys = [TRIANGLE, SQUARE]
        polys += [random_convex(n, seed, radius=5)
                  for n in (3, 4, 5) for seed in range(20)]
        for poly in polys:
            assert poly.disks[2] == -1.0

    def test_raw_constructor_compares_and_hashes_as_before(self):
        verts = random_convex(9, seed=56, radius=3).vertices
        a, b = ConvexPolygon(verts), ConvexPolygon(verts)
        h, r = hash(a), repr(a)
        assert a.disks[2] > 0
        assert a == b and b == a
        assert hash(a) == h == hash(b) == hash((verts,))
        assert repr(a) == r == f"ConvexPolygon(vertices={verts!r})"

    def test_disk_answers_as_the_trials_do(self):
        # against the same polygon with an empty disk: points just inside
        # and just outside the circle, points 2 eps off edges and the
        # vertices
        rng = np.random.default_rng(91)
        for n in (7, 12, _LAZY_DRAWS + 1, 100, 1000):
            for radius in (1e-2, 1.0, 1e6):
                poly = _scaled_convex(n, n + 90, radius)
                ox, oy, r2, _, _ = poly.disks
                r = math.sqrt(r2)
                points = list(poly.vertices[:8])
                for t in rng.uniform(0, 2 * math.pi, 16).tolist():
                    for f in (1 - 1e-12, 1 + 1e-12):
                        points.append(Point(ox + f * r * math.cos(t),
                                            oy + f * r * math.sin(t)))
                v = poly.vertices
                for k in rng.integers(0, n, 8).tolist():
                    a, b = v[k], v[(k + 1) % n]
                    length = math.hypot(b.x - a.x, b.y - a.y)
                    for off in (2 * EPS, -2 * EPS):
                        points.append(Point(
                            (a.x + b.x) / 2 + off * (b.y - a.y) / length,
                            (a.y + b.y) / 2 - off * (b.x - a.x) / length))
                empty = _with_disks(poly, inner=-1.0)
                for policy in (SeededShuffle(5),
                               SeededShuffle(first_edge_seed(n // 3, n))):
                    for p in points:
                        got = classify_improved(poly, p, policy)
                        assert got == classify_improved(empty, p, policy)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(7, 2000), st.sampled_from(range(-20, 28)),
           st.sampled_from([0.0, 1e6, 1e8]), st.integers(0, 2**32))
    def test_rim_points_the_disk_answers_admit_no_edge(self, n, k, offset,
                                                       seed):
        # The disk decides, so it must be sound up to its last ulp: points
        # (1 - j 2**-52) r out from the centre, on random directions and on
        # the ray toward the nearest chord line, at R = 2**k and far from
        # the origin. The radius is raised where the offset's ulp would
        # bend the ring out of convexity.
        floor = 64 * offset * 2.0**-52 * (n / (2 * math.pi)) ** 2
        radius = 2.0 ** max(k, math.ceil(math.log2(floor)) if floor else k)
        poly = ConvexPolygon(tuple(
            Point(radius * v.x + offset, radius * v.y - offset)
            for v in random_convex(n, seed % 10_000).vertices))
        ox, oy, r2, _, _ = poly.disks
        if r2 <= 0:
            return
        r = math.sqrt(r2)
        # toward the nearest chord line
        cx, cy, ux, uy = poly.chord_columns
        length = np.hypot(ux, uy)
        i = int(((ux * (oy - cy) - uy * (ox - cx)) / length).argmin())
        rays = [(float(uy[i] / length[i]), float(-ux[i] / length[i]))]
        rays += [(math.cos(t), math.sin(t)) for t in
                 np.random.default_rng(seed).uniform(0, 2 * math.pi, 8)]
        empty = _with_disks(poly, inner=-1.0)
        policy = SeededShuffle(seed)
        answered = 0
        for ex, ey in rays:
            for j in (0, 1, 2, 4, 7, 8, 9, 12, 16, 64, 2**20):
                f = (1 - j * 2.0**-52) * r
                p = Point(ox + f * ex, oy + f * ey)
                dx, dy = p.x - ox, p.y - oy
                if dx * dx + dy * dy < r2:
                    answered += 1
                    assert sigma(poly, p) == 0
                    got = classify_improved(poly, p, policy)
                    assert got == classify_improved(empty, p, policy)
        assert answered


def _shifted_convex(n, seed, radius, shift):
    return ConvexPolygon(tuple(Point(v.x + shift, v.y - shift)
                               for v in _scaled_convex(n, seed,
                                                       radius).vertices))


OUTER_SIZES = (3, 4, 5, 12, 100, 1000)
OUTER_RADII = (1e-2, 1.0, 1e2, 1e6)
OUTER_SHIFTS = (0.0, 1e6, 3e7)


class TestOuterDisk:
    @pytest.mark.parametrize("n", OUTER_SIZES)
    def test_answers_as_the_quad_scan_does(self, n):
        # The disk decides, so points just past its rim must get the
        # verdict and counters of the quad scan, on 64 directions at
        # (1 + k 2**-52) r and at 1.001, 2 and 10 r, and toward the four
        # vertices farthest from the centre, where the rim comes closest to
        # the ring. On rings the validator accepts, every such point is
        # outside and admitted by some edge. At n = 1000 and R = 1e-2 it
        # rejects the ring as collinear, and some rim points there admit by
        # no edge: the chord test compares a cross product with an absolute
        # EPS, so they exhaust as INSIDE, with or without the disk.
        factors = [1 + k * 2.0**-52 for k in (0, 1, 2, 4, 16)]
        factors += [1.001, 2.0, 10.0]
        answered = 0
        for radius in OUTER_RADII:
            for shift in OUTER_SHIFTS:
                poly = _shifted_convex(n, n + 40, radius, shift)
                # no point lies beyond an infinite outer disk; the caps,
                # whose radius that disk sets, go with it
                plain = _with_disks(poly, outer=math.inf, caps=None)
                try:
                    validate_convex(poly.vertices)
                    valid = True
                except PolygonError:
                    valid = False
                ox, oy, _, r2, _ = poly.disks
                r = math.sqrt(r2)
                rays = [(math.cos(t), math.sin(t))
                        for t in np.linspace(0, 2 * math.pi, 64, False)]
                far = sorted(poly.vertices,
                             key=lambda v: math.hypot(v.x - ox, v.y - oy))
                for v in far[-4:]:
                    dist = math.hypot(v.x - ox, v.y - oy)
                    rays.append(((v.x - ox) / dist, (v.y - oy) / dist))
                for j, (ex, ey) in enumerate(rays):
                    policy = SeededShuffle(j)
                    for f in factors:
                        p = Point(ox + f * r * ex, oy + f * r * ey)
                        got = classify_improved(poly, p, policy)
                        assert got == classify_improved(plain, p, policy)
                        if valid:
                            assert got[0] is Classification.OUTSIDE
                            assert not got[1].exhausted_all
                        dx, dy = p.x - ox, p.y - oy
                        answered += dx * dx + dy * dy > r2
        # the rim factors land either side of it; 1.001, 2 and 10 r never
        assert answered >= 3 * 64 * len(OUTER_RADII) * len(OUTER_SHIFTS)

    def test_band_points_lie_strictly_inside(self):
        # every vertex, and every point 2 eps off a vertex (radially) or
        # off an edge midpoint (along the normal), is in the disk, so no
        # query in the EPS band skips its quad scan
        for n in OUTER_SIZES + (2000,):
            for radius in OUTER_RADII:
                for shift in OUTER_SHIFTS:
                    poly = _shifted_convex(n, n + 50, radius, shift)
                    ox, oy, _, r2, _ = poly.disks
                    v = poly.vertices
                    points = list(v)
                    for a, b in zip(v, v[1:] + v[:1]):
                        dist = math.hypot(a.x - ox, a.y - oy)
                        for off in (2 * EPS, -2 * EPS):
                            points.append(off_midpoint(a, b, off))
                            points.append(Point(
                                a.x + off * (a.x - ox) / dist,
                                a.y + off * (a.y - oy) / dist))
                    for p in points:
                        dx, dy = p.x - ox, p.y - oy
                        assert dx * dx + dy * dy < r2, (n, radius, shift, p)

    def test_built_on_first_use_by_a_query(self):
        # the whole table, the outer disk included, is built at the first
        # query, even one the inner disk answers
        poly = random_convex(12, seed=57, radius=5)
        assert "disks" not in poly.__dict__
        assert "disks" not in validate_convex(poly.vertices).__dict__
        o = poly.centroid()
        classify_improved(poly, o)
        ox, oy, inner, outer, _ = poly.__dict__["disks"]
        assert 0.0 < inner < outer < 400.0
        verdict, _ = classify_improved(poly, Point(ox + 20.0, oy))
        assert verdict is Classification.OUTSIDE


class TestClassifyRaycast:
    def test_square_center(self):
        verdict, stats = classify_raycast(SQUARE, Point(0.5, 0.5))
        assert verdict is Classification.INSIDE
        assert stats.intersection_tests == 4

    def test_left_of_square_two_crossings(self):
        verdict, _ = classify_raycast(SQUARE, Point(-1, 0.5))
        assert verdict is Classification.OUTSIDE

    def test_top_edge_boundary_precheck(self):
        verdict, _ = classify_raycast(SQUARE, Point(0.5, 1.0))
        assert verdict is Classification.ON_BOUNDARY

    def test_vertex_level_ray(self):
        # ray passes exactly through the vertex (2, 0); the half-open rule
        # must count the crossing exactly once
        hexgon = validate_convex([(2, 0), (1, 2), (-1, 2), (-2, 0),
                                  (-1, -2), (1, -2)])
        verdict, _ = classify_raycast(hexgon, Point(0.5, 0.0))
        assert verdict is Classification.INSIDE
        verdict, _ = classify_raycast(hexgon, Point(-3, 0.0))
        assert verdict is Classification.OUTSIDE


class TestClassifyFan:
    def test_square_center(self):
        verdict, _ = classify_fan_triangulation(SQUARE, Point(0.5, 0.5))
        assert verdict is Classification.INSIDE

    def test_single_triangle(self):
        verdict, _ = classify_fan_triangulation(TRIANGLE, Point(0.25, 0.25))
        assert verdict is Classification.INSIDE

    def test_matches_oracle_on_probe(self):
        for p in (Point(0.5, 0.5), Point(2, 2)):
            verdict, _ = classify_fan_triangulation(SQUARE, p)
            assert verdict is oracle_classify(SQUARE, p)

    def test_on_fan_diagonal(self):
        poly = regular_ngon(8)
        # a point strictly inside lying on the spoke V0 -> V4
        v0, v4 = poly.vertices[0], poly.vertices[4]
        p = Point(v0.x + 0.5 * (v4.x - v0.x), v0.y + 0.5 * (v4.y - v0.y))
        verdict, _ = classify_fan_triangulation(poly, p)
        assert verdict is Classification.INSIDE

    def test_just_outside_every_edge(self):
        # 2 eps past the edge midpoint: clear of the boundary pre-check, so
        # the scan decides, and no fan triangle may reach across the edge
        poly = regular_ngon(64)
        v = poly.vertices
        for k in range(poly.n):
            a, b = v[k], v[(k + 1) % poly.n]
            length = math.hypot(b.x - a.x, b.y - a.y)
            p = Point((a.x + b.x) / 2 + 2 * EPS * (b.y - a.y) / length,
                      (a.y + b.y) / 2 - 2 * EPS * (b.x - a.x) / length)
            verdict, _ = classify_fan_triangulation(poly, p)
            assert verdict is Classification.OUTSIDE, k

    def test_outside_point_in_a_wedge_stops_there(self):
        # a point in the wedge between spokes V0->Vi and V0->Vi+1 that the
        # edge Vi->Vi+1 rejects is outside; the scan stops at that wedge
        poly = regular_ngon(1000)
        n = poly.n
        v0, v1, vlast = poly.vertices[0], poly.vertices[1], poly.vertices[-2]
        rng = np.random.default_rng(41)
        stopped = 0
        for x, y in rng.uniform(-1.2, 1.2, (2000, 2)):
            p = Point(float(x), float(y))
            verdict, stats = classify_fan_triangulation(poly, p)
            assert verdict is classify_raycast(poly, p)[0]
            # strictly inside the wedges of triangles 1 .. n - 3
            in_wedge = ((v1.x - v0.x) * (p.y - v0.y)
                        - (v1.y - v0.y) * (p.x - v0.x) > 0
                        and (vlast.x - v0.x) * (p.y - v0.y)
                        - (vlast.y - v0.y) * (p.x - v0.x) < 0)
            if verdict is Classification.OUTSIDE and in_wedge:
                assert stats.edges_tried < n - 2, p
                stopped += 1
        assert stopped > 0

    def test_interior_points_on_every_spoke_at_large_radius(self):
        # a point on the spoke V0 -> Vk must land in one of the two fan
        # triangles that share it, however the spoke's side value rounds
        poly = regular_ngon(1000, radius=1e6)
        v0 = poly.vertices[0]
        for k in range(2, poly.n - 1):
            vk = poly.vertices[k]
            for t in (0.25, 0.5, 0.75):
                p = Point(v0.x + t * (vk.x - v0.x), v0.y + t * (vk.y - v0.y))
                verdict, _ = classify_fan_triangulation(poly, p)
                assert verdict is Classification.INSIDE, (k, t)

    def test_column_scan_matches_scalar_scan(self, monkeypatch):
        # from _VECTOR_MIN vertices on, the pre-check and the spoke scan run
        # over column arrays; raising the threshold reaches the scalar loops
        vmin = polygon_module._VECTOR_MIN
        rng = np.random.default_rng(43)
        cases = []
        for n, radius in [(vmin, 1.0), (vmin + 1, 100.0), (100, 1.0),
                          (2000, 1e6)]:
            poly = random_convex(n, seed=44 + n, radius=radius)
            v = poly.vertices
            o = v[0]
            box = bounding_box(poly)
            pts = [Point(float(x), float(y)) for x, y in zip(
                rng.uniform(box.min.x, box.max.x, 200),
                rng.uniform(box.min.y, box.max.y, 200))] + list(v[::7])
            for k in range(1, n - 1):
                # outside, beyond the middle of edge Vk -> Vk+1 in its wedge
                a, b = v[k], v[k + 1]
                pts.append(Point(o.x + 1.01 * ((a.x + b.x) / 2 - o.x),
                                 o.y + 1.01 * ((a.y + b.y) / 2 - o.y)))
            # even-integer vertices at R = 1e6: the points t * (Vk - V0)
            # past V0 lie exactly on the spoke, with a side value of 0
            big = validate_convex([
                (2.0 * round(5e5 * math.cos(2 * math.pi * k / n)),
                 2.0 * round(5e5 * math.sin(2 * math.pi * k / n)))
                for k in range(n)])
            w = big.vertices
            spokes = [Point(w[0].x + t * (w[k].x - w[0].x),
                            w[0].y + t * (w[k].y - w[0].y))
                      for k in {1, n - 1} | set(range(2, n - 1, n // 40))
                      for t in (0.25, 0.5, 0.75, 2.0)]
            cases += [(poly, pts), (big, spokes)]
        vector = [[classify_fan_triangulation(poly, p) for p in pts]
                  for poly, pts in cases]
        monkeypatch.setattr(polygon_module, "_VECTOR_MIN", 10**9)
        scalar = [[classify_fan_triangulation(poly, p) for p in pts]
                  for poly, pts in cases]
        assert vector == scalar
        verdicts = {r[0] for rows in vector for r in rows}
        assert verdicts == set(Classification)
        assert all("spoke_columns" in poly.__dict__ for poly, _ in cases)


class TestToleranceBand:
    # Every classifier answers with the one absolute band EPS around each
    # edge, on the scalar path below polygon._VECTOR_MIN vertices and on the
    # column-array path from it on. The oracle is left out: it compares a
    # raw cross product, not a distance, with eps (ROADMAP item 1).
    OFFSETS = ((0.5, Classification.ON_BOUNDARY),
               (-0.5, Classification.ON_BOUNDARY),
               (2.0, Classification.OUTSIDE), (5.0, Classification.OUTSIDE),
               (-2.0, Classification.INSIDE), (-5.0, Classification.INSIDE))

    @pytest.mark.parametrize("n", [12, polygon_module._VECTOR_MIN - 1,
                                   polygon_module._VECTOR_MIN, 100, 1000])
    @pytest.mark.parametrize("radius", [1.0, 100.0, 1e4])
    def test_normal_offsets_from_edge_midpoints(self, n, radius):
        k = 0
        for seed in range(3):
            poly = random_convex(n, seed, radius=radius)
            verts = poly.vertices
            for i in range(0, n, max(1, n // 12)):
                a, b = verts[i], verts[(i + 1) % n]
                ux, uy = b.x - a.x, b.y - a.y
                length = math.hypot(ux, uy)
                for f, want in self.OFFSETS:
                    # positive f is along the outward normal (uy, -ux)
                    d = f * EPS / length
                    p = Point((a.x + b.x) / 2 + d * uy,
                              (a.y + b.y) / 2 - d * ux)
                    k += 1
                    # a seed per probe, and the least seed whose order tries
                    # the probe's edge first; probe seeds are negative, so
                    # the two orders always differ
                    own = SeededShuffle(first_edge_seed(i, n))
                    got = (classify_improved(poly, p, SeededShuffle(-k))[0],
                           classify_improved(poly, p, own)[0],
                           classify_raycast(poly, p)[0],
                           classify_fan_triangulation(poly, p)[0])
                    assert got == (want,) * 4, (seed, i, f, got)


def _transform_probes(poly, rng):
    # points 0.5-5 EPS either side of a few edge midpoints and vertices
    # (vertices moved along the ray from the centroid), and points spread
    # over the bounding box and past it
    v = poly.vertices
    n = len(v)
    o = poly.centroid()
    offsets = [s * f * EPS for f in (0.5, 0.99, 1.01, 2.0, 5.0)
               for s in (1, -1)]
    points = []
    for k in rng.integers(0, n, 3).tolist():
        a, b = v[k], v[(k + 1) % n]
        points += [off_midpoint(a, b, off) for off in offsets]
        d = math.hypot(a.x - o.x, a.y - o.y)
        points += [Point(a.x + off * (a.x - o.x) / d,
                         a.y + off * (a.y - o.y) / d) for off in offsets]
    box = bounding_box(poly)
    w, h = box.max.x - box.min.x, box.max.y - box.min.y
    for fx, fy in rng.uniform(-0.25, 1.25, (10, 2)).tolist():
        points.append(Point(box.min.x + fx * w, box.min.y + fy * h))
    return points


class TestExactTransforms:
    # The quarter turn (x, y) -> (-y, x) and a cyclic relabelling of the
    # vertices are exact in floating point, so neither may change an answer
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(3, 100), st.integers(0, 2**32), st.integers(0, 4),
           st.integers(0, 2**32))
    def test_quarter_turn_keeps_improved_and_fan_answers(self, n, seed,
                                                         exponent, probe):
        poly = random_convex(n, seed, 10.0 ** exponent)
        turned = validate_convex([(-y, x) for x, y in poly.vertices])
        assert turned.vertices == tuple(Point(-y, x)
                                        for x, y in poly.vertices)
        policy = SeededShuffle(probe)
        for p in _transform_probes(poly, np.random.default_rng(probe)):
            q = Point(-p.y, p.x)
            assert classify_improved(poly, p, policy) \
                == classify_improved(turned, q, policy), p
            assert classify_fan_triangulation(poly, p) \
                == classify_fan_triangulation(turned, q), p

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(3, 100), st.integers(0, 2**32), st.integers(0, 4),
           st.integers(0, 2**32), st.integers(0, 98))
    def test_relabelling_keeps_every_verdict_and_sigma(self, n, seed,
                                                        exponent, probe,
                                                        shift):
        poly = random_convex(n, seed, 10.0 ** exponent)
        k = 1 + shift % (n - 1)
        moved = validate_convex(poly.vertices[k:] + poly.vertices[:k])
        policy = SeededShuffle(probe)

        def answers(q, p):
            return (classify_improved(q, p, policy)[0],
                    classify_raycast(q, p)[0],
                    classify_fan_triangulation(q, p)[0],
                    oracle_classify(q, p), sigma(q, p))

        for p in _transform_probes(poly, np.random.default_rng(probe)):
            assert answers(poly, p) == answers(moved, p), p


class TestFarPoint:
    # A finite point beyond geom._FAR in a coordinate lies outside every
    # polygon, and the gate answers it before any kernel runs: every
    # classifier says OUTSIDE without trying an edge (every counter 0),
    # and sigma and legality_test, which count admissions, raise. pytest
    # turns RuntimeWarning into an error, so nothing may overflow either.
    POINTS = (Point(1e250, -1e250), Point(-1e300, 5.0), Point(5.0, 1e300),
              Point(1e308, 1e308), Point(-5.0, math.nextafter(_FAR, math.inf)))
    # points on the bound itself still reach the kernels
    AT_BOUND = (Point(_FAR, -_FAR), Point(-_FAR, 5.0), Point(5.0, _FAR))
    SIZES = (12, 64, 2000)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("radius", [1.0, 1e100])
    def test_outside_without_overflow(self, n, radius):
        poly = random_convex(n, seed=n, radius=radius)
        outside = Classification.OUTSIDE
        untried = (outside, TrialStats(0, 0, None, False))
        for p in self.POINTS:
            for policy in (SeededShuffle(3),
                           SeededShuffle(first_edge_seed(n // 2, n))):
                assert classify_improved(poly, p, policy) == untried, p
            assert classify_raycast(poly, p) == untried
            assert classify_fan_triangulation(poly, p) == untried
            assert oracle_classify(poly, p) is outside
            assert oracle_classify(poly, p, 0.0) is outside
            assert classify_quad(adjacent_quad(poly, n - 1), p, n) is outside
            with pytest.raises(GeometryError):
                sigma(poly, p)
            with pytest.raises(GeometryError):
                legality_test(poly, n // 2, p)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("radius", [1.0, 1e100])
    def test_kernels_agree_at_the_bound(self, n, radius, monkeypatch):
        # at |coordinate| = _FAR the column paths get the point unscaled,
        # and they answer as the scalar loops and legality_test do
        poly = random_convex(n, seed=n, radius=radius)
        rows = []
        for p in self.AT_BOUND:
            verdict, _ = classify_improved(poly, p, SeededShuffle(3))
            assert verdict is Classification.OUTSIDE
            fan = classify_fan_triangulation(poly, p)
            assert fan[0] is Classification.OUTSIDE
            sig = sigma(poly, p)
            assert 1 <= sig == sum(legality_test(poly, i, p)
                                   for i in range(n)), p
            rows.append(fan)
        monkeypatch.setattr(polygon_module, "_VECTOR_MIN", 10**9)
        assert [classify_fan_triangulation(poly, p)
                for p in self.AT_BOUND] == rows

    def test_no_kernel_sees_a_far_point(self, monkeypatch):
        # wrap the three kernels where every caller looks them up, then
        # call every public function that takes a query point
        seen = []

        def spy(name, real):
            def kernel(poly, px, py, *rest):
                seen.append((name, max(abs(px), abs(py))))
                return real(poly, px, py, *rest)
            return kernel

        for name in ("_admission_mask", "_cap_admitting", "_fan_wedge"):
            wrapped = spy(name, getattr(polygon_module, name))
            monkeypatch.setattr(polygon_module, name, wrapped)
            if hasattr(classify_module, name):
                monkeypatch.setattr(classify_module, name, wrapped)
        for n in self.SIZES:
            poly = random_convex(n, seed=n)
            ox, oy = poly.disks[:2]
            v = poly.vertices
            # 2 EPS inside an edge midpoint only 3 edges admit: at n = 64
            # and n = 2000 every query finds them through the cap window
            # before its trials, and policy seed 5 gets past the lazy draws
            near = off_midpoint(v[n // 2], v[n // 2 + 1], -2 * EPS)
            for p in self.POINTS + (Point(ox, oy), Point(ox + 3.0, oy), near):
                for seed in (3, first_edge_seed(1, n), 5):
                    classify_improved(poly, p, SeededShuffle(seed))
                classify_raycast(poly, p)
                classify_fan_triangulation(poly, p)
                oracle_classify(poly, p)
                classify_quad(adjacent_quad(poly, 0), p, n)
                for count in (lambda: sigma(poly, p),
                              lambda: legality_test(poly, 0, p)):
                    try:
                        count()
                    except GeometryError:
                        assert p in self.POINTS
        # the spies were reached, by the three near points only
        assert {name for name, _ in seen} == {
            "_admission_mask", "_cap_admitting", "_fan_wedge"}
        assert max(far for _, far in seen) <= 4.0


class TestNonFinitePoint:
    @pytest.mark.parametrize("p", [Point(math.nan, 0.5),
                                   Point(0.5, math.inf),
                                   Point(-math.inf, math.nan)])
    def test_every_classifier_rejects(self, p):
        with pytest.raises(GeometryError):
            classify_improved(SQUARE, p)
        with pytest.raises(GeometryError):
            classify_improved(TRIANGLE, p)
        with pytest.raises(GeometryError):
            classify_raycast(SQUARE, p)
        with pytest.raises(GeometryError):
            classify_fan_triangulation(SQUARE, p)
        with pytest.raises(GeometryError):
            oracle_classify(SQUARE, p)
        with pytest.raises(GeometryError):
            classify_quad(adjacent_quad(SQUARE, 0), p, 4)
        with pytest.raises(GeometryError):
            sigma(SQUARE, p)
        with pytest.raises(GeometryError):
            sigma(TRIANGLE, p)
        with pytest.raises(GeometryError):
            legality_test(SQUARE, 0, p)


class TestBoundaryCompleteness:
    def test_vertices_and_midpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(3, 48))
            poly = random_convex(n, int(rng.integers(0, 2**63 - 1)),
                                 radius=30)
            seed = int(rng.integers(0, 2**63 - 1))
            verts = poly.vertices
            for i, v in enumerate(verts):
                verdict, _ = classify_improved(poly, v, SeededShuffle(seed))
                assert verdict is Classification.ON_BOUNDARY
                nxt = verts[(i + 1) % n]
                mid = Point((v.x + nxt.x) / 2, (v.y + nxt.y) / 2)
                verdict, _ = classify_improved(poly, mid, SeededShuffle(seed))
                assert verdict is Classification.ON_BOUNDARY


class TestDifferentialMini:
    def test_all_classifiers_agree_with_oracle(self):
        rng = np.random.default_rng(3301)
        for _ in range(120):
            n = int(rng.integers(3, 65))
            poly = random_convex(n, int(rng.integers(0, 2**63 - 1)),
                                 radius=float(rng.uniform(4, 60)))
            for p in lattice_probe_points(poly, rng, 25, clear_of_edges=True):
                truth = oracle_classify(poly, p, 0.0)
                vi, _ = classify_improved(
                    poly, p, SeededShuffle(int(rng.integers(0, 2**63 - 1))))
                vr, _ = classify_raycast(poly, p)
                vf, _ = classify_fan_triangulation(poly, p)
                assert vi is truth and vr is truth and vf is truth, \
                    (poly.vertices, p)
