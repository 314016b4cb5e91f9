"""Tests for the three classifiers: unit examples from hand-checked
geometry, policy invariance, reduction soundness, and counter contracts."""

import math

import numpy as np
import pytest

import convexpoint.classify as classify_module
import convexpoint.polygon as polygon_module
from convexpoint.classify import (
    _LAZY_DRAWS,
    SeededShuffle,
    Sequential,
    TrialStats,
    classify_fan_triangulation,
    classify_improved,
    classify_quad,
    classify_raycast,
    edge_order,
    legality_test,
)
from convexpoint.geom import EPS, GeometryError, Point
from convexpoint.polygon import (
    Classification,
    ConvexPolygon,
    _boundary_scan,
    adjacent_quad,
    bounding_box,
    oracle_classify,
    random_convex,
    sigma,
    validate_convex,
)

SQUARE = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = validate_convex([(0, 0), (1, 0), (0, 1)])


def regular_ngon(n, radius=1.0):
    return validate_convex([
        (radius * math.cos(2 * math.pi * k / n),
         radius * math.sin(2 * math.pi * k / n)) for k in range(n)])


def lattice_probe_points(poly, rng, count, clear_of_edges=False):
    box = bounding_box(poly)
    lo_x, hi_x = math.floor(box.min.x) - 1, math.ceil(box.max.x) + 1
    lo_y, hi_y = math.floor(box.min.y) - 1, math.ceil(box.max.y) + 1
    xs = rng.integers(lo_x, hi_x + 1, count)
    ys = rng.integers(lo_y, hi_y + 1, count)
    pts = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    if clear_of_edges:
        pts = [p for p in pts if _boundary_scan(poly, *p, 1e-8) >= 0]
    return pts


class TestEdgeOrder:
    def test_shuffle_is_permutation_and_deterministic(self):
        a = edge_order(SeededShuffle(7), 40)
        assert sorted(a) == list(range(40))
        assert a == edge_order(SeededShuffle(7), 40)
        assert a != edge_order(SeededShuffle(8), 40)

    def test_sequential_wraps(self):
        assert edge_order(Sequential(3), 5) == [3, 4, 0, 1, 2]
        assert edge_order(Sequential(0), 3) == [0, 1, 2]

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
        # the bulk shuffle
        n, runs = 40, 20_000
        for pos in (0, _LAZY_DRAWS):
            counts = [0] * n
            for seed in range(runs):
                counts[edge_order(SeededShuffle(seed), n)[pos]] += 1
            expected = runs / n
            chi2 = sum((c - expected) ** 2 / expected for c in counts)
            assert chi2 < 72.05, pos  # 0.999 quantile, 39 degrees of freedom


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

    def test_triangle_perpendicular_through_apex_rejected(self):
        # apex (1, 1) sits exactly on the perpendicular from (1, 5) to the
        # base's supporting line
        tri = validate_convex([(0, 0), (2, 0), (1, 1)])
        assert not legality_test(tri, 0, Point(1.0, 5.0))
        assert legality_test(tri, 0, Point(1.0, 0.5))


class TestTriangleRule:
    # One triangle, base (0,0)-(2,0) and apex (1,1), at points that reach
    # each branch of the triangle rule: per point, legality_test of edges
    # 0, 1, 2, then sigma, the verdict, and classify_improved's TrialStats
    # under SeededShuffle(1729), SeededShuffle(5), Sequential(0) and
    # Sequential(2).
    TRI = validate_convex([(0, 0), (2, 0), (1, 1)])
    POLICIES = (SeededShuffle(1729), SeededShuffle(5), Sequential(0),
                Sequential(2))
    CASES = {
        # on the base: a zero-length perpendicular for edge 0
        "on_edge": ((1.0, 0.0), (True, True, True), 3, "boundary",
                    ((1, 4, 1), (1, 4, 0), (1, 4, 0), (1, 4, 2))),
        # on the base's line past its end: zero length again, off the edge
        "line_past_end": ((3.0, 0.0), (True, True, True), 3, "outside",
                          ((1, 4, 1), (1, 4, 0), (1, 4, 0), (1, 4, 2))),
        # the perpendicular to the base runs through the apex
        "beyond_apex": ((1.0, 5.0), (False, True, True), 2, "outside",
                        ((1, 4, 1), (2, 5, 2), (2, 5, 1), (1, 4, 2))),
        # the apex is the perpendicular's own end
        "apex": ((1.0, 1.0), (False, True, True), 2, "boundary",
                 ((1, 4, 1), (2, 5, 2), (2, 5, 1), (1, 4, 2))),
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
        eps = 1e-9
        for poly in (regular_ngon(6), random_convex(6, seed=11, radius=3)):
            for i in range(6):
                q = adjacent_quad(poly, i)
                for v in (q.c, q.d):
                    assert classify_quad(q, v, 6, eps) \
                        is Classification.ON_BOUNDARY
                    for k in range(8):
                        t = 2 * math.pi * k / 8
                        p = Point(v.x + 0.5 * eps * math.cos(t),
                                  v.y + 0.5 * eps * math.sin(t))
                        assert classify_quad(q, p, 6, eps) \
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
        verdict, stats = classify_improved(SQUARE, Point(0.5, 0.5),
                                           Sequential(0))
        assert verdict is Classification.INSIDE
        assert stats.legal_edge == 0
        assert stats.edges_tried == 1

    def test_edge_point_any_policy(self):
        for policy in (Sequential(0), Sequential(2), SeededShuffle(5),
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
        # 40 edges and more reach past the lazy draws into the vector step
        # and the bulk order; points just inside or outside an edge are
        # admitted by few edges, so their admitting edge usually lies there
        for n, seed in [(12, 8), (40, 9), (300, 10), (1000, 11), (2000, 12)]:
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
            # Sequential(n - 5) wraps past edge n - 1 within the prefix
            for policy in (SeededShuffle(21), Sequential(n - 5)):
                order = edge_order(policy, poly.n)
                for p in points:
                    _, st = classify_improved(poly, p, policy)
                    if st.legal_edge is None:
                        continue
                    assert order[st.edges_tried - 1] == st.legal_edge
                    # the reported edge passes the admission test in
                    # isolation
                    assert legality_test(poly, st.legal_edge, p)
                    # and every edge tried before it rejects
                    assert not any(legality_test(poly, e, p)
                                   for e in order[:st.edges_tried - 1])

    def test_sigma_zero_never_builds_the_bulk_order(self, monkeypatch):
        def fail(*args):
            raise AssertionError("bulk order built for a sigma = 0 query")

        monkeypatch.setattr(classify_module, "_bulk_rest", fail)
        for n in (_LAZY_DRAWS + 1, 100, 2000):
            poly = regular_ngon(n)
            # the chord lines bound a regular n-gon with the kernel disk as
            # its incircle; halfway out toward one of its corners (direction
            # V0) no edge admits, but the point is outside the disk, so it
            # goes through the lazy prefix first
            r = math.sqrt(poly.kernel_disk[2])
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

    def test_deep_sigma_zero_draws_no_order(self, monkeypatch):
        def fail(*args):
            raise AssertionError("edge order built for a point in the disk")

        monkeypatch.setattr(classify_module, "_order_parts", fail)
        for n in (12, _LAZY_DRAWS + 1, 100, 2000):
            poly = regular_ngon(n)
            ox, oy, r2 = poly.kernel_disk
            r = math.sqrt(r2)
            deep = [Point(ox, oy)] + [
                Point(ox + 0.5 * r * math.cos(t), oy + 0.5 * r * math.sin(t))
                for t in (0.3, 2.0, 4.4)]
            for p in deep:
                for policy in (SeededShuffle(3), Sequential(n // 3)):
                    verdict, stats = classify_improved(poly, p, policy)
                    assert verdict is Classification.INSIDE
                    assert stats == TrialStats(n, n, None, True)

    def test_unknown_policy_rejected_for_every_point(self):
        for poly in (TRIANGLE, SQUARE, regular_ngon(12), regular_ngon(100)):
            ox, oy, _ = poly.kernel_disk
            for p in (Point(ox, oy), poly.vertices[1]):
                with pytest.raises(TypeError):
                    classify_improved(poly, p, object())

    def test_policy_invariance(self):
        rng = np.random.default_rng(5)
        for n, seed in [(3, 61), (4, 62), (7, 63), (20, 64)]:
            poly = random_convex(n, seed, radius=15)
            for p in lattice_probe_points(poly, rng, 15):
                verdicts = set()
                for k in range(n):
                    v, _ = classify_improved(poly, p, Sequential(k))
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


def _scaled_convex(n, seed, radius):
    # random_convex cannot build large n at small radius (its validator
    # compares a raw cross product with eps), so scale a unit polygon
    return ConvexPolygon(tuple(Point(radius * v.x, radius * v.y)
                               for v in random_convex(n, seed).vertices))


def _with_disk(poly, r2):
    # the same polygon with its kernel disk replaced by one of squared
    # radius r2 around the same centre
    ox, oy, _ = poly.kernel_disk
    copy = ConvexPolygon(poly.vertices)
    copy.__dict__["kernel_disk"] = (ox, oy, r2)
    return copy


class TestKernelDisk:
    def test_points_on_the_circle_are_admitted_by_no_edge(self):
        for n in (12, 100, 2000):
            for radius in (1e-2, 1.0, 1e6):
                poly = _scaled_convex(n, n + 7, radius)
                ox, oy, r2 = poly.kernel_disk
                assert r2 > 0
                r = (1 - 1e-9) * math.sqrt(r2)
                for k in range(64):
                    t = 2 * math.pi * k / 64
                    p = Point(ox + r * math.cos(t), oy + r * math.sin(t))
                    assert sigma(poly, p) == 0, (n, radius, k)
                    assert classify_improved(poly, p)[1] == \
                        TrialStats(n, n, None, True)

    def test_matches_a_scalar_loop_over_the_chords(self):
        for n, seed in [(7, 81), (12, 82), (100, 83)]:
            poly = random_convex(n, seed, radius=40)
            o = poly.centroid()
            r = min((ux * (o.y - cy) - uy * (o.x - cx)) / math.hypot(ux, uy)
                    for cx, cy, ux, uy in poly.chords)
            ox, oy, r2 = poly.kernel_disk
            assert (ox, oy) == (o.x, o.y)
            assert r > 0 and r2 == pytest.approx(r * r, rel=1e-12)

    def test_triangles_squares_and_pentagons_get_an_empty_disk(self):
        # A triangle's chords collapse to a vertex and a square's are its
        # edges reversed. In a pentagon the inner sides of the chords of
        # edges 1 and 3 hold the triangles V0V1V2 and V3V4V0, which meet
        # only at V0.
        polys = [TRIANGLE, SQUARE]
        polys += [random_convex(n, seed, radius=5)
                  for n in (3, 4, 5) for seed in range(20)]
        for poly in polys:
            assert poly.kernel_disk[2] == -1.0

    def test_raw_constructor_compares_and_hashes_as_before(self):
        verts = random_convex(9, seed=56, radius=3).vertices
        a, b = ConvexPolygon(verts), ConvexPolygon(verts)
        h, r = hash(a), repr(a)
        assert a.kernel_disk[2] > 0
        assert a == b and b == a
        assert hash(a) == h == hash(b) == hash((verts,))
        assert repr(a) == r == f"ConvexPolygon(vertices={verts!r})"

    def test_disk_orders_the_work_but_never_decides(self):
        # against the same polygon with an empty disk and with one that
        # holds the whole plane: points just inside and just outside the
        # circle, points 2 eps off edges and the vertices
        rng = np.random.default_rng(91)
        for n in (7, 12, _LAZY_DRAWS + 1, 100, 1000):
            for radius in (1e-2, 1.0, 1e6):
                poly = _scaled_convex(n, n + 90, radius)
                ox, oy, r2 = poly.kernel_disk
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
                empty = _with_disk(poly, -1.0)
                plane = _with_disk(poly, math.inf)
                for policy in (SeededShuffle(5), Sequential(n // 3)):
                    for p in points:
                        got = classify_improved(poly, p, policy)
                        assert got == classify_improved(empty, p, policy)
                        assert got == classify_improved(plane, p, policy)


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
