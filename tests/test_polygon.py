"""Tests for polygon validation, quad extraction, generation, the oracle,
and the legal-edge count."""

import json
import math
import warnings

import numpy as np
import pytest

from convexpoint import polygon
from convexpoint.classify import (
    classify_fan_triangulation,
    classify_improved,
    classify_raycast,
)
from convexpoint.geom import (
    EPS,
    GeometryError,
    Point,
    _on_segment_coords,
    _ring_scan,
)
from convexpoint.polygon import (
    _VECTOR_MIN,
    Classification,
    ConvexPolygon,
    DuplicateVertexError,
    GenerationError,
    NotConvexError,
    NotSimpleError,
    PolygonError,
    TooFewVerticesError,
    _admission_mask,
    _boundary_scan,
    _cap_admitting,
    adjacent_quad,
    bounding_box,
    dump_polygon,
    load_polygon,
    oracle_classify,
    polygon_from_dict,
    random_convex,
    sigma,
    validate_convex,
)

from bandgeom import legality_test

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def regular_ngon(n, radius=1.0):
    return validate_convex([
        (radius * math.cos(2 * math.pi * k / n),
         radius * math.sin(2 * math.pi * k / n)) for k in range(n)])


class TestValidateConvex:
    def test_ccw_square_unchanged(self):
        poly = validate_convex(SQUARE)
        assert poly.vertices == tuple(Point(float(x), float(y))
                                      for x, y in SQUARE)

    def test_cw_square_reversed(self):
        poly = validate_convex([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert poly.vertices[0] == Point(1, 0)
        # same vertex set, now counter-clockwise
        area2 = sum(a.x * b.y - b.x * a.y for a, b in
                    zip(poly.vertices, poly.vertices[1:] + poly.vertices[:1]))
        assert area2 > 0

    def test_collinear_triple_rejected(self):
        with pytest.raises(NotConvexError):
            validate_convex([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_too_few(self):
        with pytest.raises(TooFewVerticesError):
            validate_convex([(0, 0), (1, 0)])

    def test_duplicate_consecutive(self):
        with pytest.raises(DuplicateVertexError):
            validate_convex([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_reflex_rejected(self):
        with pytest.raises(NotConvexError):
            validate_convex([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])

    def test_star_polygon_rejected(self):
        # pentagram: every turn is a left turn but the ring winds twice
        pts = [(math.cos(math.pi / 2 + 4 * math.pi * k / 5),
                math.sin(math.pi / 2 + 4 * math.pi * k / 5))
               for k in range(5)]
        with pytest.raises(NotSimpleError):
            validate_convex(pts)

    @pytest.mark.parametrize("ring", [
        [(0, 0), (1e160, 0), (0, 1e160)],  # cross products reach inf
        [(0, 0), (1e155, 1e155), (0, 1e140)],  # a hairpin's reach NaN
    ])
    def test_overflowing_cross_product_rejected(self, ring):
        with pytest.raises(PolygonError, match="overflows"):
            validate_convex(ring)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # also when a finite coordinate above the bound comes first, and
        # when +inf and -inf together would sum to NaN
        for ring in ([(0, 0), (bad, 1), (1, 1)],
                     [(1e200, 0), (0, bad), (1, 1)],
                     [(0, 0), (math.inf, 1), (-math.inf, 1), (bad, 2)]):
            with pytest.raises(GeometryError, match="not finite"):
                validate_convex(ring)

    def test_coordinate_bound_is_inclusive(self):
        ring = [(0, 0), (1e152, 0), (1e152, 1e152), (-1e152, 1)]
        assert validate_convex(ring).n == 4
        with pytest.raises(PolygonError, match="exceeds"):
            validate_convex([(x * 1.0000001, y) for x, y in ring])


class TestAdjacentQuad:
    def test_square_edge0(self):
        poly = validate_convex(SQUARE)
        q = adjacent_quad(poly, 0)
        assert (q.c, q.a, q.b, q.d) == (Point(0, 1), Point(0, 0),
                                        Point(1, 0), Point(1, 1))

    def test_triangle_degenerate(self):
        poly = validate_convex([(0, 0), (1, 0), (0, 1)])
        q = adjacent_quad(poly, 0)
        assert q.c == q.d == Point(0, 1)
        assert (q.a, q.b) == (Point(0, 0), Point(1, 0))

    def test_hexagon_edge2(self):
        poly = regular_ngon(6)
        q = adjacent_quad(poly, 2)
        v = poly.vertices
        assert (q.c, q.a, q.b, q.d) == (v[1], v[2], v[3], v[4])

    def test_out_of_range(self):
        poly = validate_convex(SQUARE)
        with pytest.raises(IndexError):
            adjacent_quad(poly, 4)
        with pytest.raises(IndexError):
            adjacent_quad(poly, -1)

    def test_ring_consistency(self):
        for n, seed in [(3, 1), (4, 2), (7, 3), (24, 4)]:
            poly = random_convex(n, seed, radius=10)
            for i in range(n):
                q1 = adjacent_quad(poly, i)
                q2 = adjacent_quad(poly, (i + 1) % n)
                assert q1.b == q2.a
                assert q1.d == q2.b


class TestRandomConvex:
    def test_triangle_is_valid(self):
        poly = random_convex(3, seed=42, radius=1)
        assert validate_convex(poly.vertices).vertices == poly.vertices

    def test_largest_size(self):
        poly = random_convex(2000, seed=7, radius=100)
        assert poly.n == 2000
        assert validate_convex(poly.vertices).vertices == poly.vertices

    def test_deterministic(self):
        a = random_convex(50, seed=9, radius=3.5)
        b = random_convex(50, seed=9, radius=3.5)
        assert a.vertices == b.vertices
        c = random_convex(50, seed=10, radius=3.5)
        assert a.vertices != c.vertices

    def test_validator_always_passes_over_seeds(self):
        # random_convex re-validates internally, so constructing is the
        # check; sizes are drawn log-uniform so large rings stay affordable
        rng = np.random.default_rng(0)
        for k in range(1000):
            n = int(3 + math.floor(2045 ** rng.random()))
            seed = int(rng.integers(0, 2**63 - 1))
            poly = random_convex(n, seed, radius=100)
            assert poly.n == n
            if k % 25 == 0:
                for v in poly.vertices:
                    assert oracle_classify(poly, v) \
                        is Classification.ON_BOUNDARY
                assert oracle_classify(poly, poly.centroid()) \
                    is Classification.INSIDE

    def test_rejects_bad_args(self):
        with pytest.raises(Exception):
            random_convex(2, seed=1)
        with pytest.raises(Exception):
            random_convex(5, seed=1, radius=0.0)

    def test_giving_up_raises_generation_error(self):
        # at radius 1e-4 every turn's cross product is below the absolute
        # collinearity tolerance, so no attempt validates
        with pytest.raises(GenerationError) as info:
            random_convex(12, seed=1, radius=1e-4)
        assert isinstance(info.value, PolygonError)
        assert isinstance(info.value, RuntimeError)

    @pytest.mark.parametrize("radius, built", [(1e-2, 0), (1e6, 2000)])
    def test_points_built_once_on_success(self, monkeypatch, radius, built):
        # every attempt at radius 1e-2 fails its turn check; candidates are
        # checked as arrays, so a give-up builds no Point and a polygon
        # builds one per vertex, once
        count = 0

        def counting_point(*args):
            nonlocal count
            count += 1
            return Point(*args)

        monkeypatch.setattr(polygon, "Point", counting_point)
        if built:
            assert random_convex(2000, 1, radius=radius).n == 2000
        else:
            with pytest.raises(GenerationError):
                random_convex(2000, 1, radius=radius)
        assert count == built

    def test_overflowing_radius_gives_up(self):
        # at radius 1e160 the cross products overflow; such a ring used to
        # validate, and the classifiers then disagreed on it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GenerationError):
                random_convex(50, 1, radius=1e160)

    def test_radius_above_coordinate_bound_gives_up(self):
        # at radius 5e154 the ring's own cross products stay finite, but
        # products with query offsets overflow and the classifiers used to
        # disagree on most bounding-box points
        with pytest.raises(GenerationError):
            random_convex(64, 1, radius=5e154)

    @pytest.mark.parametrize("n", [12, 50])
    def test_large_radius_below_overflow_agrees(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            poly = random_convex(n, 1, radius=1e150)
            box = bounding_box(poly)
            rng = np.random.default_rng(n)
            for x, y in zip(rng.uniform(box.min.x, box.max.x, 200),
                            rng.uniform(box.min.y, box.max.y, 200)):
                p = Point(float(x), float(y))
                verdicts = {classify_improved(poly, p)[0],
                            classify_raycast(poly, p)[0],
                            classify_fan_triangulation(poly, p)[0],
                            oracle_classify(poly, p)}
                assert len(verdicts) == 1, p


def _indexed_oracle(poly, p, eps):
    """The oracle's indexed loop over edges V[i] -> V[i+1], frozen as the
    reference for both of its paths. Returns the verdict and which of the
    two flags it set, so the test can show that it reached every branch."""
    verts = poly.vertices
    n = len(verts)
    px, py = p
    on_edge = False
    off_line = False
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cr < -eps:
            return Classification.OUTSIDE, None
        if cr <= eps:
            if _on_segment_coords(px, py, ax, ay, bx, by, max(eps, EPS)):
                on_edge = True
            else:
                off_line = True
    if on_edge:
        return Classification.ON_BOUNDARY, (True, off_line)
    if off_line:
        return Classification.OUTSIDE, (False, True)
    return Classification.INSIDE, (False, False)


def _mirrored_ngon(n, radius):
    """A regular-angled n-gon whose closing edge V[n-1] -> V0 is exactly
    horizontal: vertex n-1-j is vertex j mirrored in the y axis."""
    half = [(radius * math.cos(t), radius * math.sin(t)) for t in
            (-math.pi / 2 + math.pi * (2 * j + 1) / n
             for j in range((n + 1) // 2))]
    right = half[:n // 2]
    apex = [(0.0, half[-1][1])] if n % 2 else []
    return right + apex + [(-x, y) for x, y in reversed(right)]


class TestOracle:
    EPSILONS = (0.0, 1e-9, 1e-6)

    def test_square_center(self):
        poly = validate_convex(SQUARE)
        assert oracle_classify(poly, Point(0.5, 0.5)) is Classification.INSIDE

    def test_square_edge_midpoint(self):
        poly = validate_convex(SQUARE)
        assert oracle_classify(poly, Point(0.5, 0)) \
            is Classification.ON_BOUNDARY

    def test_square_exterior(self):
        poly = validate_convex(SQUARE)
        assert oracle_classify(poly, Point(2, 2)) is Classification.OUTSIDE

    def test_on_supporting_line_beyond_edge(self):
        poly = validate_convex(SQUARE)
        assert oracle_classify(poly, Point(2, 0)) is Classification.OUTSIDE

    def test_vertices_and_centroid(self):
        for n, seed in [(3, 11), (8, 12), (40, 13)]:
            poly = random_convex(n, seed, radius=20)
            for v in poly.vertices:
                assert oracle_classify(poly, v) is Classification.ON_BOUNDARY
            assert oracle_classify(poly, poly.centroid()) \
                is Classification.INSIDE

    @pytest.mark.parametrize("n", [4, 64])
    def test_rejects_eps_outside_zero_to_inf(self, n):
        # n = 4 takes the scalar loop and n = 64 the column path. Unchecked,
        # each eps gives a wrong verdict: nan INSIDE at (5, 5), -1 OUTSIDE
        # at the centre, inf ON_BOUNDARY everywhere.
        poly = validate_convex(SQUARE) if n == 4 else regular_ngon(n)
        centre = poly.centroid()
        for eps in (math.nan, -1.0, math.inf):
            for p in (Point(5, 5), centre):
                with pytest.raises(ValueError, match="eps"):
                    oracle_classify(poly, p, eps)
        assert oracle_classify(poly, Point(5, 5), 0.0) \
            is Classification.OUTSIDE
        assert oracle_classify(poly, centre, 0.0) is Classification.INSIDE

    @staticmethod
    def _polygons(n):
        for k, radius in enumerate((1.0, 1e4, 1e6)):
            yield random_convex(n, seed=70 + 3 * n + k, radius=radius)
        # the validator rejects this scale, so build the ring directly
        yield ConvexPolygon(tuple(
            Point(1e-2 * x, 1e-2 * y)
            for x, y in random_convex(n, seed=71 + n, radius=1.0).vertices))
        # an exactly horizontal closing edge, and its quarter turn, an exactly
        # vertical one: on them cr is 0 and the distance a few ulp
        ring = _mirrored_ngon(n, 1e4)
        yield validate_convex(ring)
        yield validate_convex([(-y, x) for x, y in ring])

    @staticmethod
    def _points(poly, rng):
        v = poly.vertices
        n = len(v)
        scale = max(max(abs(x), abs(y)) for x, y in v)
        edges = range(n) if n <= 12 else sorted(
            {0, 1, n - 1} | set(rng.integers(0, n, 2).tolist()))
        # vertices, midpoints and the benchmark's offsets from them
        yield from TestBoundaryScan._edge_probes(poly, edges)
        for k in edges:
            (x0, y0), (x1, y1) = v[k - 1], v[k]
            length = math.hypot(x1 - x0, y1 - y0)
            tx, ty = (x1 - x0) / length, (y1 - y0) / length
            for t in (0.3, 1 / 3):
                yield Point(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            off = 1e-6 * scale
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            yield Point(mx - off * ty, my + off * tx)
            yield Point(mx + off * ty, my - off * tx)
            # on the edge, just in from either end: at small scale within
            # eps of the neighbour's line but off its segment, so both flags
            yield Point(x1 - off * tx, y1 - off * ty)
            yield Point(x0 + off * tx, y0 + off * ty)
            # on the edge's line, just past either end: the off_line branch
            for off in (5e-10, 2e-9, 2e-6, 1e-6 * scale):
                yield Point(x1 + off * tx, y1 + off * ty)
                yield Point(x0 - off * tx, y0 - off * ty)
        xs = [x for x, _ in v]
        ys = [y for _, y in v]
        pad = 0.1 * scale
        for x, y in zip(rng.uniform(min(xs) - pad, max(xs) + pad, 30),
                        rng.uniform(min(ys) - pad, max(ys) + pad, 30)):
            yield Point(float(x), float(y))

    @pytest.mark.parametrize("n", [3, 4, 12, _VECTOR_MIN - 1, _VECTOR_MIN,
                                   _VECTOR_MIN + 1, 100, 2000])
    def test_matches_indexed_reference(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        branches = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for poly in self._polygons(n):
                cases = []
                for p in self._points(poly, rng):
                    for eps in self.EPSILONS:
                        want, flags = _indexed_oracle(poly, p, eps)
                        branches.add(flags)
                        cases.append((p, eps, want))
                for p, eps, want in cases:
                    assert oracle_classify(poly, p, eps) is want, (n, p, eps)
                assert ("ring_columns" in poly.__dict__) is (
                    n >= _VECTOR_MIN)
                # the other path on the same polygon
                monkeypatch.setattr(polygon, "_VECTOR_MIN",
                                    n + 1 if n >= _VECTOR_MIN else 3)
                for p, eps, want in cases:
                    assert oracle_classify(poly, p, eps) is want, (n, p, eps)
                monkeypatch.undo()
        # strictly right of an edge; inside; on an edge only; off the
        # segment on its line only; and both, where on_edge must win
        assert branches >= {None, (False, False), (True, False),
                            (False, True), (True, True)}, branches

    @pytest.mark.parametrize("n", [4, 64])
    def test_segment_tests_only_near_edges_after_the_sides(self, n,
                                                           monkeypatch):
        # Both paths test segments only once no edge has the point strictly
        # right, and only the near edges. A point on the closing edge's
        # line just past V0 is strictly right of V0 -> V1, so it costs no
        # segment test; a point at an edge's midpoint costs exactly one.
        poly = validate_convex(SQUARE) if n == 4 else regular_ngon(n)
        (x0, y0), (x1, y1), (x2, y2) = poly.vertices[-1], *poly.vertices[:2]
        past = Point(x1 + 0.5 * (x1 - x0), y1 + 0.5 * (y1 - y0))
        mid = Point((x1 + x2) / 2, (y1 + y2) / 2)
        calls = []

        def counted(*args):
            calls.append(args)
            return _on_segment_coords(*args)

        monkeypatch.setattr(polygon, "_on_segment_coords", counted)
        for vector_min in (n + 1, 3):  # the scalar loop, then the columns
            monkeypatch.setattr(polygon, "_VECTOR_MIN", vector_min)
            calls.clear()
            assert oracle_classify(poly, past) is Classification.OUTSIDE
            assert calls == [], vector_min
            assert oracle_classify(poly, mid) is Classification.ON_BOUNDARY
            assert len(calls) == 1, vector_min


class TestBoundingBox:
    def test_square(self):
        box = bounding_box(validate_convex(SQUARE))
        assert box.min == Point(0, 0) and box.max == Point(1, 1)

    def test_triangle(self):
        box = bounding_box(validate_convex([(0, 0), (2, 0), (1, 3)]))
        assert box.min == Point(0, 0) and box.max == Point(2, 3)

    def test_contains_all_vertices(self):
        poly = random_convex(64, seed=21, radius=12)
        box = bounding_box(poly)
        for v in poly.vertices:
            assert box.min.x <= v.x <= box.max.x
            assert box.min.y <= v.y <= box.max.y


class TestSeparation:
    def test_chord_separates_quad_from_rest(self):
        # for every edge, all vertices outside the quad chain lie strictly
        # on the opposite side of line(c, d) from the edge midpoint
        for n, seed in [(5, 31), (9, 32), (33, 33), (128, 34)]:
            poly = random_convex(n, seed, radius=50)
            for i in range(n):
                q = adjacent_quad(poly, i)
                mid = Point((q.a.x + q.b.x) / 2, (q.a.y + q.b.y) / 2)
                ux, uy = q.d.x - q.c.x, q.d.y - q.c.y
                side_mid = ux * (mid.y - q.c.y) - uy * (mid.x - q.c.x)
                chain = {q.c, q.a, q.b, q.d}
                for v in poly.vertices:
                    if v in chain:
                        continue
                    side_v = ux * (v.y - q.c.y) - uy * (v.x - q.c.x)
                    assert side_v * side_mid < 0


class TestChordTable:
    def test_matches_adjacent_quad(self):
        # a triangle's row is edge a -> b's parallel at twice the height of
        # its apex c == d
        for n, seed in [(3, 51), (4, 52), (5, 53), (40, 54)]:
            poly = random_convex(n, seed, radius=20)
            assert len(poly.chords) == n
            for i in range(n):
                q = adjacent_quad(poly, i)
                if n == 3:
                    assert poly.chords[i] == (
                        2 * q.c.x - q.a.x, 2 * q.c.y - q.a.y,
                        q.b.x - q.a.x, q.b.y - q.a.y)
                else:
                    assert poly.chords[i] == (q.c.x, q.c.y,
                                              q.d.x - q.c.x, q.d.y - q.c.y)

    def test_raw_constructor_compares_and_hashes_as_before(self):
        verts = random_convex(9, seed=55, radius=3).vertices
        a, b = ConvexPolygon(verts), ConvexPolygon(verts)
        h, r = hash(a), repr(a)
        assert a.chords
        assert a == b and b == a
        assert hash(a) == h == hash(b) == hash((verts,))
        assert repr(a) == r == f"ConvexPolygon(vertices={verts!r})"
        assert a != ConvexPolygon(verts[1:] + verts[:1])

    def test_ring_and_spoke_columns(self):
        verts = random_convex(_VECTOR_MIN + 3, seed=56, radius=3).vertices
        a, b = ConvexPolygon(verts), ConvexPolygon(verts)
        h, r = hash(a), repr(a)
        ax, ay, by, ux, uy, band = a.ring_columns
        sx, sy = a.spoke_columns
        assert a == b and b == a
        assert hash(a) == h == hash(b)
        assert repr(a) == r == f"ConvexPolygon(vertices={verts!r})"
        o = verts[0]
        for k, (x1, y1) in enumerate(verts):
            x0, y0 = verts[k - 1]
            assert (ax[k], ay[k], by[k], ux[k], uy[k], band[k]) == (
                x0, y0, y1, x1 - x0, y1 - y0,
                EPS * (abs(x1 - x0) + abs(y1 - y0)))
            assert (sx[k], sy[k]) == (x1 - o.x, y1 - o.y)

    @pytest.mark.parametrize("n", [3, 4, _VECTOR_MIN - 1, _VECTOR_MIN, 2000])
    def test_columns_match_an_array_build(self, n):
        # each column holds the same bits as one built through np.array
        poly = random_convex(n, seed=n + 57, radius=10)
        v = np.array(poly.vertices, dtype=np.float64)
        a = np.roll(v, 1, axis=0)
        ux, uy = v[:, 0] - a[:, 0], v[:, 1] - a[:, 1]
        builds = [
            (poly.ring_columns, (a[:, 0], a[:, 1], v[:, 1], ux, uy,
                                 EPS * (np.abs(ux) + np.abs(uy)))),
            (poly.spoke_columns, (v[:, 0] - v[0, 0], v[:, 1] - v[0, 1])),
            (poly.chord_columns,
             tuple(np.array(poly.chords, dtype=np.float64).T))]
        for got, want in builds:
            assert len(got) == len(want)
            for column, old in zip(got, want):
                assert column.dtype == np.float64 and column.shape == (n,)
                assert column.flags.c_contiguous
                assert column.tobytes() == old.tobytes()


def _hull(points):
    # the convex hull of (x, y) pairs, counter-clockwise, with no collinear
    # vertex (Andrew's monotone chain)
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _cap_probes(poly, rng):
    # +-{0.5, 1, 2, 5, 10} EPS and +-1e-6 R off the midpoints and start
    # vertices of 12 edges, and points between the inner disk and the
    # outer disk
    v = poly.vertices
    n = len(v)
    ox, oy, r2, outer, _ = poly.disks
    outer = math.sqrt(outer)
    offs = [s * f * EPS for f in (0.5, 1, 2, 5, 10) for s in (1, -1)]
    offs += [1e-6 * outer, -1e-6 * outer]
    points = []
    for k in rng.integers(0, n, 12).tolist():
        (ax, ay), (bx, by) = v[k], v[(k + 1) % n]
        length = math.hypot(bx - ax, by - ay)
        nx, ny = (by - ay) / length, -(bx - ax) / length
        for x, y in (((ax + bx) / 2, (ay + by) / 2), (ax, ay)):
            points += [(x + d * nx, y + d * ny) for d in offs]
    inner = math.sqrt(max(r2, 0.0))
    for t, f in zip(rng.uniform(0, 2 * math.pi, 24), rng.uniform(0, 1, 24)):
        r = inner + f * (outer - inner)
        points.append((ox + r * math.cos(t), oy + r * math.sin(t)))
    return points


def _cap_edges(poly, px, py, dy=None):
    # _cap_admitting at a point within the outer disk: the mask's edges
    # where it returns a list, and None only where the point's window, the
    # chords whose normal angle lies within the caps' width of the point's
    # angle about g, holds more than _VECTOR_MIN chords. A given dy stands
    # for py - gy, so +-0.0 puts the angle at exactly +-pi
    gx, gy, _, outer, caps = poly.disks
    dx = px - gx
    if dy is None:
        dy = py - gy
    assert caps is not None and dx * dx + dy * dy <= outer
    got = _cap_admitting(poly, px, py, caps, dx, dy)
    width = caps[0]
    _, _, ux, uy = poly.chord_columns
    off = abs((np.arctan2(-ux, uy) - math.atan2(dy, dx) + math.pi)
              % math.tau - math.pi)
    if got is None:
        assert np.count_nonzero(off <= width * (1 + 1e-9)) > _VECTOR_MIN
    else:
        assert np.count_nonzero(off <= width * (1 - 1e-9)) <= _VECTOR_MIN
        assert got == _admission_mask(poly, px, py).nonzero()[0].tolist(), \
            (poly.n, px, py)
    return got


def _within_outer(poly, px, py):
    gx, gy, _, outer, _ = poly.disks
    dx, dy = px - gx, py - gy
    return dx * dx + dy * dy <= outer


def _sector():
    # a circular sector: the chord at its apex has both candidate centres on
    # its edge side, so the polygon has no caps
    return validate_convex([(0.0, 0.0)] + [
        (math.cos(t), math.sin(t)) for t in np.linspace(-0.1, 0.1, 19)])


def _thin_ellipse():
    # a 200-gon on an ellipse with axis ratio 1:100
    return validate_convex([
        (math.cos(2 * math.pi * k / 200),
         0.01 * math.sin(2 * math.pi * k / 200)) for k in range(200)])


class TestChordCaps:
    def _same_as_mask(self, polys, rng):
        # the caps' edges against the mask's at every probe within the
        # outer disk; returns how many probes they answered
        located = 0
        for poly in polys:
            for px, py in _cap_probes(poly, rng):
                if _within_outer(poly, px, py):
                    located += _cap_edges(poly, px, py) is not None
        return located

    def test_random_rings_match_the_mask(self):
        rng = np.random.default_rng(91)
        polys = []
        for n in (17, 100, 1000, 2000):
            unit = random_convex(n, seed=n + 90).vertices
            for radius in (1e-2, 1.0, 1e4, 1e6):
                for shift in (0.0, 1e6):
                    polys.append(ConvexPolygon(tuple(
                        Point(radius * x + shift, radius * y + shift)
                        for x, y in unit)))
        assert all(p.disks[4] is not None for p in polys)
        located = self._same_as_mask(polys, rng)
        assert located > len(polys) * 100

    def test_thin_hulls_match_the_mask(self):
        # hulls of points on ellipses with axis ratios 1 to 0.01, where
        # admitting sets can split into runs and caps grow wide
        rng = np.random.default_rng(92)
        polys = []
        for ratio in (1.0, 0.3, 0.1, 0.03, 0.01):
            for m in (40, 300):
                t = rng.uniform(0, 2 * math.pi, m)
                ring = _hull(list(zip(np.cos(t).tolist(),
                                      (ratio * np.sin(t)).tolist())))
                polys.append(ConvexPolygon(tuple(map(Point, *zip(*ring)))))
        assert all(p.n >= 17 for p in polys)
        self._same_as_mask(polys, rng)

    def test_the_mask_answers_where_the_caps_cannot(self):
        sector = _sector()
        assert sector.disks[4] is None
        # a point three radii out lies beyond the outer disk
        ring = random_convex(100, seed=93, radius=10)
        assert ring.disks[4] is not None
        # 2 EPS inside a long side of a 1:100 ellipse, about half of the
        # 200 chords' caps face the point
        ellipse = _thin_ellipse()
        assert ellipse.disks[4][0] > 1.5
        v = ellipse.vertices
        cases = [(sector, Point(0.9, 0.0)), (ring, Point(30.0, 0.0)),
                 (ellipse, Point((v[50].x + v[51].x) / 2,
                                 (v[50].y + v[51].y) / 2 - 2 * EPS))]
        assert not _within_outer(ring, *cases[1][1])
        assert _cap_edges(ellipse, *cases[2][1]) is None
        for poly, p in cases:
            assert sigma(poly, p) > 0
        # and a near point of the 100-gon is found through the caps
        assert _cap_edges(ring, *ring.vertices[7])

    def test_windows_at_plus_and_minus_pi(self):
        # a point at angle exactly +-pi about g (dy = +-0.0, dx < 0), or
        # within 1e-12 of it, has a window past the end of the stored
        # angles, which its margin copies continue; along each ray, points
        # on, just off and well inside the ring, up to the outer disk
        polys = [random_convex(17, seed=97, radius=10),
                 random_convex(2000, seed=98, radius=10), _thin_ellipse()]
        answers = []
        for poly in polys:
            gx, gy, _, outer, caps = poly.disks
            assert caps is not None
            v = poly.vertices
            found = {"none": 0, "empty": 0, "edges": 0}
            for phi in (math.pi, math.pi - 1e-12, 1e-12 - math.pi):
                cx, cy = (-1.0, 0.0) if phi == math.pi else (
                    math.cos(phi), math.sin(phi))
                # the ring's distance from g along the ray: the nearest
                # supporting line ahead, over outward normals (by - ay,
                # ax - bx) of the counter-clockwise ring
                dist = min(
                    ((ax - gx) * (by - ay) + (ay - gy) * (ax - bx))
                    / (cx * (by - ay) + cy * (ax - bx))
                    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1])
                    if cx * (by - ay) + cy * (ax - bx) > 0)
                ts = [dist + d for d in (0.0, 2 * EPS, -2 * EPS, 5 * EPS,
                                         -5 * EPS, 1e-6 * dist, -1e-3 * dist)]
                ts += [f * math.sqrt(outer) for f in (0.5, 0.75, 0.9, 1.0)]
                for t in ts:
                    px, py = gx + t * cx, gy + t * cy
                    if not _within_outer(poly, px, py):
                        continue
                    dys = (0.0, -0.0) if phi == math.pi else (None,)
                    got = [_cap_edges(poly, px, py, dy) for dy in dys]
                    assert got[0] == got[-1], (poly.n, t)
                    found["none" if got[0] is None else "edges" if got[0]
                          else "empty"] += 1
            answers.append(found)
        # the rings' windows hold at most _VECTOR_MIN chords and find the
        # ring points' edges; about the ellipse's tip they hold more
        for found in answers[:2]:
            assert found["none"] == 0 and found["edges"] > 0, answers
        assert answers[2]["none"] > 0 == answers[2]["edges"], answers

    def test_the_inner_disk_and_the_caps_share_one_bound(self):
        # both come from the least certified lower bound h over the chords,
        # so a polygon has an inner disk exactly when it has caps; on scaled
        # and shifted rings, the sector and the 1:100 ellipse
        polys = [_sector(), _thin_ellipse()]
        for n in (3, 4, 5, 6, 7, 12, 17, 100, 2000):
            unit = random_convex(n, seed=n + 96).vertices
            for radius in (1e-2, 1.0, 1e6):
                for shift in (0.0, 1e6):
                    polys.append(ConvexPolygon(tuple(
                        Point(radius * x + shift, radius * y - shift)
                        for x, y in unit)))
        both = 0
        for poly in polys:
            _, _, inner, _, caps = poly.disks
            assert (inner > 0) is (caps is not None), poly.n
            both += caps is not None
        assert 0 < both < len(polys)

    def test_built_on_first_use_only(self):
        poly = random_convex(100, seed=94, radius=10)
        again = validate_convex(poly.vertices)
        assert "disks" not in poly.__dict__
        assert "disks" not in again.__dict__
        width, theta, edge = poly.disks[4]
        assert 0 < width < math.pi / 2
        # the stored angles are sorted; those in [-pi, pi] hold every chord
        # once, and the margins past either end hold, shifted by 2 pi, a
        # copy of every chord within width of the far end and nothing else
        theta, edge = np.frombuffer(theta), np.frombuffer(edge, np.int64)
        assert (np.diff(theta) >= 0).all()
        run = abs(theta) <= math.pi
        assert sorted(edge[run].tolist()) == list(range(100))
        _, _, ux, uy = poly.chord_columns
        angle = np.arctan2(-ux, uy)
        low, high = theta < -math.pi, theta > math.pi
        assert (theta[low] == angle[edge[low]] - math.tau).all()
        assert (theta[high] == angle[edge[high]] + math.tau).all()
        assert sorted(edge[low].tolist()) == np.flatnonzero(
            angle >= math.pi - width).tolist()
        assert sorted(edge[high].tolist()) == np.flatnonzero(
            angle < width - math.pi).tolist()
        assert 0 < len(theta) - 100 < 10


    def test_points_within_the_outer_disk_take_the_caps(self):
        # the caps answer every point up to the outer disk's last ulp, with
        # the mask's edges; the points just past it are left to the mask
        ring = random_convex(100, seed=95, radius=10)
        gx, gy, _, outer, caps = ring.disks
        assert caps is not None
        r = math.sqrt(outer)
        took = {True: 0, False: 0}
        for t in np.linspace(0, 2 * math.pi, 32, endpoint=False).tolist():
            for j in range(-4, 5):
                f = r * (1 + j * 2.0**-52)
                px, py = gx + f * math.cos(t), gy + f * math.sin(t)
                within = _within_outer(ring, px, py)
                if within:
                    assert _cap_edges(ring, px, py), (t, j)
                assert _admission_mask(ring, px, py).any()
                took[within] += 1
        assert took[True] > 0 and took[False] > 0


class TestBoundaryScan:
    # _boundary_scan must return exactly what the scalar _ring_scan returns
    # over the polygon's vertices, on both sides of _VECTOR_MIN. Both read
    # the one band EPS.
    BAND = (0.5, 0.99, 1.01, 2.0)

    @staticmethod
    def _normal(poly, k):
        # the unit outward normal of ring edge k, from V[k-1] to V[k]
        (x0, y0), (x1, y1) = poly.vertices[k - 1], poly.vertices[k]
        length = math.hypot(x1 - x0, y1 - y0)
        return (y1 - y0) / length, (x0 - x1) / length

    @classmethod
    def _edge_probes(cls, poly, edges):
        v = poly.vertices
        for k in edges:
            (x0, y0), (x1, y1) = v[k - 1], v[k]
            yield v[k]
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            yield Point(mx, my)
            nx, ny = cls._normal(poly, k)
            for off in (2e-9, 5e-9, 1e-8, 2e-6, 5e-6, 1e-5):
                yield Point(mx + off * nx, my + off * ny)
                yield Point(mx - off * nx, my - off * ny)

    def _assert_same(self, poly, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in points:
                assert (_boundary_scan(poly, p.x, p.y)
                        == _ring_scan(poly.vertices, p.x, p.y)), (poly.n, p)

    @pytest.mark.parametrize("n", [_VECTOR_MIN - 1, _VECTOR_MIN,
                                   _VECTOR_MIN + 1, 100, 2000])
    def test_matches_ring_scan(self, n):
        rng = np.random.default_rng(n)
        for radius in (1.0, 1e4):
            poly = random_convex(n, seed=60 + n, radius=radius)
            edges = range(n) if n <= 100 else sorted(
                {0, 1, n - 1} | set(rng.integers(0, n, 37).tolist()))
            box = bounding_box(poly)
            pad = 0.1 * radius
            xs = rng.uniform(box.min.x - pad, box.max.x + pad, 100)
            ys = rng.uniform(box.min.y - pad, box.max.y + pad, 100)
            self._assert_same(poly, list(self._edge_probes(poly, edges))
                              + [Point(float(x), float(y))
                                 for x, y in zip(xs, ys)])
            assert ("ring_columns" in poly.__dict__) is (n >= _VECTOR_MIN)
            # vertex 0 is near both edges 0 and 1; the closing edge 0,
            # from V[n-1], comes first in ring order
            assert _boundary_scan(poly, *poly.vertices[0]) == -1

    @pytest.mark.parametrize("n", [_VECTOR_MIN - 1, _VECTOR_MIN, 2000])
    def test_matches_ring_scan_in_the_band(self, n):
        # probes f * EPS along each edge's outward normal from its midpoint
        # and from its end vertex, where the band decides: both scans say
        # boundary at |f| = 0.5 and not at |f| = 2, and agree at 0.99 and
        # 1.01, whichever way rounding takes them
        rng = np.random.default_rng(n)
        for radius in (1.0, 1e4):
            poly = random_convex(n, seed=70 + n, radius=radius)
            v = poly.vertices
            edges = range(n) if n < 100 else rng.integers(0, n, 64).tolist()
            points = []
            for k in edges:
                nx, ny = self._normal(poly, k)
                mid = Point((v[k - 1].x + v[k].x) / 2,
                            (v[k - 1].y + v[k].y) / 2)
                for base in (mid, v[k]):
                    for f in self.BAND + tuple(-f for f in self.BAND):
                        p = Point(base.x + f * EPS * nx,
                                  base.y + f * EPS * ny)
                        points.append(p)
                        if abs(f) == 0.5:
                            assert _boundary_scan(poly, *p) < 0, (k, f)
                        elif abs(f) == 2.0:
                            assert _boundary_scan(poly, *p) >= 0, (k, f)
            self._assert_same(poly, points)

    def test_horizontal_edges_at_every_vertex_height(self):
        # exactly horizontal bottom and top edges joined by two half
        # ellipses; probes at each vertex's height, left of, inside and
        # right of the polygon and on the vertex, exercise the half-open
        # rule where edges meet at that height
        m = _VECTOR_MIN // 2 + 2
        right = [(1 + 0.5 * math.cos(t), math.sin(t)) for t in
                 (-math.pi / 2 + math.pi * j / m for j in range(1, m))]
        verts = ([(1.0, -1.0)] + right + [(1.0, 1.0), (-1.0, 1.0)]
                 + [(-x, -y) for x, y in right] + [(-1.0, -1.0)])
        poly = validate_convex(verts)
        assert poly.n >= _VECTOR_MIN
        points = []
        for v in poly.vertices:
            for x in (-2.0, -1.25, 0.0, 0.75, 2.0, v.x):
                points.append(Point(x, v.y))
            points.append(Point(v.x - 1e-12, v.y))
        self._assert_same(poly, points)
        assert _boundary_scan(poly, 0.0, 0.0) == 1
        assert _boundary_scan(poly, 0.0, 1.0) < 0
        assert _boundary_scan(poly, 0.0, -1.0) < 0
        assert _boundary_scan(poly, -2.0, 1.0) % 2 == 0


class TestSigma:
    def test_counts_legality_test_admissions(self):
        # the chord table and legality_test are one admission predicate,
        # for triangles too; each vertex of an n >= 4 polygon ends two
        # chords, where the chord-side test sits on its threshold
        rng = np.random.default_rng(57)
        for n in (3, 3, 4, 5, 8, 30):
            poly = random_convex(n, int(rng.integers(1 << 32)), radius=25)
            verts = poly.vertices
            pts = list(verts)
            pts += [Point((v.x + w.x) / 2, (v.y + w.y) / 2)
                    for v, w in zip(verts, verts[1:] + verts[:1])]
            pts += [Point(float(x), float(y))
                    for x, y in rng.uniform(-35, 35, (30, 2))]
            for p in pts:
                assert sigma(poly, p) == sum(
                    legality_test(poly, i, p) for i in range(n)), (n, p)

    def test_square_center_regression(self):
        # exhaustive scan over the four edges: every perpendicular from the
        # center is admissible for a square
        poly = validate_convex(SQUARE)
        assert sigma(poly, Point(0.5, 0.5)) == 4

    def test_far_below_bottom_edge(self):
        poly = validate_convex(SQUARE)
        assert sigma(poly, Point(0.5, -10)) >= 1

    def test_range(self):
        for n, seed in [(3, 41), (12, 42), (60, 43)]:
            poly = random_convex(n, seed, radius=30)
            rng = np.random.default_rng(seed)
            for _ in range(20):
                p = Point(float(rng.uniform(-40, 40)),
                          float(rng.uniform(-40, 40)))
                assert 0 <= sigma(poly, p) <= n

    def test_regular_64gon_center_is_zero(self):
        poly = regular_ngon(64)
        assert sigma(poly, Point(0, 0)) == 0


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        poly = random_convex(12, seed=5, radius=4)
        path = tmp_path / "poly.json"
        dump_polygon(poly, str(path))
        again = load_polygon(str(path))
        assert again.vertices == poly.vertices

    def test_document_shape(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"vertices": SQUARE}))
        poly = load_polygon(str(path))
        assert poly.n == 4

    def test_validation_error_surfaces(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0],
                                                 [1, 1]]}))
        with pytest.raises(NotConvexError):
            load_polygon(str(path))

    def test_missing_key_rejected(self):
        with pytest.raises(Exception):
            polygon_from_dict({"points": []})

    @pytest.mark.parametrize("doc, match", [
        ({"vertices": [[0, 0], [1, 0], [1]]}, "vertex 2 "),
        ({"vertices": [[0, 0], [1, 0], [0, 1, 7]]}, "vertex 2 "),
        ({"vertices": [0, 1, 2]}, "vertex 0 "),
        ({"vertices": 5}, "list of"),
    ])
    def test_entry_not_two_numbers_rejected(self, tmp_path, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PolygonError, match=match):
            load_polygon(str(path))
