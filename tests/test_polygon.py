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
    legality_test,
)
from convexpoint.geom import EPS, Point, _on_segment_coords, _ring_scan
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
    _boundary_scan,
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


class TestAdjacentQuad:
    def test_square_edge0(self):
        poly = validate_convex(SQUARE)
        q = adjacent_quad(poly, 0)
        assert (q.c, q.a, q.b, q.d) == (Point(0, 1), Point(0, 0),
                                        Point(1, 0), Point(1, 1))
        assert not q.degenerate

    def test_triangle_degenerate(self):
        poly = validate_convex([(0, 0), (1, 0), (0, 1)])
        q = adjacent_quad(poly, 0)
        assert q.degenerate
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

    def test_overflowing_radius_gives_up(self):
        # at radius 1e160 the cross products overflow; such a ring used to
        # validate, and the classifiers then disagreed on it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GenerationError):
                random_convex(50, 1, radius=1e160)

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
        for n, seed in [(3, 51), (4, 52), (5, 53), (40, 54)]:
            poly = random_convex(n, seed, radius=20)
            assert len(poly.chords) == n
            for i in range(n):
                q = adjacent_quad(poly, i)
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
        ax, ay, by, ux, uy, tol = a.ring_columns
        sx, sy = a.spoke_columns
        assert a == b and b == a
        assert hash(a) == h == hash(b)
        assert repr(a) == r == f"ConvexPolygon(vertices={verts!r})"
        o = verts[0]
        for k, (x1, y1) in enumerate(verts):
            x0, y0 = verts[k - 1]
            assert (ax[k], ay[k], by[k], ux[k], uy[k], tol[k]) == (
                x0, y0, y1, x1 - x0, y1 - y0, abs(x1 - x0) + abs(y1 - y0))
            assert (sx[k], sy[k]) == (x1 - o.x, y1 - o.y)


class TestBoundaryScan:
    # _boundary_scan must return exactly what the scalar _ring_scan returns
    # over the polygon's vertices, on both sides of _VECTOR_MIN.
    EPSILONS = (0.0, 1e-9, 1e-6)

    @staticmethod
    def _edge_probes(poly, edges):
        v = poly.vertices
        for k in edges:
            (x0, y0), (x1, y1) = v[k - 1], v[k]
            yield v[k]
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            yield Point(mx, my)
            length = math.hypot(x1 - x0, y1 - y0)
            nx, ny = (y1 - y0) / length, (x0 - x1) / length
            for off in (2e-9, 5e-9, 1e-8, 2e-6, 5e-6, 1e-5):
                yield Point(mx + off * nx, my + off * ny)
                yield Point(mx - off * nx, my - off * ny)

    def _assert_same(self, poly, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in points:
                for eps in self.EPSILONS:
                    assert (_boundary_scan(poly, p.x, p.y, eps)
                            == _ring_scan(poly.vertices, p.x, p.y, eps)), \
                        (poly.n, p, eps)

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
            for eps in (1e-9, 1e-6):
                assert _boundary_scan(poly, *poly.vertices[0], eps) == -1

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
        assert _boundary_scan(poly, 0.0, 0.0, 0.0) == 1
        assert _boundary_scan(poly, 0.0, 1.0, 0.0) < 0
        assert _boundary_scan(poly, 0.0, -1.0, 0.0) < 0
        assert _boundary_scan(poly, -2.0, 1.0, 0.0) % 2 == 0


class TestSigma:
    def test_counts_legality_test_admissions(self):
        # the chord table and legality_test are one admission predicate;
        # triangles go through the apex rule, and each vertex ends two
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
                for eps in (1e-9, 0.0):
                    assert sigma(poly, p, eps) == sum(
                        legality_test(poly, i, p, eps)
                        for i in range(n)), (n, p, eps)

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
