"""Tests for sweeps, the expectation check, fuzzing, and report emission."""

import json
import math

import pytest

from convexpoint import bench
from convexpoint.bench import (
    CENTROID_RULE,
    NEAR_BOUNDARY_RULE,
    BenchConfig,
    UnsupportedFormatError,
    emit_report,
    parse_report,
    run_fuzz,
    run_point_sweep,
    run_polygon_sweep,
    trial_expectation_check,
)
from convexpoint.geom import Point
from convexpoint.polygon import random_convex, sigma, validate_convex

SMALL_CFG = BenchConfig(points_per_set=40, num_point_sets=2,
                        polygon_sizes=(8, 16), repetitions=2, warmup_rounds=0,
                        seed=5)


@pytest.fixture(scope="module")
def point_report():
    poly = random_convex(60, seed=4, radius=30)
    return run_point_sweep(poly, SMALL_CFG)


@pytest.fixture(scope="module")
def polygon_report():
    return run_polygon_sweep(SMALL_CFG, CENTROID_RULE, radius=20.0)


class TestBenchConfig:
    def test_defaults_mirror_benchmark_setup(self):
        cfg = BenchConfig()
        assert cfg.polygon_sizes == (100, 100, 100, 500, 500, 500,
                                     1000, 1000, 1000, 2000)
        assert cfg.points_per_set == 1000
        assert cfg.num_point_sets == 10

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BenchConfig(points_per_set=0)
        with pytest.raises(ValueError):
            BenchConfig(polygon_sizes=(2,))


class TestPointSweep:
    def test_cell_count_and_zero_disagreements(self, point_report):
        assert len(point_report.cells) == 3 * SMALL_CFG.num_point_sets
        assert all(c.disagreements == 0 for c in point_report.cells)

    def test_minimal_config_three_cells(self):
        poly = random_convex(8, seed=1, radius=5)
        cfg = BenchConfig(points_per_set=1, num_point_sets=1,
                          repetitions=1, warmup_rounds=0, seed=2)
        rep = run_point_sweep(poly, cfg)
        assert len(rep.cells) == 3

    def test_relative_times_normalized_to_raycast_set0(self, point_report):
        base = next(c for c in point_report.cells
                    if c.algorithm == "raycast" and c.set_index == 0)
        assert base.relative_time == pytest.approx(1.0)
        assert point_report.baseline_ns == base.walltime_ns
        for c in point_report.cells:
            assert c.relative_time == pytest.approx(
                c.walltime_ns / point_report.baseline_ns)

    def test_improved_fewer_intersection_tests(self, point_report):
        assert point_report.total("improved", "intersection_tests") \
            < point_report.total("raycast", "intersection_tests")

    def test_counters_deterministic_across_runs(self):
        poly = random_convex(24, seed=9, radius=10)
        cfg = BenchConfig(points_per_set=30, num_point_sets=2,
                          repetitions=1, warmup_rounds=0, seed=11)
        a = run_point_sweep(poly, cfg)
        b = run_point_sweep(poly, cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.algorithm, ca.set_index, ca.intersection_tests,
                    ca.edges_tried, ca.exhausted_all) == \
                   (cb.algorithm, cb.set_index, cb.intersection_tests,
                    cb.edges_tried, cb.exhausted_all)


class TestPolygonSweep:
    def test_one_set_per_size_entry(self, polygon_report):
        sets = {c.set_index for c in polygon_report.cells}
        assert sets == set(range(len(SMALL_CFG.polygon_sizes)))
        assert len(polygon_report.cells) == 3 * len(SMALL_CFG.polygon_sizes)

    def test_centroid_rule_exhausts_on_larger_sizes(self):
        cfg = BenchConfig(polygon_sizes=(64, 128), points_per_set=1,
                          num_point_sets=1, repetitions=1, warmup_rounds=0,
                          seed=3)
        rep = run_polygon_sweep(cfg, CENTROID_RULE, radius=50.0)
        improved = [c for c in rep.cells if c.algorithm == "improved"]
        assert all(c.exhausted_all == 1 for c in improved)

    def test_near_boundary_rule_admits_on_small_sizes(self):
        # the legality band hugs the rim, so the 90% rule reaches it only
        # for small vertex counts
        cfg = BenchConfig(polygon_sizes=(8, 10, 12), points_per_set=1,
                          num_point_sets=1, repetitions=1, warmup_rounds=0,
                          seed=6)
        rep = run_polygon_sweep(cfg, NEAR_BOUNDARY_RULE, radius=50.0)
        improved = [c for c in rep.cells if c.algorithm == "improved"]
        sizes = dict(enumerate(cfg.polygon_sizes))
        assert all(c.edges_tried < sizes[c.set_index] for c in improved)

    def test_meta_records_generator_parameters(self, polygon_report):
        meta = polygon_report.meta
        assert meta["query_rule"] == "centroid"
        assert meta["radius"] == 20.0
        assert "generator" in meta


class TestExpectation:
    def test_sigma_equals_n_means_one_trial(self):
        # every edge of a square admits its center
        square = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = Point(0.5, 0.5)
        assert sigma(square, p) == 4
        rep = trial_expectation_check(square, p, runs=300, seed=8)
        assert rep.predicted == 1.0
        assert rep.observed_mean_trials == 1.0
        assert rep.with_replacement_mean_trials == 1.0
        assert rep.relative_error == 0.0

    def test_sigma_zero_exhausts_every_run(self):
        n = 64
        poly = validate_convex([(math.cos(2 * math.pi * k / n),
                                 math.sin(2 * math.pi * k / n))
                                for k in range(n)])
        rep = trial_expectation_check(poly, Point(0, 0), runs=50, seed=8)
        assert rep.sigma == 0
        assert rep.predicted is None
        assert rep.with_replacement_mean_trials is None
        assert rep.relative_error is None
        assert rep.observed_mean_trials == n

    def test_pinned_report(self):
        # the 5% model bounds would still pass a changed run-seed or
        # uniform stream; these exact values would not
        rep = trial_expectation_check(random_convex(40, 11, radius=60.0),
                                      Point(70.0, 0.0), runs=500, seed=7)
        assert rep.sigma == 8
        assert rep.observed_mean_trials == 4.726
        assert rep.with_replacement_mean_trials == 5.19

    def test_with_replacement_matches_model_within_5pct(self):
        # measured sigma first, then Monte Carlo against N / sigma
        poly = random_convex(16, seed=5, radius=100)
        cen = poly.centroid()
        v = poly.vertices[0]
        p = Point(cen.x + 0.95 * (v.x - cen.x), cen.y + 0.95 * (v.y - cen.y))
        sig = sigma(poly, p)
        assert sig >= 1
        rep = trial_expectation_check(poly, p, runs=10000, seed=12)
        assert rep.sigma == sig
        assert rep.relative_error < 0.05
        assert rep.observed_mean_trials <= rep.with_replacement_mean_trials

    def test_shuffle_mean_matches_without_replacement_theory(self):
        poly = random_convex(12, seed=5, radius=100)
        cen = poly.centroid()
        v = poly.vertices[0]
        p = Point(cen.x + 0.95 * (v.x - cen.x), cen.y + 0.95 * (v.y - cen.y))
        sig = sigma(poly, p)
        assert sig >= 1
        rep = trial_expectation_check(poly, p, runs=10000, seed=13)
        theory = (poly.n + 1) / (sig + 1)
        assert rep.observed_mean_trials == pytest.approx(theory, rel=0.05)


class TestFuzz:
    def test_small_run_agrees(self):
        res = run_fuzz(400, max_n=32, seed=77)
        assert res.ok
        assert res.agreed == res.cases_run == 400

    def test_single_case(self):
        res = run_fuzz(1, max_n=8, seed=3)
        assert res.cases_run == 1 and res.ok

    # the console-script triangle run and the first seed of the benchmark's
    # fuzz slice
    @pytest.mark.parametrize("cases,max_n,seed", [(20000, 3, 1),
                                                  (50, 256, 987654321)])
    def test_checks_every_point_it_draws(self, cases, max_n, seed,
                                         monkeypatch):
        # each polygon draws min(50, cases left) points, so a skipped point
        # would show as one polygon more than ceil(cases / 50)
        calls, polygons = [], []
        verdicts, generate = bench._verdicts, bench.random_convex

        def counted(poly, p, policy_seed):
            calls.append(p)
            return verdicts(poly, p, policy_seed)

        def generated(*args):
            polygons.append(args)
            return generate(*args)

        monkeypatch.setattr(bench, "_verdicts", counted)
        monkeypatch.setattr(bench, "random_convex", generated)
        res = run_fuzz(cases, max_n=max_n, seed=seed)
        assert len(calls) == res.cases_run == res.agreed == cases
        assert len(polygons) == -(-cases // bench._FUZZ_POINTS_PER_POLYGON)
        assert res.ok

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_fuzz(0)
        with pytest.raises(ValueError):
            run_fuzz(10, max_n=2)


class TestEmit:
    def test_csv_row_count_and_header(self, point_report):
        text = emit_report(point_report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == ("algorithm,set,walltime_ns,relative_time,"
                            "intersection_tests,edges_tried,exhausted_all,"
                            "disagreements")
        assert len(lines) == 1 + len(point_report.cells)

    def test_json_round_trip(self, point_report, polygon_report):
        for rep in (point_report, polygon_report):
            assert parse_report(emit_report(rep, "json")) == rep

    def test_expectation_round_trip(self):
        square = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
        rep = trial_expectation_check(square, Point(0.5, 0.5), runs=50,
                                      seed=4)
        again = parse_report(emit_report(rep, "json"))
        assert again == rep
        csv_text = emit_report(rep, "csv")
        assert csv_text.splitlines()[0].startswith("n_edges,sigma,predicted")

    def test_svg_has_one_polyline_per_algorithm(self, point_report):
        svg = emit_report(point_report, "svg")
        assert svg.count("<polyline") == 3

    def test_unsupported_formats(self, point_report):
        square = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
        exp = trial_expectation_check(square, Point(0.5, 0.5), runs=10,
                                      seed=4)
        with pytest.raises(UnsupportedFormatError):
            emit_report(exp, "svg")
        with pytest.raises(UnsupportedFormatError):
            emit_report(point_report, "xml")

    def test_json_includes_config_and_seed(self, point_report):
        doc = json.loads(emit_report(point_report, "json"))
        assert doc["config"]["seed"] == SMALL_CFG.seed
        assert doc["kind"] == "point-sweep"
