"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

1. Band theorem: perpendicular drops stay inside the two-line band, all six
   slope-sign configurations covered.
2. Oracle equivalence over >= 1e5 differential fuzz cases, zero
   disagreements; any counterexample is written out minimized, not hidden.
3. Boundary completeness: vertices and edge midpoints of 1000 generated
   polygons all classify as boundary.
4. Expectation model E = N / sigma with a 5% gate on the with-replacement
   mean, exact exhaustion at sigma = 0, and shuffle <= with-replacement.
5. The fast path performs fewer intersection tests than ray casting on the
   default point sweep.
6. Directional timing: faster than both baselines on the point sweep, never
   worse than 1.2x ray casting per set on the centroid polygon sweep.
7. Benchmark determinism modulo wall-time columns.
"""

import json
import math
import os
import random

import numpy as np
import pytest

from convexpoint.bench import (
    CENTROID_RULE,
    BenchConfig,
    emit_report,
    run_fuzz,
    run_point_sweep,
    run_polygon_sweep,
    trial_expectation_check,
)
from convexpoint.classify import SeededShuffle, classify_improved
from convexpoint.geom import EPS, Point
from convexpoint.polygon import (
    Classification,
    bounding_box,
    random_convex,
    sigma,
)

from bandgeom import (
    DirLine,
    Orientation,
    band_contains,
    perpendicular_foot,
    side_of_line,
)

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "..", "build",
                            "acceptance-reports")


def _archive(name: str, content: str) -> str:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return path


@pytest.fixture(scope="module")
def default_point_sweep():
    # the benchmark setup: one random 1000-gon, 10 sets of 1000 points
    # sampled uniformly from its bounding rectangle
    poly = random_convex(1000, seed=424242, radius=100.0)
    cfg = BenchConfig(seed=424242)
    report = run_point_sweep(poly, cfg)
    _archive("point_sweep.json", emit_report(report, "json"))
    _archive("point_sweep.csv", emit_report(report, "csv"))
    return report


def _slope_case(l1: DirLine, l2: DirLine):
    if abs(l1.dx) < 1e-12 or abs(l2.dx) < 1e-12:
        return None  # vertical: slope undefined, still tested for containment
    s1 = l1.dy / l1.dx
    s2 = l2.dy / l2.dx
    if s1 >= 0 and s2 >= 0:
        return "both-nonneg-s1-ge-s2" if s1 >= s2 else "both-nonneg-s1-lt-s2"
    if s1 < 0 and s2 < 0:
        return "both-neg-s1-ge-s2" if s1 >= s2 else "both-neg-s1-lt-s2"
    return "s1-nonneg-s2-neg" if s1 >= 0 else "s1-neg-s2-nonneg"


def test_acceptance_1_band_theorem():
    rnd = random.Random(20240917)
    pairs_done = 0
    checked_points = 0
    cases_seen = set()
    while pairs_done < 10_000:
        l1 = DirLine(Point(rnd.uniform(-100, 100), rnd.uniform(-100, 100)),
                     rnd.uniform(-10, 10), rnd.uniform(-10, 10))
        l2 = DirLine(Point(rnd.uniform(-100, 100), rnd.uniform(-100, 100)),
                     rnd.uniform(-10, 10), rnd.uniform(-10, 10))
        if abs(l1.dx * l2.dy - l1.dy * l2.dx) < 1e-6:
            continue
        u = rnd.uniform(-10, 10)
        m = Point(l2.base.x + u * l2.dx, l2.base.y + u * l2.dy)
        g = perpendicular_foot(m, l1.base,
                               Point(l1.base.x + l1.dx, l1.base.y + l1.dy))
        if math.hypot(m.x - g.x, m.y - g.y) < 1e-6:
            continue
        mid = Point((m.x + g.x) / 2, (m.y + g.y) / 2)
        if (side_of_line(mid, l1, EPS) is Orientation.COLLINEAR
                or side_of_line(mid, l2, EPS) is Orientation.COLLINEAR):
            continue
        for j in range(50):
            t = j / 49
            s = Point(g.x + t * (m.x - g.x), g.y + t * (m.y - g.y))
            assert band_contains(s, l1, l2, mid, mid, EPS), \
                (l1, l2, m, g, t)
            checked_points += 1
        case = _slope_case(l1, l2)
        if case:
            cases_seen.add(case)
        pairs_done += 1
    assert len(cases_seen) == 6, f"slope cases covered: {sorted(cases_seen)}"
    print(f"\nACCEPTANCE 1: PASS - {pairs_done} line pairs, "
          f"{checked_points} sample points inside the band, "
          f"all 6 slope cases covered")


def test_acceptance_2_oracle_equivalence():
    cases = 100_000
    result = run_fuzz(cases, max_n=256, seed=987654321)
    if not result.ok:
        path = _archive("fuzz-repro.json",
                        json.dumps(result.disagreement, indent=2) + "\n")
        pytest.fail(f"disagreement after {result.cases_run} cases; "
                    f"minimized reproduction written to {path}")
    assert result.agreed == result.cases_run == cases
    print(f"\nACCEPTANCE 2: PASS - {result.agreed}/{result.cases_run} "
          f"cases agree across improved, raycast, fan, oracle")


def test_acceptance_3_boundary_completeness():
    rng = np.random.default_rng(555)
    polygons = 1000
    checked = 0
    for _ in range(polygons):
        n = int(rng.integers(3, 65))
        poly = random_convex(n, int(rng.integers(0, 2**63 - 1)), radius=50.0)
        policy = SeededShuffle(int(rng.integers(0, 2**63 - 1)))
        verts = poly.vertices
        for i, v in enumerate(verts):
            verdict, _ = classify_improved(poly, v, policy)
            assert verdict is Classification.ON_BOUNDARY, (poly.vertices, v)
            nxt = verts[(i + 1) % n]
            mid = Point((v.x + nxt.x) / 2, (v.y + nxt.y) / 2)
            verdict, _ = classify_improved(poly, mid, policy)
            assert verdict is Classification.ON_BOUNDARY, (poly.vertices, mid)
            checked += 2
    print(f"\nACCEPTANCE 3: PASS - {polygons} polygons, {checked} vertex and "
          f"midpoint queries all classified boundary")


def test_acceptance_4_expectation_model():
    rng = np.random.default_rng(24680)
    runs = 10_000
    pairs = 0
    worst_rel = 0.0
    zero_sigma_checked = 0
    while pairs < 100:
        n = int(rng.integers(4, 129))
        poly = random_convex(n, int(rng.integers(0, 2**63 - 1)), radius=60.0)
        box = bounding_box(poly)
        px = float(rng.integers(math.floor(box.min.x) - 1,
                                math.ceil(box.max.x) + 2))
        py = float(rng.integers(math.floor(box.min.y) - 1,
                                math.ceil(box.max.y) + 2))
        p = Point(px, py)
        sig = sigma(poly, p)
        if sig == 0:
            if zero_sigma_checked < 5:
                rep = trial_expectation_check(poly, p, runs=200,
                                              seed=int(rng.integers(1 << 32)))
                assert rep.observed_mean_trials == n
                assert rep.predicted is None
                zero_sigma_checked += 1
            continue
        rep = trial_expectation_check(poly, p, runs=runs,
                                      seed=int(rng.integers(1 << 32)))
        assert rep.sigma == sig
        assert rep.relative_error is not None
        assert rep.relative_error < 0.05, \
            (n, sig, rep.with_replacement_mean_trials, rep.predicted)
        assert rep.observed_mean_trials <= rep.with_replacement_mean_trials
        worst_rel = max(worst_rel, rep.relative_error)
        pairs += 1
    assert zero_sigma_checked > 0
    print(f"\nACCEPTANCE 4: PASS - {pairs} pairs with sigma >= 1 within 5% "
          f"(worst {worst_rel:.3%}) at {runs} runs each; "
          f"{zero_sigma_checked} sigma=0 pairs exhausted at exactly N trials; "
          f"shuffle mean <= with-replacement mean in every case")


def test_acceptance_5_fewer_intersection_tests(default_point_sweep):
    improved = default_point_sweep.total("improved", "intersection_tests")
    raycast = default_point_sweep.total("raycast", "intersection_tests")
    assert improved < raycast
    margin = 1.0 - improved / raycast
    print(f"\nACCEPTANCE 5: PASS - improved {improved:,} vs raycast "
          f"{raycast:,} intersection tests ({margin:.1%} fewer); "
          f"report archived in build/acceptance-reports/")


def test_acceptance_6_directional_timing(default_point_sweep):
    by_alg = {}
    for alg in ("improved", "raycast", "fan"):
        by_alg[alg] = {c.set_index: c.relative_time
                       for c in default_point_sweep.cells
                       if c.algorithm == alg}
    n_sets = len(by_alg["improved"])
    cum_improved = sum(by_alg["improved"].values())
    cum_raycast = sum(by_alg["raycast"].values())
    cum_fan = sum(by_alg["fan"].values())
    assert cum_improved <= cum_raycast
    assert cum_improved <= cum_fan
    ratios = [by_alg["improved"][s] / by_alg["raycast"][s]
              for s in range(n_sets)]
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio < 1.0

    cfg = BenchConfig(seed=424242, warmup_rounds=2, repetitions=9)
    poly_report = run_polygon_sweep(cfg, CENTROID_RULE, radius=100.0)
    _archive("polygon_sweep.json", emit_report(poly_report, "json"))
    _archive("polygon_sweep.csv", emit_report(poly_report, "csv"))
    times = {(c.algorithm, c.set_index): c.walltime_ns
             for c in poly_report.cells}
    poly_ratios = []
    for s in range(len(cfg.polygon_sizes)):
        r = times[("improved", s)] / times[("raycast", s)]
        poly_ratios.append(r)
        assert r <= 1.2, f"set {s}: improved/raycast = {r:.2f}"
    print(f"\nACCEPTANCE 6: PASS - point sweep mean improved/raycast ratio "
          f"{mean_ratio:.2f} (cumulative {cum_improved:.1f} vs raycast "
          f"{cum_raycast:.1f}, fan {cum_fan:.1f}); polygon sweep centroid "
          f"ratios {min(poly_ratios):.2f}..{max(poly_ratios):.2f}, "
          f"all <= 1.2")


def test_acceptance_7_bench_determinism(tmp_path):
    from convexpoint.cli import main

    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    args = ["bench", "--mode", "point-sweep", "--polygon-n", "64",
            "--points-per-set", "100", "--num-point-sets", "3",
            "--warmup", "0", "--repetitions", "1", "--seed", "31415"]
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0

    def strip_walltime(path):
        rows = []
        with open(path) as fh:
            for line in fh.read().strip().splitlines():
                cols = line.split(",")
                # walltime_ns and the relative_time derived from it are the
                # only run-dependent columns
                rows.append(cols[:2] + cols[4:])
        return rows

    assert strip_walltime(out_a) == strip_walltime(out_b)
    print("\nACCEPTANCE 7: PASS - identical CSV modulo wall-time columns")
