"""Check, time and summarise one workload run."""
from __future__ import annotations

import gc
import math
import resource
import statistics
import time

import numpy as np
from convexpoint import (
    adjacent_quad,
    classify_fan_triangulation,
    classify_improved,
    classify_quad,
    classify_raycast,
    edge_order,
    oracle_classify,
    run_fuzz,
    sigma,
)

import workloads as wl

ALGORITHMS = ("improved", "raycast", "fan", "oracle")
CLASSIFIERS = ("improved", "raycast", "fan")
FUNCTIONS = {
    "improved": classify_improved,
    "raycast": classify_raycast,
    "fan": classify_fan_triangulation,
    "oracle": oracle_classify,
}
# Span names, one per public function the benchmark calls into.
SPAN = {
    "improved": "classify.improved",
    "raycast": "classify.raycast",
    "fan": "classify.fan",
    "oracle": "polygon.oracle_classify",
}
FUZZ_ROUNDS = 15
clock = time.perf_counter_ns

# Host-speed probe. On a shared host the same code runs up to twice as slow,
# in stretches from below a millisecond to minutes, and neither a mean nor
# a fastest lap over a run leaves that out: a fastest lap still depends on
# how rare the fast moments were, the more so the longer the lap. So every
# time is divided by the mean lap of a probe timed between the passes and
# the fuzz calls of the same run, and multiplied by PROBE_REF_NS: it reads
# as the time on a host on which the probe's mean lap is PROBE_REF_NS. The
# slowdown adds to a mean in proportion to the time exposed, whatever the
# length of a lap, so the probe need not match the queries' lengths. The
# probe does fixed work of the two kinds the package does, and calls no
# package code, so a change to the package cannot move it: an even-odd scan
# of a fixed ring in pure-Python floats, as the classifiers scan edges, and
# a numpy permutation turned into a list, as the seeded edge order is drawn.
# PROBE_REF_NS is about its mean lap on a quiet 2-vCPU x86_64 host under
# CPython 3.11.
PROBE_RING = tuple((math.cos(2.0 * math.pi * k / 1024),
                    math.sin(2.0 * math.pi * k / 1024)) for k in range(1024))
PROBE_POINTS = ((0.1, 0.2), (1.5, -0.3))
PROBE_PERMUTATION = 2000
PROBE_REF_NS = 550_000
_probe_gen = np.random.Generator(np.random.PCG64(0))


def probe() -> int:
    hits = len(_probe_gen.permutation(PROBE_PERMUTATION).tolist())
    for px, py in PROBE_POINTS:
        ax, ay = PROBE_RING[-1]
        for bx, by in PROBE_RING:
            cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if abs(cr) <= 1e-9 * (abs(bx - ax) + abs(by - ay)):
                hits += 1
            if (ay > py) != (by > py):
                if ax + (py - ay) * (bx - ax) / (by - ay) > px:
                    hits += 1
            ax, ay = bx, by
    return hits


def _quad(poly, edge, p):
    # classify_improved hands the admitting edge's quad to classify_quad
    # exactly like this, so the span covers the same work.
    return classify_quad(adjacent_quad(poly, edge), p, poly.n)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.traced = tracer.enabled
        self.correct = True
        self.probe_laps = []  # ns, between the timed passes and fuzz calls

    def _probe_lap(self, laps: list) -> None:
        t0 = clock()
        probe()
        laps.append(clock() - t0)

    def scale(self) -> float:
        """Factor that turns this run's times into reference-host times."""
        return PROBE_REF_NS / statistics.fmean(self.probe_laps)

    # -- set-up -----------------------------------------------------------

    def setup(self, reps: int) -> None:
        """Build the inputs ``reps`` times; set-up time is the median.

        The probe runs before each polygon is built, and each set-up's time,
        less the probe's laps, is scaled by the probe's mean lap within it.
        """
        times = []
        self.setup_scales = {}  # setup span id -> scale
        for _ in range(reps):
            laps = []
            with self.tracer.span("setup") as sid:
                t0 = clock()
                inputs = wl.make_inputs(self.workload, self.seed, self.tracer,
                                        lambda: self._probe_lap(laps))
                elapsed = clock() - t0 - sum(laps)
            k = PROBE_REF_NS / statistics.fmean(laps)
            self.setup_scales[sid] = k
            times.append(elapsed * k)
        self.setup_s = statistics.median(times) / 1e9
        self.inputs = inputs
        self.queries = [q for n in wl.SIZES for q in inputs.queries[n]]
        self.slices = {}
        start = 0
        for n in wl.SIZES:
            self.slices[n] = slice(start, start + len(inputs.queries[n]))
            start += len(inputs.queries[n])
        qs = self.queries
        pairs = [(q.poly, q.point) for q in qs]
        self.args = {"improved": [(q.poly, q.point, q.policy) for q in qs],
                     "raycast": pairs, "fan": pairs, "oracle": pairs}
        self.ns = [q.poly.n for q in qs]

    # -- the counted pass -------------------------------------------------

    def check(self) -> None:
        """Classify every query once with every algorithm and check it.

        Every planned query is one operation per algorithm; a query on a
        polygon that could not be built fails all four. Counts come from
        ``TrialStats`` and ``sigma`` and repeat exactly for a seed.
        """
        t = self._tallies = {n: {
            "planned": 0, "unbuilt": 0, "queries": 0, "edges_tried": 0,
            "exhausted": 0, "admitted": 0, "sigma": 0,
            **{f"{a}.failed": 0 for a in ALGORITHMS},
            **{f"{a}.intersection_tests": 0 for a in CLASSIFIERS},
        } for n in wl.SIZES}
        for b in self.inputs.builds:
            t[b.n]["planned"] += b.planned
            if b.poly is None:
                t[b.n]["unbuilt"] += b.planned
                self.correct &= wl.tolerated_build(b)
        self.legal_edges = []
        for q in self.queries:
            c = t[q.poly.n]
            c["queries"] += 1
            vi, si = classify_improved(q.poly, q.point, q.policy)
            vr, sr = classify_raycast(q.poly, q.point)
            vf, sf = classify_fan_triangulation(q.poly, q.point)
            vo = oracle_classify(q.poly, q.point)
            c["edges_tried"] += si.edges_tried
            c["exhausted"] += si.exhausted_all
            c["admitted"] += si.legal_edge is not None
            self.legal_edges.append(si.legal_edge)
            for alg, stats in (("improved", si), ("raycast", sr),
                               ("fan", sf)):
                c[f"{alg}.intersection_tests"] += stats.intersection_tests
            for alg, verdict, want in (("improved", vi, q.truth),
                                       ("raycast", vr, q.truth),
                                       ("fan", vf, q.truth),
                                       ("oracle", vo, q.placed)):
                if verdict is not want:
                    c[f"{alg}.failed"] += 1
                    self.correct &= wl.tolerated(self.workload, alg)
            if self.traced:
                c["sigma"] += sigma(q.poly, q.point)

    # -- timing -----------------------------------------------------------

    def measure(self, seconds: float, min_reps: int) -> None:
        """Repeat interleaved passes until ``seconds`` have passed.

        Each query's cost is its mean lap over the repetitions, and the fuzz
        slice's cost the mean over FUZZ_ROUNDS runs, both scaled by the
        probe (see PROBE_REF_NS), which runs before each pass and each fuzz
        call. Fuzz calls run between repetitions, spread evenly over the
        run, one round after the other; every call runs, so the fuzz inputs
        do not depend on the timing.
        """
        self.total = {}  # span or algorithm name -> summed laps per query
        self.overhead_ns = []  # traced minus untraced improved pass
        self.fuzz_ns = 0
        self.fuzz_cases = self.fuzz_agreed = 0
        fuzz = [(seed, r == 0) for r in range(FUZZ_ROUNDS)
                for seed in wl.FUZZ_SEEDS]
        calls = len(fuzz)
        start = clock()
        span = int(seconds * 1e9)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # keep collection pauses out of individual samples
        try:
            reps = 0
            while reps < min_reps or clock() < start + span:
                with self.tracer.span("repetition"):
                    if self.traced:
                        self._traced_repetition()
                    else:
                        for alg in ALGORITHMS:
                            self._probe_lap(self.probe_laps)
                            self._timed_pass(alg)
                    due = calls * min(1.0, (clock() - start) / span)
                    while fuzz and calls - len(fuzz) < due:
                        self._fuzz_call(*fuzz.pop(0))
                reps += 1
            while fuzz:
                self._fuzz_call(*fuzz.pop(0))
        finally:
            if gc_was_enabled:
                gc.enable()
        self.reps = reps

    def _add(self, name: str, laps: list) -> None:
        total = self.total.get(name)
        self.total[name] = laps if total is None else list(
            map(int.__add__, total, laps))

    def _cost(self, name: str) -> list:
        """Mean lap per query in ns, at reference-host speed."""
        k = self.scale() / self.reps
        return [t * k for t in self.total[name]]

    def _timed_pass(self, alg: str) -> int:
        fn = FUNCTIONS[alg]
        laps = []
        t = clock()
        for a in self.args[alg]:
            fn(*a)
            now = clock()
            laps.append(now - t)
            t = now
        self._add(alg, laps)
        return sum(laps)

    def _traced_repetition(self) -> None:
        # Tracing overhead: the traced improved pass against an untraced one
        # run just before it, both timed whole.
        untraced = self._timed_pass("improved")

        tr = self.tracer
        improved_ids = []
        for alg in ALGORITHMS:
            self._probe_lap(self.probe_laps)
            name = SPAN[alg]
            durs = []
            t0 = clock()
            with tr.span("pass." + alg):
                for a, n in zip(self.args[alg], self.ns):
                    sid, d = tr.call(name, FUNCTIONS[alg], a, n)
                    durs.append(d)
                    if alg == "improved":
                        improved_ids.append(sid)
            if alg == "improved":
                self.overhead_ns.append(clock() - t0 - untraced)
            self._add(name, durs)
        # Replay the parts of each improved query under the span of that
        # query: its edge order, and the quad of its admitting edge.
        order, quad = [], []
        for q, n, edge, parent in zip(self.queries, self.ns, self.legal_edges,
                                      improved_ids):
            order.append(tr.call("classify.edge_order", edge_order,
                                 (q.policy, n), n, parent)[1])
            quad.append(0 if edge is None else tr.call(
                "classify.classify_quad", _quad, (q.poly, edge, q.point), n,
                parent)[1])
        self._add("classify.edge_order", order)
        self._add("classify.classify_quad", quad)

    def _fuzz_call(self, seed: int, first_round: bool) -> None:
        self._probe_lap(self.probe_laps)
        t0 = clock()
        with self.tracer.span("bench.run_fuzz"):
            res = run_fuzz(wl.FUZZ_CASES, wl.FUZZ_MAX_N, seed)
        self.fuzz_ns += clock() - t0
        if first_round:
            self.fuzz_cases += res.cases_run
            self.fuzz_agreed += res.agreed
            self.correct &= res.ok

    # -- results ----------------------------------------------------------

    def _counts(self) -> tuple[int, int]:
        planned = sum(c["planned"] for c in self._tallies.values())
        failed = sum(4 * c["unbuilt"] + sum(c[f"{a}.failed"]
                                            for a in ALGORITHMS)
                     for c in self._tallies.values())
        fuzz_planned = wl.FUZZ_CASES * len(wl.FUZZ_SEEDS)
        return (4 * planned + fuzz_planned,
                failed + fuzz_planned - self.fuzz_agreed)

    def result(self) -> dict:
        attempted, failed = self._counts()
        metrics = self._per_layer() if self.traced else self._end_to_end()
        return {
            "correct": self.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }

    def _fuzz_call_s(self) -> float:
        """Mean run_fuzz call time in s, at reference-host speed."""
        calls = FUZZ_ROUNDS * len(wl.FUZZ_SEEDS)
        return self.fuzz_ns * self.scale() / calls / 1e9

    def _end_to_end(self) -> dict:
        m = {"setup_s": (self.setup_s, "s")}
        cost = {alg: self._cost(alg) for alg in ALGORITHMS}
        for alg in ALGORITHMS:
            m[f"{alg}.us_per_query"] = (
                statistics.fmean(cost[alg]) / 1e3, "us")
        for alg, pct in (("improved", 50), ("improved", 99), ("raycast", 99),
                         ("fan", 99)):
            q = statistics.quantiles(cost[alg], n=100)
            m[f"{alg}.query_us.p{pct}"] = (q[pct - 1] / 1e3, "us")
        m["fuzz.cases_per_s"] = (
            self.fuzz_cases / len(wl.FUZZ_SEEDS) / self._fuzz_call_s(),
            "cases/s")
        m["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return m

    def _per_layer(self) -> dict:
        cost = {name: self._cost(name) for name in self.total}
        cost["classify.admission"] = [
            i - o - d for i, o, d in zip(cost["classify.improved"],
                                         cost["classify.edge_order"],
                                         cost["classify.classify_quad"])]
        m = {}
        for n in wl.SIZES:
            sl = self.slices[n]
            for name in ("classify.improved", "classify.edge_order",
                         "classify.classify_quad", "classify.admission",
                         "classify.raycast", "classify.fan",
                         "polygon.oracle_classify"):
                m[f"{name}.us.n{n}"] = (_mean(cost[name][sl]) / 1e3, "us")
            for name in ("polygon.random_convex", "polygon.validate_convex"):
                m[f"{name}.us.n{n}"] = (self._setup_span_us(name, n), "us")

            c = self._tallies[n]
            queries = max(1, c["queries"])
            m[f"classify.improved.edges_tried.mean.n{n}"] = (
                c["edges_tried"] / queries, "count")
            m[f"classify.improved.exhausted_share.n{n}"] = (
                c["exhausted"] / queries, "share")
            m[f"classify.improved.admit_yield.n{n}"] = (
                c["admitted"] / max(1, c["edges_tried"]), "share")
            m[f"classify.sigma.mean.n{n}"] = (c["sigma"] / queries, "count")
            for alg in CLASSIFIERS:
                m[f"classify.{alg}.intersection_tests.mean.n{n}"] = (
                    c[f"{alg}.intersection_tests"] / queries, "count")
                m[f"classify.{alg}.failed_share.n{n}"] = (
                    c[f"{alg}.failed"] / queries, "share")
            m[f"polygon.oracle_classify.failed_share.n{n}"] = (
                c["oracle.failed"] / queries, "share")
            m[f"polygon.random_convex.failed_share.n{n}"] = (
                c["unbuilt"] / max(1, c["planned"]), "share")
        m["bench.run_fuzz.s"] = (self._fuzz_call_s(), "s")
        attempted, failed = self._counts()
        m["failed_share"] = (failed / attempted, "share")
        m["trace.overhead_us"] = (
            _median(self.overhead_ns) * self.scale() / len(self.queries) / 1e3,
            "us")
        return m

    def _setup_span_us(self, name: str, n: int) -> float:
        """Mean call time at ``n`` within each set-up, scaled by that
        set-up's probe, median over set-ups."""
        per_setup = {}
        for _sid, parent, span, t0, t1, size in self.tracer.spans:
            if span == name and size == n:
                per_setup.setdefault(parent, []).append(t1 - t0)
        return _median([self.setup_scales[sid] * sum(d) / len(d)
                        for sid, d in per_setup.items()]) / 1e3

    def samples(self) -> dict:
        return {"repetitions": self.reps, "queries": len(self.queries),
                "fuzz_cases": self.fuzz_cases,
                "probe_laps": len(self.probe_laps), "scale": self.scale()}

    def tallies(self) -> dict:
        return {str(n): c for n, c in self._tallies.items()}
