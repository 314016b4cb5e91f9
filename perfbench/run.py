"""Query-cost benchmark for convexpoint.

    python3 perfbench/run.py --workload exterior --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout: the benchmark imports the package
from ``src/`` and uses only its public API. One invocation runs one workload (see
``workloads.py`` and ``BENCHMARK.json``) in one process and one thread.

Timing follows the discipline of the package's own sweeps: a counted pass
first (it checks every verdict and warms up), then ``gc`` disabled and
repetitions with the four classifiers interleaved inside each one. A query's
cost is its mean lap over the repetitions (see ``Bench.measure``); the
per-query mean and the p50 and p99 over the workload's 1000-odd queries are
taken from those costs. Set-up time is the median of five set-ups. Every
time is scaled to a reference host speed by a fixed probe timed in the same
run, so that a slower or busier host does not move it (see
``measure.PROBE_REF_NS``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate run
that records a span around every call into a public function, keeps the
spans in memory and writes them to ``perfbench/out/`` at the end, and prints
the per-layer metrics. The last line of standard output is the result
object; the line before it holds the provenance. Both are also written to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import socket
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 5
MIN_REPS = 3
clock = time.perf_counter_ns


class Tracer:
    """Spans as (id, parent, name, start_ns, end_ns, n) tuples in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.parent = 0

    @contextmanager
    def span(self, name, n=None):
        sid = len(self.spans) + 1
        self.spans.append(None)
        parent, self.parent = self.parent, sid
        t0 = clock()
        try:
            yield sid
        finally:
            self.spans[sid - 1] = (sid, parent, name, t0, clock(), n)
            self.parent = parent

    def call(self, name, fn, args, n, parent=None):
        """Time one call as a child of ``parent`` (default: the current
        span); returns (span id, duration in ns)."""
        t0 = clock()
        fn(*args)
        t1 = clock()
        sid = len(self.spans) + 1
        self.spans.append((sid, self.parent if parent is None else parent,
                           name, t0, t1, n))
        return sid, t1 - t0


class NoTracer:
    enabled = False

    def span(self, name, n=None):
        return nullcontext()


def import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "convexpoint" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'convexpoint'}; "
                 "run from the root of a convexpoint checkout")
    sys.path.insert(0, str(src))
    import convexpoint
    if Path(convexpoint.__file__).resolve().parent != src / "convexpoint":
        sys.exit(f"error: imported convexpoint from {convexpoint.__file__}, "
                 f"not from {src}")
    return convexpoint


def provenance(cp, workload, seed, trace):
    import numpy
    src = ROOT / "src" / "convexpoint"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "convexpoint": cp.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git; None
    in an exported tree, where ``src_sha256`` identifies the code."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cp = import_program()
    from measure import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    tracer = Tracer() if args.trace else NoTracer()
    bench = Bench(args.workload, args.seed, tracer)
    bench.setup(SETUP_REPS)
    bench.check()
    bench.measure(args.seconds, MIN_REPS)
    result = bench.result()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {"provenance": provenance(cp, args.workload, args.seed,
                                     args.trace),
            "samples": bench.samples(), "tallies": bench.tallies()}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**info, "result": result}, indent=1) + "\n")
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns",
                                  "end_ns", "n"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
