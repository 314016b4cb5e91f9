"""Summarise benchmark results into one BENCH_*.json document.

    python3 perfbench/summarize.py perfbench/out > BENCH_n.json

Reads every ``<workload>-seed<k>-trace<t>.json`` that ``run.py`` wrote and
reports, for each workload, trace mode and metric, the median, the first
and third quartile and the seeds, with the provenance of the runs.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(out_dir: Path) -> dict:
    runs = {}
    hosts = {}
    for path in sorted(out_dir.glob("*-seed*-trace[01].json")):
        doc = json.loads(path.read_text())
        prov = doc["provenance"]
        key = (prov["workload"], "per_layer" if prov["trace"]
               else "end_to_end")
        runs.setdefault(key, []).append(doc)
        hosts[json.dumps({k: prov[k] for k in (
            "host", "machine", "nproc", "python", "numpy", "git_sha",
            "src_sha256")}, sort_keys=True)] = None
    workloads = {}
    for (workload, kind), docs in sorted(runs.items()):
        metrics = {}
        for name in docs[0]["result"]["metrics"]:
            values = [d["result"]["metrics"][name]["value"] for d in docs]
            q1, q2, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
            unit = docs[0]["result"]["metrics"][name]["unit"]
            metrics[name] = {"median": q2, "q1": q1, "q3": q3, "unit": unit}
        workloads.setdefault(workload, {})[kind] = {
            "seeds": [d["provenance"]["seed"] for d in docs],
            "correct": all(d["result"]["correct"] for d in docs),
            "attempted": [d["result"]["attempted"] for d in docs],
            "failed": [d["result"]["failed"] for d in docs],
            "metrics": metrics,
        }
    return {"provenance": [json.loads(h) for h in hosts],
            "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: summarize.py OUT_DIR")
    json.dump(summarize(Path(sys.argv[1])), sys.stdout, indent=1)
    sys.stdout.write("\n")
