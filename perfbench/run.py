"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is used from ``src`` as is.
The workloads and metrics are declared in ``BENCHMARK.json`` and explained
in ``perfbench/README.md``.  The seed fixes the generated data, the arrival
order and the query items; the program keeps its own configuration seed.

``--trace 0`` measures the workload with the program untouched and prints
its end-to-end metrics.  ``--trace 1`` runs the same workload and seed
twice, untraced and then with layer spans recorded in every program process,
and prints the per-layer metrics of the traced pass together with the
tracing overhead (traced over untraced ``fit_s + predict_s``).

Every metric of the workload is printed as ``name value unit``; the last
line is the JSON result: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: every workload this command runs.  BENCHMARK.json tracks batch_lanes and
#: serve_fleet, which between them load every layer; see README.md.
WORKLOADS = ("batch_serial", "batch_lanes", "serve_single", "serve_fleet")

#: units of everything a pass reports, by metric name.
UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "f1": "ratio",
    "peak_rss_mb": "MiB",
    "failed_ratio": "ratio",
    "ingest_p50_ms": "ms",
    "ingest_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "visible_p50_ms": "ms",
    "visible_p95_ms": "ms",
    "iterations": "count",
    "predict_passes": "count",
    "window_batches": "count",
    "window_queries": "count",
    "query_p99_supported": "bool",
    "loadgen.late_sends": "count",
    "loadgen.late_max_ms": "ms",
}


def run_pass(workload: str, seed: int, seconds: float, work: Path, trace_dir):
    from batch import run_batch
    from serving import run_serving

    work.mkdir(parents=True)
    runner = run_batch if workload.startswith("batch_") else run_serving
    run = runner(workload, seed, seconds, work, trace_dir)
    run.metrics["failed_ratio"] = run.failed / run.attempted
    return run


def print_metrics(label: str, metrics) -> None:
    for name in sorted(metrics):
        value = metrics[name]
        shown = "inf" if math.isinf(value) else f"{value:.6g}"
        print(f"{label}{name} {shown} {UNITS.get(name, '')}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from common import WORK

    work = WORK / f"run-{os.getpid()}"
    try:
        plain = run_pass(args.workload, args.seed, args.seconds, work / "plain", None)
        passes = [plain]
        print_metrics("", plain.metrics)
        values = plain.metrics
        declared = spec["end_to_end"]
        if args.trace:
            from layers import layer_metrics

            trace_dir = work / "trace"
            trace_dir.mkdir(parents=True)
            traced = run_pass(args.workload, args.seed, args.seconds, work / "traced", trace_dir)
            passes.append(traced)
            print_metrics("traced.", traced.metrics)
            values = layer_metrics(trace_dir)
            for name in ("loadgen.late_sends", "loadgen.late_max_ms"):
                values[name] = traced.metrics.get(name, 0.0)
            values["trace.overhead_ratio"] = (
                traced.metrics["fit_s"] + traced.metrics["predict_s"]
            ) / (plain.metrics["fit_s"] + plain.metrics["predict_s"])
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, run in enumerate(passes):
        for problem in run.problems:
            print(f"check failed ({'traced' if index else 'untraced'} pass): {problem}", file=sys.stderr)
    result = {
        "correct": all(run.correct for run in passes),
        "attempted": sum(run.attempted for run in passes),
        "failed": sum(run.failed for run in passes),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]] if not args.trace else values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
