"""Per-layer metrics from the span records of a traced pass.

Every program process of a traced pass leaves ``trace-<pid>.json`` (see
``trace/perfbench_trace.py``).  A span's self time is its duration minus the
time its child spans cover; ``.s`` sums self times and ``.calls`` counts
spans, over every process of the pass.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict

#: spans that frame the work a layer breakdown must explain: the batch
#: program's fit and predict calls and every request a daemon handles.
COVERAGE_ROOTS = ("core.model.CPAModel.fit", "core.model.CPAModel.predict", "serve.ConsensusServer.handle")
QUERY_SPANS = ("serve.ConsensusEngine.predict", "serve.ConsensusEngine.label_probabilities")
PARALLEL_TALLIES = ("sent_bytes", "received_bytes", "broadcast_bytes", "lanes_lost")


def layer_metrics(trace_dir: Path) -> Dict[str, float]:
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    tallies: Dict[str, float] = defaultdict(float)
    root_s = covered_s = 0.0
    rebuilds = 0
    for path in sorted(trace_dir.glob("trace-*.json")):
        record = json.loads(path.read_text())
        names = record["names"]
        spans = {sid: (names[index], start, end, parent) for index, start, end, sid, parent in record["spans"]}
        child_s: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in spans.values():
            if parent in spans:
                child_s[parent] += end - start
        for sid, (name, start, end, parent) in spans.items():
            self_s[name] += end - start - child_s[sid]
            calls[name] += 1
            if name in COVERAGE_ROOTS:
                root_s += end - start
                covered_s += child_s[sid]
            if name == "core.consensus.estimate_consensus" and parent in spans and spans[parent][0] in QUERY_SPANS:
                rebuilds += 1
        for name, value in record["counts"].items():
            counts[name] += value
        for name, value in record["tallies"].items():
            if name == "core.sharding.n_shards":
                tallies[name] = max(tallies[name], value)
            else:
                tallies[name] += value

    metrics: Dict[str, float] = {}
    for name, value in self_s.items():
        metrics[f"{name}.s"] = value
    for name, value in calls.items():
        metrics[f"{name}.calls"] = value
    for name, value in counts.items():
        metrics[f"{name}.calls"] = value
    metrics["utils.transport.dumps.bytes"] = tallies["utils.transport.dumps.bytes"]
    metrics["core.sharding.n_shards"] = tallies["core.sharding.n_shards"]
    for name in PARALLEL_TALLIES:
        key = f"utils.parallel.RemoteExecutor.{name}"
        metrics[key] = tallies[key]
    shipped = tallies["serve.ship_checkpoint.total_bytes"]
    metrics["serve.ship_checkpoint.delta_ratio"] = (
        tallies["serve.ship_checkpoint.shipped_bytes"] / shipped if shipped else 0.0
    )
    queries = sum(calls[name] for name in QUERY_SPANS)
    metrics["serve.rebuilds_per_query"] = rebuilds / queries if queries else 0.0
    metrics["trace.coverage"] = covered_s / root_s if root_s else 0.0
    return metrics
