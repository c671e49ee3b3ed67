"""The batch workloads: ``CPAModel`` fit and predict on one answer matrix.

``batch_serial`` runs the default fused kernel on the serial executor;
``batch_lanes`` runs the same inputs over two ``python -m repro.worker``
lanes with ``backend="auto"``, which shards the 30k answers into two shards.
The program runs in its own process (``batch_program.py``) and receives
only plain ``(item, worker, labels)`` records.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

from common import (
    Run,
    check_f1_repeats,
    f1_score,
    median,
    program_env,
    stop_programs,
    timed_setups,
)

#: the Fig-7 generator at 30k answers over 10 labels: above the 25k-answer
#: volume where ``auto`` shards a two-lane fit.
DATA = dict(n_items=3000, n_workers=600, answers_per_item=10)
N_LANES = 2
PROGRAM_TIMEOUT_S = 150.0
#: lowest F1 seen over seeds 0-9 and the held-out seed, less a margin.
F1_FLOOR = 0.6


def run_batch(workload: str, seed: int, seconds: float, work: Path, trace_dir: Optional[Path]) -> Run:
    from repro.simulation.generator import generate_dataset
    from repro.simulation.scenarios import large_scale_config

    run = Run()
    dataset = generate_dataset(large_scale_config(**DATA), seed)
    answers = dataset.answers
    job = {
        "n_items": answers.n_items,
        "n_workers": answers.n_workers,
        "n_labels": answers.n_labels,
        "records": [[a.item, a.worker, sorted(a.labels)] for a in answers.iter_answers()],
        "workers": [],
    }
    env = program_env(work, trace_dir)
    lanes = []
    lane_setup_s = 0.0
    try:
        if workload == "batch_lanes":
            specs = [("repro.worker", ["--listen", "127.0.0.1:0"], 1)] * N_LANES
            lanes = timed_setups(run, specs, env, work)
            lane_setup_s = run.metrics["setup_s"]
            job["workers"] = [lane.addresses[0] for lane in lanes]
        job_path, result_path = work / "batch-job.json", work / "batch-result.json"
        job_path.write_text(json.dumps(job))
        program = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("batch_program.py")), str(job_path), str(result_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=PROGRAM_TIMEOUT_S,
        )
        if program.returncode != 0:
            run.op(ok=False)
            run.check(False, "batch program failed: " + program.stderr.decode()[-2000:])
            return run
        result = json.loads(result_path.read_text())
        lanes_rss_kb = sum(lane.peak_rss_kb() for lane in lanes)
    finally:
        stop_programs(lanes)

    run.op()  # the fit
    for _ in result["predict_s"]:
        run.op()
    run.metrics["setup_s"] = lane_setup_s + median(result["load_s"])
    run.metrics["fit_s"] = result["fit_s"]
    # the mean, not the median: the passes are consecutive, and only their
    # whole span averages over the host's multi-second speed swings
    run.metrics["predict_s"] = sum(result["predict_s"]) / len(result["predict_s"])
    run.metrics["peak_rss_mb"] = (result["vm_hwm_kb"] + lanes_rss_kb) / 1024.0
    run.metrics["iterations"] = result["iterations"]
    run.metrics["predict_passes"] = len(result["predict_s"])

    predictions = {int(item): frozenset(labels) for item, labels in result["predictions"].items()}
    answered = answers.answered_items()
    run.check(result["predictions_identical"], "predict passes disagree")
    run.check(sorted(predictions) == answered, "predictions do not cover every answered item")
    f1 = f1_score(predictions, dataset.truth, answered)
    run.metrics["f1"] = f1
    run.check(f1 >= F1_FLOOR, f"f1 {f1:.4f} below the floor {F1_FLOOR}")
    check_f1_repeats(run, workload, seed, seconds, f1)
    return run
