"""The program of the batch workloads: ``CPAModel`` on plain answer records.

Usage: ``python3 perfbench/batch_program.py JOB.json RESULT.json``, with
``src`` on ``PYTHONPATH``.  The job holds the index sizes, the
``(item, worker, labels)`` records and, for remote lanes, the worker
addresses.  The program loads the records into an ``AnswerMatrix`` several
times (set-up), fits once, predicts every answered item a few times, and
writes its timings, predictions and peak memory to the result file.
"""

from __future__ import annotations

import json
import sys
import time

#: loads timed per run; the benchmark reports their median.
LOAD_REPEATS = 5
PREDICT_PASSES = 8
#: every fit runs exactly this many sweeps: the tolerance is below any
#: reachable responsibility change, so the work per run is the same for
#: every seed (the default tolerance stops some seeds early).
SWEEPS = 60
FIXED_SWEEPS = dict(max_iterations=SWEEPS, tolerance=1e-12)


def main(job_path: str, result_path: str) -> int:
    from repro import CPAModel
    from repro.core.config import CPAConfig
    from repro.data.answers import AnswerMatrix

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sizes = (job["n_items"], job["n_workers"], job["n_labels"])

    load_s = []
    for _ in range(LOAD_REPEATS):
        started = time.perf_counter()
        matrix = AnswerMatrix(*sizes)
        for item, worker, labels in job["records"]:
            matrix.add(item, worker, labels)
        load_s.append(time.perf_counter() - started)

    if job["workers"]:
        config = CPAConfig(
            **FIXED_SWEEPS,
            executor="remote",
            workers=tuple(job["workers"]),
            backend="auto",
        )
    else:
        config = CPAConfig(**FIXED_SWEEPS)
    model = CPAModel(config)
    started = time.perf_counter()
    model.fit(matrix)
    fit_s = time.perf_counter() - started

    predict_s = []
    first = None
    identical = True
    for _ in range(PREDICT_PASSES):
        started = time.perf_counter()
        predictions = model.predict()
        predict_s.append(time.perf_counter() - started)
        labels = {str(item): sorted(found) for item, found in predictions.items()}
        if first is None:
            first = labels
        identical = identical and labels == first

    with open("/proc/self/status", encoding="ascii") as handle:
        vm_hwm_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    result = {
        "load_s": load_s,
        "fit_s": fit_s,
        "iterations": model.inference_result_.n_iterations,
        "predict_s": predict_s,
        "predictions": first,
        "predictions_identical": identical,
        "vm_hwm_kb": vm_hwm_kb,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
