"""Digests of a fitted posterior, for bitwise comparisons across commits.

    PYTHONPATH=src python benchmarks/fit_digest.py [--seeds 0,1009] [--sweeps 60]

Fits the ``batch_lanes`` perfbench data (the Fig-7 generator at 30k
answers, loaded record by record as perfbench loads it) for a fixed
number of sweeps, once per seed, dtype (float64, float32) and kernel
layout: ``fused``, ``sharded`` (``n_shards=2`` in process) and ``lanes``
(``n_shards=2`` over two ``python -m repro.worker`` daemons started by
the script).  Prints one JSON line per fit with the sha256 of ϕ, κ and λ.

The script imports ``repro`` from ``PYTHONPATH`` and passes it to the
daemons, so running it once with each commit's ``src`` on the path and
diffing the output checks that a change keeps every fit bitwise equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, List

import numpy as np

#: perfbench's ``batch_lanes`` data (``perfbench/batch.py``).
DATA = dict(n_items=3000, n_workers=600, answers_per_item=10)
LAYOUTS = ("fused", "sharded", "lanes")
DTYPES = ("float64", "float32")


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _answers(seed: int):
    from repro.data.answers import AnswerMatrix
    from repro.simulation.generator import generate_dataset
    from repro.simulation.scenarios import large_scale_config

    dataset = generate_dataset(large_scale_config(**DATA), seed)
    answers = dataset.answers
    matrix = AnswerMatrix(answers.n_items, answers.n_workers, answers.n_labels)
    for answer in answers.iter_answers():
        matrix.add(answer.item, answer.worker, sorted(answer.labels))
    return matrix


def _start_lanes(directory: Path, count: int) -> List:
    lanes = []
    for index in range(count):
        port_file = directory / f"lane-{index}.port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.worker", "--port-file", str(port_file)],
            stdout=subprocess.DEVNULL,
        )
        lanes.append((process, port_file))
    deadline = time.monotonic() + 30.0
    while not all(port.exists() and port.read_text().strip() for _, port in lanes):
        if time.monotonic() > deadline:
            raise SystemExit("worker daemons did not announce their ports")
        time.sleep(0.05)
    return lanes


def _fit(matrix, seed: int, dtype: str, layout: str, sweeps: int, workers) -> Dict:
    from repro.core.config import CPAConfig
    from repro.core.inference import VariationalInference

    options = dict(dtype=dtype, max_iterations=sweeps, tolerance=1e-12)
    if layout != "fused":
        options.update(backend="sharded", n_shards=2)
    if layout == "lanes":
        options.update(executor="remote", workers=tuple(workers))
    engine = VariationalInference(CPAConfig(**options), matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine.run(track_elbo=False)
    if layout == "lanes":
        engine.executor.close()
    state = engine.state
    return {
        "seed": seed,
        "dtype": dtype,
        "layout": layout,
        "phi": _digest(state.phi),
        "kappa": _digest(state.kappa),
        "lam": _digest(state.lam),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1009")
    parser.add_argument("--sweeps", type=int, default=60)
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as scratch:
        lanes = _start_lanes(Path(scratch), 2)
        try:
            workers = [port.read_text().strip() for _, port in lanes]
            for seed in seeds:
                matrix = _answers(seed)
                for dtype in DTYPES:
                    for layout in LAYOUTS:
                        record = _fit(matrix, seed, dtype, layout, args.sweeps, workers)
                        print(json.dumps(record), flush=True)
        finally:
            for process, _ in lanes:
                process.terminate()
                process.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
