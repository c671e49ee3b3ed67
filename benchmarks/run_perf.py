"""Record the kernel-layer perf trajectory: ``python -m benchmarks.run_perf``.

Runs :mod:`benchmarks.bench_kernels` at the standard answer volumes and
writes ``BENCH_core.json`` at the repository root, so subsequent PRs have
a measured baseline to compare against.  The file carries, per volume,
the fused, sharded-backend, and frozen-seed timings for a batch-VI
sweep, an ELBO evaluation, and an SVI batch step, plus enough
environment metadata to interpret the numbers, and a ``trajectory`` list
accumulating one compact summary per recorded run (the cross-PR
history).

``--check`` turns the run into a regression gate
(:mod:`benchmarks.check_regression`): the fresh measurements are diffed
against the previously recorded payload and the process exits non-zero
if any tracked production-path timing regressed by more than
``--threshold`` (default 20%, beyond a small absolute noise floor) on
any case.  Apparent regressions are re-measured up to ``--retries``
times (best-of merge per timing) — machine noise can inflate a whole
run, so only a slowdown that reproduces in every measurement fails the
gate.  A passing check appends the new measurement to the trajectory
but **never rebases the committed timings** — only a deliberate plain
(recording) run rewrites ``results``, so the gate cannot ratchet
itself onto outlier-fast observations.  A failing check writes nothing,
keeping the gate reproducible (re-running cannot launder the
regression).  Runs whose settings (dtype/sweeps/seed) differ from the
baseline's are incomparable and fail the check loudly (exit 2 —
re-record the baseline without ``--check`` if the new settings are
intentional), and so does a check with no payload at ``--out``, before
anything is measured; runs covering only a subset of the baseline's
cases gate that subset without recording anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))


def _parse_sizes(text: str) -> Sequence[int]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.run_perf",
        description="Benchmark the fused inference kernels vs the seed path",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=(10_000, 50_000, 200_000),
        help="comma-separated answer volumes (default 10000,50000,200000)",
    )
    parser.add_argument(
        "--sweeps", type=int, default=2, help="timed repetitions per measurement"
    )
    parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="output JSON path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the run against the previously recorded payload at --out "
        "(exit non-zero on >--threshold per-case regression)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative slowdown that fails --check (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measurements of failing cases before --check gives its "
        "verdict: a regression must reproduce in every run (default 2)",
    )
    args = parser.parse_args(argv)
    if args.check and not args.out.exists():
        # Nothing to compare against: a check that measured and recorded
        # anyway would pass silently.
        print(
            f"FAIL: --check has no baseline: {args.out} does not exist "
            "(record one with a plain run, without --check)"
        )
        return 2

    import numpy as np

    from benchmarks.bench_kernels import merge_best, run_suite
    from benchmarks.check_regression import (
        compare_results,
        extend_trajectory,
        run_check,
    )
    from repro.core.kernels import (
        SHARDED_ANSWERS_PER_SHARD,
        SHARDED_MAX_AUTO_SHARDS,
        SHARDED_MIN_ANSWERS,
        SHARDED_MIN_ANSWERS_PARALLEL,
    )

    previous = (
        json.loads(args.out.read_text(encoding="utf-8"))
        if args.out.exists()
        else None
    )
    records = run_suite(
        args.sizes, sweeps=args.sweeps, dtype=args.dtype, seed=args.seed
    )
    payload = {
        "benchmark": "core-kernels",
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "settings": {
            "dtype": args.dtype,
            "sweeps": args.sweeps,
            "seed": args.seed,
            "executor": "serial",
        },
        # The CPAConfig.backend="auto" selection rule, recorded so the
        # thresholds live next to the measurements that justify them
        # (repro.core.kernels is the source of truth at runtime).
        "auto_backend": {
            "sharded_min_answers": SHARDED_MIN_ANSWERS,
            "sharded_min_answers_parallel": SHARDED_MIN_ANSWERS_PARALLEL,
            "answers_per_shard": SHARDED_ANSWERS_PER_SHARD,
            "max_auto_shards": SHARDED_MAX_AUTO_SHARDS,
        },
        "results": records,
    }
    if previous is not None:
        # Sections owned by other recorders (e.g. bench_serving's
        # "serving") ride along untouched: this suite only ever rewrites
        # the keys it measures.
        for key, value in previous.items():
            if key not in payload and key != "trajectory":
                payload[key] = value
    status = 0
    out_payload: Optional[dict] = payload
    if args.check:
        status = run_check(previous, payload, threshold=args.threshold)
        retries = max(0, args.retries)
        while status == 1 and retries > 0:
            # Wall-clock noise on shared machines can inflate a whole run;
            # a genuine regression must reproduce, so re-measure only the
            # failing cases and keep the best of every observation.
            retries -= 1
            _, regressions = compare_results(
                previous.get("results", []), records, threshold=args.threshold
            )
            # Records carry *realized* answer counts (build_matrix trims
            # duplicates), so map back to the requested suite sizes before
            # re-running; the re-run realizes the same counts (same seed)
            # and merges by realized key.  The wide-sparse extra case has
            # no requested size — it re-measures via its own flag.
            requested = {
                int(record["n_answers"]): size
                for size, record in zip(args.sizes, records)
            }
            sizes = sorted(
                {
                    requested[c.n_answers]
                    for c in regressions
                    if c.n_answers in requested
                }
            )
            widesparse_regressed = any(
                c.n_answers not in requested for c in regressions
            )
            print(
                f"re-measuring {sizes}"
                + (" + wide-sparse" if widesparse_regressed else "")
                + " to confirm the regression..."
            )
            fresh = {
                int(r["n_answers"]): r
                for r in run_suite(
                    sizes,
                    sweeps=args.sweeps,
                    dtype=args.dtype,
                    seed=args.seed,
                    include_reference=False,  # untracked keys: skip the slow path
                    include_wide_sparse=widesparse_regressed,
                )
            }
            records = [
                merge_best(r, fresh[int(r["n_answers"])])
                if int(r["n_answers"]) in fresh
                else r
                for r in records
            ]
            payload["results"] = records
            status = run_check(previous, payload, threshold=args.threshold)
        baseline_cases = {int(r["n_answers"]) for r in previous.get("results", [])}
        measured_cases = {int(r["n_answers"]) for r in records}
        if status != 0 or not baseline_cases <= measured_cases:
            # Failing, incomparable, or partial-coverage checks record
            # nothing: the gate must stay reproducible and the baseline
            # must never shrink to a subset of its cases.
            out_payload = None
        else:
            # A passing check appends this run to the history but keeps
            # the committed timings: only a plain (recording) run rebases
            # the baseline, so the gate cannot ratchet itself onto
            # outlier-fast observations.
            out_payload = dict(previous)
    if out_payload is not None:
        out_payload["trajectory"] = extend_trajectory(previous, payload)
        args.out.write_text(
            json.dumps(out_payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    else:
        print(f"baseline {args.out} left unchanged")
    return status


if __name__ == "__main__":
    sys.exit(main())
