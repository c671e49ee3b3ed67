"""Cross-PR benchmark regression gate for the kernel layer.

Compares a fresh :mod:`benchmarks.bench_kernels` run against the
committed ``BENCH_core.json`` baseline and fails (non-zero exit) when any
tracked production-path timing regressed by more than ``--threshold``
(default 20%) on any case.  Reference (frozen seed) timings are *not*
gated — they exist to contextualise speedups, not to be defended.

Entry points:

* ``python -m benchmarks.run_perf --check`` — run the suite, gate against
  the committed baseline, and append the new measurement to the
  ``trajectory`` list so the cross-PR perf history accumulates in-repo.
* ``python -m benchmarks.check_regression NEW.json [--baseline B.json]``
  — gate a previously recorded payload against a baseline without
  re-running anything (used by the CLI smoke tests).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: key prefixes excluded from the gate (the frozen seed path).
UNTRACKED_PREFIXES = ("reference_", "svi_reference_")

#: deterministic transport metrics (pickled bytes of the sharded
#: lane-resident path, and frame bytes of the remote TCP transport over
#: loopback worker daemons) carried into the
#: trajectory as per-case context; they are not wall-clock timings, so
#: the timing gate never fires on them.
CONTEXT_SUFFIXES = ("_pickled_bytes", "_bytes_ratio")

#: absolute slowdown (seconds) a regression must also exceed — scheduler
#: jitter on millisecond-scale cases is relative-threshold noise, not a
#: regression; real regressions on the multi-millisecond keys clear this
#: floor easily.
MIN_REGRESSION_DELTA_S = 0.002


def tracked_keys(record: Dict[str, object]) -> List[str]:
    """Timing keys of one benchmark record that the gate defends.

    Tracked keys are the wall-clock seconds (``*_s``) of the production
    paths — fused and sharded, batch and SVI; derived ratios and workload
    metadata are reported but never gated.
    """
    return sorted(
        key
        for key, value in record.items()
        if key.endswith("_s")
        and not key.startswith(UNTRACKED_PREFIXES)
        and isinstance(value, (int, float))
    )


def context_keys(record: Dict[str, object]) -> List[str]:
    """Deterministic per-case context recorded alongside the tracked keys.

    The sharded transport byte counts (and their ratios) are exact —
    re-running cannot change them short of a code change — so the
    trajectory records them per run, but the timing gate does not
    compare them.
    """
    return sorted(
        key
        for key, value in record.items()
        if key.endswith(CONTEXT_SUFFIXES) and isinstance(value, (int, float))
    )


@dataclass(frozen=True)
class Comparison:
    """One (case, key) timing comparison against the baseline."""

    n_answers: int
    key: str
    baseline_s: float
    measured_s: float

    @property
    def ratio(self) -> float:
        return self.measured_s / self.baseline_s if self.baseline_s > 0 else float("inf")

    def describe(self) -> str:
        return (
            f"N={self.n_answers:>7d} {self.key:24s} "
            f"{self.baseline_s:.4f}s -> {self.measured_s:.4f}s "
            f"({self.ratio:.2f}x baseline)"
        )


def compare_results(
    baseline_results: Sequence[Dict[str, object]],
    new_results: Sequence[Dict[str, object]],
    threshold: float = 0.2,
    min_delta: float = MIN_REGRESSION_DELTA_S,
) -> Tuple[List[Comparison], List[Comparison]]:
    """Pair up cases by ``n_answers`` and flag per-case regressions.

    Returns ``(comparisons, regressions)``; a comparison is a regression
    when the measured time exceeds the baseline by more than
    ``threshold`` (relative) *and* by more than ``min_delta`` seconds
    (absolute — the noise floor keeping millisecond-scale jitter from
    tripping the gate).  Cases or keys present on only one side are
    skipped — adding a new tracked configuration must not fail the gate
    retroactively.
    """
    baseline_by_case = {
        int(record["n_answers"]): record for record in baseline_results
    }
    comparisons: List[Comparison] = []
    regressions: List[Comparison] = []
    for record in new_results:
        base = baseline_by_case.get(int(record["n_answers"]))
        if base is None:
            continue
        for key in tracked_keys(record):
            if key not in base:
                continue
            comparison = Comparison(
                n_answers=int(record["n_answers"]),
                key=key,
                baseline_s=float(base[key]),
                measured_s=float(record[key]),
            )
            comparisons.append(comparison)
            if (
                comparison.ratio > 1.0 + threshold
                and comparison.measured_s - comparison.baseline_s > min_delta
            ):
                regressions.append(comparison)
    return comparisons, regressions


def trajectory_entry(payload: Dict[str, object]) -> Dict[str, object]:
    """Compact per-run summary appended to the cross-PR trajectory."""
    return {
        "generated_at": payload.get("generated_at"),
        "settings": payload.get("settings"),
        "cases": {
            str(record["n_answers"]): {
                key: record[key]
                for key in tracked_keys(record) + context_keys(record)
            }
            for record in payload.get("results", [])
        },
    }


def extend_trajectory(
    previous_payload: Optional[Dict[str, object]],
    new_payload: Dict[str, object],
) -> List[Dict[str, object]]:
    """The new payload's trajectory: history plus the new measurement.

    A pre-trajectory baseline (PR 1's format) is folded in as the first
    entry so the recorded history starts at the first measured PR.
    """
    trajectory: List[Dict[str, object]] = []
    if previous_payload is not None:
        trajectory = list(previous_payload.get("trajectory", []))
        if not trajectory:
            trajectory.append(trajectory_entry(previous_payload))
    trajectory.append(trajectory_entry(new_payload))
    return trajectory


#: settings that must match for a timing comparison to mean anything.
COMPARABLE_SETTINGS = ("dtype", "sweeps", "seed")


def settings_comparable(
    baseline_payload: Dict[str, object], new_payload: Dict[str, object]
) -> bool:
    """Whether the two payloads measured like-for-like workloads.

    Comparing a ``float32`` run against a ``float64`` baseline (or
    different sweep/seed settings) would pass or fail the gate for
    reasons unrelated to any code change, so such pairs are declared
    incomparable and the gate fails loudly (exit code 2) rather than
    reporting a green that gated nothing.
    """
    a = baseline_payload.get("settings") or {}
    b = new_payload.get("settings") or {}
    return all(a.get(key) == b.get(key) for key in COMPARABLE_SETTINGS)


def run_check(
    baseline_payload: Optional[Dict[str, object]],
    new_payload: Dict[str, object],
    threshold: float = 0.2,
    verbose: bool = True,
) -> int:
    """Gate ``new_payload`` against ``baseline_payload``; returns exit code."""
    if baseline_payload is None:
        if verbose:
            print("no baseline payload; recording first measurement, gate passes")
        return 0
    if not settings_comparable(baseline_payload, new_payload):
        if verbose:
            print(
                "FAIL: baseline settings differ "
                f"({'/'.join(COMPARABLE_SETTINGS)}); the gate cannot compare "
                "these runs — re-record the baseline with a plain run "
                "(no --check) if the new settings are intentional"
            )
        return 2
    comparisons, regressions = compare_results(
        baseline_payload.get("results", []),
        new_payload.get("results", []),
        threshold=threshold,
    )
    if verbose:
        for comparison in comparisons:
            flag = "  REGRESSION" if comparison in regressions else ""
            print(comparison.describe() + flag)
    if regressions:
        if verbose:
            print(
                f"FAIL: {len(regressions)} tracked timing(s) regressed by more "
                f"than {threshold:.0%} vs the committed baseline"
            )
        return 1
    if verbose:
        print(
            f"OK: {len(comparisons)} tracked timings within {threshold:.0%} "
            "of the committed baseline"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_regression",
        description="Gate a recorded benchmark payload against a baseline",
    )
    parser.add_argument("new", type=Path, help="payload JSON of the new run")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="baseline payload (default: committed BENCH_core.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative slowdown that fails the gate (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    new_payload = json.loads(args.new.read_text(encoding="utf-8"))
    baseline_payload = (
        json.loads(args.baseline.read_text(encoding="utf-8"))
        if args.baseline.exists()
        else None
    )
    return run_check(baseline_payload, new_payload, threshold=args.threshold)


if __name__ == "__main__":
    sys.exit(main())
