"""Paired end-to-end A/B against a git ref: ``python -m benchmarks.paired_perfbench``.

    python -m benchmarks.paired_perfbench --against REF --workload W \\
        --seeds 0-9,1009 [--seconds 20]

Unpacks ``git archive REF`` into a temporary directory and, for each seed,
runs ``perfbench/run.py --trace 0`` from that copy and from the working
tree, alternating which side runs first: the host's speed drifts over
minutes, so each pair shares its conditions and the order cancels out
over the seeds.  For every end-to-end metric ``BENCHMARK.json`` declares,
it prints each side's median and quartiles, the median and range of the
per-seed ratios (working tree over REF), how many pairs the working tree
won, and whether the gap between the medians exceeds REF's interquartile
range.  It also reports, per seed, whether F1 was identical.

Exits 1 if any run is not ``correct``, has failed ops or printed no
result, and 2 if REF cannot be archived.  ``perfbench/`` and
``BENCHMARK.json`` are read, never changed.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Run:
    """One ``perfbench/run.py`` result, parsed from its output."""

    correct: bool
    failed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    f1: Optional[float] = None


@dataclass(frozen=True)
class MetricSummary:
    """One end-to-end metric over the pairs; ``ref``/``tree`` are
    ``(q1, median, q3)`` and ratios are tree over ref."""

    name: str
    unit: str
    better: str
    ref: Tuple[float, float, float]
    tree: Tuple[float, float, float]
    ratio_median: float
    ratio_min: float
    ratio_max: float
    wins: int
    pairs: int

    @property
    def gap_exceeds_ref_iqr(self) -> bool:
        return abs(self.tree[1] - self.ref[1]) > self.ref[2] - self.ref[0]


def parse_seeds(text: str) -> List[int]:
    """``"0-9,1009"`` → ``[0, 1, ..., 9, 1009]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def parse_run(output: str) -> Run:
    """Parse perfbench's stdout: ``name value unit`` lines, then the JSON
    result line.  Output without a result line is a failed run."""
    lines = [line for line in output.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Run(correct=False, failed=0)
    f1 = None
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name == "f1":
            f1 = float(rest.split()[0])
    return Run(
        correct=result.get("correct") is True,
        failed=int(result.get("failed", 0)),
        metrics={
            name: float(entry["value"])
            for name, entry in result.get("metrics", {}).items()
        },
        f1=f1,
    )


def summarize(
    pairs: Sequence[Tuple[int, Run, Run]], end_to_end: Sequence[dict]
) -> List[MetricSummary]:
    """Per-metric quartiles, paired ratios and wins over ``(seed, ref,
    tree)`` pairs; ``end_to_end`` is ``BENCHMARK.json``'s list."""
    summaries = []
    for metric in end_to_end:
        name = metric["name"]
        ref = np.array([r.metrics[name] for _, r, _ in pairs])
        tree = np.array([t.metrics[name] for _, _, t in pairs])
        ratios = tree / ref
        won = tree < ref if metric["better"] == "lower" else tree > ref
        summaries.append(
            MetricSummary(
                name=name,
                unit=metric["unit"],
                better=metric["better"],
                ref=tuple(np.percentile(ref, [25, 50, 75]).tolist()),
                tree=tuple(np.percentile(tree, [25, 50, 75]).tolist()),
                ratio_median=float(np.median(ratios)),
                ratio_min=float(ratios.min()),
                ratio_max=float(ratios.max()),
                wins=int(won.sum()),
                pairs=len(pairs),
            )
        )
    return summaries


def problems(pairs: Sequence[Tuple[int, Run, Run]]) -> List[str]:
    """Runs that were not ``correct`` or had failed ops."""
    found = []
    for seed, *runs in pairs:
        for side, run in zip(("ref", "tree"), runs):
            if not run.correct or run.failed:
                found.append(
                    f"seed {seed} {side}: correct={run.correct} failed={run.failed}"
                )
    return found


def format_summary(summaries: Sequence[MetricSummary]) -> str:
    def quartiles(values: Tuple[float, float, float]) -> str:
        q1, median, q3 = values
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    header = (
        f"{'metric':<12} {'ref median [q1, q3]':<26} {'tree median [q1, q3]':<26} "
        f"{'ratio median (min-max)':<24} {'tree won':<9} gap > ref IQR"
    )
    rows = [header]
    for s in summaries:
        ratio = f"{s.ratio_median:.3f} ({s.ratio_min:.3f}-{s.ratio_max:.3f})"
        rows.append(
            f"{s.name:<12} {quartiles(s.ref):<26} {quartiles(s.tree):<26} "
            f"{ratio:<24} {f'{s.wins}/{s.pairs}':<9} "
            f"{'yes' if s.gap_exceeds_ref_iqr else 'no'}"
        )
    return "\n".join(rows)


def archive(ref: str, into: Path) -> None:
    """Unpack ``git archive ref`` of this repository into ``into``."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> Run:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=root, capture_output=True, text=True,
            timeout=30 * seconds + 600,
        )
    except subprocess.TimeoutExpired:
        return Run(correct=False, failed=0)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return Run(correct=False, failed=0)
    return parse_run(done.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git ref to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9,1009", help="default %(default)s")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in end_to_end]

    pairs: List[Tuple[int, Run, Run]] = []
    with tempfile.TemporaryDirectory(prefix="paired-perfbench-") as tmp:
        ref_root = Path(tmp)
        try:
            archive(args.against, ref_root)
        except subprocess.CalledProcessError as exc:
            print(f"cannot archive {args.against!r}: {exc.stderr.decode()}", file=sys.stderr)
            return 2
        for index, seed in enumerate(parse_seeds(args.seeds)):
            sides = {"ref": ref_root, "tree": ROOT}
            order = ("ref", "tree") if index % 2 == 0 else ("tree", "ref")
            runs = {
                side: run_perfbench(sides[side], args.workload, seed, args.seconds)
                for side in order
            }
            pairs.append((seed, runs["ref"], runs["tree"]))
            shown = "  ".join(
                f"{side} {name}={runs[side].metrics.get(name, float('nan')):.4g}"
                for name in names
                for side in ("ref", "tree")
            )
            print(f"seed {seed} ({order[0]} first): {shown}", flush=True)

    bad = problems(pairs)
    complete = [pair for pair in pairs if pair[1].metrics and pair[2].metrics]
    print(f"\n{args.workload}: {len(complete)} pairs against {args.against}")
    if complete:
        print(format_summary(summarize(complete, end_to_end)))
    same_f1 = [seed for seed, ref, tree in pairs if ref.f1 is not None and ref.f1 == tree.f1]
    print(f"f1 identical on {len(same_f1)}/{len(pairs)} seeds")
    for problem in bad:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
