"""The summary math of ``benchmarks/paired_perfbench.py`` on canned
``perfbench/run.py`` output (no benchmark is run)."""

import json

import pytest

from benchmarks.paired_perfbench import (
    Run,
    format_summary,
    parse_run,
    parse_seeds,
    problems,
    summarize,
)

END_TO_END = [
    {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _output(fit_s, rss, *, correct=True, failed=0, f1=0.75):
    result = {
        "correct": correct,
        "attempted": 400,
        "failed": failed,
        "metrics": {
            "fit_s": {"value": fit_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }
    return "\n".join(
        [
            f"f1 {f1} ratio",
            f"fit_s {fit_s} s",
            "failed_ratio 0 ratio",
            f"peak_rss_mb {rss} MiB",
            json.dumps(result),
            "",
        ]
    )


def test_parse_seeds():
    assert parse_seeds("0-3,1009") == [0, 1, 2, 3, 1009]
    assert parse_seeds("5") == [5]


def test_parse_run_reads_the_result_line_and_f1():
    run = parse_run(_output(6.5, 420.0, f1=0.8125))
    assert run == Run(
        correct=True,
        failed=0,
        metrics={"fit_s": 6.5, "peak_rss_mb": 420.0},
        f1=0.8125,
    )
    assert parse_run("fit_s 1 s\nTraceback ...\n").correct is False
    assert parse_run("").correct is False


def test_summary_quartiles_ratios_and_wins():
    ref_fit = [4.0, 6.0, 8.0, 10.0, 12.0]
    tree_fit = [2.0, 3.0, 4.0, 5.0, 13.2]  # ratios 0.5 0.5 0.5 0.5 1.1
    pairs = [
        (seed, parse_run(_output(r, 400.0)), parse_run(_output(t, 404.0)))
        for seed, (r, t) in enumerate(zip(ref_fit, tree_fit))
    ]
    fit, rss = summarize(pairs, END_TO_END)
    assert fit.ref == pytest.approx((6.0, 8.0, 10.0))
    assert fit.tree == pytest.approx((3.0, 4.0, 5.0))
    assert fit.ratio_median == pytest.approx(0.5)
    assert (fit.ratio_min, fit.ratio_max) == pytest.approx((0.5, 1.1))
    assert (fit.wins, fit.pairs) == (4, 5)
    assert not fit.gap_exceeds_ref_iqr  # |4 - 8| == 10 - 6 does not exceed
    assert rss.ratio_median == pytest.approx(1.01)
    assert rss.wins == 0  # worse on every pair, and ties never win
    assert rss.gap_exceeds_ref_iqr  # a steady 4 MiB shift over a zero IQR
    table = format_summary([fit, rss])
    assert "fit_s" in table and "4/5" in table and "0.500 (0.500-1.100)" in table


def test_higher_is_better_metrics_count_increases_as_wins():
    pairs = [
        (0, parse_run(_output(1.0, 400.0)), parse_run(_output(2.0, 400.0))),
        (1, parse_run(_output(1.0, 400.0)), parse_run(_output(0.5, 400.0))),
    ]
    (fit,) = summarize(pairs, [{**END_TO_END[0], "better": "higher"}])
    assert fit.wins == 1


def test_incorrect_or_failed_runs_are_problems():
    pairs = [
        (0, parse_run(_output(1.0, 1.0)), parse_run(_output(1.0, 1.0))),
        (1, parse_run(_output(1.0, 1.0, correct=False)), parse_run(_output(1.0, 1.0))),
        (2, parse_run(_output(1.0, 1.0)), parse_run(_output(1.0, 1.0, failed=3))),
        (3, parse_run(_output(1.0, 1.0)), parse_run("crashed\n")),
    ]
    assert problems(pairs) == [
        "seed 1 ref: correct=False failed=0",
        "seed 2 tree: correct=True failed=3",
        "seed 3 tree: correct=False failed=0",
    ]
