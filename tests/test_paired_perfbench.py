"""The summary math of ``benchmarks/paired_perfbench.py`` on canned
``perfbench/run.py`` output (no benchmark is run)."""

import json

import pytest

import benchmarks.paired_perfbench as paired
from benchmarks.paired_perfbench import (
    STEAL_SHARE,
    Run,
    format_summary,
    parse_run,
    parse_seeds,
    parse_steal_s,
    problems,
    run_pair,
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


# A /proc/stat as Linux prints it: the aggregate line, then one per CPU.
PROC_STAT = """\
cpu  1041441 0 89199 3116916 396 0 12173 137304 0 0
cpu0 522393 0 44439 1556599 278 0 6083 68537 0 0
cpu1 519047 0 44759 1560316 117 0 6089 68766 0 0
intr 123 0 0
ctxt 456
"""


def test_parse_steal_reads_field_8_of_the_cpu_line(monkeypatch):
    monkeypatch.setattr(paired.os, "sysconf", lambda name: 100)
    assert parse_steal_s(PROC_STAT) == pytest.approx(1373.04)
    with pytest.raises(ValueError, match="cpu"):
        parse_steal_s("intr 123\n")


def test_a_run_is_stolen_when_steal_exceeds_the_share_of_its_wall_clock():
    wall = 10.0
    assert not Run(True, 0, wall_s=wall, steal_s=STEAL_SHARE * wall).stolen
    assert Run(True, 0, wall_s=wall, steal_s=STEAL_SHARE * wall + 0.01).stolen
    assert not Run(True, 0, wall_s=wall, steal_s=0.0).stolen


def _fake_runs(monkeypatch, steals):
    """``run_perfbench`` replaced by canned runs with the given steals, in
    call order; returns the list of ``(side, seed)`` calls."""
    calls = []
    steal = iter(steals)

    def fake(root, workload, seed, seconds):
        calls.append((str(root), seed))
        return Run(True, 0, {"fit_s": 1.0}, 0.75, wall_s=10.0, steal_s=next(steal))

    monkeypatch.setattr(paired, "run_perfbench", fake)
    return calls


ROOTS = {"ref": "ref-root", "tree": "tree-root"}


def test_a_quiet_pair_runs_once(monkeypatch, capsys):
    calls = _fake_runs(monkeypatch, [0.1, 0.2])
    attempts = run_pair(ROOTS, ("tree", "ref"), "w", 3, 20.0, ["fit_s"])
    assert calls == [("tree-root", 3), ("ref-root", 3)]  # in order
    assert len(attempts) == 1
    out = capsys.readouterr().out
    assert "ref steal=0.20s" in out and "tree steal=0.10s" in out
    assert "STOLEN" not in out


def test_a_stolen_pair_is_rerun_once_and_both_runs_reported(monkeypatch, capsys):
    # the ref run is stolen; so is the re-run's tree run, with no third try
    calls = _fake_runs(monkeypatch, [0.0, 5.0, 4.0, 0.1])
    attempts = run_pair(ROOTS, ("tree", "ref"), "w", 7, 20.0, ["fit_s"])
    assert len(calls) == 4
    assert [runs["ref"].steal_s for runs in attempts] == [5.0, 0.1]
    assert [runs["tree"].steal_s for runs in attempts] == [0.0, 4.0]
    out = capsys.readouterr().out
    assert out.count("seed 7 (tree first)") == 2
    assert out.count("re-running") == 1
    assert out.count("STOLEN") == 2


def test_a_pair_stolen_on_both_attempts_is_printed_but_not_summarized(monkeypatch, capsys):
    """Seeds 0 and 2 are quiet; seed 1's run and re-run are both stolen.
    The summary covers seeds 0 and 2 only, and names seed 1."""
    steals = iter([0.0, 0.0, 5.0, 0.0, 0.0, 4.0, 0.0, 0.0])
    fit = {0: (1.0, 0.5), 1: (1.0, 9.0), 2: (1.0, 0.5)}  # seed 1 would lose

    def fake(root, workload, seed, seconds):
        side = 1 if root == paired.ROOT else 0  # the tree runs from the repository
        metrics = {name: 1.0 for name in ("setup_s", "predict_s", "peak_rss_mb")}
        metrics["fit_s"] = fit[seed][side]
        return Run(True, 0, metrics, 0.75, wall_s=10.0, steal_s=next(steals))

    monkeypatch.setattr(paired, "archive", lambda ref, into: None)
    monkeypatch.setattr(paired, "run_perfbench", fake)
    assert paired.main(["--against", "HEAD", "--workload", "w", "--seeds", "0-2"]) == 0
    out = capsys.readouterr().out
    assert out.count("seed 1 (") == 2  # both attempts still printed
    assert out.count("STOLEN") == 2
    assert "w: 2 pairs against HEAD summarized, 1 left out" in out
    assert "seed 1: stolen on both attempts, not summarized" in out
    fit_row = next(line for line in out.splitlines() if line.startswith("fit_s "))
    assert "2/2" in fit_row and "0.500 (0.500-0.500)" in fit_row
    assert "f1 identical on 3/3 seeds" in out
