"""Tests for the experiment registry, tiny-scale experiment runs, and CLI.

Each experiment module is executed once at a deliberately small scale —
these are plumbing tests (the full qualitative assertions live in
``benchmarks/``).  The final class smoke-tests the cross-PR benchmark
regression gate (``benchmarks/check_regression.py`` and
``python -m benchmarks.run_perf --check``) on fabricated payloads.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.experiments.registry import ExperimentReport

ALL_IDS = [
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
    "table3",
    "table4",
    "table5",
]


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = [spec.experiment_id for spec in list_experiments()]
        assert sorted(ids) == sorted(ALL_IDS)

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("nope")
        with pytest.raises(ExperimentError):
            run_experiment("nope")

    def test_specs_carry_metadata(self):
        spec = get_experiment("table4")
        assert spec.paper_artefact == "Table 4"
        assert spec.title


class TestSmallRuns:
    """Each experiment runs end-to-end at minimum scale."""

    def _check(self, report: ExperimentReport, experiment_id: str):
        assert report.experiment_id == experiment_id
        assert report.tables
        assert report.rendered()

    def test_table1(self):
        self._check(run_experiment("table1"), "table1")

    def test_table3(self):
        self._check(run_experiment("table3", scale=0.2), "table3")

    def test_table4(self):
        report = run_experiment(
            "table4", seeds=(0,), scale=0.25, scenarios=("image",)
        )
        self._check(report, "table4")
        assert "image" in report.data["means"]

    def test_fig1(self):
        report = run_experiment("fig1", scale=0.25)
        self._check(report, "fig1")
        assert report.data["graph_edges"] >= 0

    def test_fig3(self):
        report = run_experiment(
            "fig3", seeds=(0,), scale=0.25, sparsity_levels=(0.0, 0.5)
        )
        self._check(report, "fig3")
        assert len(report.data["levels"]) == 2

    def test_fig4(self):
        report = run_experiment(
            "fig4", seeds=(0,), scale=0.25, scenarios=("movie",), spam_shares=(0.2,)
        )
        self._check(report, "fig4")

    def test_fig5(self):
        report = run_experiment(
            "fig5", seeds=(0,), scale=0.25, levels=(0.2,)
        )
        self._check(report, "fig5")

    def test_fig6(self):
        report = run_experiment(
            "fig6", seeds=(0,), scale=0.25, fractions=(0.5, 1.0)
        )
        self._check(report, "fig6")

    def test_fig6_survives_collapsed_arrival_windows(self):
        """Regression: fractions closer together than one answer collapse
        in the stream; fig6 must still report one point per fraction
        (repeating the previous point) instead of crashing on a
        shorter-than-fractions curve."""
        report = run_experiment(
            "fig6", seeds=(0,), scale=0.25, fractions=(0.5, 0.500001, 1.0)
        )
        curves = report.data["curves"]
        assert all(len(curve) == 3 for curve in curves.values())
        # the collapsed middle window repeats the 50% point
        assert curves["online_precision"][1] == curves["online_precision"][0]
        assert curves["offline_recall"][1] == curves["offline_recall"][0]

    def test_fig7(self):
        report = run_experiment(
            "fig7",
            answers_per_item_levels=(4,),
            n_items=80,
            n_workers=30,
            parallel_degrees=(2,),
            answers_per_batch=60,
        )
        self._check(report, "fig7")
        assert report.data["online_speedup"] > 0

    def test_fig7_parallel_rows_dispatch_to_their_lanes(self, tiny_dataset, monkeypatch):
        """A parallel-online row hands its work to the executor it builds
        (``--executor thread --degree 2`` must not time a serial run)."""
        from repro.core.config import CPAConfig
        from repro.experiments import fig7_runtime

        dispatched = []
        real_make = fig7_runtime.make_executor

        def spying_make(*args, **kwargs):
            executor = real_make(*args, **kwargs)
            for name in ("map_on", "map_tasks"):
                def spy(*call_args, _real=getattr(executor, name), _name=name, **kw):
                    dispatched.append(_name)
                    return _real(*call_args, **kw)

                setattr(executor, name, spy)
            return executor

        monkeypatch.setattr(fig7_runtime, "make_executor", spying_make)
        fig7_runtime._time_online(
            CPAConfig(seed=0, svi_iterations=1),
            tiny_dataset,
            answers_per_batch=60,
            degree=2,
            backend="thread",
        )
        assert dispatched

    def test_fig8(self):
        report = run_experiment(
            "fig8", seeds=(0,), scale=0.25, scenarios=("movie",), no_l_scenarios=("movie",)
        )
        self._check(report, "fig8")

    def test_fig9(self):
        report = run_experiment("fig9", scale=0.25, scenarios=("image",))
        self._check(report, "fig9")

    def test_fig10(self):
        report = run_experiment("fig10", scale=0.25, n_profile_samples=40)
        self._check(report, "fig10")

    def test_table5(self):
        report = run_experiment(
            "table5",
            seeds=(0,),
            scale=0.25,
            scenarios=("movie",),
            forgetting_rates=(0.875,),
            n_batches=4,
        )
        self._check(report, "table5")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig7" in out

    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.2"]) == 0
        assert "Dataset statistics" in capsys.readouterr().out or True

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Motivating example" in capsys.readouterr().out

    def test_run_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "table1", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "Motivating example" in out_file.read_text()

    def test_bad_seed_list(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--seeds", "a,b"])

    def test_executor_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig7", "--executor", "thread", "--degree", "2"]
        )
        assert args.executor == "thread" and args.degree == 2

    def test_bad_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--executor", "gpu"])

    def test_executor_kwargs_filtered_by_signature(self):
        from repro.cli import _accepted_kwargs

        generic = {"scale": 0.5, "backend": "thread", "parallel_degrees": (2,)}
        fig7_kwargs = _accepted_kwargs("fig7", generic)
        assert fig7_kwargs == {"backend": "thread", "parallel_degrees": (2,)}
        table3_kwargs = _accepted_kwargs("table3", generic)
        assert table3_kwargs == {"scale": 0.5}

    def test_run_with_executor_flag_on_plain_experiment(self, capsys):
        # table1 takes no executor kwargs: the flag must be filtered, not fail
        assert main(["run", "table1", "--executor", "thread", "--degree", "2"]) == 0
        assert "Motivating example" in capsys.readouterr().out

    def test_kernel_backend_flags_parse_and_filter(self):
        from repro.cli import _accepted_kwargs, build_parser

        args = build_parser().parse_args(
            ["run", "fig7", "--kernel-backend", "sharded", "--shards", "4"]
        )
        assert args.kernel_backend == "sharded" and args.shards == 4
        generic = {"kernel_backend": "sharded", "n_shards": 4, "scale": 0.5}
        assert _accepted_kwargs("fig7", generic) == {
            "kernel_backend": "sharded",
            "n_shards": 4,
        }
        assert _accepted_kwargs("table3", generic) == {"scale": 0.5}

    def test_shards_flag_implies_sharded_backend(self):
        from repro.cli import _experiment_kwargs, build_parser

        args = build_parser().parse_args(["run", "fig7", "--shards", "4"])
        kwargs = _experiment_kwargs(args)
        assert kwargs["n_shards"] == 4
        assert kwargs["kernel_backend"] == "sharded"
        # an explicit backend choice is never overridden
        args = build_parser().parse_args(
            ["run", "fig7", "--shards", "4", "--kernel-backend", "fused"]
        )
        assert _experiment_kwargs(args)["kernel_backend"] == "fused"

    def test_workers_flag_parses_and_implies_remote_executor(self):
        from repro.cli import _experiment_kwargs, build_parser

        args = build_parser().parse_args(
            ["run", "fig7", "--workers", "127.0.0.1:9001, 127.0.0.1:9002"]
        )
        kwargs = _experiment_kwargs(args)
        assert kwargs["workers"] == ("127.0.0.1:9001", "127.0.0.1:9002")
        assert kwargs["backend"] == "remote"
        # an explicit remote selection composes with the address list
        args = build_parser().parse_args(
            ["run", "fig7", "--executor", "remote", "--workers", "h:1"]
        )
        assert _experiment_kwargs(args)["backend"] == "remote"

    def test_bad_worker_addresses_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--workers", "no-port"])
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--workers", "host:not-a-number"])

    def test_workers_with_non_remote_executor_fails_at_parse_time(self):
        """The contradiction is statically detectable: it must not cost a
        minutes-long experiment run before erroring."""
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--executor", "thread", "--workers", "h:1"])

    def test_workers_kwarg_filtered_by_signature(self):
        from repro.cli import _accepted_kwargs

        generic = {"workers": ("127.0.0.1:9001",), "backend": "remote"}
        assert _accepted_kwargs("fig7", generic) == generic
        assert _accepted_kwargs("table3", generic) == {}

    def test_auto_kernel_backend_parses(self):
        from repro.cli import _experiment_kwargs, build_parser

        args = build_parser().parse_args(["run", "fig7", "--kernel-backend", "auto"])
        assert _experiment_kwargs(args)["kernel_backend"] == "auto"
        # --shards pins K but must not override an explicit auto choice
        args = build_parser().parse_args(
            ["run", "fig7", "--kernel-backend", "auto", "--shards", "4"]
        )
        kwargs = _experiment_kwargs(args)
        assert kwargs["kernel_backend"] == "auto" and kwargs["n_shards"] == 4

    def test_bad_kernel_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--kernel-backend", "gpu"])

    def test_run_with_kernel_backend_flag_on_plain_experiment(self, capsys):
        assert main(["run", "table1", "--kernel-backend", "sharded"]) == 0
        assert "Motivating example" in capsys.readouterr().out


class TestBenchRegressionGate:
    """Smoke tests of benchmarks/check_regression.py and run_perf --check."""

    def _payload(self, scale=1.0):
        record = {
            "n_answers": 10_000,
            "n_patterns": 240,
            "fused_sweep_s": 0.030 * scale,
            "fused_elbo_s": 0.003 * scale,
            "sharded_sweep_s": 0.040 * scale,
            "sharded_elbo_s": 0.005 * scale,
            "svi_fused_batch_s": 0.050 * scale,
            "svi_sharded_batch_s": 0.060 * scale,
            "reference_sweep_s": 1.5,  # untracked: never gated
            "sweep_speedup": 50.0,
        }
        return {
            "benchmark": "core-kernels",
            "generated_at": "2026-07-26T00:00:00+00:00",
            "settings": {"dtype": "float64", "sweeps": 2, "seed": 0},
            "results": [record],
        }

    def test_tracked_keys_exclude_reference_and_ratios(self):
        from benchmarks.check_regression import tracked_keys

        keys = tracked_keys(self._payload()["results"][0])
        assert "fused_sweep_s" in keys and "sharded_sweep_s" in keys
        assert "svi_sharded_batch_s" in keys
        assert "reference_sweep_s" not in keys
        assert "sweep_speedup" not in keys

    def test_compare_passes_within_threshold(self):
        from benchmarks.check_regression import compare_results, run_check

        baseline = self._payload()
        wobbly = self._payload(scale=1.15)  # 15% slower: inside the 20% gate
        comparisons, regressions = compare_results(
            baseline["results"], wobbly["results"]
        )
        assert len(comparisons) == 6 and not regressions
        assert run_check(baseline, wobbly, verbose=False) == 0

    def test_compare_flags_regression(self):
        from benchmarks.check_regression import compare_results, run_check

        baseline = self._payload()
        slow = copy.deepcopy(baseline)
        slow["results"][0]["sharded_sweep_s"] *= 1.5
        comparisons, regressions = compare_results(
            baseline["results"], slow["results"]
        )
        assert [r.key for r in regressions] == ["sharded_sweep_s"]
        assert run_check(baseline, slow, verbose=False) == 1
        # a reference slowdown alone must NOT fail the gate
        ref_slow = copy.deepcopy(baseline)
        ref_slow["results"][0]["reference_sweep_s"] *= 10
        assert run_check(baseline, ref_slow, verbose=False) == 0

    def test_millisecond_jitter_below_noise_floor_is_not_a_regression(self):
        from benchmarks.check_regression import compare_results

        baseline = self._payload()
        jitter = copy.deepcopy(baseline)
        # +50% relative but only +1.5ms absolute: under the 2ms noise floor
        jitter["results"][0]["fused_elbo_s"] = 0.0045
        _, regressions = compare_results(baseline["results"], jitter["results"])
        assert regressions == []
        # the same ratio above the floor IS a regression
        slow = copy.deepcopy(baseline)
        slow["results"][0]["svi_fused_batch_s"] = 0.075  # +50%, +25ms
        _, regressions = compare_results(baseline["results"], slow["results"])
        assert [r.key for r in regressions] == ["svi_fused_batch_s"]

    def test_missing_baseline_passes(self):
        from benchmarks.check_regression import run_check

        assert run_check(None, self._payload(), verbose=False) == 0

    def test_incomparable_settings_fail_loudly(self):
        """A settings mismatch must not report a green that gated nothing."""
        from benchmarks.check_regression import run_check, settings_comparable

        baseline = self._payload()
        float32 = self._payload(scale=0.4)  # "faster" but a different workload
        float32["settings"] = {"dtype": "float32", "sweeps": 2}
        assert not settings_comparable(baseline, float32)
        assert run_check(baseline, float32, verbose=False) == 2
        assert settings_comparable(baseline, self._payload(scale=3.0))

    def test_trajectory_accumulates_and_folds_in_legacy_baseline(self):
        from benchmarks.check_regression import extend_trajectory, trajectory_entry

        legacy = self._payload()  # pre-trajectory format
        first = self._payload(scale=1.01)
        first["trajectory"] = extend_trajectory(legacy, first)
        assert len(first["trajectory"]) == 2
        assert first["trajectory"][0] == trajectory_entry(legacy)
        second = self._payload(scale=0.99)
        second["trajectory"] = extend_trajectory(first, second)
        assert len(second["trajectory"]) == 3
        assert second["trajectory"][-1]["cases"]["10000"]["fused_sweep_s"] == (
            pytest.approx(0.030 * 0.99)
        )

    def test_check_regression_cli(self, tmp_path, capsys):
        from benchmarks.check_regression import main as check_main

        baseline_path = tmp_path / "baseline.json"
        new_path = tmp_path / "new.json"
        baseline_path.write_text(json.dumps(self._payload()))
        new_path.write_text(json.dumps(self._payload(scale=1.05)))
        assert (
            check_main([str(new_path), "--baseline", str(baseline_path)]) == 0
        )
        assert "OK" in capsys.readouterr().out
        slow = self._payload(scale=1.6)
        new_path.write_text(json.dumps(slow))
        assert (
            check_main([str(new_path), "--baseline", str(baseline_path)]) == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_run_perf_check_smoke(self, tmp_path, monkeypatch, capsys):
        """End-to-end --check flow with a stubbed benchmark suite."""
        import benchmarks.bench_kernels as bench_kernels
        from benchmarks.run_perf import main as perf_main

        out = tmp_path / "BENCH_core.json"
        out.write_text(json.dumps(self._payload()))

        measured = self._payload(scale=1.02)["results"]
        monkeypatch.setattr(
            bench_kernels, "run_suite", lambda *a, **k: copy.deepcopy(measured)
        )
        assert perf_main(["--check", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["trajectory"]) == 2  # legacy baseline + this run
        capsys.readouterr()

        slow = self._payload(scale=2.0)["results"]
        monkeypatch.setattr(
            bench_kernels, "run_suite", lambda *a, **k: copy.deepcopy(slow)
        )
        assert perf_main(["--check", "--out", str(out)]) == 1
        captured = capsys.readouterr().out
        assert "FAIL" in captured and "left unchanged" in captured
        assert "re-measuring" in captured  # the retry path ran before failing
        # the failing run must NOT rebase the baseline: re-running the gate
        # against the same baseline must fail again, not launder the slowdown
        assert json.loads(out.read_text()) == payload
        assert perf_main(["--check", "--out", str(out)]) == 1

    def test_run_perf_check_without_a_baseline_fails_before_measuring(
        self, tmp_path, monkeypatch, capsys
    ):
        """No payload at --out: nothing to gate against, so the check
        fails by name instead of recording a fresh run and passing."""
        import benchmarks.bench_kernels as bench_kernels
        from benchmarks.run_perf import main as perf_main

        def measure(*args, **kwargs):
            raise AssertionError("measured with no baseline to check against")

        monkeypatch.setattr(bench_kernels, "run_suite", measure)
        out = tmp_path / "missing" / "BENCH_core.json"
        assert perf_main(["--check", "--out", str(out)]) == 2
        captured = capsys.readouterr().out
        assert "FAIL" in captured and str(out) in captured
        assert not out.exists()

    def test_run_perf_check_retry_absorbs_one_noisy_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """A slowdown that does not reproduce on re-measurement passes."""
        import benchmarks.bench_kernels as bench_kernels
        from benchmarks.run_perf import main as perf_main

        out = tmp_path / "BENCH_core.json"
        out.write_text(json.dumps(self._payload()))
        runs = [
            self._payload(scale=2.0)["results"],  # noisy first measurement
            self._payload(scale=1.0)["results"],  # re-measurement: clean
        ]
        requested_sizes = []

        def fake_suite(sizes, **kwargs):
            requested_sizes.append(tuple(sizes))
            return copy.deepcopy(runs.pop(0))

        monkeypatch.setattr(bench_kernels, "run_suite", fake_suite)
        assert perf_main(["--check", "--sizes", "12000", "--out", str(out)]) == 0
        # the retry re-requests the *requested* suite size, not the realized
        # answer count the record reports (build_matrix trims duplicates)
        assert requested_sizes == [(12_000,), (12_000,)]
        captured = capsys.readouterr().out
        assert "re-measuring" in captured and "OK" in captured
        # the recorded baseline carries the best-of timings, not the noise
        recorded = json.loads(out.read_text())
        assert recorded["results"][0]["fused_sweep_s"] == pytest.approx(0.030)

    def test_merge_best_keeps_untracked_keys_from_old_record(self):
        """Reference-free re-measurements must not drop the old timings."""
        from benchmarks.bench_kernels import merge_best

        old = self._payload()["results"][0]
        new = {
            key: value * 0.9 if isinstance(value, float) else value
            for key, value in old.items()
            if not key.startswith("reference_")
        }
        merged = merge_best(old, new)
        assert merged["reference_sweep_s"] == old["reference_sweep_s"]
        assert merged["fused_sweep_s"] == pytest.approx(old["fused_sweep_s"] * 0.9)
        assert merged["sweep_speedup"] == pytest.approx(
            old["reference_sweep_s"] / (old["fused_sweep_s"] * 0.9)
        )

    def test_run_perf_check_partial_sizes_never_shrink_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        """A reduced --sizes gate run must not drop the unmeasured cases."""
        import benchmarks.bench_kernels as bench_kernels
        from benchmarks.run_perf import main as perf_main

        out = tmp_path / "BENCH_core.json"
        baseline = self._payload()
        big_case = dict(baseline["results"][0], n_answers=200_000)
        baseline["results"].append(big_case)
        out.write_text(json.dumps(baseline))

        small_only = [dict(self._payload(scale=1.01)["results"][0])]
        monkeypatch.setattr(
            bench_kernels, "run_suite", lambda *a, **k: copy.deepcopy(small_only)
        )
        assert perf_main(["--check", "--sizes", "10000", "--out", str(out)]) == 0
        assert "left unchanged" in capsys.readouterr().out
        assert json.loads(out.read_text()) == baseline  # 200k case survives

    def test_run_perf_check_skips_incomparable_settings(
        self, tmp_path, monkeypatch, capsys
    ):
        import benchmarks.bench_kernels as bench_kernels
        from benchmarks.run_perf import main as perf_main

        out = tmp_path / "BENCH_core.json"
        baseline = self._payload()
        baseline["settings"] = {"dtype": "float64", "sweeps": 2, "seed": 0}
        out.write_text(json.dumps(baseline))
        fast = self._payload(scale=0.1)["results"]
        monkeypatch.setattr(
            bench_kernels, "run_suite", lambda *a, **k: copy.deepcopy(fast)
        )
        # float32 run: loud failure AND the float64 baseline is preserved
        assert (
            perf_main(["--check", "--dtype", "float32", "--out", str(out)]) == 2
        )
        assert "re-record the baseline" in capsys.readouterr().out
        assert json.loads(out.read_text()) == baseline
