"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Commands
--------
``repro list``
    Show all registered experiments with their paper artefacts.
``repro run <id> [--seeds 0,1,2] [--scale 0.5] [--out FILE]
            [--executor thread] [--degree 4] [--workers host:port,...]
            [--kernel-backend {fused,sharded,auto}] [--shards 4]``
    Run one experiment (or ``all``) and print/save its report.  The
    executor flags select the parallel backend, and the kernel-backend
    flags the sweep-kernel implementation (fused vs sharded), for
    experiments that take them (e.g. the Fig-7 runtime sweep) without
    code edits; kwargs an experiment does not accept are filtered by
    signature, so generic flags combine freely with ``all``.
``repro stats [--scale 1.0] [--seed 0]``
    Shortcut for the Table-3 statistics experiment.
``repro analysis [...]``
    The repo-invariant static-analysis pass; every argument is forwarded
    verbatim to ``repro.analysis.main`` (see ``repro analysis --help``).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments import list_experiments, run_experiment
from repro.experiments.registry import get_experiment


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


def _parse_workers(text: str) -> List[str]:
    from repro.errors import ValidationError
    from repro.utils.transport import parse_address

    addresses = [part.strip() for part in text.split(",") if part.strip()]
    if not addresses:
        raise argparse.ArgumentTypeError("empty worker address list")
    try:
        for address in addresses:
            parse_address(address)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return addresses


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Computing Crowd Consensus with Partial "
            "Agreement' (ICDE 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. table4, or 'all'")
    run_parser.add_argument(
        "--seeds", type=_parse_seeds, default=None, help="comma-separated seed list"
    )
    run_parser.add_argument("--seed", type=int, default=None, help="single seed")
    run_parser.add_argument("--scale", type=float, default=None, help="dataset scale")
    run_parser.add_argument("--out", type=Path, default=None, help="write report to file")
    run_parser.add_argument(
        "--executor",
        choices=("serial", "thread", "process", "remote"),
        default=None,
        help="parallel backend for experiments that accept one (e.g. fig7); "
        "'remote' runs lanes on worker daemons named by --workers",
    )
    run_parser.add_argument(
        "--degree",
        type=int,
        default=None,
        help="parallelism degree for --executor (default: one lane per core)",
    )
    run_parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        help="comma-separated remote worker daemon addresses "
        "(host:port,host:port,...) for --executor remote; start daemons "
        "with `python -m repro.worker --listen host:port`",
    )
    run_parser.add_argument(
        "--kernel-backend",
        choices=("fused", "sharded", "auto"),
        default=None,
        help="sweep-kernel backend for experiments that accept one (e.g. "
        "fig7); 'auto' picks fused vs sharded per matrix/batch from the "
        "answer volume and executor degree",
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the sharded kernel backend (implies "
        "--kernel-backend sharded; default: auto); capped by the number "
        "of answered items when the matrix is in hand",
    )
    run_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request reply deadline in seconds for --executor remote "
        "(straggler mitigation: a lane past its deadline is marked "
        "suspect and its tasks are re-dispatched; 0 disables deadlines)",
    )

    stats_parser = sub.add_parser("stats", help="dataset statistics (Table 3)")
    stats_parser.add_argument("--scale", type=float, default=1.0)
    stats_parser.add_argument("--seed", type=int, default=0)

    analysis_parser = sub.add_parser(
        "analysis",
        help="run the static-analysis pass (same as python -m repro.analysis)",
        add_help=False,  # let --help reach the analysis parser itself
    )
    analysis_parser.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded verbatim to repro.analysis",
    )
    return parser


def _accepted_kwargs(experiment_id: str, kwargs: dict) -> dict:
    """Drop kwargs the experiment's runner does not accept.

    Runners have heterogeneous signatures (fig7 has no ``scale``; most
    experiments have no ``backend``), so generic CLI flags are filtered by
    signature instead of failing — a runner with ``**kwargs`` accepts all.
    """
    runner = get_experiment(experiment_id).runner
    parameters = inspect.signature(runner).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in parameters}


def _experiment_kwargs(args: argparse.Namespace) -> dict:
    """Generic experiment kwargs from the parsed CLI flags.

    ``--shards`` alone implies the sharded kernel backend — a shard count
    silently running on the fused backend (which ignores it) would be a
    misleading no-op.
    """
    kwargs: dict = {}
    if args.seeds is not None:
        kwargs["seeds"] = tuple(args.seeds)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if getattr(args, "executor", None) is not None:
        kwargs["backend"] = args.executor
    if getattr(args, "degree", None) is not None:
        kwargs["parallel_degrees"] = (args.degree,)
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = tuple(args.workers)
        kwargs.setdefault("backend", "remote")
    if getattr(args, "kernel_backend", None) is not None:
        kwargs["kernel_backend"] = args.kernel_backend
    if getattr(args, "shards", None) is not None:
        kwargs["n_shards"] = args.shards
        kwargs.setdefault("kernel_backend", "sharded")
    if getattr(args, "request_timeout", None) is not None:
        kwargs["request_timeout"] = args.request_timeout
    return kwargs


def _run_one(experiment_id: str, args: argparse.Namespace) -> str:
    kwargs = _experiment_kwargs(args)
    report = run_experiment(experiment_id, **_accepted_kwargs(experiment_id, kwargs))
    return report.rendered()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "analysis":
        # forwarded before argparse sees the rest: REMAINDER refuses to
        # capture a leading option (``repro analysis --check``)
        from repro.analysis import main as analysis_main

        return analysis_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if getattr(args, "workers", None) and getattr(args, "executor", None) not in (
        None,
        "remote",
    ):
        # statically contradictory: fail at parse time, not minutes into
        # an experiment when the executor is finally constructed
        parser.error(
            f"--workers requires --executor remote (got --executor {args.executor})"
        )
    if getattr(args, "request_timeout", None) is not None and getattr(
        args, "executor", None
    ) not in (None, "remote"):
        parser.error(
            "--request-timeout requires --executor remote "
            f"(got --executor {args.executor})"
        )

    if args.command == "list":
        for spec in list_experiments():
            print(f"{spec.experiment_id:8s} {spec.paper_artefact:24s} {spec.title}")
        return 0

    if args.command == "stats":
        report = run_experiment("table3", seed=args.seed, scale=args.scale)
        print(report.rendered())
        return 0

    if args.command == "run":
        targets = (
            [spec.experiment_id for spec in list_experiments()]
            if args.experiment == "all"
            else [args.experiment]
        )
        chunks = [_run_one(target, args) for target in targets]
        output = "\n\n\n".join(chunks)
        if args.out is not None:
            args.out.write_text(output + "\n", encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(output)
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
