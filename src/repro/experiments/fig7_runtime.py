"""Fig 7 — runtime of inference/prediction mechanisms vs answer volume.

The paper sweeps the number of answers on a synthetic large crowd and
measures wall-clock runtime of: offline VI, online SVI, parallel online
SVI (4 and 16 cores), and the baselines (MV, EM, cBCC; normalised by the
number of labels since they solve one instance per label).  Expected
shape: MV cheapest; online ≪ offline (the paper reports up to 32×);
parallel online fastest of the model-based methods, with speedup bounded
by the machine's core count (Amdahl).

The host's core count caps real parallel gains.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.baselines import (
    CommunityBCCAggregator,
    DawidSkeneAggregator,
    MajorityVoteAggregator,
)
from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.experiments.registry import ExperimentReport, register
from repro.simulation.generator import generate_dataset
from repro.simulation.scenarios import large_scale_config
from repro.utils.parallel import make_executor
from repro.utils.tables import format_table


def _time_offline(config: CPAConfig, dataset) -> float:
    start = time.perf_counter()
    VariationalInference(config, dataset.answers).run(track_elbo=False)
    return time.perf_counter() - start


def _time_online(
    config: CPAConfig,
    dataset,
    *,
    answers_per_batch: int,
    degree: int = 0,
    backend: str = "thread",
    workers: Sequence[str] = (),
    request_timeout: float = None,
) -> float:
    batches = stream_from_matrix(
        dataset.answers, answers_per_batch=answers_per_batch, seed=11
    )
    executor = (
        make_executor(
            backend,
            degree,
            workers=list(workers) or None,
            request_timeout=request_timeout if backend == "remote" else None,
        )
        if degree
        else None
    )
    try:
        engine = StochasticInference(
            config,
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            executor=executor,
            total_answers_hint=dataset.n_answers,
        )
        start = time.perf_counter()
        engine.fit_stream(batches)
        return time.perf_counter() - start
    finally:
        # a failed stream (e.g. every remote lane lost) must still
        # release the lanes' broadcast state and connections
        if executor is not None:
            executor.close()


@register("fig7", "Runtime of inference and prediction mechanisms", "Figure 7")
def run(
    answers_per_item_levels: Sequence[int] = (5, 10, 20),
    n_items: int = 800,
    n_workers: int = 200,
    n_labels: int = 10,
    parallel_degrees: Sequence[int] = (2,),
    answers_per_batch: int = 400,
    seed: int = 0,
    backend: str = "thread",
    kernel_backend: str = "fused",
    n_shards: int = 0,
    adaptive_truncation: str = "auto",
    workers: Sequence[str] = (),
    request_timeout: float = None,
) -> ExperimentReport:
    """Sweep the answer volume and time every mechanism once per level.

    ``kernel_backend`` / ``n_shards`` select the sweep-kernel backend
    (``fused``, ``sharded``, or ``auto`` — the latter picks per
    matrix/batch from answer volume and executor degree; DESIGN.md §6)
    for the offline and online engines, exposed on the CLI as
    ``--kernel-backend`` / ``--shards``; ``adaptive_truncation``
    (CLI: ``--adaptive-truncation``) additionally lets sharded runs size
    per-shard cluster truncations from their own item/answer profiles
    (DESIGN.md §6 "Shard-local truncation").  ``backend="remote"`` with
    ``workers=("host:port", ...)`` runs the parallel-online rows on
    remote worker daemons (CLI: ``--executor remote --workers ...``) —
    the multi-node path of DESIGN.md §6 "Remote lanes";
    ``request_timeout`` (CLI: ``--request-timeout``) additionally arms the
    remote lanes' per-request deadlines and straggler re-dispatch
    (DESIGN.md §6 "Elastic fleet").
    """
    config = CPAConfig(
        seed=seed,
        truncation_clusters=12,
        truncation_communities=8,
        max_iterations=30,
        svi_iterations=1,
        backend=kernel_backend,
        n_shards=n_shards,
        adaptive_truncation=adaptive_truncation,
    )
    methods = ["MV", "EM", "cBCC", "offline", "online"] + [
        f"online-{d}" for d in parallel_degrees
    ]
    runtimes: Dict[str, List[float]] = {m: [] for m in methods}
    volumes: List[int] = []

    for level in answers_per_item_levels:
        sim = large_scale_config(
            n_items=n_items,
            n_workers=n_workers,
            n_labels=n_labels,
            answers_per_item=level,
        )
        dataset = generate_dataset(sim, seed)
        volumes.append(dataset.n_answers)

        for agg in (
            MajorityVoteAggregator(),
            DawidSkeneAggregator(),
            CommunityBCCAggregator(max_iterations=20),
        ):
            start = time.perf_counter()
            agg.aggregate(dataset)
            elapsed = time.perf_counter() - start
            # Paper: baseline runtimes are normalised by the number of
            # labels (they run one binary instance per label).
            runtimes[agg.name].append(elapsed / n_labels)

        runtimes["offline"].append(_time_offline(config, dataset))
        runtimes["online"].append(
            _time_online(config, dataset, answers_per_batch=answers_per_batch)
        )
        for degree in parallel_degrees:
            runtimes[f"online-{degree}"].append(
                _time_online(
                    config,
                    dataset,
                    answers_per_batch=answers_per_batch,
                    degree=degree,
                    backend=backend,
                    workers=workers,
                    request_timeout=request_timeout,
                )
            )

    rows = [
        (str(volumes[i]), *(runtimes[m][i] for m in methods))
        for i in range(len(volumes))
    ]
    table = format_table(
        ("#answers", *methods),
        rows,
        float_format=".3f",
        title="Runtime in seconds (baselines normalised per label)",
    )

    last = len(volumes) - 1
    speedup = (
        runtimes["offline"][last] / runtimes["online"][last]
        if runtimes["online"][last] > 0
        else float("inf")
    )
    notes = [
        f"Online speedup over offline at {volumes[last]} answers: {speedup:.1f}x "
        "(the paper reports up to 32x at millions of answers; the ratio grows "
        "with volume because offline re-scans everything each epoch).",
        "MV remains the cheapest method throughout, as in the paper.",
        f"Parallel rows use the {backend!r} backend; on this machine real "
        "gains are bounded by the physical core count (the paper's 16-core "
        "Spark numbers scale further, per Amdahl's law as §4.3 notes).",
    ]
    return ExperimentReport(
        experiment_id="fig7",
        title="Runtime of inference and prediction mechanisms",
        paper_artefact="Figure 7",
        tables=[table],
        notes=notes,
        data={
            "volumes": volumes,
            "runtimes": runtimes,
            "online_speedup": speedup,
        },
    )
