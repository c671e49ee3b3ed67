"""Serving-layer benchmark: ``python -m benchmarks.bench_serving``.

Measures the always-on consensus service (:mod:`repro.serve`) on a wide
item space and records the results under the ``"serving"`` section of
``BENCH_core.json`` (next to the kernel suite, preserved by
``run_perf``'s recording and ``--check`` runs):

* **Checkpoint delta bytes** — the headline number of ISSUE 7: after a
  cold full-snapshot ship to a replica, one further SVI step must
  refresh the replica for a chunk-*delta*, <10% of the full snapshot
  (the step touches a scatter of ``ϕ``/``µ`` rows; every untouched row
  dedups against the replica's chunk store).  This is deterministic for
  a fixed seed, so ``--check`` gates it hard.
* **Staleness** — ``answers_behind`` after ingesting without folding,
  and the per-arrival-batch fold time that drains it.
* **Query latency** — item-consensus and label-probability queries
  against the live posterior, cold (first query rebuilds the lazy
  consensus) and warm (consensus cached until the next fold).

* **Fleet throughput** — queries/s under concurrent ingest for a
  single daemon (queries contend with SVI folds on one engine lock and
  pay a consensus rebuild after every fold) versus a replica fleet
  (:mod:`repro.fleet`: ingest pinned to the writer, queries served by
  read replicas from the last shipped snapshot, so the consensus cache
  stays warm).  Mid-run one replica is killed; the router must exclude
  it and every answer must stay bitwise identical.  ``--check`` gates
  ``fleet_speedup > 1`` and the kill-parity flag.

The scenario (40k items × 150 workers × 12 labels, two answers per
item, 100-answer arrival batches) mirrors the paper's streaming setup
scaled to where snapshot bytes are dominated by per-item state.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))


def run_serving_suite(
    n_items: int = 40_000,
    n_workers: int = 150,
    n_labels: int = 12,
    answers_per_item: int = 2,
    batch_answers: int = 100,
    head_batches: int = 4,
    stale_batches: int = 3,
    query_items: int = 100,
    seed: int = 0,
) -> dict:
    """One serving measurement; returns the record for ``BENCH_core.json``."""
    import numpy as np

    from repro.core.config import CPAConfig
    from repro.data.answers import AnswerMatrix
    from repro.data.streams import AnswerStream
    from repro.serve import ConsensusEngine, ConsensusServer, ServeClient
    from repro.utils.transport import dumps

    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        workers = rng.choice(n_workers, size=answers_per_item, replace=False)
        for worker in workers:
            matrix.add(item, int(worker), [int(rng.integers(n_labels))])
    batches = AnswerStream(matrix, seed=seed).by_answers(batch_answers)
    batches = list(batches)[: head_batches + stale_batches + 1]

    config = CPAConfig(
        seed=seed, max_truncation=12, svi_batch_answers=batch_answers
    )

    def make_engine() -> ConsensusEngine:
        return ConsensusEngine(
            config,
            n_items,
            n_workers,
            n_labels,
            seed=seed,
            total_answers_hint=matrix.n_answers,
        )

    source = make_engine()
    for batch in batches[:head_batches]:
        source.ingest(batch)
    started = time.perf_counter()
    source.step()
    head_fold_s = time.perf_counter() - started

    started = time.perf_counter()
    blob_full = dumps(source.snapshot_payload())
    snapshot_build_s = time.perf_counter() - started

    record = {
        "n_items": n_items,
        "n_workers": n_workers,
        "n_labels": n_labels,
        "n_answers": matrix.n_answers,
        "batch_answers": batch_answers,
        "head_batches": head_batches,
        "seed": seed,
        "snapshot_bytes": len(blob_full),
        "snapshot_build_s": snapshot_build_s,
        "head_fold_s": head_fold_s,
    }

    # ---- chunk-delta shipping against a loopback replica -------------
    server = ConsensusServer(make_engine(), auto_step=False).serve_in_thread()
    try:
        with ServeClient(server.address, timeout=120) as client:
            started = time.perf_counter()
            cold = client.push_checkpoint(blob_full)
            record["ship_cold_s"] = time.perf_counter() - started
            record["ship_cold_bytes"] = cold.shipped_bytes
            record["ship_chunks"] = cold.n_chunks

            source.ingest(batches[head_batches])
            source.step()  # exactly one SVI step (one 100-answer batch)
            blob_next = dumps(source.snapshot_payload())
            started = time.perf_counter()
            delta = client.push_checkpoint(blob_next)
            record["ship_delta_s"] = time.perf_counter() - started
            record["ship_delta_bytes"] = delta.shipped_bytes
            record["ship_delta_chunks"] = delta.n_shipped
            record["ship_delta_ratio"] = delta.delta_ratio
            replica_status = client.status()
            assert (
                replica_status["batches_seen"]
                == source.metrics()["batches_seen"]
            ), "replica must serve from the shipped posterior"
            client.shutdown()
    finally:
        server.close()

    # ---- staleness: ingest without folding, then drain ---------------
    for batch in batches[head_batches + 1 : head_batches + 1 + stale_batches]:
        source.ingest(batch)
    stale = source.metrics()
    record["stale_answers_behind"] = stale["answers_behind"]
    record["stale_pending_batches"] = stale["pending_batches"]
    started = time.perf_counter()
    source.step()
    record["drain_fold_s"] = (time.perf_counter() - started) / max(
        1, stale["pending_batches"]
    )
    record["snapshot_age_steps"] = source.metrics()["snapshot_age_steps"]

    # ---- query latency on the live posterior -------------------------
    items = list(range(query_items))
    started = time.perf_counter()
    source.predict(items)  # rebuilds the lazy consensus
    record["query_predict_cold_s"] = time.perf_counter() - started
    started = time.perf_counter()
    source.predict(items)
    record["query_predict_warm_s"] = time.perf_counter() - started
    started = time.perf_counter()
    source.label_probabilities(items)
    record["query_proba_warm_s"] = time.perf_counter() - started
    metrics = source.metrics()
    record["queries"] = metrics["queries"]
    record["query_seconds_total"] = metrics["query_seconds_total"]
    return record


def _build_matrix(n_items, n_workers, n_labels, answers_per_item, seed):
    import numpy as np

    from repro.data.answers import AnswerMatrix

    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        workers = rng.choice(n_workers, size=answers_per_item, replace=False)
        for worker in workers:
            matrix.add(item, int(worker), [int(rng.integers(n_labels))])
    return matrix


def run_fleet_suite(
    n_items: int = 8_000,
    n_workers: int = 150,
    n_labels: int = 12,
    answers_per_item: int = 2,
    batch_answers: int = 200,
    n_replicas: int = 2,
    query_threads: int = 4,
    duration_s: float = 2.5,
    query_items: int = 8,
    seed: int = 0,
) -> dict:
    """Fleet-vs-single-daemon read throughput under concurrent ingest.

    Both runs ingest the same tail batches while query threads hammer
    ``predict``.  The fleet run additionally kills one process replica
    halfway through and checks every answer stayed bitwise identical to
    the writer's shipped snapshot (replicas only move on refresh, so
    answers are pinned for the whole window).
    """
    from repro.core.config import CPAConfig
    from repro.data.streams import AnswerStream
    from repro.fleet import FleetManager
    from repro.serve import ConsensusEngine, ConsensusServer, ServeClient

    matrix = _build_matrix(n_items, n_workers, n_labels, answers_per_item, seed)
    batches = list(AnswerStream(matrix, seed=seed).by_answers(batch_answers))
    head, tail = batches[: len(batches) // 2], batches[len(batches) // 2 :]
    # only CLI-expressible fields: replicas rebuild this config from
    # --seed/--dtype/--step-answers, and FleetManager refuses any other
    config = CPAConfig(seed=seed, svi_batch_answers=batch_answers)
    items = list(range(query_items))

    def drive(make_query_client, feed_address, expected=None, kill=None):
        stop = threading.Event()
        counts = [0] * query_threads
        mismatches = [0] * query_threads
        failures: list = []

        def query_worker(k):
            try:
                with make_query_client() as client:
                    while not stop.is_set():
                        answer = client.predict(items)
                        if expected is not None and answer != expected:
                            mismatches[k] += 1
                        counts[k] += 1
            except Exception as exc:  # noqa: BLE001 - recorded, gated below
                failures.append(repr(exc))

        def ingest_worker():
            # continuous arrival pressure: cycle the tail until the
            # window closes so folds overlap every query
            try:
                with ServeClient(feed_address, timeout=120) as feed:
                    while not stop.is_set():
                        for batch in tail:
                            if stop.is_set():
                                break
                            feed.ingest(batch)
            except Exception as exc:  # noqa: BLE001 - recorded, gated below
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=query_worker, args=(k,), daemon=True)
            for k in range(query_threads)
        ]
        threads.append(threading.Thread(target=ingest_worker, daemon=True))
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if kill is not None:
            time.sleep(duration_s / 2)
            kill()
            time.sleep(duration_s / 2)
        else:
            time.sleep(duration_s)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        elapsed = time.perf_counter() - started
        return sum(counts) / elapsed, sum(counts), sum(mismatches), failures

    record = {
        "n_items": n_items,
        "n_workers": n_workers,
        "n_labels": n_labels,
        "n_answers": matrix.n_answers,
        "batch_answers": batch_answers,
        "n_replicas": n_replicas,
        "query_threads": query_threads,
        "duration_s": duration_s,
        "seed": seed,
    }

    # ---- baseline: one daemon takes both ingest and queries ----------
    engine = ConsensusEngine(
        config,
        n_items,
        n_workers,
        n_labels,
        seed=seed,
        total_answers_hint=matrix.n_answers,
    )
    server = ConsensusServer(engine).serve_in_thread()
    try:
        with ServeClient(server.address, timeout=120) as feed:
            for batch in head:
                feed.ingest(batch)
            feed.predict(items)  # warm the consensus cache

        def single_client():
            return ServeClient(server.address, timeout=120)

        qps, total, _, failures = drive(single_client, server.address)
        record["single_qps"] = qps
        record["single_queries"] = total
        if failures:
            record["single_failures"] = failures
    finally:
        server.close()

    # ---- fleet: writer ingests, process replicas answer --------------
    with FleetManager(
        config,
        n_items,
        n_workers,
        n_labels,
        n_replicas=n_replicas,
        seed=seed,
        total_answers_hint=matrix.n_answers,
        request_timeout=120.0,
    ) as manager:
        with ServeClient(manager.writer_address, timeout=120) as feed:
            for batch in head:
                feed.ingest(batch)
        manager.refresh_replicas()
        expected = manager.engine.predict(items)
        for address in manager.replica_addresses():
            with ServeClient(address, timeout=120) as warm:
                warm.predict(items)  # build each replica's consensus once

        def fleet_client():
            return manager.client(
                policy="round_robin", timeout=120, fallback_to_writer=False
            )

        victim = manager._replicas[0]
        qps, total, mismatches, failures = drive(
            fleet_client,
            manager.writer_address,
            expected=expected,
            kill=victim.process.kill,
        )
        record["fleet_qps"] = qps
        record["fleet_queries"] = total
        record["fleet_kill_mismatches"] = mismatches
        record["fleet_kill_parity_ok"] = not mismatches and not failures
        if failures:
            record["fleet_failures"] = failures
    record["fleet_speedup"] = record["fleet_qps"] / max(
        record["single_qps"], 1e-9
    )
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_serving",
        description="Benchmark the always-on consensus serving layer",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="BENCH JSON to update in place (default: BENCH_core.json)",
    )
    parser.add_argument("--items", type=int, default=40_000)
    parser.add_argument("--workers", type=int, default=150)
    parser.add_argument("--labels", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate instead of record: fail unless the measured checkpoint "
        "delta ratio stays under --threshold (the ISSUE 7 acceptance "
        "bound), the replica fleet out-serves the single daemon, and a "
        "mid-run replica kill leaves every answer bitwise unchanged "
        "(ISSUE 9); the recorded file is left untouched",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="maximum shipped fraction of the full snapshot after one SVI "
        "step (default 0.10)",
    )
    args = parser.parse_args(argv)

    record = run_serving_suite(
        n_items=args.items,
        n_workers=args.workers,
        n_labels=args.labels,
        seed=args.seed,
    )
    ratio = record["ship_delta_ratio"]
    print(
        f"snapshot {record['snapshot_bytes']} B; one-step refresh shipped "
        f"{record['ship_delta_bytes']} B ({ratio:.2%} of full, "
        f"{record['ship_delta_chunks']}/{record['ship_chunks']} chunks)"
    )
    print(
        f"staleness: {record['stale_answers_behind']} answers behind over "
        f"{record['stale_pending_batches']} pending batches; "
        f"{record['drain_fold_s'] * 1e3:.1f} ms fold per batch; "
        f"queries cold {record['query_predict_cold_s'] * 1e3:.1f} ms / warm "
        f"{record['query_predict_warm_s'] * 1e3:.1f} ms"
    )

    fleet = run_fleet_suite(seed=args.seed)
    print(
        f"fleet: single daemon {fleet['single_qps']:.0f} q/s vs "
        f"{fleet['n_replicas']}-replica fleet {fleet['fleet_qps']:.0f} q/s "
        f"({fleet['fleet_speedup']:.1f}x) under concurrent ingest; replica "
        f"kill parity {'ok' if fleet['fleet_kill_parity_ok'] else 'BROKEN'}"
    )

    if args.check:
        failed = False
        if ratio > args.threshold:
            print(
                f"FAIL: delta ratio {ratio:.2%} exceeds the "
                f"{args.threshold:.0%} bound"
            )
            failed = True
        if fleet["fleet_speedup"] <= 1.0:
            print(
                f"FAIL: fleet read throughput {fleet['fleet_qps']:.0f} q/s "
                f"does not beat the single daemon "
                f"({fleet['single_qps']:.0f} q/s)"
            )
            failed = True
        if not fleet["fleet_kill_parity_ok"]:
            print(
                "FAIL: replica kill changed query answers or broke the run: "
                f"{fleet['fleet_kill_mismatches']} mismatches, "
                f"{fleet.get('fleet_failures', [])}"
            )
            failed = True
        if failed:
            return 1
        print(
            f"OK: delta ratio {ratio:.2%} <= {args.threshold:.0%}; fleet "
            f"{fleet['fleet_speedup']:.1f}x single daemon; kill parity held"
        )
        return 0

    payload = (
        json.loads(args.out.read_text(encoding="utf-8"))
        if args.out.exists()
        else {"benchmark": "core-kernels"}
    )
    payload["serving"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "delta_ratio_bound": args.threshold,
        "results": [record],
        "fleet": fleet,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote serving section to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
