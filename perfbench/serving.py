"""The serving workloads: a live answer stream against ``python -m
repro.serve`` (``serve_single``) or ``python -m repro.fleet`` with one
process replica (``serve_fleet``).

The stream is the Fig-7 generator at 8000 items and 5 answers per item, in
``AnswerStream.by_answers(100)`` order.  A run ingests the first
``WARMUP_BATCHES`` closed-loop, then opens the measured window: a feeder
thread sends ``seconds * RATE`` further batches open-loop at ``RATE``
batches/s while a closed-loop client queries 16 seeded-random answered
items.  ``fit_s`` sums the ingest round trips of the whole stream.
Afterwards the program predicts every answered item (``predict_s`` and
``f1``).  The generator uses two connections: the feeder's and the query
client's.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from common import (
    Run,
    check_f1_repeats,
    f1_score,
    percentile,
    program_env,
    stop_programs,
    tail_supported,
    timed_setups,
)

DATA = dict(n_items=8000, n_workers=1600, answers_per_item=5)
BATCH_ANSWERS = 100
WARMUP_BATCHES = 200
RATE = 10.0  # batches/s of the open-loop feeder
QUERY_ITEMS = 16
PROBE_ITEMS = 64
REFRESH_INTERVAL_S = 0.5
PREDICT_REPEATS = 5
#: a send this far behind its schedule counts in loadgen.late_sends.
LATE_S = 0.005
CATCH_UP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
#: lowest F1 seen over seeds 0-9 and the held-out seed, less a margin.
F1_FLOOR = {"serve_single": 0.3, "serve_fleet": 0.3}
INF = float("inf")


def _is_metrics(reply) -> bool:
    return isinstance(reply, dict) and isinstance(reply.get("answers_applied"), int)


def _is_prediction(reply, items) -> bool:
    return (
        isinstance(reply, dict)
        and sorted(reply) == sorted(items)
        and all(isinstance(labels, list) for labels in reply.values())
    )


def _is_proba(reply, items, n_labels) -> bool:
    if not (isinstance(reply, tuple) and len(reply) == 2):
        return False
    rows_items, rows = reply
    return (
        list(rows_items) == list(items)
        and isinstance(rows, np.ndarray)
        and rows.shape == (len(items), n_labels)
        and bool(np.all((rows >= 0) & (rows <= 1)))
    )


class _Window:
    """Samples of the measured window, shared by the two generator threads."""

    def __init__(self, t0: float, cumulative: List[int]) -> None:
        self.t0 = t0
        self.cumulative = cumulative  # answers applied once batch k is in
        self.ingest: List[float] = []
        self.round_trips: List[float] = []
        self.lateness: List[float] = []
        self.query: List[float] = []
        self.visible: List[float] = [INF] * len(cumulative)
        self.next_visible = 0
        self.feeder_done = threading.Event()
        self.ended = t0

    def due(self, k: int) -> float:
        return self.t0 + k / RATE

    def note_applied(self, applied: int, now: float) -> None:
        while self.next_visible < len(self.cumulative) and applied >= self.cumulative[self.next_visible]:
            self.visible[self.next_visible] = now - self.due(self.next_visible)
            self.next_visible += 1


def _feed(run: Run, client, batches, window: _Window, lock) -> None:
    try:
        for k, batch in enumerate(batches):
            delay = window.due(k) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            window.lateness.append(sent - window.due(k))
            ok = False
            try:
                reply = client.ingest(batch)
                ok = _is_metrics(reply)
                deadline = time.monotonic() + CATCH_UP_TIMEOUT_S
                while ok and reply["answers_applied"] < window.cumulative[k]:
                    if time.monotonic() > deadline:
                        ok = False
                        break
                    with lock:
                        run.op()
                    reply = client.status()
                    ok = _is_metrics(reply)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                run.check(False, f"ingest failed: {exc!r}")
            done = time.perf_counter()
            window.round_trips.append(done - sent)
            with lock:
                run.op(ok)
                run.check(ok, f"malformed or late ingest reply for batch {k}")
            window.ingest.append(done - window.due(k) if ok else INF)
    finally:
        window.ended = time.perf_counter()
        window.feeder_done.set()


def _query(run: Run, client, pool, seed, window: _Window, lock, fleet: bool, n_labels: int) -> None:
    rng = random.Random(seed)
    while not window.feeder_done.is_set():
        items = rng.sample(pool, QUERY_ITEMS)
        started = time.perf_counter()
        ok = False
        try:
            if fleet:
                ok = _is_proba(client.label_probabilities(items), items, n_labels)
            else:
                ok = _is_prediction(client.predict(items), items)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            run.check(False, f"query failed: {exc!r}")
        window.query.append(time.perf_counter() - started if ok else INF)
        with lock:
            run.op(ok)
            run.check(ok, "malformed query reply")
        if fleet:
            _poll_visible(run, client, window, lock)


def _poll_visible(run: Run, replica, window: _Window, lock) -> None:
    ok = False
    try:
        reply = replica.status()
        ok = _is_metrics(reply)
        if ok:
            window.note_applied(reply["answers_applied"], time.perf_counter())
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        run.check(False, f"status failed: {exc!r}")
    with lock:
        run.op(ok)
        run.check(ok, "malformed status reply")


def run_serving(workload: str, seed: int, seconds: float, work: Path, trace_dir: Optional[Path]) -> Run:
    from repro.data.streams import AnswerStream
    from repro.serve import ServeClient
    from repro.simulation.generator import generate_dataset
    from repro.simulation.scenarios import large_scale_config

    fleet = workload == "serve_fleet"
    run = Run()
    dataset = generate_dataset(large_scale_config(**DATA), seed)
    answers = dataset.answers
    n_window = int(round(seconds * RATE))
    batches = list(
        itertools.islice(
            AnswerStream(answers, seed=seed).by_answers(BATCH_ANSWERS), WARMUP_BATCHES + n_window
        )
    )
    warmup, stream = batches[:WARMUP_BATCHES], batches[WARMUP_BATCHES:]
    total = sum(batch.n_answers for batch in batches)
    warmup_total = sum(batch.n_answers for batch in warmup)
    cumulative = list(itertools.accumulate((b.n_answers for b in stream), initial=warmup_total))[1:]
    pool = sorted({item for batch in warmup for item in batch.items})
    sizes = ["--items", str(answers.n_items), "--workers", str(answers.n_workers),
             "--labels", str(answers.n_labels), "--total-answers-hint", str(total)]
    if fleet:
        spec = ("repro.fleet", sizes + ["--replicas", "1", "--refresh-interval", str(REFRESH_INTERVAL_S)], 2)
    else:
        spec = ("repro.serve", sizes + ["--listen", "127.0.0.1:0"], 1)

    env = program_env(work, trace_dir)
    programs = timed_setups(run, [spec], env, work)
    clients = []
    try:
        program = programs[0]
        # one connection per generator thread: the feeder writes, the query
        # client reads (from the replica in the fleet)
        writer = ServeClient(program.addresses[0], timeout=REQUEST_TIMEOUT_S)
        clients.append(writer)
        reader = ServeClient(program.addresses[-1], timeout=REQUEST_TIMEOUT_S)
        clients.append(reader)

        warmup_trips = []
        applied = 0
        for batch in warmup:
            started = time.perf_counter()
            reply = writer.ingest(batch)
            warmup_trips.append(time.perf_counter() - started)
            applied += batch.n_answers
            ok = _is_metrics(reply) and reply["answers_applied"] == applied
            run.op(ok)
            run.check(ok, "malformed warm-up ingest reply")

        lock = threading.Lock()
        window = _Window(time.perf_counter() + 0.05, cumulative)
        feeder = threading.Thread(target=_feed, args=(run, writer, stream, window, lock))
        querier = threading.Thread(
            target=_query, args=(run, reader, pool, seed, window, lock, fleet, answers.n_labels)
        )
        feeder.start()
        querier.start()
        feeder.join()
        querier.join()
        window_s = window.ended - window.t0

        if fleet:
            deadline = time.monotonic() + CATCH_UP_TIMEOUT_S
            while window.next_visible < len(cumulative) and time.monotonic() < deadline:
                _poll_visible(run, reader, window, lock)
                time.sleep(0.005)
            run.check(window.next_visible == len(cumulative), "replica never caught up with the stream")
            probe = random.Random(seed + 1).sample(pool, PROBE_ITEMS)
            written = writer.label_probabilities(probe)
            replicated = reader.label_probabilities(probe)
            ok = _is_proba(written, probe, answers.n_labels) and _is_proba(replicated, probe, answers.n_labels)
            run.op(ok)
            run.op(ok)
            run.check(
                ok and np.array_equal(written[1], replicated[1]),
                "replica proba differs from the writer's after the final refresh",
            )

        final = writer.status()
        run.op(_is_metrics(final))
        run.check(_is_metrics(final) and final["answers_applied"] == total, "writer did not apply every answer")
        predict_s = []
        first = None
        for _ in range(PREDICT_REPEATS):
            begun = time.perf_counter()
            reply = reader.predict(None)
            predict_s.append(time.perf_counter() - begun)
            ok = isinstance(reply, dict) and all(isinstance(v, list) for v in reply.values())
            run.op(ok)
            first = reply if first is None else first
            run.check(ok and reply == first, "final predictions malformed or not repeatable")
        rss_kb = program.peak_rss_kb()
    finally:
        for client in clients:
            client.close()
        stop_programs(programs)

    answered = sorted({item for batch in batches for item in batch.items})
    predictions = {int(item): frozenset(labels) for item, labels in first.items()}
    run.check(sorted(predictions) == answered, "final predictions do not cover every answered item")
    f1 = f1_score(predictions, dataset.truth, answered)
    run.metrics.update(
        # the writer's time to fold the whole stream, as its client saw it
        fit_s=sum(warmup_trips) + sum(window.round_trips),
        predict_s=sum(predict_s) / len(predict_s),
        f1=f1,
        peak_rss_mb=rss_kb / 1024.0,
        ingest_p50_ms=1e3 * percentile(window.ingest, 50),
        ingest_p95_ms=1e3 * percentile(window.ingest, 95),
        query_p50_ms=1e3 * percentile(window.query, 50),
        query_p99_ms=1e3 * percentile(window.query, 99),
        queries_per_s=sum(1 for q in window.query if q < INF) / window_s,
        window_batches=len(stream),
        window_queries=len(window.query),
    )
    if fleet:
        run.metrics.update(
            visible_p50_ms=1e3 * percentile(window.visible, 50),
            visible_p95_ms=1e3 * percentile(window.visible, 95),
        )
    run.check(tail_supported(len(window.ingest), 95), "too few batches for an ingest p95")
    run.metrics["query_p99_supported"] = float(tail_supported(len(window.query), 99))
    run.metrics["loadgen.late_sends"] = sum(1 for lag in window.lateness if lag > LATE_S)
    run.metrics["loadgen.late_max_ms"] = 1e3 * max(window.lateness, default=0.0)
    run.check(f1 >= F1_FLOOR[workload], f"f1 {f1:.4f} below the floor {F1_FLOOR[workload]}")
    check_f1_repeats(run, workload, seed, seconds, f1)
    return run
