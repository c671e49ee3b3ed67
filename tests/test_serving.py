"""Always-on consensus serving (DESIGN.md §6 "Serving").

Contracts under test (ISSUE 7 tentpole):

* **Engine bookkeeping** — ``answers_seen`` / ``answers_applied`` /
  ``answers_behind`` track ingest vs fold; queries are timed; snapshot
  age resets on snapshot.
* **Warm start parity** — a serving engine restored from a mid-stream
  snapshot and fed the held-back tail reaches *bitwise* the same
  posterior as a cold engine folding the full stream — while answering
  consensus queries between steps (queries must be read-only).
* **Daemon** (marked ``network``) — the loopback daemon speaks the
  serving ops on top of the shared worker protocol and matches a local
  engine bitwise; base ops (ping, chunk store, shutdown) still work.
* **Chunk-delta shipping** — refreshing a replica's snapshot over the
  content-addressed chunk store ships only the changed chunks after an
  SVI step, and the replica serves from the shipped posterior.
* **Kill-and-resume chaos** — killing the daemon mid-stream and warm
  starting a fresh one from its last snapshot loses nothing: the resumed
  daemon converges to the cold full-stream run bitwise.
"""

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.svi import stream_from_matrix
from repro.data.answers import AnswerMatrix
from repro.data.streams import AnswerStream
from repro.errors import CheckpointError, ValidationError
from repro.serve import (
    CHECKPOINT_KEY,
    DEFAULT_CHECKPOINT_CHUNK_BYTES,
    ConsensusEngine,
    ConsensusServer,
    ServeClient,
    ShipReport,
    ship_checkpoint,
)
from repro.utils.transport import (
    chunk_digest,
    chunk_manifest,
    dumps,
    request,
    split_chunks,
)

network = pytest.mark.network

SIZES = dict(n_items=48, n_workers=20, n_labels=8)


def _serving_matrix(seed=0, per_item=4, **overrides):
    sizes = {**SIZES, **overrides}
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(**sizes)
    for item in range(sizes["n_items"]):
        workers = rng.choice(sizes["n_workers"], size=per_item, replace=False)
        for worker in workers:
            labels = tuple(
                np.flatnonzero(rng.random(sizes["n_labels"]) < 0.3)
            ) or (0,)
            matrix.add(item, int(worker), labels)
    return matrix


def _config(**overrides):
    defaults = dict(seed=0, max_truncation=8, svi_batch_answers=40)
    defaults.update(overrides)
    return CPAConfig(**defaults)


def _engine(matrix, config=None):
    config = config or _config()
    return ConsensusEngine(
        config,
        matrix.n_items,
        matrix.n_workers,
        matrix.n_labels,
        seed=0,
        total_answers_hint=matrix.n_answers,
    )


def _batches(matrix, answers_per_batch=40, seed=7):
    return list(AnswerStream(matrix, seed=seed).by_answers(answers_per_batch))


def _assert_states_bitwise(a, b):
    for name in ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass"):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    if a.mu is not None:
        np.testing.assert_array_equal(a.mu, b.mu)
    assert a.batches_seen == b.batches_seen


# Corruptions of a batch's answer arrays, written to the matrix's own
# buffers as a crafted pickle could carry them.


def _repeat_a_pair(matrix):
    matrix._items[1], matrix._workers[1] = matrix._items[0], matrix._workers[0]


def _item_out_of_range(matrix):
    matrix._items[0] = matrix.n_items


def _empty_label_row(matrix):
    matrix._indicators[2] = 0.0


def _fractional_label(matrix):
    matrix._indicators[3, 0] = 0.5


# ------------------------------------------------------------------- engine


class TestConsensusEngine:
    def test_ingest_and_step_bookkeeping(self):
        matrix = _serving_matrix()
        engine = _engine(matrix)
        batches = _batches(matrix)
        engine.ingest(batches[0])
        engine.ingest(batches[1])
        metrics = engine.metrics()
        assert metrics["answers_seen"] == batches[0].n_answers + batches[1].n_answers
        assert metrics["answers_applied"] == 0
        assert metrics["answers_behind"] == metrics["answers_seen"]
        assert metrics["pending_batches"] == 2

        steps = engine.step(max_batches=1)
        assert steps >= 1
        metrics = engine.metrics()
        assert metrics["answers_applied"] == batches[0].n_answers
        assert metrics["pending_batches"] == 1

        engine.step()
        metrics = engine.metrics()
        assert metrics["answers_behind"] == 0
        assert metrics["pending_batches"] == 0
        assert metrics["batches_seen"] == engine.engine.state.batches_seen > 0

    def test_ingest_rejects_non_batches(self):
        engine = _engine(_serving_matrix())
        with pytest.raises(ValidationError, match="AnswerBatch"):
            engine.ingest({"not": "a batch"})

    def test_queries_are_timed(self):
        matrix = _serving_matrix()
        engine = _engine(matrix)
        for batch in _batches(matrix):
            engine.ingest(batch)
        engine.step()
        engine.predict()
        engine.label_probabilities([0, 1])
        metrics = engine.metrics()
        assert metrics["queries"] == 2
        assert metrics["query_seconds_total"] >= metrics["query_seconds_last"] >= 0

    def test_warm_start_parity_while_answering_queries(self):
        """ISSUE 7 acceptance: warm-started engine fed the held-back tail
        converges bitwise to the cold full-stream run, with queries
        served between steps (queries must not perturb the trajectory)."""
        matrix = _serving_matrix(seed=1)
        batches = _batches(matrix)
        assert len(batches) >= 4

        cold = _engine(matrix)
        for batch in batches:
            cold.ingest(batch)
            cold.step()

        head = _engine(matrix)
        for batch in batches[:2]:
            head.ingest(batch)
            head.step()
        snapshot = pickle.loads(dumps(head.snapshot_payload()))

        warm = _engine(matrix)
        warm.restore(snapshot)
        for batch in batches[2:]:
            warm.ingest(batch)
            warm.step()
            # live queries between steps — must be read-only
            warm.predict()
            warm.label_probabilities()

        _assert_states_bitwise(cold.engine.state, warm.engine.state)
        assert cold.predict() == warm.predict()
        cold_items, cold_probs = cold.label_probabilities()
        warm_items, warm_probs = warm.label_probabilities()
        assert cold_items == warm_items
        np.testing.assert_array_equal(cold_probs, warm_probs)

    def test_snapshot_carries_answers_and_counters(self):
        matrix = _serving_matrix(seed=2)
        source = _engine(matrix)
        for batch in _batches(matrix)[:3]:
            source.ingest(batch)
        source.step()
        payload = source.snapshot_payload()

        replica = _engine(matrix)
        replica.restore(payload)
        # the replica answers queries about items it never ingested
        assert replica.answers.n_answers == source.answers.n_answers
        assert list(replica.answers.iter_answers()) == list(
            source.answers.iter_answers()
        )
        assert replica.predict() == source.predict()
        metrics = replica.metrics()
        assert metrics["answers_seen"] == source.answers_seen
        assert metrics["answers_applied"] == source.answers_applied

    def test_snapshot_is_not_torn_by_a_later_fold(self):
        """Regression: a fold writes κ and µ in place, and the fleet
        refresh and the ``snapshot`` op pickle the payload after the engine
        lock is released.  The payload must still describe one step."""
        matrix = _serving_matrix()
        engine = _engine(matrix)
        batches = _batches(matrix)
        engine.ingest(batches[0])
        engine.step()
        payload = engine.snapshot_payload()
        taken = pickle.loads(dumps(payload))
        engine.ingest(batches[1])
        engine.step()
        assert engine.engine.state.batches_seen > taken["batches_seen"]
        for name in ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass", "mu"):
            np.testing.assert_array_equal(payload[name], taken[name], err_msg=name)
        np.testing.assert_array_equal(
            payload["answers"]["rows"], taken["answers"]["rows"], err_msg="answers"
        )
        assert engine.answers.n_answers > taken["answers"]["rows"].size

    def test_snapshot_pull_leaves_staleness_clock_alone(self):
        """Regression (ISSUE 9): a read-only snapshot pull (monitoring, a
        bootstrapping replica) must not make the writer look freshly
        snapshotted; only :meth:`mark_snapshot` — called by the path that
        durably captured the snapshot — resets the age metrics."""
        matrix = _serving_matrix()
        engine = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            engine.ingest(batch)
        engine.step()
        age = engine.metrics()["snapshot_age_steps"]
        assert age > 0
        engine.snapshot_payload()  # a read-only pull
        assert engine.metrics()["snapshot_age_steps"] == age
        engine.mark_snapshot()
        assert engine.metrics()["snapshot_age_steps"] == 0

    def test_auto_grow_on_wider_batch(self):
        matrix = _serving_matrix()
        engine = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            engine.ingest(batch)
        engine.step()

        wider = _serving_matrix(
            seed=3,
            n_items=SIZES["n_items"] + 6,
            n_workers=SIZES["n_workers"] + 4,
            n_labels=SIZES["n_labels"] + 1,
            per_item=2,
        )
        engine.ingest(_batches(wider, answers_per_batch=30)[0])
        engine.step()
        metrics = engine.metrics()
        assert metrics["n_items"] == SIZES["n_items"] + 6
        assert metrics["n_workers"] == SIZES["n_workers"] + 4
        assert metrics["n_labels"] == SIZES["n_labels"] + 1
        engine.engine.state.validate()
        engine.predict()

    def test_a_batch_minted_before_a_growth_folds_and_is_recorded(self):
        """A batch over the engine's old, narrower spaces, ingested after a
        wider batch grew the engine, still folds, and its answers are
        recorded as ``add`` would record them: an answer it overwrites
        loses the label only the wider space has."""
        matrix = _serving_matrix()
        late = _batches(matrix)[0]
        new_label = SIZES["n_labels"]
        wide = AnswerMatrix(SIZES["n_items"] + 6, SIZES["n_workers"] + 4, new_label + 1)
        for item, worker in late.pairs[:10]:
            wide.add(item, worker, [new_label])
        wide.add(SIZES["n_items"] + 5, SIZES["n_workers"] + 3, [0, new_label])
        engine = _engine(matrix)
        engine.ingest(_batches(wide, answers_per_batch=100)[0])
        engine.step()
        assert engine.answers.n_answers == 11
        engine.ingest(late)
        engine.step()
        metrics = engine.metrics()
        assert (metrics["n_labels"], metrics["answers_behind"], metrics["batches_seen"]) == (
            new_label + 1, 0, 2
        )
        assert engine.answers.n_answers == 11 + late.n_answers - 10
        for item, worker in late.pairs:
            assert engine.answers.get(item, worker) == late.matrix.get(item, worker)
        assert engine.answers.get(SIZES["n_items"] + 5, SIZES["n_workers"] + 3) == {0, new_label}
        engine.engine.state.validate()

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (_repeat_a_pair, "appears more than once"),
            (_item_out_of_range, "item index"),
            (_empty_label_row, "carries no label"),
            (_fractional_label, "0 or 1"),
        ],
    )
    def test_a_malformed_batch_is_refused_before_anything_changes(self, corrupt, match):
        """A batch whose arrays were corrupted after construction (a batch
        unpickled off the wire ran no constructor) raises at ingest, before
        the engine grows or queues anything: the batch is wider than the
        engine, so a check made after the growth would show."""
        matrix = _serving_matrix()
        engine = _engine(matrix)
        engine.ingest(_batches(matrix)[0])
        engine.step()
        engine.ingest(_batches(matrix)[1])
        wider = _serving_matrix(seed=3, n_items=SIZES["n_items"] + 6, n_labels=SIZES["n_labels"] + 1)
        bad = pickle.loads(pickle.dumps(_batches(wider)[2]))
        corrupt(bad.matrix)
        keys = (
            "n_items", "n_workers", "n_labels", "answers_seen",
            "answers_applied", "batches_seen", "pending_batches",
        )
        before = {key: engine.metrics()[key] for key in keys}
        with pytest.raises(ValidationError, match=match):
            engine.ingest(bad)
        assert {key: engine.metrics()[key] for key in keys} == before
        assert engine.answers.n_items == SIZES["n_items"]

    def test_restore_widens_to_a_larger_snapshot(self):
        """A snapshot larger in every dimension (and taken under a smaller
        truncation) is adopted verbatim: the smaller engine widens to its
        sizes and then serves the source's posterior and answers."""
        big = _serving_matrix(
            n_items=SIZES["n_items"] + 10,
            n_workers=SIZES["n_workers"] + 3,
            n_labels=SIZES["n_labels"] + 1,
        )
        source = _engine(big)
        for batch in _batches(big)[:3]:
            source.ingest(batch)
        source.step()
        small = _engine(_serving_matrix(), CPAConfig(seed=0, svi_batch_answers=40))
        small.restore(pickle.loads(dumps(source.snapshot_payload())))
        _assert_states_bitwise(source.engine.state, small.engine.state)
        assert list(small.answers.iter_answers()) == list(
            source.answers.iter_answers()
        )
        metrics, expected = small.metrics(), source.metrics()
        for key in ("n_items", "n_workers", "n_labels", "answers_seen", "batches_seen"):
            assert metrics[key] == expected[key], key
        assert small.engine.truth_indicator.shape == (big.n_items, big.n_labels)
        assert small.predict() == source.predict()

    def test_restore_widens_to_a_larger_bare_checkpoint(self):
        """A bare repro.core.checkpoint payload (the --checkpoint
        warm-start format) larger than the engine widens it too, and the
        engine keeps serving its own answers over the wider spaces."""
        matrix = _serving_matrix()
        big = _engine(_serving_matrix(n_items=SIZES["n_items"] + 10))
        small = _engine(matrix)
        small.ingest(_batches(matrix)[0])
        small.step()
        answers_before = list(small.answers.iter_answers())
        small.restore(big.engine.checkpoint())  # no "answers" key
        metrics = small.metrics()
        assert metrics["n_items"] == SIZES["n_items"] + 10
        assert small.answers.n_items == SIZES["n_items"] + 10
        assert list(small.answers.iter_answers()) == answers_before
        assert metrics["answers_seen"] == len(answers_before)
        _assert_states_bitwise(big.engine.state, small.engine.state)
        small.predict([0, SIZES["n_items"] + 9])

    def test_restore_is_all_or_nothing(self):
        """Regression: a snapshot whose posterior fails validation used to
        leave its answers behind — the engine then served the rejected
        snapshot's answers with its old posterior and counters."""
        matrix = _serving_matrix()
        batches = _batches(matrix)
        source = _engine(matrix)
        for batch in batches[:3]:
            source.ingest(batch)
            source.step()
        target = _engine(matrix)
        target.ingest(batches[0])
        target.step()
        before = target.metrics()
        answers_before = list(target.answers.iter_answers())
        predicted_before = target.predict()

        payload = source.snapshot_payload()
        payload["phi"][0, 0] = np.nan
        with pytest.raises(CheckpointError, match="validation"):
            target.restore(payload)
        after = target.metrics()
        for key in ("batches_seen", "answers_seen", "answers_applied"):
            assert after[key] == before[key], key
        assert list(target.answers.iter_answers()) == answers_before
        assert target.predict() == predicted_before

    def test_restore_refuses_the_retired_entries_form(self):
        matrix = _serving_matrix()
        source = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            source.ingest(batch)
        source.step()
        payload = source.snapshot_payload()
        payload["answers"] = {
            "n_items": matrix.n_items,
            "n_workers": matrix.n_workers,
            "n_labels": matrix.n_labels,
            "entries": {
                (a.item, a.worker): tuple(sorted(a.labels))
                for a in source.answers.iter_answers()
            },
        }
        target = _engine(matrix)
        with pytest.raises(CheckpointError, match="answer format changed"):
            target.restore(payload)
        assert target.answers.n_answers == 0
        assert target.metrics()["batches_seen"] == 0

    def test_restore_rejects_malformed_answer_rows(self):
        matrix = _serving_matrix()
        source = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            source.ingest(batch)
        source.step()
        payload = source.snapshot_payload()
        rows = payload["answers"]["rows"].copy()
        rows["worker"][1] = rows["worker"][0]
        rows["item"][1] = rows["item"][0]
        payload["answers"] = {**payload["answers"], "rows": rows}
        target = _engine(matrix)
        with pytest.raises(CheckpointError, match="appears more than once"):
            target.restore(payload)
        assert target.answers.n_answers == 0

    def test_restore_bare_payload_derives_counters(self):
        """Regression (ISSUE 9): adopting a payload without serving
        counters used to keep the prior life's answers_seen/applied, so
        answers_behind lied about a queue that restore() had cleared."""
        matrix = _serving_matrix(seed=2)
        engine = _engine(matrix)
        batches = _batches(matrix)
        engine.ingest(batches[0])
        engine.ingest(batches[1])
        engine.step(max_batches=1)  # leave the engine genuinely behind
        assert engine.metrics()["answers_behind"] > 0

        donor = _engine(matrix)
        donor.ingest(batches[0])
        donor.step()
        engine.restore(donor.engine.checkpoint())  # bare: no counters
        metrics = engine.metrics()
        # counters derive from the answer matrix actually being served
        assert metrics["answers_seen"] == engine.answers.n_answers
        assert metrics["answers_applied"] == engine.answers.n_answers
        assert metrics["answers_behind"] == 0
        assert metrics["pending_batches"] == 0


# ------------------------------------------------------------------- daemon


def _daemon(matrix, config=None, **kwargs):
    server = ConsensusServer(_engine(matrix, config), **kwargs)
    return server.serve_in_thread()


@network
class TestConsensusServer:
    def test_loopback_serving_matches_local_engine(self):
        matrix = _serving_matrix(seed=4)
        batches = _batches(matrix)

        local = _engine(matrix)
        for batch in batches:
            local.ingest(batch)
            local.step()

        server = _daemon(matrix)
        try:
            with ServeClient(server.address, timeout=30) as client:
                for batch in batches:
                    metrics = client.ingest(batch)  # auto_step folds eagerly
                    assert metrics["answers_behind"] == 0
                status = client.status()
                assert status["batches_seen"] == local.metrics()["batches_seen"]
                assert client.predict() == local.predict()
                items, probs = client.label_probabilities([0, 1, 2])
                local_items, local_probs = local.label_probabilities([0, 1, 2])
                assert items == local_items
                np.testing.assert_array_equal(probs, local_probs)
                # base worker ops still answered on the same connection
                assert request(client._channel, ("ping",)) == "pong"
                client.shutdown()
        finally:
            server.close()

    def test_explicit_step_mode_exposes_staleness(self):
        matrix = _serving_matrix(seed=5)
        server = _daemon(matrix, auto_step=False)
        try:
            with ServeClient(server.address, timeout=30) as client:
                for batch in _batches(matrix)[:2]:
                    metrics = client.ingest(batch)
                assert metrics["answers_behind"] > 0
                assert client.step() >= 1
                assert client.status()["answers_behind"] == 0
                client.shutdown()
        finally:
            server.close()

    def test_server_forwards_engine_errors(self):
        matrix = _serving_matrix()
        server = _daemon(matrix)
        try:
            with ServeClient(server.address, timeout=30) as client:
                with pytest.raises(CheckpointError):
                    client.restore({"magic": "nope"})
                # the connection survives the error
                assert client.status()["answers_seen"] == 0
                client.shutdown()
        finally:
            server.close()

    def test_bad_query_items_raise_typed_errors(self):
        """Regression: negative items from the wire used to come back as
        an empty prediction instead of an error."""
        matrix = _serving_matrix()
        server = _daemon(matrix)
        try:
            with ServeClient(server.address, timeout=30) as client:
                with pytest.raises(ValidationError, match="non-negative"):
                    client.predict([-1])
                with pytest.raises(ValidationError, match="non-negative"):
                    client.label_probabilities([0, -2])
                assert client.status()["queries"] == 0
                client.shutdown()
        finally:
            server.close()

    def test_chunk_delta_shipping_refreshes_replica(self):
        # wide item space: one 40-answer step touches ≤40 of 4000 ϕ/µ
        # rows, so most snapshot chunks dedup on the second ship
        matrix = _serving_matrix(seed=6, n_items=4000, per_item=1)
        batches = _batches(matrix, answers_per_batch=40)
        source = _engine(matrix)
        for batch in batches[:4]:
            source.ingest(batch)
        source.step()

        server = _daemon(matrix, auto_step=False)
        try:
            with ServeClient(server.address, timeout=30) as client:
                first = client.push_checkpoint(dumps(source.snapshot_payload()))
                assert first.n_shipped == first.n_chunks  # cold replica
                assert client.status()["batches_seen"] == (
                    source.metrics()["batches_seen"]
                )

                source.ingest(batches[4])
                source.step()
                second = client.push_checkpoint(dumps(source.snapshot_payload()))
                # one small step must NOT re-ship the full snapshot
                assert second.n_shipped < second.n_chunks
                assert second.shipped_bytes < second.total_bytes
                assert 0.0 < second.delta_ratio < 1.0

                status = client.status()
                assert status["batches_seen"] == source.metrics()["batches_seen"]
                assert client.predict() == source.predict()
                client.shutdown()
        finally:
            server.close()

    def test_warm_refresh_is_three_requests_and_ships_the_chunk_diff(self):
        """A replica holding the previous snapshot's chunks refreshes in
        at most three requests (manifest, missing chunks, ``restore_key``),
        and its report counts exactly the chunks of the new snapshot that
        the previous one lacks, once per occurrence."""
        matrix = _serving_matrix(seed=6, n_items=4000, per_item=1)
        batches = _batches(matrix, answers_per_batch=40)
        source = _engine(matrix)
        for batch in batches[:4]:
            source.ingest(batch)
        source.step()
        server = _daemon(matrix, auto_step=False)
        try:
            with ServeClient(server.address, timeout=30) as client:
                old_blob = dumps(source.snapshot_payload())
                client.push_checkpoint(old_blob)
                source.ingest(batches[4])
                source.step()
                new_blob = dumps(source.snapshot_payload())
                before = sum(server.op_counts.values())
                report = client.push_checkpoint(new_blob)
                assert sum(server.op_counts.values()) - before <= 3

                held = set(chunk_manifest(old_blob, DEFAULT_CHECKPOINT_CHUNK_BYTES))
                diff = [
                    len(chunk)
                    for chunk in split_chunks(new_blob, DEFAULT_CHECKPOINT_CHUNK_BYTES)
                    if chunk_digest(chunk) not in held
                ]
                assert report == ShipReport(
                    total_bytes=len(new_blob),
                    shipped_bytes=sum(diff),
                    n_chunks=len(chunk_manifest(new_blob, DEFAULT_CHECKPOINT_CHUNK_BYTES)),
                    n_shipped=len(diff),
                )
                assert 0 < report.n_shipped < report.n_chunks
                assert client.predict() == source.predict()
                client.shutdown()
        finally:
            server.close()

    def test_replica_holds_only_its_last_snapshots_chunks(self):
        """A read replica refreshed over a stream keeps the chunks of the
        snapshot it serves, not every chunk it was sent: each refresh
        replaces the key's manifest and drops what only the old one
        named, so the chunk store never outgrows one snapshot."""
        matrix = _serving_matrix(seed=6, n_items=4000, per_item=1)
        batches = _batches(matrix, answers_per_batch=40)
        source = _engine(matrix)
        server = _daemon(matrix, auto_step=False, read_only=True)
        try:
            with ServeClient(server.address, timeout=30) as client:
                shipped = set()
                for batch in batches[:6]:
                    source.ingest(batch)
                    source.step()
                    blob = dumps(source.snapshot_payload())
                    report = client.push_checkpoint(blob)
                    manifest = chunk_manifest(blob, DEFAULT_CHECKPOINT_CHUNK_BYTES)
                    shipped.update(manifest)
                    held = server.registry.chunk_count()
                    assert held == len(set(manifest))
                    assert server.registry._chunk_bytes_held <= len(blob)
                assert report.n_shipped < report.n_chunks  # still a delta
                assert len(shipped) > held  # older snapshots' chunks left
                assert client.predict() == source.predict()
                client.shutdown()
        finally:
            server.close()

    def test_ship_without_restore_arms_the_registry(self):
        matrix = _serving_matrix(seed=7)
        source = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            source.ingest(batch)
        source.step()
        server = _daemon(matrix, auto_step=False)
        try:
            with ServeClient(server.address, timeout=30) as client:
                blob = dumps(source.snapshot_payload())
                ship_checkpoint(client._channel, blob, restore=False)
                assert client.status()["batches_seen"] == 0  # not adopted yet
                request(client._channel, ("restore_key", CHECKPOINT_KEY))
                assert client.status()["batches_seen"] == (
                    source.metrics()["batches_seen"]
                )
                client.shutdown()
        finally:
            server.close()

    def test_push_checkpoint_threads_key_through(self):
        """Regression (ISSUE 9): push_checkpoint dropped the ``key=``
        parameter ship_checkpoint supports, so blue/green checkpoint
        slots could not be addressed through the typed client."""
        matrix = _serving_matrix(seed=10)
        source = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            source.ingest(batch)
        source.step()
        server = _daemon(matrix, auto_step=False)
        try:
            with ServeClient(server.address, timeout=30) as client:
                blob = dumps(source.snapshot_payload())
                client.push_checkpoint(blob, key="ckpt-blue")
                # assembled under the custom key, and adopted
                assert server.registry.get("ckpt-blue") is not None
                assert client.status()["batches_seen"] == (
                    source.metrics()["batches_seen"]
                )
                client.shutdown()
        finally:
            server.close()

    def test_stale_restore_key_is_reshipped(self):
        """The ``restore_key`` → ``("stale", key)`` reply path: when the
        assembled payload is LRU-evicted between assemble and restore,
        ship_checkpoint must re-assemble and retry instead of surfacing
        StaleBroadcast to the caller."""
        matrix = _serving_matrix(seed=11)
        source = _engine(matrix)
        for batch in _batches(matrix)[:2]:
            source.ingest(batch)
        source.step()
        server = _daemon(matrix, auto_step=False)
        try:
            real_get = server.registry.get
            evicted = {"done": False}

            def flaky_get(key):
                if key == CHECKPOINT_KEY and not evicted["done"]:
                    evicted["done"] = True
                    raise KeyError(key)  # evicted between assemble/restore
                return real_get(key)

            server.registry.get = flaky_get
            with ServeClient(server.address, timeout=30) as client:
                report = client.push_checkpoint(dumps(source.snapshot_payload()))
                assert evicted["done"]  # the stale path actually fired
                assert report.n_shipped == report.n_chunks
                assert client.status()["batches_seen"] == (
                    source.metrics()["batches_seen"]
                )
                client.shutdown()
        finally:
            server.close()

    def test_kill_and_resume_chaos(self):
        """Kill the daemon mid-stream; a fresh daemon warm-started from
        its last snapshot and fed the rest of the stream must converge
        bitwise to the cold full-stream run."""
        matrix = _serving_matrix(seed=8)
        batches = _batches(matrix)
        assert len(batches) >= 4

        cold = _engine(matrix)
        for batch in batches:
            cold.ingest(batch)
            cold.step()

        first = _daemon(matrix)
        snapshot = None
        try:
            with ServeClient(first.address, timeout=30) as client:
                for batch in batches[:2]:
                    client.ingest(batch)
                snapshot = client.snapshot()
        finally:
            first.kill()  # hard kill: no graceful shutdown op

        second = _daemon(matrix)
        try:
            with ServeClient(second.address, timeout=30) as client:
                client.restore(snapshot)
                for batch in batches[2:]:
                    client.ingest(batch)
                    client.predict()  # serve queries while resuming
                status = client.status()
                assert status["batches_seen"] == cold.metrics()["batches_seen"]
                assert status["answers_applied"] == cold.answers_applied
                assert client.predict() == cold.predict()
                items, probs = client.label_probabilities()
                cold_items, cold_probs = cold.label_probabilities()
                assert items == cold_items
                np.testing.assert_array_equal(probs, cold_probs)
                client.shutdown()
        finally:
            second.close()

        _assert_states_bitwise(
            cold.engine.state, second.engine.engine.state
        )


# ---------------------------------------------------------------------- CLI


@network
class TestServeCLI:
    def test_daemon_cli_end_to_end(self, tmp_path):
        """Spawn the daemon via ``python -m repro.serve``, talk to it over
        the wire, and check the graceful-shutdown checkpoint."""
        port_file = tmp_path / "port"
        ckpt_file = tmp_path / "final.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--listen",
                "127.0.0.1:0",
                "--items",
                str(SIZES["n_items"]),
                "--workers",
                str(SIZES["n_workers"]),
                "--labels",
                str(SIZES["n_labels"]),
                "--step-answers",
                "40",
                "--port-file",
                str(port_file),
                "--save-checkpoint",
                str(ckpt_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stdout.read().decode()
                time.sleep(0.05)
            address = port_file.read_text().strip()

            matrix = _serving_matrix(seed=9)
            with ServeClient(address, timeout=30) as client:
                for batch in _batches(matrix)[:2]:
                    metrics = client.ingest(batch)
                assert metrics["answers_behind"] == 0
                assert client.status()["batches_seen"] > 0
                client.shutdown()
            assert proc.wait(timeout=30) == 0
            # graceful shutdown wrote a loadable snapshot
            payload = pickle.loads(ckpt_file.read_bytes())
            replica = _engine(matrix)
            replica.restore(payload)
            assert replica.metrics()["batches_seen"] > 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    def test_parser_defaults(self):
        from repro.serve import _build_parser

        args = _build_parser().parse_args(
            ["--items", "10", "--workers", "5", "--labels", "3"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.step_answers == 100
        assert args.dtype == "float32"  # the kernel dtype; snapshots stay float64
        assert not args.no_auto_step
        assert not args.read_only
