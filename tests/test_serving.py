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
    ConsensusEngine,
    ConsensusServer,
    ServeClient,
    ship_checkpoint,
)
from repro.utils.transport import dumps, request

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

    def test_restore_rejects_larger_snapshot(self):
        big = _serving_matrix(n_items=SIZES["n_items"] + 10)
        source = _engine(big)
        for batch in _batches(big)[:2]:
            source.ingest(batch)
        source.step()
        small = _engine(_serving_matrix())
        with pytest.raises(CheckpointError, match="larger"):
            small.restore(source.snapshot_payload())

    def test_restore_rejects_larger_bare_checkpoint(self):
        """Regression (ISSUE 9): the size guard must also cover bare
        repro.core.checkpoint payloads (the documented --checkpoint
        warm-start format), which used to bypass it and surface a
        misleading 'cannot shrink' error from deep inside grow_state."""
        big = _engine(_serving_matrix(n_items=SIZES["n_items"] + 10))
        small = _engine(_serving_matrix())
        bare = big.engine.checkpoint()  # no "answers" key
        with pytest.raises(CheckpointError, match="larger than the serving"):
            small.restore(bare)
        # nothing was replaced: sizes intact, queries still served
        metrics = small.metrics()
        assert metrics["n_items"] == SIZES["n_items"]
        assert small.answers.n_items == SIZES["n_items"]
        small.predict([0])

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

    def test_parser_defaults(self):
        from repro.serve import _build_parser

        args = _build_parser().parse_args(
            ["--items", "10", "--workers", "5", "--labels", "3"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.step_answers == 100
        assert args.dtype == "float64"
        assert not args.no_auto_step
        assert not args.read_only
