"""Tests for the replica-fleet serving layer (:mod:`repro.fleet`).

Router policy and health-machine tests are socket-free (the router
connects lazily); everything that talks to live daemons is
network-marked.  Thread-mode replicas are used for bitwise-parity
assertions (same ``CPAConfig`` object as the writer); process mode and
the CLI are exercised end to end over the wire.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.data.answers import AnswerMatrix
from repro.data.streams import AnswerStream
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    TransportError,
    ValidationError,
)
from repro.fleet import FleetClient, FleetManager, FleetRouter, _build_parser
from repro.serve import ConsensusServer, ServeClient
from repro.utils.transport import LaneHealth, connect, parse_address

network = pytest.mark.network

SIZES = dict(n_items=48, n_workers=20, n_labels=8)


def _matrix(seed=0, per_item=4, **overrides):
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


def _batches(matrix, answers_per_batch=40, seed=7):
    return list(AnswerStream(matrix, seed=seed).by_answers(answers_per_batch))


def _manager(matrix, config=None, **kwargs):
    config = config or _config()
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("total_answers_hint", matrix.n_answers)
    return FleetManager(
        config, matrix.n_items, matrix.n_workers, matrix.n_labels, **kwargs
    )


def _assert_states_bitwise(a, b):
    for name in ("rho", "ups", "lam", "zeta", "kappa", "phi", "cell_mass"):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    if a.mu is not None:
        np.testing.assert_array_equal(a.mu, b.mu)
    assert a.batches_seen == b.batches_seen


# ------------------------------------------------------------ health machine


class TestLaneHealth:
    def test_transitions(self):
        health = LaneHealth(reconnects=2)
        assert health.live and health.state == "live"
        health.mark_suspect(123.0)
        assert health.suspect
        assert health.suspect_deadline == 123.0
        health.recover()
        assert health.live
        assert health.suspect_deadline == 0.0
        health.exclude()
        assert health.excluded

    def test_reconnect_budget(self):
        health = LaneHealth(reconnects=2)
        assert health.consume_reconnect()
        assert health.consume_reconnect()
        assert not health.consume_reconnect()
        assert health.reconnects_left == 0


# ------------------------------------------------------------------- router


ADDRS = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]


class TestFleetRouter:
    def test_round_robin_cycles_live_replicas(self):
        router = FleetRouter(ADDRS, policy="round_robin")
        picks = [router.choose() for _ in range(6)]
        assert picks == ADDRS + ADDRS

    def test_round_robin_skips_excluded(self):
        router = FleetRouter(ADDRS, policy="round_robin")
        router._slot(ADDRS[1]).health.exclude()
        picks = {router.choose() for _ in range(4)}
        assert picks == {ADDRS[0], ADDRS[2]}

    def test_least_staleness_prefers_freshest(self):
        router = FleetRouter(ADDRS)
        router.note_status(ADDRS[0], {"answers_behind": 5, "snapshot_age_steps": 2})
        router.note_status(ADDRS[1], {"answers_behind": 0, "snapshot_age_steps": 9})
        router.note_status(ADDRS[2], {"answers_behind": 0, "snapshot_age_steps": 3})
        # behind wins first, snapshot age breaks the tie
        assert router.choose() == ADDRS[2]

    def test_least_staleness_unreported_sorts_last(self):
        router = FleetRouter(ADDRS[:2])
        router.note_status(
            ADDRS[1], {"answers_behind": 100, "snapshot_age_steps": 50}
        )
        assert router.choose() == ADDRS[1]

    def test_least_staleness_tie_breaks_on_registration_order(self):
        router = FleetRouter(ADDRS)
        for address in ADDRS:
            router.note_status(
                address, {"answers_behind": 0, "snapshot_age_steps": 0}
            )
        assert router.choose() == ADDRS[0]

    def test_no_live_replica_chooses_none(self):
        router = FleetRouter(ADDRS[:1], policy="round_robin")
        router._slot(ADDRS[0]).health.exclude()
        assert router.choose() is None

    def test_unknown_policy_refused(self):
        with pytest.raises(ConfigurationError, match="policy"):
            FleetRouter(ADDRS, policy="fastest")

    def test_unknown_replica_refused(self):
        router = FleetRouter(ADDRS[:1])
        with pytest.raises(ConfigurationError, match="no replica"):
            router.note_status("127.0.0.1:9999", {})

    @network
    def test_suspect_grace_then_exclusion(self):
        # nobody listens on these ports: the post-grace revive attempt is
        # refused and the replica leaves the rotation for good
        now = [0.0]
        router = FleetRouter(
            ADDRS[:2],
            policy="round_robin",
            reconnects=1,
            suspect_grace=5.0,
            clock=lambda: now[0],
        )
        router.mark_suspect(ADDRS[0])
        assert router.states()[ADDRS[0]] == "suspect"
        # within the grace window the suspect gets no queries
        assert {router.choose() for _ in range(3)} == {ADDRS[1]}
        now[0] = 6.0  # grace expired: revive fails (connection refused)
        router.choose()
        assert router.states()[ADDRS[0]] == "excluded"


class TestFleetManagerValidation:
    def test_unknown_replica_mode_refused(self):
        with pytest.raises(ConfigurationError, match="replica_mode"):
            _manager(_matrix(), replica_mode="fiber")

    def test_negative_replicas_refused(self):
        with pytest.raises(ConfigurationError, match="n_replicas"):
            _manager(_matrix(), n_replicas=-1)

    def test_refresh_before_start_refused(self):
        manager = _manager(_matrix(), n_replicas=1)
        with pytest.raises(ConfigurationError, match="not running"):
            manager.refresh_replicas()

    def test_parser_defaults(self):
        args = _build_parser().parse_args(
            ["--items", "10", "--workers", "5", "--labels", "3"]
        )
        assert args.replicas == 2
        assert args.replica_mode == "process"
        assert args.refresh_interval == 2.0


# ----------------------------------------------------------- thread fleets


@network
class TestFleetRefresh:
    def test_writer_replica_bitwise_parity_after_chunk_refresh(self):
        """The tentpole invariant: after a chunk-delta refresh every
        replica's posterior is bitwise identical to the writer's, and
        queries answered by replicas match the writer's exactly."""
        matrix = _matrix(seed=3, per_item=6)
        with _manager(matrix, n_replicas=2) as manager:
            with manager.client(policy="round_robin") as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                reports = manager.refresh_replicas()
                assert len(reports) == 2
                writer_state = manager.engine.engine.state
                for replica in manager._replicas:
                    _assert_states_bitwise(
                        writer_state, replica.server.engine.engine.state
                    )
                expected = manager.engine.predict()
                # both replicas answer (round robin) — all bitwise equal
                for _ in range(4):
                    assert client.predict() == expected
                w_items, w_probs = manager.engine.label_probabilities([0, 1])
                items, probs = client.label_probabilities([0, 1])
                assert items == w_items
                np.testing.assert_array_equal(probs, w_probs)

    def test_daemons_hold_the_serve_cli_registry_limits(self):
        """The writer and a thread replica keep the registry limits a
        process replica gets from ``python -m repro.serve``'s defaults."""
        from repro.serve import _build_parser as serve_parser

        parser = serve_parser()
        payload_cap = parser.get_default("payload_cap")
        chunk_cache_bytes = parser.get_default("chunk_cache_mb") << 20
        with _manager(_matrix(), n_replicas=1) as manager:
            daemons = [manager._writer_server, manager._replicas[0].server]
            for daemon in daemons:
                assert daemon.registry.cap == payload_cap
                assert daemon.registry.chunk_cache_bytes == chunk_cache_bytes

    def test_second_refresh_ships_chunk_delta(self):
        # wide item space so one small step leaves most chunks untouched
        matrix = _matrix(seed=6, n_items=2000, per_item=1)
        batches = _batches(matrix)
        with _manager(matrix, n_replicas=1) as manager:
            with manager.client() as client:
                for batch in batches[:4]:
                    client.ingest(batch)
                first = next(iter(manager.refresh_replicas().values()))
                assert first.n_shipped == first.n_chunks  # cold replica
                client.ingest(batches[4])
                second = next(iter(manager.refresh_replicas().values()))
                assert second.n_shipped < second.n_chunks
                assert 0.0 < second.delta_ratio < 1.0

    def test_refresh_marks_writer_snapshot_clock(self):
        """Only the fleet's refresh path resets snapshot_age_*; a
        read-only snapshot pull by a client does not (ISSUE 9 bugfix)."""
        matrix = _matrix(seed=4)
        with _manager(matrix, n_replicas=1) as manager:
            with ServeClient(manager.writer_address, timeout=30) as client:
                for batch in _batches(matrix)[:2]:
                    client.ingest(batch)
                age = manager.engine.metrics()["snapshot_age_steps"]
                assert age > 0
                client.snapshot()  # monitoring pull — must not reset
                assert manager.engine.metrics()["snapshot_age_steps"] == age
                manager.refresh_replicas()
                assert manager.engine.metrics()["snapshot_age_steps"] == 0

    def test_read_only_replica_refuses_writes(self):
        matrix = _matrix(seed=5)
        batches = _batches(matrix)
        with _manager(matrix, n_replicas=1) as manager:
            address = manager.replica_addresses()[0]
            with ServeClient(address, timeout=30) as client:
                with pytest.raises(ValidationError, match="read replica"):
                    client.ingest(batches[0])
                with pytest.raises(ValidationError, match="read replica"):
                    client.step()
                # reads and refreshes stay open
                assert client.status()["answers_seen"] == 0
                assert client.ping() == "pong"

    def test_background_snapshot_timer_refreshes_replicas(self):
        """The refresh-interval timer thread ships snapshots without any
        explicit refresh call (replacing on-demand-only snapshots)."""
        matrix = _matrix(seed=7)
        with _manager(matrix, n_replicas=2, refresh_interval=0.2) as manager:
            with manager.client(policy="round_robin") as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                writer_seen = manager.engine.metrics()["batches_seen"]
                assert writer_seen > 0
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    status = client.status()
                    seen = [
                        m["batches_seen"] for m in status["replicas"].values()
                    ]
                    if len(seen) == 2 and all(s == writer_seen for s in seen):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("timer never refreshed the replicas")
                assert manager.status()["refresh_count"] >= 1
                # the timer's refresh is the durable-capture path
                assert manager.engine.metrics()["snapshot_age_steps"] == 0

    def test_unwritable_snapshot_path_still_ships_and_raises_typed(self, tmp_path):
        """A snapshot write that fails (here the rename onto a directory,
        after the ``.tmp`` was written) still refreshes the replica, leaves
        no ``.tmp`` behind, is recorded under its path, and raises a
        ``CheckpointError`` naming it instead of a bare ``OSError``."""
        target = tmp_path / "taken"
        (target / "inner").mkdir(parents=True)
        matrix = _matrix(seed=4)
        with _manager(matrix, n_replicas=1, snapshot_path=str(target)) as manager:
            with manager.client() as client:
                for batch in _batches(matrix)[:2]:
                    client.ingest(batch)
                with pytest.raises(CheckpointError, match="taken"):
                    manager.refresh_replicas()
                assert not os.path.exists(str(target) + ".tmp")
                assert str(target) in manager.last_errors[str(target)]
                replica = manager._replicas[0].server.engine
                assert replica.metrics()["batches_seen"] == (
                    manager.engine.metrics()["batches_seen"]
                )
                # shipped to a replica: the snapshot was captured there
                assert manager.engine.metrics()["snapshot_age_steps"] == 0
                assert manager.status()["refresh_count"] == 1

    def test_failed_snapshot_write_alone_is_not_a_capture(self, tmp_path):
        matrix = _matrix(seed=4)
        path = str(tmp_path / "missing-dir" / "snap.bin")
        with _manager(matrix, n_replicas=0, snapshot_path=path) as manager:
            with ServeClient(manager.writer_address, timeout=30) as client:
                client.ingest(_batches(matrix)[0])
            with pytest.raises(CheckpointError, match="missing-dir"):
                manager.refresh_replicas()
            assert manager.engine.metrics()["snapshot_age_steps"] > 0

    def test_snapshot_timer_survives_an_unwritable_path(self, tmp_path):
        """The timer thread used to die on the first round's bare
        ``OSError``: every later refresh was silently lost."""
        matrix = _matrix(seed=7)
        path = str(tmp_path / "missing-dir" / "snap.bin")
        with _manager(
            matrix, n_replicas=1, refresh_interval=0.1, snapshot_path=path
        ) as manager:
            with manager.client() as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                writer_seen = manager.engine.metrics()["batches_seen"]
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    replica = manager._replicas[0].server.engine
                    refreshed = replica.metrics()["batches_seen"] == writer_seen
                    if refreshed and manager.status()["refresh_count"] >= 2:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("the timer stopped refreshing the replica")
                assert manager._refresh_thread.is_alive()
                assert "missing-dir" in manager.last_errors[path]

    def test_writer_growth_propagates_to_thread_replicas(self):
        matrix = _matrix(seed=8)
        with _manager(matrix, n_replicas=1) as manager:
            with manager.client() as client:
                for batch in _batches(matrix)[:2]:
                    client.ingest(batch)
                wider = _matrix(
                    seed=9,
                    n_items=SIZES["n_items"] + 6,
                    n_labels=SIZES["n_labels"] + 1,
                    per_item=2,
                )
                client.ingest(_batches(wider, answers_per_batch=30)[0])
                manager.refresh_replicas()
                replica = manager._replicas[0].server.engine
                assert replica.engine.n_items == SIZES["n_items"] + 6
                assert replica.engine.n_labels == SIZES["n_labels"] + 1
                assert client.predict() == manager.engine.predict()


# --------------------------------------------------------------- failover


@network
class TestFleetFailover:
    def test_replica_kill_mid_stream_answers_unchanged(self):
        """Kill a replica mid-query-stream: the router excludes it and
        re-routes; every answer stays bitwise identical (all replicas
        serve the same shipped snapshot)."""
        matrix = _matrix(seed=10, per_item=6)
        with _manager(matrix, n_replicas=3) as manager:
            with manager.client(policy="round_robin", timeout=10) as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                manager.refresh_replicas()
                expected = manager.engine.predict()
                e_items, e_probs = manager.engine.label_probabilities([0, 1, 2])
                answers = [client.predict()]
                manager._replicas[1].server.kill()  # hard kill mid-stream
                for _ in range(8):
                    answers.append(client.predict())
                    items, probs = client.label_probabilities([0, 1, 2])
                    assert items == e_items
                    np.testing.assert_array_equal(probs, e_probs)
                assert all(answer == expected for answer in answers)
                states = client.router.states()
                killed = manager._replicas[1].address
                assert states[killed] == "excluded"
                live = [a for a, s in states.items() if s == "live"]
                assert len(live) == 2

    def test_replica_hang_mid_stream_answers_unchanged(self):
        """A replica that *hangs* (accepts the query, never answers) is
        marked suspect on the query deadline and the query re-routes;
        the answer is bitwise identical."""
        matrix = _matrix(seed=11, per_item=6)
        config = _config()
        writer = None
        staller = None
        healthy = None
        gate = threading.Event()

        class _StallingServer(ConsensusServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._stalled_once = False

            def handle(self, message):
                if (
                    isinstance(message, tuple)
                    and message
                    and message[0] == "predict"
                    and not self._stalled_once
                ):
                    self._stalled_once = True
                    gate.wait(timeout=60.0)
                return super().handle(message)

        def _engine():
            from repro.serve import ConsensusEngine

            return ConsensusEngine(
                config,
                matrix.n_items,
                matrix.n_workers,
                matrix.n_labels,
                seed=0,
                total_answers_hint=matrix.n_answers,
            )

        try:
            writer = ConsensusServer(_engine()).serve_in_thread()
            staller = _StallingServer(
                _engine(), auto_step=False, read_only=True
            ).serve_in_thread()
            healthy = ConsensusServer(
                _engine(), auto_step=False, read_only=True
            ).serve_in_thread()
            with ServeClient(writer.address, timeout=30) as feed:
                for batch in _batches(matrix):
                    feed.ingest(batch)
                blob_payload = writer.engine.snapshot_payload()
                expected = writer.engine.predict()
                for replica in (staller, healthy):
                    with ServeClient(replica.address, timeout=30) as target:
                        target.restore(blob_payload)
            client = FleetClient(
                writer.address,
                [staller.address, healthy.address],
                policy="round_robin",
                timeout=1.0,
                suspect_grace=60.0,
            )
            try:
                # round robin sends the first query to the staller: it
                # times out, turns suspect, and the query re-routes
                assert client.predict() == expected
                states = client.router.states()
                assert states[client.router._slots[0].address] == "suspect"
                # the suspect gets no further queries inside the grace
                for _ in range(3):
                    assert client.predict() == expected
            finally:
                gate.set()
                client.close()
        finally:
            for server in (writer, staller, healthy):
                if server is not None:
                    server.kill()

    def test_all_replicas_dead_falls_back_to_writer(self):
        matrix = _matrix(seed=12)
        with _manager(matrix, n_replicas=1) as manager:
            with manager.client(policy="round_robin", timeout=10) as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                manager.refresh_replicas()
                expected = manager.engine.predict()
                manager._replicas[0].server.kill()
                assert client.predict() == expected  # served by the writer
                assert set(client.router.states().values()) == {"excluded"}

    def test_fallback_disabled_raises_loudly(self):
        matrix = _matrix(seed=13)
        with _manager(matrix, n_replicas=1) as manager:
            client = manager.client(
                policy="round_robin", timeout=10, fallback_to_writer=False
            )
            try:
                for batch in _batches(matrix)[:1]:
                    client.ingest(batch)
                manager._replicas[0].server.kill()
                with pytest.raises(TransportError, match="no live read replica"):
                    client.predict()
            finally:
                client.close()


# -------------------------------------------------------- process mode + CLI


@network
class TestFleetProcessMode:
    def test_process_replicas_serve_bitwise_queries(self):
        # process replicas rebuild CPAConfig from CLI-expressible fields
        matrix = _matrix(seed=14, per_item=5)
        config = CPAConfig(seed=0, svi_batch_answers=40)
        with _manager(
            matrix, config=config, n_replicas=2, replica_mode="process"
        ) as manager:
            with manager.client(policy="least_staleness") as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                reports = manager.refresh_replicas()
                assert len(reports) == 2
                assert client.predict() == manager.engine.predict()
                w_items, w_probs = manager.engine.label_probabilities([0, 1])
                items, probs = client.label_probabilities([0, 1])
                assert items == w_items
                np.testing.assert_array_equal(probs, w_probs)

    def test_failed_replica_launch_stops_the_whole_fleet(self, monkeypatch):
        """A replica that dies during start-up fails ``start()``, and
        takes the replicas already spawned and the writer down with it:
        ``__exit__`` never runs when ``__enter__`` raises."""
        real_popen = subprocess.Popen
        spawned = []

        def popen(command, **kwargs):
            if len(spawned) == 1:
                command = [sys.executable, "-c", "raise SystemExit(3)"]
            spawned.append(real_popen(command, **kwargs))
            return spawned[-1]

        monkeypatch.setattr("repro.fleet.subprocess.Popen", popen)
        manager = _manager(_matrix(), n_replicas=2, replica_mode="process")
        try:
            with pytest.raises(TransportError, match="exited during startup"):
                manager.start()
            assert len(spawned) == 2
            assert [proc.poll() is not None for proc in spawned] == [True, True]
            with pytest.raises(TransportError):
                connect(*parse_address(manager.writer_address), timeout=5.0)
        finally:
            manager.close()


@network
class TestFleetCLI:
    def test_fleet_cli_end_to_end(self, tmp_path):
        port_file = tmp_path / "ports"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.fleet",
                "--items",
                str(SIZES["n_items"]),
                "--workers",
                str(SIZES["n_workers"]),
                "--labels",
                str(SIZES["n_labels"]),
                "--replicas",
                "2",
                "--replica-mode",
                "thread",
                "--refresh-interval",
                "0.2",
                "--step-answers",
                "40",
                "--port-file",
                str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.stat().st_size > 0:
                    break
                assert proc.poll() is None, proc.stdout.read().decode()
                time.sleep(0.05)
            addresses = port_file.read_text().split()
            assert len(addresses) == 3  # writer + 2 replicas

            matrix = _matrix(seed=15)
            with FleetClient(
                addresses[0], addresses[1:], policy="round_robin", timeout=30
            ) as client:
                for batch in _batches(matrix):
                    client.ingest(batch)
                status = client.status()
                writer_seen = status["writer"]["batches_seen"]
                assert writer_seen > 0
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    status = client.status()
                    seen = [
                        m["batches_seen"] for m in status["replicas"].values()
                    ]
                    if len(seen) == 2 and all(s == writer_seen for s in seen):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("CLI fleet timer never refreshed replicas")
                client.predict([0, 1])
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()


# ---------------------------------------------------- lock-hold discipline


@network
class TestLockHoldDiscipline:
    """Regression tests for the R7 findings this PR fixed: the slow
    lifecycle paths (replica launch, snapshot shipping, teardown) must
    run with the state lock *released* — on the pre-PR code each spy
    below observes ``_lock`` held and the assertion fails."""

    def test_start_launches_replicas_outside_state_lock(self, monkeypatch):
        held = []
        original = FleetManager._launch_replica

        def spy(self, replica):
            held.append(self._lock.locked())
            return original(self, replica)

        monkeypatch.setattr(FleetManager, "_launch_replica", spy)
        manager = _manager(_matrix(), n_replicas=1)
        try:
            manager.start()
        finally:
            manager.close()
        assert held == [False]

    def test_refresh_ships_outside_state_lock(self, monkeypatch):
        held = []
        original = FleetManager._ship

        def spy(self, replica, blob):
            held.append(self._lock.locked())
            return original(self, replica, blob)

        monkeypatch.setattr(FleetManager, "_ship", spy)
        matrix = _matrix(seed=11)
        with _manager(matrix, n_replicas=1) as manager:
            with manager.client() as client:
                client.ingest(_batches(matrix)[0])
            manager.refresh_replicas()
        assert held == [False]

    def test_close_tears_down_outside_state_lock(self):
        manager = _manager(_matrix(), n_replicas=1).start()
        held = []
        replica = manager._replicas[0]
        original_close = replica.server.close

        def spy():
            held.append(manager._lock.locked())
            return original_close()

        replica.server.close = spy
        manager.close()
        assert held == [False]

    def test_refresh_and_status_do_not_serialize_on_state_lock(self):
        """A refresh stalled mid-ship must not block status(): the
        pre-PR code held ``_lock`` across the ship, so this pattern
        deadlocked status queries for the full ship duration."""
        matrix = _matrix(seed=12)
        with _manager(matrix, n_replicas=1) as manager:
            with manager.client() as client:
                client.ingest(_batches(matrix)[0])
            entered = threading.Event()
            release = threading.Event()
            original = FleetManager._ship

            def stalled(self, replica, blob):
                entered.set()
                assert release.wait(timeout=30.0)
                return original(self, replica, blob)

            FleetManager._ship = stalled
            try:
                refresher = threading.Thread(
                    target=manager.refresh_replicas, daemon=True
                )
                refresher.start()
                assert entered.wait(timeout=30.0)
                # status must answer while the ship is in flight
                done = threading.Event()
                result = {}

                def query():
                    result["status"] = manager.status()
                    done.set()

                threading.Thread(target=query, daemon=True).start()
                assert done.wait(timeout=5.0), (
                    "status() blocked behind an in-flight refresh"
                )
                assert "writer" in result["status"]
            finally:
                release.set()
                FleetManager._ship = original
                refresher.join(timeout=30.0)
