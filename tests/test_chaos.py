"""Chaos harness: worker daemons die under the sharded sweep (DESIGN.md §6).

The contract under test: killing remote worker daemons — between sweeps,
*mid-sweep* (between the lane calls of one sweep), or mid-stream for the
SVI engine — must never change results.  The surviving lanes absorb the
dead lane's tasks, payloads are re-broadcast to lanes that lost them
(daemon restarts, replacement workers), and the final trajectories stay
**bitwise equal** to the serial fused-order path, because results are
merged in task order regardless of which lane computed what.

Everything here is deterministic: kills are triggered by call counts
(:class:`tests.transport_harness.KillAfterMapOn`) or happen while no
call is in flight — no timing races, no retries-until-green.
"""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.inference import VariationalInference
from repro.core.svi import StochasticInference, stream_from_matrix
from repro.errors import TransportError
from repro.utils.parallel import RemoteExecutor
from repro.utils.transport import WorkerServer

from tests.test_sharded import _assert_states_close
from tests.transport_harness import (
    KillAfterMapOn,
    StallingWorkerServer,
    worker_fleet,
)

pytestmark = pytest.mark.network

BITWISE = dict(atol=0, rtol=0)
SHARD_COUNTS = [1, 2, 7]


def _config(n_shards, **overrides):
    return CPAConfig(
        seed=4, max_iterations=6, backend="sharded", n_shards=n_shards, **overrides
    )


# ------------------------------------------------------------------ batch VI


class TestBatchVIKills:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_mid_sweep_kill_stays_bitwise_equal_to_serial(
        self, tiny_dataset, n_shards
    ):
        """Worker 0 dies between two lane calls of sweep 2; sweeps 2-4
        reroute to the survivor with no numeric trace."""
        config = _config(n_shards)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            # init issues one map_on (seeding statistics), each sweep two
            # (the κ half, then the ϕ half): kill_after=4 murders the
            # daemon *inside* sweep 2
            executor = KillAfterMapOn(
                [s.address for s in servers], victim=servers[0], kill_after=4
            )
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            for _ in range(4):
                assert remote.sweep() == serial.sweep()
            assert remote.elbo() == serial.elbo()
            _assert_states_close(remote.state, serial.state, BITWISE)
            # the victim was excluded; the survivor carried the tail
            assert executor.map_on_calls > 5
            assert executor.live_workers() == [servers[1].address]
            assert servers[1].op_counts["map_on"] > 0
            executor.close()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_kill_between_sweeps_stays_bitwise_equal_to_serial(
        self, tiny_dataset, n_shards
    ):
        config = _config(n_shards)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            servers[0].kill()  # no call in flight
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            assert remote.elbo() == serial.elbo()
            _assert_states_close(remote.state, serial.state, BITWISE)
            assert executor.live_workers() == [servers[1].address]
            executor.close()

    def test_daemon_restart_on_same_port_is_rebroadcast_to(self, tiny_dataset):
        """A daemon that dies and is respawned on the same address holds no
        state; the retry path must re-broadcast the shard plan to it (the
        `stale` protocol) instead of failing or silently excluding it."""
        config = _config(3)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            assert remote.sweep() == serial.sweep()
            servers[0].kill()
            replacement = WorkerServer(
                host=servers[0].host, port=servers[0].port
            ).serve_in_thread()
            try:
                for _ in range(3):
                    assert remote.sweep() == serial.sweep()
                assert remote.elbo() == serial.elbo()
                _assert_states_close(remote.state, serial.state, BITWISE)
                # the respawned daemon reconnected and was re-broadcast to
                assert len(executor.live_workers()) == 2
                assert replacement.op_counts.get("broadcast", 0) >= 1
                assert replacement.op_counts.get("map_on", 0) >= 1
            finally:
                executor.close()
                replacement.close()

    def test_replacement_worker_attached_mid_fit_gets_the_plan(self, tiny_dataset):
        config = _config(4)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(3) as servers:
            executor = RemoteExecutor([s.address for s in servers[:2]])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            assert remote.sweep() == serial.sweep()
            servers[1].kill()
            executor.add_worker(servers[2].address)
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            _assert_states_close(remote.state, serial.state, BITWISE)
            assert servers[2].op_counts.get("broadcast", 0) >= 1
            assert servers[2].op_counts.get("map_on", 0) >= 1
            executor.close()

    def test_losing_every_worker_fails_loudly(self, tiny_dataset):
        config = _config(2)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            remote.sweep()
            for server in servers:
                server.kill()
            with pytest.raises(TransportError, match="all remote workers"):
                remote.sweep()
            executor.close()


class TestConfigDrivenRemote:
    def test_engine_resolves_remote_lanes_from_config_alone(self, tiny_dataset):
        """CPAConfig(executor='remote', workers=...) is the whole spec: the
        engine builds its own RemoteExecutor and stays bitwise equal."""
        serial = VariationalInference(_config(2), tiny_dataset.answers)
        with worker_fleet(2) as servers:
            config = _config(2).with_overrides(
                executor="remote", workers=tuple(s.address for s in servers)
            )
            remote = VariationalInference(config, tiny_dataset.answers)
            assert isinstance(remote.executor, RemoteExecutor)
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            _assert_states_close(remote.state, serial.state, BITWISE)
            remote.executor.close()


# ------------------------------------------------------- stragglers (hangs)


class TestStragglerChaos:
    """Daemons that *hang* rather than die (DESIGN.md §6 "Elastic fleet").

    A hang is strictly nastier than a crash: the socket stays open, so
    without per-request deadlines the client blocks forever.  The
    contract: a hung daemon delays a sweep, never stalls it, and the
    trajectory stays bitwise equal to serial — speculative re-dispatch
    re-runs the pure task functions, so the surviving copy of each
    result is identical to the one the straggler owed.
    """

    def test_mid_sweep_hang_delays_but_stays_bitwise_equal(self, tiny_dataset):
        config = _config(3)
        serial = VariationalInference(config, tiny_dataset.answers)
        # init issues one map_on dispatch, each sweep two: occurrence 4
        # hangs the victim inside sweep 2
        victim = StallingWorkerServer(stall_at=[("map_on", 4)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.3,
                straggler_grace=60.0,  # stay suspect: membership unchanged
            )
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            for _ in range(4):
                assert remote.sweep() == serial.sweep()
            assert remote.elbo() == serial.elbo()
            _assert_states_close(remote.state, serial.state, BITWISE)
            # the hang delayed one dispatch; the fleet stayed whole
            assert len(executor.live_workers()) == 2
            victim.unstall()
            executor.close()
        finally:
            victim.close()
            survivor.close()

    def test_hung_handler_recovery_rejoins_the_sweep(self, tiny_dataset):
        """With a zero grace window the suspect is reconnected at once —
        the fresh connection gets a fresh handler thread, so the lane
        rejoins and keeps serving while the old handler stays parked."""
        config = _config(2)
        serial = VariationalInference(config, tiny_dataset.answers)
        victim = StallingWorkerServer(stall_at=[("map_on", 3)]).serve_in_thread()
        survivor = WorkerServer().serve_in_thread()
        try:
            executor = RemoteExecutor(
                [victim.address, survivor.address],
                request_timeout=0.2,
                straggler_grace=0.0,
                reconnects=3,
            )
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            for _ in range(4):
                assert remote.sweep() == serial.sweep()
            _assert_states_close(remote.state, serial.state, BITWISE)
            assert len(executor.live_workers()) == 2
            assert victim.stalled == 1  # the hung handler is still parked
            victim.unstall()
            executor.close()
        finally:
            victim.close()
            survivor.close()


# ------------------------------------------------------- elastic membership


class TestElasticMembership:
    """Runtime joins/drains re-plan the shard count between sweeps.

    Auto-K plans (``n_shards=0``) size K from the executor's degree;
    when membership changes between sweeps, :meth:`sweep` re-plans and
    the serial twin — re-planned to the same K at the same boundary —
    must stay bitwise equal (merges are fixed-shard-order).
    """

    def test_worker_join_mid_inference_replans_bitwise(self, tiny_dataset):
        config = _config(0)  # auto-K: one shard per lane
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([servers[0].address])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            assert remote.kernel.n_shards == serial.kernel.n_shards == 1
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            executor.add_worker(servers[1].address)
            # mirror the automatic re-plan on the serial twin
            expected_k = config.resolve_shards(2, remote.n_items)
            serial.replan_shards(n_shards=expected_k)
            for _ in range(3):
                assert remote.sweep() == serial.sweep()
            assert remote.kernel.n_shards == expected_k  # the re-plan fired
            assert remote.elbo() == serial.elbo()
            _assert_states_close(remote.state, serial.state, BITWISE)
            # the joining daemon really carried work
            assert servers[1].op_counts.get("map_on", 0) > 0
            executor.close()

    def test_worker_drain_mid_inference_replans_bitwise(self, tiny_dataset):
        config = _config(0)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            k_before = remote.kernel.n_shards
            assert k_before == 2
            # serial twin pinned to the same starting K (explicit K builds
            # the identical plan; only the auto re-plan trigger differs)
            serial = VariationalInference(_config(k_before), tiny_dataset.answers)
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            executor.remove_worker(servers[0].address)
            k_after = config.resolve_shards(1, remote.n_items)
            serial.replan_shards(n_shards=k_after)
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            assert remote.kernel.n_shards == k_after
            assert remote.elbo() == serial.elbo()
            _assert_states_close(remote.state, serial.state, BITWISE)
            # the drained daemon was released of this client's payloads
            assert len(servers[0].registry) == 0
            executor.close()

    def test_explicit_shard_count_is_never_silently_replanned(self, tiny_dataset):
        """An explicit K is a user decision; membership drift must not
        override it (only auto-K plans resize)."""
        config = _config(2)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([servers[0].address])
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            assert remote.sweep() == serial.sweep()
            executor.add_worker(servers[1].address)
            for _ in range(2):
                assert remote.sweep() == serial.sweep()
            assert remote.kernel.n_shards == 2  # unchanged
            _assert_states_close(remote.state, serial.state, BITWISE)
            executor.close()

    def test_chunked_rebroadcast_after_payload_churn(self, tiny_dataset):
        """Daemon payload churn mid-fit re-arms from the chunk index: the
        re-arm costs one manifest-only assemble frame, not a full plan
        re-ship, and the trajectory stays bitwise serial."""
        config = _config(2)
        serial = VariationalInference(config, tiny_dataset.answers)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor(
                [s.address for s in servers], chunk_bytes=4096
            )
            remote = VariationalInference(
                config, tiny_dataset.answers, executor=executor
            )
            assert remote.sweep() == serial.sweep()
            assert executor._manifests  # the plan really is chunked
            shipped = executor.broadcast_sent_bytes
            servers[0].registry.drop_payloads()  # payloads gone, chunks kept
            for _ in range(3):
                assert remote.sweep() == serial.sweep()
            _assert_states_close(remote.state, serial.state, BITWISE)
            delta = executor.broadcast_sent_bytes - shipped
            assert 0 < delta < shipped // 10
            executor.close()


# ----------------------------------------------------------------------- SVI


class TestSVIKills:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_kill_between_batches_stays_bitwise_equal_to_serial(
        self, tiny_dataset, n_shards
    ):
        config = CPAConfig(
            seed=6, svi_iterations=1, backend="sharded", n_shards=n_shards
        )
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(
            tiny_dataset.answers, answers_per_batch=80, seed=9
        )
        serial = StochasticInference(config, *sizes)
        with worker_fleet(2) as servers:
            executor = RemoteExecutor([s.address for s in servers])
            remote = StochasticInference(config, *sizes, executor=executor)
            kill_at = len(batches) // 2
            for index, batch in enumerate(batches):
                if index == kill_at:
                    servers[0].kill()
                serial.process_batch(batch)
                remote.process_batch(batch)
            _assert_states_close(remote.state, serial.state, BITWISE)
            assert executor.live_workers() == [servers[1].address]
            executor.close()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_mid_batch_kill_stays_bitwise_equal_to_serial(
        self, tiny_dataset, n_shards
    ):
        """The daemon dies between two lane calls *inside* one SVI batch."""
        config = CPAConfig(
            seed=6, svi_iterations=1, backend="sharded", n_shards=n_shards
        )
        sizes = (tiny_dataset.n_items, tiny_dataset.n_workers, tiny_dataset.n_labels)
        batches = stream_from_matrix(
            tiny_dataset.answers, answers_per_batch=80, seed=9
        )
        serial = StochasticInference(config, *sizes)
        with worker_fleet(2) as servers:
            executor = KillAfterMapOn(
                [s.address for s in servers],
                victim=servers[0],
                kill_after=10**9,  # armed below, once batch 1 is done
            )
            remote = StochasticInference(config, *sizes, executor=executor)
            serial.process_batch(batches[0])
            remote.process_batch(batches[0])
            # die on the second map_on of the next batch
            executor._kill_after = executor.map_on_calls + 1
            for batch in batches[1:]:
                serial.process_batch(batch)
                remote.process_batch(batch)
            _assert_states_close(remote.state, serial.state, BITWISE)
            assert executor.live_workers() == [servers[1].address]
            executor.close()
