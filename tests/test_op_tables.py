"""The wire protocol's two sides agree: every op a client in ``src/``
sends is served, and every op a daemon's table serves has a client.

Both daemons dispatch through one op table
(:func:`repro.utils.transport.dispatch`): the lane table
(:func:`~repro.utils.transport.lane_ops`) and, on
:class:`~repro.serve.ConsensusServer`, the lane table plus the serving
ops.  The test drives the clients — every public :class:`ServeClient`
method (``push_checkpoint`` is :func:`~repro.serve.ship_checkpoint`) and
the :class:`RemoteExecutor` lane contract (whose chunked broadcast is
:func:`~repro.utils.transport.ship_chunks`) — against a writer and a
read replica, then compares each daemon's ``op_counts`` (the ops that
arrived) with its table.  The fleet reaches the wire only through these
clients.
"""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.data.answers import AnswerMatrix
from repro.data.streams import AnswerStream
from repro.errors import ValidationError
from repro.serve import ConsensusEngine, ConsensusServer, ServeClient
from repro.utils.parallel import RemoteExecutor
from repro.utils.transport import dumps

network = pytest.mark.network


def _plus(payload, task):
    return payload + task


def _double(task):
    return task * 2


def _answers(n_items=24, n_workers=10, n_labels=6, seed=0):
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        for worker in rng.choice(n_workers, size=3, replace=False):
            labels = tuple(np.flatnonzero(rng.random(n_labels) < 0.3)) or (0,)
            matrix.add(item, int(worker), labels)
    return matrix


def _daemon(matrix, **kwargs):
    engine = ConsensusEngine(
        CPAConfig(seed=0, max_truncation=6, svi_batch_answers=20),
        matrix.n_items,
        matrix.n_workers,
        matrix.n_labels,
        seed=0,
        total_answers_hint=matrix.n_answers,
    )
    return ConsensusServer(engine, **kwargs).serve_in_thread()


@network
def test_clients_send_exactly_the_ops_the_tables_serve():
    matrix = _answers()
    batch = next(AnswerStream(matrix, seed=1).by_answers(20))
    writer = _daemon(matrix)
    replica = _daemon(matrix, read_only=True)
    try:
        # the lane contract, one lane on each daemon; the large payload
        # crosses chunk_bytes, so it ships through the chunk store
        executor = RemoteExecutor([writer.address, replica.address], chunk_bytes=1024)
        executor.broadcast("small", 3)
        executor.broadcast("large", list(range(5000)))
        assert executor.map_on("small", _plus, [1, 2, 3, 4]) == [4, 5, 6, 7]
        assert executor.map_tasks(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        executor.close()

        with ServeClient(writer.address) as client:
            client.ingest(batch)
            snapshot = client.snapshot()
        for server in (writer, replica):
            with ServeClient(server.address) as client:
                calls = {
                    "ingest": (batch,),
                    "step": (),
                    "predict": ([0, 1],),
                    "label_probabilities": ([0, 1],),
                    "status": (),
                    "ping": (),
                    "snapshot": (),
                    "restore": (snapshot,),
                    "push_checkpoint": (dumps(snapshot),),
                    "shutdown": (),  # last: the daemon stops
                }
                public = {name for name in vars(ServeClient) if not name.startswith("_")}
                assert set(calls) == public - {"close"}, "drive every client method"
                for name, args in calls.items():
                    if server.read_only and name in ("ingest", "step"):
                        with pytest.raises(ValidationError, match="read replica"):
                            getattr(client, name)(*args)
                    else:
                        getattr(client, name)(*args)
    finally:
        writer.close()
        replica.close()

    for server in (writer, replica):
        sent, served = set(server.op_counts), set(server.ops)
        assert sent - served == set(), "clients send ops no table serves"
        assert served - sent == set(), "tables serve ops no client sends"
