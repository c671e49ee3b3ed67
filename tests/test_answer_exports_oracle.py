"""Frozen oracle: the answer exports of a fixed matrix and its streams.

Every consumer of answers (batch VI, SVI steps, consensus, prediction, the
serving snapshot) reads them through :meth:`AnswerMatrix.to_arrays`, so the
export's dtype, shape, values and row order are the contract.  The digests
below were recorded from the dict-backed matrix this array-backed one
replaced; a change to storage must leave every one of them in place.
"""

import hashlib

import numpy as np
import pytest

from repro.data.answers import AnswerMatrix
from repro.data.streams import AnswerStream, split_batch

SIZES = (40, 15, 7)


def _matrix():
    """Random answers loaded through ``add``, with overwrites and removes
    mixed in, so insertion order is not sorted order."""
    rng = np.random.default_rng(2024)
    matrix = AnswerMatrix(*SIZES)
    for _ in range(260):
        item, worker = int(rng.integers(SIZES[0])), int(rng.integers(SIZES[1]))
        labels = np.flatnonzero(rng.random(SIZES[2]) < 0.35).tolist() or [int(rng.integers(SIZES[2]))]
        matrix.add(item, worker, labels)
        if rng.random() < 0.05:
            victim = next(iter(matrix.iter_answers()))
            matrix.remove(victim.item, victim.worker)
    return matrix


def _digest(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _batch_digests(batches):
    return [_digest(batch.matrix.to_arrays()) for batch in batches]


def _stream_digests(matrix):
    stream = AnswerStream(matrix, seed=11)
    by_answers = list(stream.by_answers(37))
    by_workers = list(stream.by_workers(4))
    by_fractions = list(stream.by_fractions([0.2, 0.5, 0.9, 1.0]))
    split = [sub for batch in by_fractions for sub in split_batch(batch, 30)]
    pairs = list(zip(*(index.tolist() for index in matrix.to_arrays()[:2])))
    other = AnswerMatrix(*SIZES)
    for item, worker in pairs[::3] + [(39, 14), (0, 0)]:
        other.add(item, worker, [(item + worker) % SIZES[2]])
    transforms = [
        matrix.copy(),
        matrix.resized(45, 17, 9),
        matrix.subset(pairs[50:10:-3] + pairs[20:30]),
        matrix.merged_with(other),
    ]
    return {
        "matrix": _digest(matrix.to_arrays()),
        "by_answers": _batch_digests(by_answers),
        "by_workers": _batch_digests(by_workers),
        "by_fractions": _batch_digests(by_fractions),
        "split": _batch_digests(split),
        "transforms": [_digest(result.to_arrays()) for result in transforms],
    }


FROZEN = {
    "matrix": "be675c4e4a0db9e59ed70e55392e2a70a1076a91872d0243228b5fd0b89c2792",
    "by_answers": [
        "3b46309c50db6e38e6821c6c77133b3c424f2b0a36a3521dea6717654c562f88",
        "e59c53ead10ac4a592f9a512c66916b48c96910696a3a4d53db714da124c4867",
        "a3df97f0e8fb8d629bb7057d69acd923ebf9428193cba70f5cc87ce73d262b06",
        "f58f1c8bb345e0c6ec69ae79fb66338c544e93d02a404a1971a07a018bacc133",
        "f4b350305e4902e2a614639bdae1db30a6557253f82d1464a3221d3a345acc4f",
        "67b56f5fb2cad7d2c70e13c3fdd3c69f92f5b057f530f299cc9ce859d4dd391f",
    ],
    "by_workers": [
        "9be5bee8c3f07afec5a9be59bc806384e4fa1d2063c2589705b3a7057f5725d1",
        "541d333c48b16eb6eaa03d64f87f75989228f94d1895fa1ed39dcbb2bbeccf40",
        "3ae6ec239597991bbfb8d0ec8858e79d77157e787f8b6940ddf183b5a9667740",
        "18d7ad99f43f3a96a9ba0d2ae4f964c4e1b14c54fb2f8f84f6aec3691ff638cb",
    ],
    "by_fractions": [
        "a3e7e51c6332f7b444135c29297112d80f6bf6186a590820e30544465a91be62",
        "3c5f26e42bb5595af527317c2cb184a4e56afbca72cb6ba47810d51df5ad9118",
        "fa1f7256deb983c45ce7b2a184b2462b28c1d6349bb5510dcc792b1f3e4dc556",
        "15f4e2ad5b3e82620c3cd764f3a744793c06bc08eac0cdd841f802b641a3e36a",
    ],
    "split": [
        "a33dbc44bcab8331f9f237a59e7799162af732043c8253b3de7f3101dc623169",
        "56f79bb2173021cdfebe2d3e18b8428c73c9c802c834376d57402a257f9986de",
        "0e0f05ff62d9583581c569ef7cb6161ee091717cba566d1673e5947e767218c2",
        "591ef2b2affada14db8fe89e8a5f2828f80386932be2b7b9a7a15e57bfa6d82b",
        "4e2ca9c7af686ed1f5d9acb4874e2043dc18cb3b01f0868937abc2bee912b6c1",
        "83f054164c895211061459bcd34da5995df000cd7e06adfc61d5d6a4a36266a9",
        "d31042652584f8ce297dd9b6a941b8b6ee6796e68c98fa0ec7a44c77d4add447",
        "e0868ed11ecc89ebfbe7f1afda93948b65b925576415d6d8be2d119f6ad08ba0",
        "15f4e2ad5b3e82620c3cd764f3a744793c06bc08eac0cdd841f802b641a3e36a",
    ],
    "transforms": [
        "be675c4e4a0db9e59ed70e55392e2a70a1076a91872d0243228b5fd0b89c2792",
        "3e03c4ab6005446ed726898d93c2eb8ca8cbff1682226f2f279500adcc70fd19",
        "9d62811cff7bc85cf0e4b4f021747066031f6c9639ba576cdc0c923ce2837d8e",
        "cce55d5026abf10bd31d27e089e94d8fc0b5d79207a15310a4165ce22e8867b4",
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_exports_match_the_frozen_digests(name):
    assert _stream_digests(_matrix())[name] == FROZEN[name]


def test_stream_batches_leave_the_pair_index_unbuilt():
    """The stream policies and ``split_batch`` take rows by position, so
    neither a restored source nor a batch builds its ``(item, worker)``
    index."""
    source = _matrix()
    restored = AnswerMatrix.from_arrays(*SIZES, *source.to_arrays())
    stream = AnswerStream(restored, seed=11)
    batches = (
        list(stream.by_answers(37))
        + list(stream.by_workers(4))
        + list(stream.by_fractions([0.2, 0.5, 0.9, 1.0]))
    )
    pieces = [sub for batch in batches for sub in split_batch(batch, 10)]
    assert len(pieces) > len(batches)
    for matrix in [restored] + [batch.matrix for batch in batches + pieces]:
        assert matrix._index is None


def test_stream_batches_hold_the_answers_of_the_policy_call():
    """A batch takes its rows from the source as it was when the policy
    was called: a later remove cannot shift rows under it, and a later
    overwrite or answer does not show."""
    matrix = _matrix()
    stream = AnswerStream(matrix, seed=11)
    calls = [stream.by_answers(37), stream.by_workers(4), stream.by_fractions([0.5, 1.0])]
    expected = _stream_digests(_matrix())
    first = matrix.to_arrays()
    matrix.remove(int(first[0][0]), int(first[1][0]))
    matrix.add(int(first[0][5]), int(first[1][5]), [0, 1, 2])
    matrix.add(0, 14, [3])
    by_answers, by_workers, by_fractions = (list(call) for call in calls)
    assert _batch_digests(by_answers) == expected["by_answers"]
    assert _batch_digests(by_workers) == expected["by_workers"]
    assert len(by_fractions) == 2
