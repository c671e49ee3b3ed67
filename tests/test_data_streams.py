"""Coverage for :mod:`repro.data.streams`: arrival policies and batching.

The batching policies feed the online engine, so their contract is
exactness: every answer of the source matrix appears in exactly one
batch (no drops, no duplicates), whatever the policy.  The final class
closes the loop with the paper's Table-5 protocol: streaming SVI over
the sharded backend must reproduce the fused path's online numbers.
"""

import numpy as np
import pytest

from repro.core.config import CPAConfig
from repro.core.model import CPAModel
from repro.data.streams import AnswerStream, split_batch
from repro.errors import ValidationError
from repro.evaluation.metrics import evaluate_predictions
from repro.simulation.generator import generate_dataset

from tests.conftest import tiny_config


def _all_pairs(matrix):
    return sorted((a.item, a.worker) for a in matrix.iter_answers())


def _batch_pairs(batches):
    pairs = []
    for batch in batches:
        pairs.extend(batch.pairs)
    return pairs


class TestPartitionExactness:
    """No policy may drop or duplicate an answer."""

    def test_by_workers_partitions_exactly(self, tiny_dataset):
        matrix = tiny_dataset.answers
        batches = list(AnswerStream(matrix, seed=3).by_workers(7))
        pairs = _batch_pairs(batches)
        assert len(pairs) == matrix.n_answers
        assert sorted(pairs) == _all_pairs(matrix)

    def test_by_workers_groups_whole_workers(self, tiny_dataset):
        matrix = tiny_dataset.answers
        batches = list(AnswerStream(matrix, seed=3).by_workers(7))
        seen_workers = set()
        for batch in batches:
            assert not (set(batch.workers) & seen_workers)
            seen_workers.update(batch.workers)
            for worker in batch.workers:
                expected = {(i, worker) for i in matrix.items_for_worker(worker)}
                assert expected <= set(batch.pairs)

    @pytest.mark.parametrize("size", [1, 37, 10_000])
    def test_by_answers_partitions_exactly(self, tiny_dataset, size):
        matrix = tiny_dataset.answers
        batches = list(AnswerStream(matrix, seed=5).by_answers(size))
        pairs = _batch_pairs(batches)
        assert len(pairs) == matrix.n_answers
        assert sorted(pairs) == _all_pairs(matrix)
        assert all(batch.n_answers <= size for batch in batches)
        # all but the last batch are full
        assert all(batch.n_answers == size for batch in batches[:-1])

    def test_by_fractions_partitions_exactly(self, tiny_dataset):
        matrix = tiny_dataset.answers
        fractions = (0.25, 0.5, 0.8, 1.0)
        batches = list(AnswerStream(matrix, seed=7).by_fractions(fractions))
        pairs = _batch_pairs(batches)
        assert len(pairs) == matrix.n_answers
        assert sorted(pairs) == _all_pairs(matrix)
        cumulative = np.cumsum([batch.n_answers for batch in batches])
        expected = [int(round(f * matrix.n_answers)) for f in fractions]
        assert cumulative.tolist() == expected

    def test_by_fractions_validates_input(self, tiny_dataset):
        stream = AnswerStream(tiny_dataset.answers, seed=0)
        with pytest.raises(ValidationError):
            list(stream.by_fractions([]))
        with pytest.raises(ValidationError):
            list(stream.by_fractions([0.5, 0.4]))
        with pytest.raises(ValidationError):
            list(stream.by_fractions([0.0, 1.0]))
        with pytest.raises(ValidationError):
            list(stream.by_fractions([0.5, 1.2]))

    def test_by_fractions_never_emits_empty_batches(self, tiny_dataset):
        """Regression: adjacent fractions can round to the same cut on
        small matrices; collapsed windows must merge away, not surface as
        empty batches (which would burn SVI learning-rate steps)."""
        matrix = tiny_dataset.answers
        n = matrix.n_answers
        # fractions closer together than one answer => guaranteed collapse
        fractions = [0.5 / n, 0.7 / n, 0.25, 0.25 + 0.1 / n, 0.9, 1.0]
        batches = list(AnswerStream(matrix, seed=13).by_fractions(fractions))
        assert all(batch.n_answers > 0 for batch in batches)
        assert len(batches) < len(fractions)  # something actually collapsed
        # still an exact partition, with consecutive indices
        pairs = _batch_pairs(batches)
        assert sorted(pairs) == _all_pairs(matrix)
        assert [batch.index for batch in batches] == list(range(len(batches)))

    def test_policies_reject_nonpositive_sizes(self, tiny_dataset):
        stream = AnswerStream(tiny_dataset.answers, seed=0)
        with pytest.raises(ValidationError):
            list(stream.by_workers(0))
        with pytest.raises(ValidationError):
            list(stream.by_answers(-1))

    def test_seed_determinism(self, tiny_dataset):
        matrix = tiny_dataset.answers
        a = list(AnswerStream(matrix, seed=11).by_answers(40))
        b = list(AnswerStream(matrix, seed=11).by_answers(40))
        assert [batch.pairs for batch in a] == [batch.pairs for batch in b]


class TestReplayDeterminism:
    """Regression: policy iterators used to shuffle lazily with the shared
    instance generator, so batch content depended on *consumption* order.
    A serving restart replaying an arrival log needs batches to be a pure
    function of (seed, policy-call sequence)."""

    def test_creation_order_not_consumption_order(self, tiny_dataset):
        matrix = tiny_dataset.answers
        # reference: call + consume immediately
        ref_first = list(AnswerStream(matrix, seed=21).by_answers(40))
        ref_second_stream = AnswerStream(matrix, seed=21)
        list(ref_second_stream.by_answers(40))
        ref_second = list(ref_second_stream.by_answers(40))
        # create both iterators before consuming either, then consume in
        # reverse creation order — content must still track creation order
        stream = AnswerStream(matrix, seed=21)
        it_first = stream.by_answers(40)
        it_second = stream.by_answers(40)
        got_second = list(it_second)
        got_first = list(it_first)
        assert [b.pairs for b in got_first] == [b.pairs for b in ref_first]
        assert [b.pairs for b in got_second] == [b.pairs for b in ref_second]

    def test_unconsumed_iterator_still_advances_seed_path(self, tiny_dataset):
        """An abandoned iterator must consume exactly one child seed —
        whether or not it is ever drained."""
        matrix = tiny_dataset.answers
        stream_a = AnswerStream(matrix, seed=9)
        stream_a.by_answers(40)  # created, never consumed
        a = list(stream_a.by_answers(40))
        stream_b = AnswerStream(matrix, seed=9)
        list(stream_b.by_answers(40))  # created and fully drained
        b = list(stream_b.by_answers(40))
        assert [x.pairs for x in a] == [x.pairs for x in b]

    def test_mixed_policies_depend_only_on_call_order(self, tiny_dataset):
        matrix = tiny_dataset.answers
        stream = AnswerStream(matrix, seed=5)
        it_workers = stream.by_workers(7)
        it_fracs = stream.by_fractions([0.5, 1.0])
        fracs = list(it_fracs)
        workers = list(it_workers)
        # same call order, immediate consumption
        ref = AnswerStream(matrix, seed=5)
        ref_workers = list(ref.by_workers(7))
        ref_fracs = list(ref.by_fractions([0.5, 1.0]))
        assert [b.pairs for b in workers] == [b.pairs for b in ref_workers]
        assert [b.pairs for b in fracs] == [b.pairs for b in ref_fracs]

    def test_validation_is_eager_at_call_time(self, tiny_dataset):
        """Bad arguments must raise at the policy call, before any
        iteration — a replaying server should fail fast, not mid-drain."""
        stream = AnswerStream(tiny_dataset.answers, seed=0)
        with pytest.raises(ValidationError):
            stream.by_workers(0)
        with pytest.raises(ValidationError):
            stream.by_answers(-1)
        with pytest.raises(ValidationError):
            stream.by_fractions([0.5, 0.4])


class TestSplitBatch:
    def test_respects_max_answers_and_partitions_in_order(self, tiny_dataset):
        batch = next(AnswerStream(tiny_dataset.answers, seed=1).by_fractions([1.0]))
        subs = split_batch(batch, max_answers=33)
        assert all(sub.n_answers <= 33 for sub in subs)
        assert all(sub.n_answers == 33 for sub in subs[:-1])
        recombined = [pair for sub in subs for pair in sub.pairs]
        assert recombined == list(batch.pairs)

    def test_small_batch_passes_through_unsplit(self, tiny_dataset):
        batch = next(AnswerStream(tiny_dataset.answers, seed=1).by_answers(20))
        assert split_batch(batch, max_answers=50) == [batch]

    def test_sub_batches_carry_consistent_metadata(self, tiny_dataset):
        batch = next(AnswerStream(tiny_dataset.answers, seed=2).by_fractions([1.0]))
        for sub in split_batch(batch, max_answers=41):
            assert set(sub.workers) == {worker for _, worker in sub.pairs}
            assert set(sub.items) == {item for item, _ in sub.pairs}
            assert sub.matrix.n_answers == sub.n_answers

    def test_rejects_nonpositive_max(self, tiny_dataset):
        batch = next(AnswerStream(tiny_dataset.answers, seed=1).by_answers(20))
        with pytest.raises(ValidationError):
            split_batch(batch, max_answers=0)

    def test_sub_batch_identities_do_not_collide_across_stream(self, tiny_dataset):
        """Regression: the old ``parent.index + offset`` numbering made
        parent 3's pieces clash with batches 4, 5, 6 of the same stream;
        ``(index, sub_index)`` identities must be unique stream-wide."""
        batches = list(AnswerStream(tiny_dataset.answers, seed=4).by_answers(90))
        assert len(batches) >= 3
        subs = [sub for batch in batches for sub in split_batch(batch, 25)]
        ids = [sub.batch_id for sub in subs]
        assert len(ids) == len(set(ids))
        # sub-batches keep their parent's stream index and number their
        # own pieces from zero
        for batch in batches:
            pieces = split_batch(batch, 25)
            assert all(sub.index == batch.index for sub in pieces)
            assert [sub.sub_index for sub in pieces] == list(range(len(pieces)))
        # unsplit passthrough keeps identity (0 sub_index)
        small = split_batch(batches[0], 10_000)
        assert small[0].batch_id == (batches[0].index, 0)


class TestStreamingShardedSVI:
    """The Table-5 online protocol must be backend-independent."""

    def _online_numbers(self, dataset, backend_kwargs):
        """Final online P/R via the same path table5_online.py uses."""
        config = CPAConfig(seed=0, max_truncation=10, **backend_kwargs)
        stream = AnswerStream(dataset.answers, seed=17)
        batches = list(stream.by_fractions([i / 5 for i in range(1, 6)]))
        model = CPAModel(config).fit_online(
            batches,
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            seed=0,
            total_answers_hint=dataset.n_answers,
        )
        result = evaluate_predictions(model.predict(), dataset.truth)
        return model, result

    def test_sharded_stream_reproduces_table5_online_numbers(self):
        dataset = generate_dataset(tiny_config(name="t5"), seed=31)
        fused_model, fused_eval = self._online_numbers(dataset, {"dtype": "float64"})
        sharded_model, sharded_eval = self._online_numbers(
            dataset, {"backend": "sharded", "n_shards": 3, "dtype": "float64"}
        )
        np.testing.assert_allclose(
            sharded_model.state_.phi, fused_model.state_.phi, atol=1e-9, rtol=0
        )
        np.testing.assert_allclose(
            sharded_model.state_.kappa, fused_model.state_.kappa, atol=1e-9, rtol=0
        )
        assert sharded_model.predict() == fused_model.predict()
        assert sharded_eval.precision == pytest.approx(fused_eval.precision, abs=1e-12)
        assert sharded_eval.recall == pytest.approx(fused_eval.recall, abs=1e-12)

    def test_split_sub_batches_feed_the_full_sharded_protocol(self):
        """Regression companion to the split_batch identity fix: a full
        table5-style run whose arrival increments are split internally
        must feed every sub-batch exactly once to the sharded engine."""
        dataset = generate_dataset(tiny_config(name="t5split"), seed=33)
        config = CPAConfig(
            seed=0,
            max_truncation=10,
            backend="sharded",
            n_shards=2,
            svi_batch_answers=40,
        )
        stream = AnswerStream(dataset.answers, seed=17)
        batches = list(stream.by_fractions([i / 5 for i in range(1, 6)]))
        subs = [sub for batch in batches for sub in split_batch(batch, 40)]
        assert len({sub.batch_id for sub in subs}) == len(subs)
        assert all(sub.n_answers > 0 for sub in subs)
        model = CPAModel(config).fit_online(
            batches,
            dataset.n_items,
            dataset.n_workers,
            dataset.n_labels,
            seed=0,
        )
        # the engine saw exactly one SVI step per sub-batch — nothing was
        # dropped or double-fed by the identity scheme
        assert model.online_engine_.metrics()["batches_seen"] == len(subs)
        assert model.predict()  # and the fitted model is usable end-to-end
