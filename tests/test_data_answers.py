"""Tests for the answer matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.answers import Answer, AnswerMatrix
from repro.errors import ValidationError


class TestAnswerRecord:
    def test_rejects_empty_labels(self):
        with pytest.raises(ValidationError):
            Answer(item=0, worker=0, labels=frozenset())


class TestAnswerMatrixBasics:
    def test_sizes_validated(self):
        with pytest.raises(ValidationError):
            AnswerMatrix(0, 1, 1)
        with pytest.raises(ValidationError):
            AnswerMatrix(1, 1, -2)

    def test_add_and_get(self, micro_matrix):
        assert micro_matrix.get(0, 0) == frozenset({0, 1})
        assert micro_matrix.get(2, 0) is None
        assert (0, 0) in micro_matrix
        assert len(micro_matrix) == 6

    def test_add_overwrites(self, micro_matrix):
        micro_matrix.add(0, 0, {4})
        assert micro_matrix.get(0, 0) == frozenset({4})
        assert micro_matrix.n_answers == 6  # still one answer per pair

    def test_out_of_range_indices(self, micro_matrix):
        with pytest.raises(ValidationError):
            micro_matrix.add(4, 0, {0})
        with pytest.raises(ValidationError):
            micro_matrix.add(0, 3, {0})
        with pytest.raises(ValidationError):
            micro_matrix.add(0, 0, {5})

    def test_empty_answer_rejected(self, micro_matrix):
        with pytest.raises(ValidationError):
            micro_matrix.add(0, 2, [])

    def test_remove(self, micro_matrix):
        micro_matrix.remove(0, 0)
        assert micro_matrix.get(0, 0) is None
        assert 0 not in micro_matrix.items_for_worker(0)
        with pytest.raises(ValidationError):
            micro_matrix.remove(0, 0)

    def test_indices(self, micro_matrix):
        assert micro_matrix.workers_for_item(0) == [0, 1]
        assert micro_matrix.items_for_worker(2) == [1, 3]
        assert micro_matrix.answered_items() == [0, 1, 2, 3]
        assert micro_matrix.active_workers() == [0, 1, 2]

    def test_sparsity(self, micro_matrix):
        assert micro_matrix.sparsity() == pytest.approx(1 - 6 / 12)

    def test_label_counts(self, micro_matrix):
        counts = micro_matrix.label_counts()
        assert counts.tolist() == [2, 2, 2, 1, 2]

    def test_cooccurrence_counts_symmetric(self, micro_matrix):
        counts = micro_matrix.cooccurrence_counts()
        assert (counts == counts.T).all()
        assert counts[0, 1] == 1  # labels 0,1 co-occur once (item 0, worker 0)
        assert counts[0, 0] == 2  # label 0 appears in two answers


class TestArraysExport:
    def test_roundtrip_shapes(self, micro_matrix):
        items, workers, indicators = micro_matrix.to_arrays()
        assert items.shape == workers.shape == (6,)
        assert indicators.shape == (6, 5)
        assert set(indicators.ravel().tolist()) <= {0.0, 1.0}

    def test_indicator_rows_match_sets(self, micro_matrix):
        items, workers, indicators = micro_matrix.to_arrays()
        for row in range(items.size):
            labels = frozenset(np.flatnonzero(indicators[row]).tolist())
            assert labels == micro_matrix.get(int(items[row]), int(workers[row]))

    def test_cache_invalidation_on_mutation(self, micro_matrix):
        first = micro_matrix.to_arrays()
        micro_matrix.add(2, 0, {3})
        second = micro_matrix.to_arrays()
        assert second[0].size == first[0].size + 1


class TestTransforms:
    def test_copy_independent(self, micro_matrix):
        clone = micro_matrix.copy()
        clone.add(2, 0, {1})
        assert micro_matrix.get(2, 0) is None
        assert clone.n_answers == micro_matrix.n_answers + 1

    def test_subset(self, micro_matrix):
        sub = micro_matrix.subset([(0, 0), (1, 2)])
        assert sub.n_answers == 2
        assert sub.get(0, 0) == micro_matrix.get(0, 0)

    def test_subset_missing_pair_rejected(self, micro_matrix):
        with pytest.raises(ValidationError):
            micro_matrix.subset([(2, 0)])

    def test_merge(self, micro_matrix):
        other = AnswerMatrix(4, 3, 5)
        other.add(2, 0, {2})
        other.add(0, 0, {4})  # conflict: other wins
        merged = micro_matrix.merged_with(other)
        assert merged.get(2, 0) == frozenset({2})
        assert merged.get(0, 0) == frozenset({4})
        # originals untouched
        assert micro_matrix.get(0, 0) == frozenset({0, 1})

    def test_merge_shape_mismatch(self, micro_matrix):
        with pytest.raises(ValidationError):
            micro_matrix.merged_with(AnswerMatrix(5, 3, 5))

    def test_from_mapping(self):
        matrix = AnswerMatrix.from_mapping(2, 2, 3, {(0, 0): [0], (1, 1): [1, 2]})
        assert matrix.n_answers == 2
        assert matrix.get(1, 1) == frozenset({1, 2})


@st.composite
def random_entries(draw):
    n_items = draw(st.integers(1, 6))
    n_workers = draw(st.integers(1, 5))
    n_labels = draw(st.integers(1, 6))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_items - 1), st.integers(0, n_workers - 1)
            ),
            unique=True,
            max_size=12,
        )
    )
    entries = {}
    for pair in pairs:
        labels = draw(
            st.sets(st.integers(0, n_labels - 1), min_size=1, max_size=n_labels)
        )
        entries[pair] = labels
    return n_items, n_workers, n_labels, entries


class TestAnswerMatrixProperties:
    @given(random_entries())
    @settings(max_examples=50, deadline=None)
    def test_export_roundtrip(self, spec):
        n_items, n_workers, n_labels, entries = spec
        matrix = AnswerMatrix.from_mapping(n_items, n_workers, n_labels, entries)
        assert matrix.n_answers == len(entries)
        items, workers, indicators = matrix.to_arrays()
        rebuilt = {
            (int(i), int(u)): frozenset(np.flatnonzero(x).tolist())
            for i, u, x in zip(items, workers, indicators)
        }
        assert rebuilt == {k: frozenset(v) for k, v in entries.items()}

    @given(random_entries())
    @settings(max_examples=30, deadline=None)
    def test_index_consistency(self, spec):
        n_items, n_workers, n_labels, entries = spec
        matrix = AnswerMatrix.from_mapping(n_items, n_workers, n_labels, entries)
        for item in matrix.answered_items():
            for worker in matrix.workers_for_item(item):
                assert matrix.get(item, worker) is not None
        total = sum(len(matrix.items_for_worker(u)) for u in matrix.active_workers())
        assert total == matrix.n_answers


def _assert_exports_equal(got, want):
    for name, a, b in zip(("items", "workers", "indicators"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


_PAIR = st.tuples(st.integers(0, 4), st.integers(0, 3))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _PAIR, st.sets(st.integers(0, 5), min_size=1)),
        st.tuples(st.just("remove"), _PAIR),
        st.tuples(st.just("export")),
    ),
    max_size=40,
)


class TestExportAppends:
    @given(_OPS)
    @settings(max_examples=80, deadline=None)
    def test_cached_export_equals_fresh_export(self, ops):
        """``to_arrays()`` after any mix of new-pair adds (appended to the
        cached export), overwrites and removes (which drop it) equals, in
        values and order, the export a ``copy()`` builds afresh; and
        an earlier result is never written afterwards."""
        matrix = AnswerMatrix(5, 4, 6)
        taken = []
        for op in ops + [("export",)]:
            if op[0] == "add":
                matrix.add(*op[1], op[2])
            elif op[0] == "remove":
                if op[1] in matrix:
                    matrix.remove(*op[1])
            else:
                export = matrix.to_arrays()
                _assert_exports_equal(export, matrix.copy().to_arrays())
                taken.append((export, tuple(array.copy() for array in export)))
        for export, frozen in taken:
            _assert_exports_equal(export, frozen)


class TestFromArrays:
    @given(random_entries(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_reproduces_orders_and_export(self, spec, data):
        n_items, n_workers, n_labels, entries = spec
        matrix = AnswerMatrix.from_mapping(n_items, n_workers, n_labels, entries)
        if entries:
            removed = data.draw(st.lists(st.sampled_from(sorted(entries)), unique=True))
            for pair in removed:
                matrix.remove(*pair)  # removals reorder the per-item lists
        rebuilt = AnswerMatrix.from_arrays(
            n_items, n_workers, n_labels, *matrix.to_arrays()
        )
        assert list(rebuilt.iter_answers()) == list(matrix.iter_answers())
        for item in range(n_items):
            assert rebuilt.workers_for_item(item) == matrix.workers_for_item(item)
        for worker in range(n_workers):
            assert rebuilt.items_for_worker(worker) == matrix.items_for_worker(worker)
        assert rebuilt.answered_items() == matrix.answered_items()
        assert rebuilt.active_workers() == matrix.active_workers()
        _assert_exports_equal(rebuilt.to_arrays(), matrix.to_arrays())
        _assert_exports_equal(rebuilt.copy().to_arrays(), matrix.to_arrays())

    def test_accepts_integer_label_rows_and_copies_its_inputs(self, micro_matrix):
        items, workers, indicators = micro_matrix.to_arrays()
        rebuilt = AnswerMatrix.from_arrays(
            4, 3, 5, items.astype(np.int32), workers, indicators.astype(np.uint8)
        )
        _assert_exports_equal(rebuilt.to_arrays(), micro_matrix.to_arrays())
        floats = AnswerMatrix.from_arrays(4, 3, 5, items, workers, indicators)
        for own, given_array in zip(floats.to_arrays(), (items, workers, indicators)):
            assert not np.shares_memory(own, given_array)

    @pytest.mark.parametrize(
        "items, workers, indicators, match",
        [
            ([0, 4], [0, 1], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "item index 4"),
            ([0, -1], [0, 1], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "item index -1"),
            ([0, 1], [0, 3], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "worker index 3"),
            ([0, 1], [0, 1], [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0]], "0 or 1"),
            ([0, 1], [0, 1], [[0.5, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "0 or 1"),
            ([0, 1], [0, 1], [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "row 1 carries no label"),
            ([2, 2], [1, 1], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], r"pair \(item=2, worker=1\)"),
            ([0, 1], [0], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "shape"),
            ([0, 1], [0, 1], [[1, 0, 0, 0], [0, 1, 0, 0]], "shape"),
            ([[0, 1]], [0, 1], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "shape"),
            ([0.0, 1.0], [0, 1], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], "integers"),
            ([0, 1], [0, 1], [["1", "0", "0", "0", "0"]] * 2, "numeric"),
        ],
    )
    def test_rejects_malformed_arrays(self, items, workers, indicators, match):
        with pytest.raises(ValidationError, match=match):
            AnswerMatrix.from_arrays(
                4, 3, 5, np.array(items), np.array(workers), np.array(indicators)
            )
