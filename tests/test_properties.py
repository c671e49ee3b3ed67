"""Property-based tests on end-to-end inference invariants.

Hypothesis generates small random crowdsourcing instances; the properties
assert structural invariants that must hold for *any* input: state
validity, ELBO finiteness and monotonicity, prediction domain correctness,
serialisation round-trips through the full public API, and — for the
sharded backend — the symmetry properties the model is supposed to have:
answer order, worker labels, and item labels carry no information, so
permuting them must leave consensus output invariant (equivariant for
the labelled quantities), and shard merges must be associative and
commutative on arbitrary sufficient-statistic fragments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CPAConfig
from repro.core.consensus import estimate_consensus
from repro.core.inference import VariationalInference
from repro.core.model import CPAModel
from repro.core.kernels import SweepKernel
from repro.core.sharding import ShardedSweepKernel, merge_cell_statistics
from repro.data.answers import AnswerMatrix
from repro.data.loaders import dataset_from_dict, dataset_to_dict
from repro.data.dataset import CrowdDataset, GroundTruth


@st.composite
def crowd_instance(draw):
    """A random small answer matrix with at least one answer per item."""
    n_items = draw(st.integers(4, 10))
    n_workers = draw(st.integers(3, 8))
    n_labels = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = AnswerMatrix(n_items, n_workers, n_labels)
    for item in range(n_items):
        k = int(rng.integers(1, min(4, n_workers) + 1))
        workers = rng.choice(n_workers, size=k, replace=False)
        for worker in workers:
            size = int(rng.integers(1, min(3, n_labels) + 1))
            labels = rng.choice(n_labels, size=size, replace=False)
            matrix.add(item, int(worker), [int(l) for l in labels])
    return matrix


SMALL_CONFIG = dict(max_iterations=4, tolerance=1e-3, max_truncation=6)


class TestInferenceProperties:
    @given(crowd_instance(), st.integers(0, 1000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_state_always_valid_and_elbo_monotone(self, matrix, seed):
        engine = VariationalInference(
            CPAConfig(seed=seed, **SMALL_CONFIG), matrix
        )
        previous = engine.elbo()
        assert np.isfinite(previous)
        for _ in range(3):
            engine.sweep()
            engine.state.validate()
            current = engine.elbo()
            assert current >= previous - 1e-6
            previous = current

    @given(crowd_instance(), st.integers(0, 1000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_predictions_always_in_domain(self, matrix, seed):
        model = CPAModel(CPAConfig(seed=seed, **SMALL_CONFIG)).fit(matrix)
        predictions = model.predict()
        assert set(predictions) == set(matrix.answered_items())
        for labels in predictions.values():
            assert all(0 <= label < matrix.n_labels for label in labels)

    @given(crowd_instance())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_consensus_always_proper(self, matrix):
        engine = VariationalInference(CPAConfig(seed=0, **SMALL_CONFIG), matrix)
        result = engine.run(track_elbo=False)
        consensus = estimate_consensus(result.state, engine.config, matrix)
        assert np.all(consensus.inclusion > 0)
        assert np.all(consensus.inclusion < 1)
        assert np.all(consensus.community_weights >= 0)
        np.testing.assert_allclose(consensus.cluster_weights.sum(), 1.0, atol=1e-9)
        rates = consensus.label_rates
        assert rates is not None
        for array in (rates.sensitivity, rates.false_rate):
            assert np.all(array > 0) and np.all(array < 1)

    @given(crowd_instance(), st.integers(0, 100))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_seed_determinism_of_full_pipeline(self, matrix, seed):
        a = CPAModel(CPAConfig(seed=seed, **SMALL_CONFIG)).fit(matrix).predict()
        b = CPAModel(CPAConfig(seed=seed, **SMALL_CONFIG)).fit(matrix).predict()
        assert a == b


def _kernel_outputs(kernel_cls, items, workers, x, phi, kappa, e_log_psi, **kwargs):
    """(worker scores, item scores, counts, mass, elbo) of one kernel."""
    t, m = phi.shape[1], kappa.shape[1]
    kernel = kernel_cls(
        items, workers, x, phi.shape[0], kappa.shape[0], **kwargs
    )
    kernel.begin_sweep(e_log_psi)
    worker_scores = kernel.add_worker_scores(np.zeros((kappa.shape[0], m)), phi)
    item_scores = kernel.add_item_scores(np.zeros((phi.shape[0], t)), kappa)
    counts, mass = kernel.cell_statistics(phi, kappa)
    elbo = kernel.data_elbo(phi, kappa, e_log_psi)
    return worker_scores, item_scores, counts, mass, elbo


def _kernel_problem(seed, n=220, n_items=18, n_workers=11, n_labels=6, t=4, m=3):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n_items, size=n)
    workers = rng.integers(0, n_workers, size=n)
    pool = (rng.random((9, n_labels)) < 0.4).astype(float)
    pool[pool.sum(axis=1) == 0, 0] = 1.0
    x = pool[rng.integers(0, 9, size=n)]
    phi = rng.dirichlet(np.ones(t), size=n_items)
    kappa = rng.dirichlet(np.ones(m), size=n_workers)
    e_log_psi = np.log(rng.dirichlet(np.ones(n_labels), size=(t, m)))
    return items, workers, x, phi, kappa, e_log_psi


KERNELS = [
    ("fused", SweepKernel, {}),
    ("sharded-3", ShardedSweepKernel, dict(n_shards=3)),
    ("sharded-1", ShardedSweepKernel, dict(n_shards=1)),
]


class TestInvarianceProperties:
    """Symmetries of the sufficient-statistic layer (serial and sharded)."""

    @pytest.mark.parametrize("name,kernel_cls,kwargs", KERNELS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_answer_order_invariance(self, name, kernel_cls, kwargs, seed):
        """Shuffling the flat answer arrays changes nothing observable."""
        items, workers, x, phi, kappa, e_log_psi = _kernel_problem(seed)
        base = _kernel_outputs(
            kernel_cls, items, workers, x, phi, kappa, e_log_psi, **kwargs
        )
        rng = np.random.default_rng(seed + 100)
        order = rng.permutation(items.size)
        shuffled = _kernel_outputs(
            kernel_cls, items[order], workers[order], x[order],
            phi, kappa, e_log_psi, **kwargs,
        )
        for a, b in zip(base[:4], shuffled[:4]):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        assert shuffled[4] == pytest.approx(base[4], abs=1e-9)

    @pytest.mark.parametrize("name,kernel_cls,kwargs", KERNELS)
    def test_worker_relabelling_equivariance(self, name, kernel_cls, kwargs):
        """Worker ids carry no information: outputs just follow the labels."""
        items, workers, x, phi, kappa, e_log_psi = _kernel_problem(3)
        rng = np.random.default_rng(42)
        perm = rng.permutation(kappa.shape[0])  # perm[u] = new id of worker u
        kappa_perm = np.empty_like(kappa)
        kappa_perm[perm] = kappa
        base = _kernel_outputs(
            kernel_cls, items, workers, x, phi, kappa, e_log_psi, **kwargs
        )
        relabelled = _kernel_outputs(
            kernel_cls, items, perm[workers], x, phi, kappa_perm, e_log_psi, **kwargs
        )
        np.testing.assert_allclose(
            relabelled[0][perm], base[0], atol=1e-10, rtol=0
        )  # worker scores follow the relabelling
        for a, b in zip(base[1:4], relabelled[1:4]):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        assert relabelled[4] == pytest.approx(base[4], abs=1e-9)

    @pytest.mark.parametrize("name,kernel_cls,kwargs", KERNELS)
    def test_item_relabelling_equivariance(self, name, kernel_cls, kwargs):
        items, workers, x, phi, kappa, e_log_psi = _kernel_problem(4)
        rng = np.random.default_rng(43)
        perm = rng.permutation(phi.shape[0])
        phi_perm = np.empty_like(phi)
        phi_perm[perm] = phi
        base = _kernel_outputs(
            kernel_cls, items, workers, x, phi, kappa, e_log_psi, **kwargs
        )
        relabelled = _kernel_outputs(
            kernel_cls, perm[items], workers, x, phi_perm, kappa, e_log_psi, **kwargs
        )
        np.testing.assert_allclose(relabelled[1][perm], base[1], atol=1e-10, rtol=0)
        np.testing.assert_allclose(relabelled[0], base[0], atol=1e-10, rtol=0)
        for a, b in zip(base[2:4], relabelled[2:4]):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        assert relabelled[4] == pytest.approx(base[4], abs=1e-9)

    @pytest.mark.parametrize("backend_kwargs", [{}, {"backend": "sharded", "n_shards": 3}])
    def test_consensus_invariant_under_relabelling(self, backend_kwargs):
        """End-to-end: relabelled data + equivariantly permuted state give
        the same trajectory and the same consensus predictions (mapped back).

        The seeded initialisation itself depends on row order, so the
        relabelled engine starts from the *permuted copy* of the original
        init state; from there every sweep must stay aligned.
        """
        rng = np.random.default_rng(5)
        items, workers, x, *_ = _kernel_problem(5, n=160, n_items=14, n_workers=9)
        n_items, n_workers, n_labels = 14, 9, x.shape[1]
        matrix = AnswerMatrix(n_items, n_workers, n_labels)
        relabelled = AnswerMatrix(n_items, n_workers, n_labels)
        item_perm = rng.permutation(n_items)
        worker_perm = rng.permutation(n_workers)
        seen = set()
        for i, u, row in zip(items, workers, x):
            if (int(i), int(u)) in seen:
                continue
            seen.add((int(i), int(u)))
            labels = np.flatnonzero(row)
            matrix.add(int(i), int(u), labels)
            relabelled.add(int(item_perm[i]), int(worker_perm[u]), labels)

        config = CPAConfig(seed=9, dtype="float64", **SMALL_CONFIG, **backend_kwargs)
        original = VariationalInference(config, matrix)
        permuted = VariationalInference(config, relabelled)
        permuted.state = original.state.permuted(
            item_permutation=item_perm, worker_permutation=worker_perm
        )
        for _ in range(4):
            original.sweep()
            permuted.sweep()
            np.testing.assert_allclose(
                permuted.state.kappa[worker_perm], original.state.kappa,
                atol=1e-10, rtol=0,
            )
            np.testing.assert_allclose(
                permuted.state.phi[item_perm], original.state.phi,
                atol=1e-10, rtol=0,
            )
            np.testing.assert_allclose(
                permuted.state.lam, original.state.lam, atol=1e-10, rtol=0
            )
        assert permuted.elbo() == pytest.approx(original.elbo(), abs=1e-8)

        from repro.core.prediction import predict_items

        consensus_a = estimate_consensus(original.state, config, matrix)
        consensus_b = estimate_consensus(permuted.state, config, relabelled)
        labels_a = {
            i: detail.labels
            for i, detail in predict_items(
                original.state, consensus_a, matrix, config
            ).items()
        }
        labels_b = {
            i: detail.labels
            for i, detail in predict_items(
                permuted.state, consensus_b, relabelled, config
            ).items()
        }
        assert {int(item_perm[i]): labels for i, labels in labels_a.items()} == labels_b

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_shard_merge_associative_commutative(self, seed, n_fragments):
        """Any order/bracketing of fragment merges agrees within roundoff."""
        rng = np.random.default_rng(seed)
        pieces = [
            (rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4)))
            for _ in range(n_fragments)
        ]
        counts, mass = merge_cell_statistics(pieces)
        # commutativity: random permutation of fragments
        order = rng.permutation(n_fragments)
        counts_p, mass_p = merge_cell_statistics([pieces[i] for i in order])
        np.testing.assert_allclose(counts_p, counts, atol=1e-12, rtol=0)
        np.testing.assert_allclose(mass_p, mass, atol=1e-12, rtol=0)
        # associativity: fold a random bracketing pairwise
        split = int(rng.integers(1, n_fragments)) if n_fragments > 1 else 1
        left = merge_cell_statistics(pieces[:split])
        right = merge_cell_statistics(pieces[split:]) if pieces[split:] else None
        nested = merge_cell_statistics([left, right] if right else [left])
        np.testing.assert_allclose(nested[0], counts, atol=1e-12, rtol=0)
        np.testing.assert_allclose(nested[1], mass, atol=1e-12, rtol=0)


class TestSerialisationProperties:
    @given(crowd_instance())
    @settings(max_examples=20, deadline=None)
    def test_dataset_roundtrip_preserves_everything(self, matrix):
        truth = GroundTruth(matrix.n_items, matrix.n_labels)
        for item in range(0, matrix.n_items, 2):
            truth.set(item, {item % matrix.n_labels})
        dataset = CrowdDataset(name="prop", answers=matrix, truth=truth)
        rebuilt = dataset_from_dict(dataset_to_dict(dataset))
        assert rebuilt.n_answers == dataset.n_answers
        for answer in dataset.answers.iter_answers():
            assert rebuilt.answers.get(answer.item, answer.worker) == answer.labels
        assert rebuilt.truth.known_items() == truth.known_items()


class TestMetricProperties:
    @given(crowd_instance(), st.integers(0, 50))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_perfect_prediction_scores_one(self, matrix, seed):
        from repro.evaluation.metrics import evaluate_predictions

        rng = np.random.default_rng(seed)
        truth = GroundTruth(matrix.n_items, matrix.n_labels)
        for item in range(matrix.n_items):
            size = int(rng.integers(1, matrix.n_labels + 1))
            truth.set(item, rng.choice(matrix.n_labels, size=size, replace=False))
        oracle = {item: truth.get(item) for item in range(matrix.n_items)}
        result = evaluate_predictions(oracle, truth)
        assert result.precision == pytest.approx(1.0)
        assert result.recall == pytest.approx(1.0)
