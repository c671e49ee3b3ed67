"""Movie genre tagging with a custom dataset built through the public API.

Instead of a prebuilt scenario, this example assembles a
:class:`~repro.data.dataset.CrowdDataset` from scratch — the path an
adopter with their own crowdsourcing export would take — then runs CPA,
saves and reloads the dataset, and demonstrates prediction for *new*
answers with a fitted model (the paper's "non-grounded items" setting).

Run:  python examples/movie_genre_tagging.py
"""

import tempfile
from pathlib import Path

from repro import CPAModel, evaluate_predictions
from repro.data.answers import AnswerMatrix
from repro.data.dataset import CrowdDataset, GroundTruth
from repro.data.loaders import load_dataset_json, save_dataset_json
from repro.simulation import generate_dataset, SimulationConfig
from repro.workers.population import PopulationSpec

GENRES = [
    "action", "comedy", "drama", "horror", "sci-fi", "romance",
    "thriller", "documentary", "animation", "western", "musical", "crime",
]


def build_dataset() -> CrowdDataset:
    """Simulated genre-tagging export: 120 movies, 60 workers, 12 genres."""
    config = SimulationConfig(
        name="movie-genres",
        n_items=120,
        n_workers=60,
        n_labels=len(GENRES),
        n_label_clusters=8,
        n_item_clusters=12,
        labels_per_item_mean=2.0,
        max_labels_per_item=4,
        answers_per_item=6,
        correlation_strength=0.4,
        difficulty=0.2,
        worker_skew="skewed",
        population=PopulationSpec.from_alpha_beta_gamma(50, 30, 20),
    )
    dataset = generate_dataset(config, seed=21)
    return CrowdDataset(
        name=dataset.name,
        answers=dataset.answers,
        truth=dataset.truth,
        label_names=GENRES,
        worker_types=dataset.worker_types,
        item_clusters=dataset.item_clusters,
    )


def main() -> None:
    dataset = build_dataset()
    print(dataset)

    # --- persistence round-trip (the JSON interchange format) -------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "movies.json"
        save_dataset_json(dataset, path)
        dataset = load_dataset_json(path)
        print(f"round-tripped through {path.name}: {dataset.n_answers} answers")

    # --- fit and evaluate ---------------------------------------------------
    model = CPAModel().fit(dataset)
    result = evaluate_predictions(model.predict(), dataset.truth)
    print(f"\nCPA on genre tagging: precision={result.precision:.3f} "
          f"recall={result.recall:.3f}")

    item = dataset.answers.answered_items()[0]
    predicted = sorted(GENRES[g] for g in model.predict([item])[item])
    true = sorted(GENRES[g] for g in (dataset.truth.get(item) or ()))
    print(f"movie {item}: predicted {predicted}, truth {true}")

    # --- predict for brand-new answers with the fitted model ----------------
    # Two fresh workers tag movie 0 (indices beyond the training workers
    # are not allowed — reuse existing worker ids for the new ballots).
    new_answers = AnswerMatrix(dataset.n_items, dataset.n_workers, dataset.n_labels)
    first_truth = sorted(dataset.truth.get(0) or ())
    new_answers.add(0, 0, first_truth[:1])
    new_answers.add(0, 1, first_truth)
    fresh = model.predict([0], answers=new_answers)
    print(
        f"prediction for movie 0 from two fresh ballots: "
        f"{sorted(GENRES[g] for g in fresh[0])}"
    )


if __name__ == "__main__":
    main()
