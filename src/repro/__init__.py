"""repro — a full reproduction of *Computing Crowd Consensus with Partial
Agreement* (Nguyen Quoc Viet Hung et al., ICDE 2018).

The package implements the paper's CPA model (Bayesian nonparametric
partial-agreement answer aggregation with worker communities and item
clusters), its batch/stochastic/parallel inference, the MV / EM / cBCC
baselines, a crowd-simulation substrate, and one experiment module per
table and figure of the evaluation section.

Quickstart::

    from repro import CPAModel, make_scenario, evaluate_predictions

    dataset = make_scenario("image", seed=7)
    model = CPAModel().fit(dataset)
    predictions = model.predict()
    print(evaluate_predictions(predictions, dataset.truth))

The root imports none of this eagerly: each public name is imported from
its defining module on first access (PEP 562), so a lane or a serving
daemon loads only the stack it runs (DESIGN.md §6 "Cold start").
"""

import importlib

from repro.errors import MissingAttributeError

__version__ = "1.0.0"

#: each public name and the module that defines it, imported on first access.
_EXPORTS = {
    "Aggregator": "repro.baselines.base",
    "AnswerMatrix": "repro.data.answers",
    "BCCAggregator": "repro.baselines.bcc",
    "CommunityBCCAggregator": "repro.baselines.cbcc",
    "CPAAggregator": "repro.baselines.ablations",
    "CPAConfig": "repro.core.config",
    "CPAModel": "repro.core.model",
    "CrowdDataset": "repro.data.dataset",
    "DawidSkeneAggregator": "repro.baselines.dawid_skene",
    "GroundTruth": "repro.data.dataset",
    "IpeirotisAggregator": "repro.baselines.ipeirotis",
    "MajorityVoteAggregator": "repro.baselines.majority",
    "NoClustersAggregator": "repro.baselines.ablations",
    "NoCommunitiesAggregator": "repro.baselines.ablations",
    "SimulationConfig": "repro.simulation.generator",
    "evaluate_predictions": "repro.evaluation.metrics",
    "generate_dataset": "repro.simulation.generator",
    "make_scenario": "repro.simulation.scenarios",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise MissingAttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
