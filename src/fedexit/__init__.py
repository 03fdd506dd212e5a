"""Federated training and serving simulation for early-exit models on
hierarchical inference trees.

The package splits into:

- :mod:`fedexit.topology`: inference trees, transmission budgets, rate plans.
- :mod:`fedexit.strategies`: aggregation weight strategies and exit sampling.
- :mod:`fedexit.quadratic` / :mod:`fedexit.mlp`: the two task backends.
- :mod:`fedexit.fedtrain`: the federated round loop.
- :mod:`fedexit.theory`: bound computations and diagnostics.
- :mod:`fedexit.serving`: confidence-ranked serving simulation.
- :mod:`fedexit.config`: the JSON experiment config, read once into typed values.
- :mod:`fedexit.experiment` / :mod:`fedexit.cli`: the experiment grid runner.
"""

from __future__ import annotations

from .fedtrain import TrainConfig, run
from .quadratic import QuadraticTask, make_quadratic_task
from .mlp import MlpTask, make_classification_task, make_test_set
from .strategies import (
    ExitWeights,
    SamplingMatrix,
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    flops_prop,
    gen_error_adjusted,
)
from .topology import (
    NodeSpec,
    RatePlan,
    Topology,
    brute_force_rate_plan,
    budgets_for_split,
    compute_rate_plan,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ExitWeights",
    "MlpTask",
    "NodeSpec",
    "QuadraticTask",
    "RatePlan",
    "SamplingMatrix",
    "Topology",
    "TrainConfig",
    "__version__",
    "brute_force_rate_plan",
    "budgets_for_split",
    "build_sampling_matrix",
    "compute_rate_plan",
    "equal_weight",
    "exit_pools",
    "flops_prop",
    "gen_error_adjusted",
    "make_classification_task",
    "make_quadratic_task",
    "make_test_set",
    "run",
    "validate",
]
