"""The experiment config format: one JSON file read once into typed values.

A config describes a grid of (seed, partition, split, strategy) cells over one
inference tree. :func:`parse_config` checks the JSON structure and the grid's
own values. Each value the library holds is read by its owner, with the readers
of :mod:`fedexit.errors`: ``NodeSpec`` and ``Topology`` read the tree,
``TrainConfig`` the training section, the task's check the task section,
``build_sampling_matrix`` each ``k`` and ``rng.read_seed`` each seed. It plans
every serving point and builds every strategy's sampling matrix once, so a tree
that cannot carry the config is refused before any output exists. Every refusal
is a :class:`ConfigParseError`, or the typed error of the layer that refused the
value (for example ``InfeasibleSplitError``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, InvalidArgumentError, ZeroTrafficError
from .errors import integer, number, string
from .fedtrain import TrainConfig, stack_tables
from .mlp import MlpTask, check_classification_task, client_sizes
from .quadratic import QuadraticTask, check_quadratic_task
from .rng import read_seed
from .strategies import STRATEGY_NAMES, SamplingMatrix, build_sampling_matrix, exit_pools
from .topology import NodeSpec, RatePlan, Topology, budgets_for_split, compute_rate_plan

REFERENCE_FLOPS = (78_316_160.0, 694_682_880.0, 1_770_787_840.0)

# The most bytes one of the training engine's per-stack tables may take; a
# config whose estimate exceeds it is refused before any work (see the README).
TABLE_BYTES = 2**30


def array(what: str, value) -> list:
    """``value`` if it is a JSON array; a string, an object or a scalar iterates wrongly."""
    if isinstance(value, list):
        return value
    raise ConfigParseError(f"{what} must be a JSON array, got {value!r}")


def reject_unknown_keys(what: str, section, known) -> None:
    """Refuse a non-object or an unread key, so a misspelt one cannot fall back to a default."""
    if not isinstance(section, dict):
        raise ConfigParseError(f"{what} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigParseError(f"unknown {what} keys {unknown}; known: {sorted(known)}")


def _numbers(what: str, values) -> tuple[float, ...]:
    """A JSON array of numbers as a tuple of floats."""
    return tuple(number(what, v) for v in array(what, values))


# The keys from_node_dicts reads from a node dict; budgets are set per serving point.
NODE_KEYS = ("id", "parent", "exit", "arrival_rate", "dataset_size")


def from_node_dicts(entries: list[dict], num_exits: int | None = None) -> Topology:
    """Build a topology from a list of plain dicts with the keys in ``NODE_KEYS``.

    Raises:
        ConfigParseError: ``entries`` is not a list, or a node is not a dict
            or has a key outside ``NODE_KEYS``, so a misspelt one cannot fall
            back to its default.
        InvalidArgumentError: a value :class:`NodeSpec` or :class:`Topology` refuses.
        InvalidTopologyError: the nodes are no tree, as :class:`Topology` refuses.
    """
    nodes = []
    for d in array("topology nodes", entries):
        reject_unknown_keys(f"node {d.get('id')!r}" if isinstance(d, dict) else "node", d,
                            NODE_KEYS)
        parent = d.get("parent")
        nodes.append(NodeSpec(d["id"], None if parent == "" else parent, d["exit"],
                              **{k: d[k] for k in ("arrival_rate", "dataset_size") if k in d}))
    if num_exits is None:
        num_exits = max((n.exit for n in nodes), default=0)
    return Topology(nodes=tuple(nodes), num_exits=num_exits)


@dataclass(frozen=True)
class StrategySpec:
    name: str
    k: float
    sampling: SamplingMatrix  # built once, by parse_config


@dataclass(frozen=True)
class SplitSpec:
    """One serving point, planned by parse_config: a split, or the explicit budgets."""

    label: str  # "budgets" for the explicit budgets
    fractions: tuple[float, ...]  # normalized; for budgets, the plan's normalized rates
    plan: RatePlan


@dataclass(frozen=True)
class ExperimentConfig:
    topology: Topology
    splits: tuple[SplitSpec, ...]
    partitions: tuple[str, ...]
    total_samples: int  # 0 for a quadratic task, which takes its sizes from the tree
    test_samples: int
    task: dict  # the task's kind and the builder's parsed keyword arguments
    flops: tuple[float, ...]
    strategies: tuple[StrategySpec, ...]
    training: dict  # TrainConfig's parsed keyword arguments that the section sets
    seeds: tuple[int, ...]
    output_dir: str


def load_config(path: str | Path, seeds: list | None = None) -> ExperimentConfig:
    """Parse and validate a config file, as :func:`parse_config` reads ``seeds``; raise
    ConfigParseError on any defect."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # also an integer literal too long for int()
        raise ConfigParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw, seeds)


def _check_grid_axis(what: str, values) -> None:
    """Refuse an empty grid axis, which would run no cell, or a repeated value.

    Reports are named by seed, partition, split label, strategy and k, so a
    repeated value would write one cell's report over another's.
    """
    if not values:
        raise ConfigParseError(f"need at least one {what}")
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigParseError(f"duplicate {what} {value!r}")
        seen.add(value)


def parse_seeds(values) -> tuple[int, ...]:
    """The seed axis: seeds as :func:`rng.read_seed` reads them, at least one, none repeated."""
    seeds = tuple(read_seed("seed", s) for s in array("seeds", values))
    _check_grid_axis("seed", seeds)
    return seeds


def parse_config(raw: dict, seeds: list | None = None) -> ExperimentConfig:
    """``raw`` as typed values. ``seeds``, if given, replaces the seed axis once that is
    checked, so the grid runs, and its tables are sized, at those seeds only."""
    try:
        reject_unknown_keys(
            "config",
            raw,
            ("topology", "serving", "data", "task", "strategies", "training", "seeds",
             "flops", "output_dir"),
        )
        reject_unknown_keys("topology", raw["topology"], ("nodes", "num_exits"))
        topo = from_node_dicts(raw["topology"]["nodes"], raw["topology"].get("num_exits"))
        serving = raw["serving"]
        reject_unknown_keys("serving", serving, ("splits", "budgets"))
        if ("splits" in serving) == ("budgets" in serving):
            raise ConfigParseError("serving needs exactly one of 'splits' or 'budgets'")
        if not topo.total_arrival > 0:
            raise ZeroTrafficError("no node has a positive arrival rate, so nothing is served")
        splits = []
        if "splits" in serving:
            for entry in array("serving splits", serving["splits"]):
                vec = np.asarray(_numbers("split", entry))  # budgets_for_split checks its length
                if not (np.isfinite(vec).all() and np.all(vec >= 0) and vec.sum() > 0):
                    raise ConfigParseError(f"bad split {entry}")
                fractions = vec / vec.sum()
                plan = compute_rate_plan(topo.with_budgets(budgets_for_split(topo, fractions)))
                label = "-".join(f"{v:g}" for v in vec)
                splits.append(SplitSpec(label, tuple(fractions), plan))
            _check_grid_axis("split", [s.label for s in splits])
        else:
            reject_unknown_keys("serving budgets", serving["budgets"], topo.by_id)
            plan = compute_rate_plan(topo.with_budgets(serving["budgets"]))
            splits.append(SplitSpec("budgets", tuple(plan.lambda_exit_normalized), plan))

        task = raw["task"]
        has_kind = isinstance(task, dict) and "kind" in task
        kind = string("task kind", task["kind"]) if has_kind else None
        if kind not in TASK_KEYS:
            raise ConfigParseError(f"task needs a kind in {sorted(TASK_KEYS)}, got {task!r}")
        reject_unknown_keys(f"{kind} task", task, ("kind", *TASK_KEYS[kind]))
        task_args = {key: task.get(key, default) for key, default in TASK_KEYS[kind].items()}
        for key in [key for key in ("eig_range", "sigma_range") if key in task]:  # JSON arrays
            task_args[key] = _numbers(f"task {key}", task[key])
        check = check_quadratic_task if kind == "quadratic" else check_classification_task
        try:
            task_args = dict(zip(TASK_KEYS[kind], check(**task_args)))
        except InvalidArgumentError as exc:
            raise ConfigParseError(f"bad task section: {exc}") from exc
        training, train_cfg = _training_args(raw["training"], kind)

        if kind == "quadratic":
            if "data" in raw:
                raise ConfigParseError(
                    "a quadratic task reads no data section: its sizes come from the nodes"
                )
            partitions, samples = ("none",), (0, 0)
        else:
            data = raw["data"]
            reject_unknown_keys("data", data, ("partitions", "total_samples", "test_samples"))
            partitions = tuple(
                string("partition", name) for name in array("partitions", data["partitions"])
            )
            _check_grid_axis("partition", partitions)
            samples = [integer(f"data {key}", data[key], least=1)
                       for key in ("total_samples", "test_samples")]

        strategies = []
        for s in array("strategies", raw["strategies"]):
            reject_unknown_keys("strategy", s, ("name", "k"))
            name = string("strategy name", s["name"])
            if name not in STRATEGY_NAMES:
                raise ConfigParseError(f"unknown strategy {name!r}")
            k = number("strategy k", s.get("k", 0.0))
            # build_sampling_matrix may raise InvalidKError.
            strategies.append(StrategySpec(name, k, build_sampling_matrix(topo, k)))
            if kind == "quadratic":  # its clients hold the nodes' dataset_size
                exit_pools(topo, strategies[-1].sampling)
        _check_grid_axis("strategy", [f"{s.name} with k={s.k:g}" for s in strategies])

        file_seeds = parse_seeds(raw["seeds"])
        seeds = file_seeds if seeds is None else parse_seeds(seeds)

        flops = _numbers("flops", raw["flops"]) if "flops" in raw else REFERENCE_FLOPS
        if len(flops) != topo.num_exits:
            raise ConfigParseError("need one flops value per exit")
        if not all(0 < f < np.inf for f in flops):
            raise ConfigParseError(f"flops must be finite and > 0, got {list(flops)}")

        groups = len(seeds) * len(partitions)  # each (seed, partition) group builds a task
        # A stream set is a group's task under one sampling matrix.
        sets = groups * len({s.sampling.probs.tobytes() for s in strategies})
        _check_table_sizes(train_cfg, task_args, kind, topo, groups * len(splits) * len(strategies),
                           sets, groups, samples)
        for name in partitions if kind == "mlp" else ():
            empty = [c for c, n in sorted(client_sizes(topo, name, samples[0]).items()) if not n]
            if empty:
                raise ConfigParseError(f"data total_samples {samples[0]} leaves {', '.join(empty)} "
                                       f"with no training samples under partition {name!r}")

        return ExperimentConfig(
            topology=topo,
            splits=tuple(splits),
            partitions=partitions,
            total_samples=samples[0],
            test_samples=samples[1],
            task={"kind": kind, **task_args},
            flops=flops,
            strategies=tuple(strategies),
            training=training,
            seeds=seeds,
            output_dir=string("output_dir", raw.get("output_dir", "results")),
        )
    except KeyError as exc:
        raise ConfigParseError(f"missing key {exc.args[0]!r}") from exc
    except InvalidArgumentError as exc:
        raise ConfigParseError(str(exc)) from exc


# Per task kind, the default of each key of the task section; each key is a
# keyword argument of the kind's task builder, whose check reads its value.
TASK_KEYS = {
    "quadratic": {"dim": 4, "eig_range": (1.0, 2.0), "sigma_range": (0.0, 0.5),
                  "center_scale": 1.0},
    "mlp": {"input_dim": 16, "hidden_dim": 32, "num_classes": 3, "teacher_gain": 1.5},
}

# The keys of the training section: TrainConfig's fields but the seed, which each
# cell takes from the seed axis.
TRAINING_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")


def _training_args(training: dict, kind: str) -> tuple[dict, TrainConfig]:
    """``TrainConfig``'s keyword arguments that the training section sets, read once.

    Only the values the section sets are kept, as ``TrainConfig`` reads them:
    it owns every default and value rule, and sizes the tables.

    Raises:
        ConfigParseError: a key is unknown, ``rounds`` or ``local_steps`` is
            missing, a value is refused by ``TrainConfig``, the theory
            schedule is given a ``base_lr`` it never reads, or an mlp task
            asks for the theory schedule, which needs curvature constants an
            mlp does not have.
    """
    reject_unknown_keys("training", training, TRAINING_KEYS)
    for key in ("rounds", "local_steps"):
        if key not in training:
            raise ConfigParseError(f"training needs {key!r}")
    if training.get("lr_schedule") == "theory":
        if kind == "mlp":
            raise ConfigParseError("the theory schedule needs a quadratic task's mu/smoothness")
        if "base_lr" in training:
            raise ConfigParseError("the theory schedule reads no base_lr; its steps follow mu")
    try:
        cfg = TrainConfig(**training)
    except InvalidArgumentError as exc:
        raise ConfigParseError(f"cannot build the training config: {exc}") from exc
    return {key: getattr(cfg, key) for key in training}, cfg


def _gib(nbytes: int) -> str:
    """``nbytes`` in GiB for a message; a size past a float's range is only bounded."""
    return f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000 else "more than 2**970 GiB"


def _check_table_sizes(cfg: TrainConfig, task: dict, kind: str, topo: Topology, jobs: int,
                       sets: int, groups: int, samples: tuple[int, int]) -> None:
    """Refuse a table of the grid over :data:`TABLE_BYTES`, as its owner states it, naming keys."""
    task_cls, n = QuadraticTask if kind == "quadratic" else MlpTask, len(topo.client_ids)
    args = dict(task, num_exits=topo.num_exits, total_samples=samples[0], test_samples=samples[1])
    for what, nbytes, keys in (*stack_tables(task_cls, cfg, n, jobs, sets, **args),
                               *task_cls.task_tables(n, groups, **args)):
        if nbytes > TABLE_BYTES:
            raise ConfigParseError(f"{keys}: {what} would take {_gib(nbytes)}, over the "
                                   f"{_gib(TABLE_BYTES)} one training table may use")
