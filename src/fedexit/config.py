"""The experiment config format: one JSON file read once into typed values.

A config describes a grid of (seed, partition, split, strategy) cells over one
inference tree. :func:`parse_config` reads every value through one of the
readers below, plans every serving point and builds every strategy's sampling
matrix once, so a tree that cannot carry the config is refused before any
output exists. Every refusal is a :class:`ConfigParseError`, or the typed
error of the layer that refused the value (for example ``InfeasibleSplitError``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, ZeroTrafficError
from .fedtrain import TrainConfig
from .mlp import check_classification_task, layer_shares
from .quadratic import check_quadratic_task
from .strategies import STRATEGY_NAMES, SamplingMatrix, build_sampling_matrix
from .topology import NodeSpec, RatePlan, Topology, budgets_for_split, compute_rate_plan

REFERENCE_FLOPS = (78_316_160.0, 694_682_880.0, 1_770_787_840.0)


# Readers of JSON config values. Each refuses what a bare int(), float() or
# iteration would silently convert: a bool, a string, a fractional integer.
def integer(what: str, value) -> int:
    """``value`` as an int; refuse a bool or a fractional part, which ``int()`` would cut."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ConfigParseError(f"{what} must be an integer, got {value!r}")


def number(what: str, value) -> float:
    """``value`` as a float; refuse a bool or a string, which ``float()`` would take."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigParseError(f"{what} must be a number, got {value!r}")


def array(what: str, value) -> list:
    """``value`` if it is a JSON array; a string, an object or a scalar iterates wrongly."""
    if isinstance(value, list):
        return value
    raise ConfigParseError(f"{what} must be a JSON array, got {value!r}")


def string(what: str, value) -> str:
    """``value`` if it is a JSON string; ``str()`` would turn a list or a number into a name."""
    if isinstance(value, str):
        return value
    raise ConfigParseError(f"{what} must be a string, got {value!r}")


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
        ConfigParseError: ``entries`` is not a list, a node is not a dict or
            has a key outside ``NODE_KEYS``, so a misspelt one cannot fall
            back to its default, ``id`` or a non-null ``parent`` is not a
            string, an integer field (``exit``, ``dataset_size``,
            ``num_exits``) is not whole, or ``arrival_rate`` is not a number.
        ValueError: a value :class:`NodeSpec` refuses.
    """
    nodes = []
    for d in array("topology nodes", entries):
        reject_unknown_keys(f"node {d.get('id')!r}" if isinstance(d, dict) else "node", d,
                            NODE_KEYS)
        node = string("node id", d["id"])
        parent = d.get("parent")
        nodes.append(NodeSpec(
            id=node,
            parent=None if parent in (None, "") else string(f"node {node}: parent", parent),
            exit=integer(f"node {node}: exit", d["exit"]),
            arrival_rate=number(f"node {node}: arrival_rate", d.get("arrival_rate", 0.0)),
            dataset_size=integer(f"node {node}: dataset_size", d.get("dataset_size", 0)),
        ))
    if num_exits is None:
        num_exits = max(n.exit for n in nodes)
    return Topology(nodes=tuple(nodes), num_exits=integer("num_exits", num_exits))


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


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigParseError on any defect."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


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
    """The seed axis: whole numbers >= 0, at least one, none repeated."""
    seeds = tuple(integer("seed", s) for s in array("seeds", values))
    _check_grid_axis("seed", seeds)
    if min(seeds) < 0:
        raise ConfigParseError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def parse_config(raw: dict) -> ExperimentConfig:
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
                vec = np.asarray(_numbers("split", entry))
                if vec.shape != (topo.num_exits,):
                    raise ConfigParseError(
                        f"split {entry} needs one entry per exit ({topo.num_exits})"
                    )
                if not (np.isfinite(vec).all() and np.all(vec >= 0) and vec.sum() > 0):
                    raise ConfigParseError(f"bad split {entry}")
                fractions = vec / vec.sum()
                plan = compute_rate_plan(topo.with_budgets(budgets_for_split(topo, fractions)))
                label = "-".join(f"{v:g}" for v in vec)
                splits.append(SplitSpec(label, tuple(fractions), plan))
            _check_grid_axis("split", [s.label for s in splits])
        else:
            reject_unknown_keys("serving budgets", serving["budgets"], topo.by_id)
            budgets = {k: number(f"budget of {k}", v) for k, v in serving["budgets"].items()}
            for node, value in budgets.items():
                if not value >= 0:
                    raise ConfigParseError(f"budget of {node} must be >= 0, got {value}")
            plan = compute_rate_plan(topo.with_budgets(budgets))
            splits.append(SplitSpec("budgets", tuple(plan.lambda_exit_normalized), plan))

        task = raw["task"]
        has_kind = isinstance(task, dict) and "kind" in task
        kind = string("task kind", task["kind"]) if has_kind else None
        if kind not in TASK_KEYS:
            raise ConfigParseError(f"task needs a kind in {sorted(TASK_KEYS)}, got {task!r}")
        reject_unknown_keys(f"{kind} task", task, ("kind", *TASK_KEYS[kind]))
        task_args = {key: read(f"task {key}", task.get(key, default))
                     for key, (read, default) in TASK_KEYS[kind].items()}
        check = check_quadratic_task if kind == "quadratic" else check_classification_task
        try:
            check(**task_args)
        except ValueError as exc:
            raise ConfigParseError(f"bad task section: {exc}") from exc
        training = _training_args(raw["training"], kind)

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
            for name in partitions:
                layer_shares(name, topo.num_exits)
            samples = []
            for key in ("total_samples", "test_samples"):
                samples.append(integer(f"data {key}", data[key]))
                if samples[-1] < 1:
                    raise ConfigParseError(f"data {key} must be >= 1, got {samples[-1]}")

        strategies = []
        for s in array("strategies", raw["strategies"]):
            reject_unknown_keys("strategy", s, ("name", "k"))
            name = string("strategy name", s["name"])
            if name not in STRATEGY_NAMES:
                raise ConfigParseError(f"unknown strategy {name!r}")
            k = number("strategy k", s.get("k", 0.0))
            # build_sampling_matrix may raise InvalidKError.
            strategies.append(StrategySpec(name, k, build_sampling_matrix(topo, k)))
        _check_grid_axis("strategy", [f"{s.name} with k={s.k:g}" for s in strategies])

        seeds = parse_seeds(raw["seeds"])

        flops = _numbers("flops", raw["flops"]) if "flops" in raw else REFERENCE_FLOPS
        if len(flops) != topo.num_exits:
            raise ConfigParseError("need one flops value per exit")
        if not all(0 < f < np.inf for f in flops):
            raise ConfigParseError(f"flops must be finite and > 0, got {list(flops)}")

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
    except TypeError as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


# Per task kind, the reader and default of each key of the task section; each
# key is a keyword argument of the kind's task builder.
TASK_KEYS = {
    "quadratic": {"dim": (integer, 4), "eig_range": (_numbers, [1.0, 2.0]),
                  "sigma_range": (_numbers, [0.0, 0.5]), "center_scale": (number, 1.0)},
    "mlp": {"input_dim": (integer, 16), "hidden_dim": (integer, 32),
            "num_classes": (integer, 3), "teacher_gain": (number, 1.5)},
}

# The reader of each key of the training section: TrainConfig's fields but the
# seed and the curvature constants and radius, which a quadratic task sets.
TRAINING_KEYS = {"rounds": integer, "local_steps": integer, "batch_size": integer,
                 "server_lr": number, "lr_schedule": string, "base_lr": number}


def _training_args(training: dict, kind: str) -> dict:
    """``TrainConfig``'s keyword arguments that the training section sets, read once.

    Only the values the section sets are kept: ``TrainConfig`` owns every
    default. They are checked by building a ``TrainConfig`` that is not
    kept. A quadratic task trains with its own ``mu``, ``smoothness`` and
    feasible radius, known only once the task is built, so stand-ins that
    ``TrainConfig`` accepts fill those here.

    Raises:
        ConfigParseError: a key is unknown, ``rounds`` or ``local_steps`` is
            missing, an integer field has a fractional part, a rate is not a
            number, a value is refused by ``TrainConfig``, the theory
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
    args = {key: TRAINING_KEYS[key](key, value) for key, value in training.items()}
    stand_ins = dict(mu=1.0, smoothness=1.0, projection_radius=1.0) if kind == "quadratic" else {}
    try:
        TrainConfig(**args, **stand_ins)
    except ValueError as exc:
        raise ConfigParseError(f"cannot build the training config: {exc}") from exc
    return args
