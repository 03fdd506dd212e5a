"""Seeded fuzz over the library's constructors and ``fedexit.run`` on the seven-node tree.

A mutant gives one or two arguments of :class:`NodeSpec`, :class:`Topology`,
:class:`TrainConfig`, :func:`make_quadratic_task`, the built :class:`QuadraticTask`
(through ``dataclasses.replace``), :func:`build_sampling_matrix`,
:class:`SamplingMatrix`, :class:`ExitWeights` or :func:`fedexit.run` a bad
value: negative, zero, NaN, inf, a wrong length or shape, or an unknown name,
or, for a scalar field, a value of the wrong type or one no float holds (see
``WRONG_TYPES``). The chain then builds the tree, a quadratic task on it, the
sampling matrix, the exit weights and the training config, and trains a short
run. It must train to a finite iterate, or its first refusal must be a
:class:`FedexitError` whose message names an edited argument (by one of the
words in ``NAMES``). A mutant with a wrong-type edit, or an edit of the task's
``radius``, ``matrices`` or an array whose shape must match them, must be
refused. The MLP builders take the same wrong-type edits one at a time, and an
MLP task whose ``data`` lacks a client must be refused before it trains.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import fedexit
from conftest import chain_topology, seven_node_topology
from fedexit.errors import FedexitError, InvalidArgumentError
from fedexit.fedtrain import TrainConfig
from fedexit.mlp import make_classification_task, make_test_set
from fedexit.quadratic import make_quadratic_task
from fedexit.strategies import ExitWeights, SamplingMatrix, build_sampling_matrix
from fedexit.topology import NodeSpec, Topology

TREE = seven_node_topology()
K = 0.1
SAMPLING = build_sampling_matrix(TREE, K)
# A whole Fraction too large for a float reads as the equal int, which the
# fields' own rules then take or refuse.
INTS = (-1, 0, Fraction(10**400))
FLOATS = (-1.0, 0.0, math.nan, math.inf, -math.inf)
MUTANTS = 300
# Values of the wrong type for an integer, a real or a string field: each is
# what int(), float() or a comparison would take or cut without a word, or, for
# a real field, an integer float() refuses with a raw OverflowError.
HUGE = 10**400
WRONG_TYPES = {"integer": (1.5, True, "1", None), "real": (True, "1", None, HUGE),
               "string": (1.5, True, None)}

# The words by which a refusal may name each argument: its own name, or the
# word its messages use for it ("exit index", "client row", "node ids").
NAMES = {
    "parent": ("parent",), "exit": ("exit",), "arrival_rate": ("arrival_rate",),
    "budget": ("budget",), "dataset_size": ("dataset_size",),
    "nodes": ("node",), "num_exits": ("exit",),
    **{name: (name,) for name in ("rounds", "local_steps", "batch_size", "seed", "server_lr",
                                  "base_lr", "lr_schedule", "matrices", "radius", "centers",
                                  "noise_scale", "max_exit")},
    "clients": ("client",), "probs": ("prob", "client row", "sampling matrix has"),
    "weights": ("exit weights",),
    "topology": ("topology",), "task": ("task",), "sampling": ("sampling matrix",),
    "w_init": ("w_init",), "id": ("node id",), "k": ("k must", "k="),
    **{name: (name,) for name in ("dim", "center_scale", "input_dim", "hidden_dim",
                                  "num_classes", "teacher_gain", "total_samples")},
    "n": ("n must",), "data": ("no samples",),
}

# Each scalar field of the quadratic chain, by the kind of value it reads. A
# non-root node's parent may not be None (another root), and "1" is a valid
# id or parent, which other checks refuse.
TYPED_FIELDS = [
    *((f"NodeSpec {n.id}", field, kind) for n in TREE.nodes for field, kind in (
        ("id", "string"), ("exit", "integer"), ("arrival_rate", "real"),
        ("budget", "real"), ("dataset_size", "integer"))),
    ("Topology", "num_exits", "integer"),
    *(("TrainConfig", field, "integer")
      for field in ("rounds", "local_steps", "batch_size", "seed")),
    *(("TrainConfig", field, "real") for field in ("server_lr", "base_lr")),
    ("TrainConfig", "lr_schedule", "string"),
    ("make_quadratic_task", "dim", "integer"), ("make_quadratic_task", "seed", "integer"),
    ("make_quadratic_task", "center_scale", "real"), ("build_sampling_matrix", "k", "real"),
    ("QuadraticTask", "radius", "real"),
]
TYPED = [(target, field, value) for target, field, kind in TYPED_FIELDS
         for value in WRONG_TYPES[kind]]
TYPED += [(f"NodeSpec {n.id}", "parent", v) for n in TREE.nodes if n.parent for v in (1.5, True)]


def _with_entry(array: np.ndarray, index: tuple, value) -> np.ndarray:
    out = np.array(array, dtype=float)
    out[index] = value
    return out


# The quadratic task's radius, 0, negative, NaN or infinite, and its matrices,
# negated, zero, not finite, not symmetric, a client row or an exit short: none is a
# problem's, whose held matrices are finite, symmetric and positive definite.
def _matrix_edits() -> list[np.ndarray]:
    matrices = make_quadratic_task(TREE, dim=3, seed=1).matrices
    pair = (0, 0)  # the first client's exit 1: every client holds exit 1
    asymmetric = matrices.copy()
    asymmetric[pair + (0, 1)] += 0.5
    return [-matrices, np.zeros_like(matrices), _with_entry(matrices, pair + (1, 2), math.nan),
            _with_entry(matrices, pair + (2, 2), math.inf), asymmetric, matrices[:-1],
            matrices[:, :-1]]


# The task's other arrays, a client row, an exit or a coordinate short or one axis too many:
# each must match the shape of matrices.
def _array_edits() -> list[tuple[str, np.ndarray]]:
    task = make_quadratic_task(TREE, dim=3, seed=1)
    return [("centers", v) for v in (task.centers[:, :, :2], task.centers[:-1],
                                     task.centers[:, :-1], task.centers[..., None])] + [
        ("noise_scale", v) for v in (task.noise_scale[:-1], task.noise_scale[:, :-1],
                                     task.noise_scale[..., None])] + [
        ("max_exit", v) for v in (task.max_exit[:-1], task.max_exit[:, None])]


TASK_CONSTANTS = [("QuadraticTask", "radius", v) for v in FLOATS]
TASK_CONSTANTS += [("QuadraticTask", "matrices", v) for v in _matrix_edits()]
# A client row short matches a tree of one node fewer, whose task trains: the fuzz leaves it out.
TASK_CONSTANTS += [("QuadraticTask", name, v) for name, v in _array_edits()
                   if len(v) == len(TREE.nodes)]


def _without(nodes, node_id: str) -> tuple:
    return tuple(n for n in nodes if n.id != node_id)


def candidates() -> list[tuple[str, str, object]]:
    """Every single edit, as (target, argument, value)."""
    out = []
    node_values = {"parent": ("nowhere",), "exit": (-1, 0, 1, 2, 3, 4), "arrival_rate": FLOATS,
                   "budget": FLOATS, "dataset_size": INTS}
    for node in TREE.nodes:
        out += [(f"NodeSpec {node.id}", field, v)
                for field, values in node_values.items() for v in values]
    nodes = TREE.nodes
    out += [("Topology", "nodes", v) for v in [()] + [_without(nodes, n.id) for n in nodes]
            + [nodes + (n,) for n in nodes]]
    out += [("Topology", "num_exits", v) for v in (-1, 0, 2, 4)]
    out += [("TrainConfig", field, v) for field in ("rounds", "local_steps", "batch_size", "seed")
            for v in INTS]
    out += [("TrainConfig", field, v) for field in ("server_lr", "base_lr") for v in FLOATS]
    out += TASK_CONSTANTS
    out += [("TrainConfig", "lr_schedule", "unknown")]
    clients, probs = SAMPLING.clients, SAMPLING.probs
    out += [("SamplingMatrix", "clients", clients[:i] + ("nowhere",) + clients[i + 1:])
            for i in range(len(clients))]
    out += [("SamplingMatrix", "clients", clients[:i] + clients[i + 1:])
            for i in range(len(clients))]
    out += [("SamplingMatrix", "probs", _with_entry(probs, index, v))
            for index in np.ndindex(probs.shape) for v in FLOATS]
    out += [("SamplingMatrix", "probs", v)
            for v in (probs[:, :2], np.hstack([probs, np.zeros((7, 1))]), probs[0])]
    third = np.full(3, 1 / 3)
    out += [("ExitWeights", "weights", _with_entry(third, i, v)) for i in range(3) for v in FLOATS]
    out += [("ExitWeights", "weights", v) for v in (np.full(2, 1 / 2), np.full(4, 1 / 4),
                                                     np.full((3, 1), 1 / 3), np.array(1.0))]
    resized = [seven_node_topology(sizes={n.id: 5}) for n in nodes]
    out += [("run", "topology", v) for v in resized]
    out += [("run", "topology", Topology(_without(nodes, n.id), 3)) for n in nodes
            if n.exit == 1]
    out += [("run", "task", make_quadratic_task(tree, dim=3, seed=1)) for tree in resized]
    renormed = probs[:, :2] / probs[:, :2].sum(axis=1, keepdims=True)
    out += [("run", "sampling", SamplingMatrix(clients, v))
            for v in (renormed, np.hstack([probs, np.zeros((7, 1))]))]
    out += [("run", "sampling", build_sampling_matrix(chain_topology(), K))]
    out += [("run", "w_init", v) for v in (np.zeros(2), np.zeros(4), np.zeros((2, 3)),
                                           np.full(3, math.nan), np.full(3, math.inf),
                                           np.full(3, -math.inf))]
    out += [("run", "weights", ExitWeights(np.full(e, 1 / e))) for e in (2, 4)]
    return out + TYPED


def train(edits):
    """Build the chain with ``edits`` applied and train it; return the run's iterate and objective."""
    def edit(target: str, kwargs: dict) -> dict:
        return {**kwargs, **{arg: value for t, arg, value in edits if t == target}}

    nodes = tuple(NodeSpec(**edit(f"NodeSpec {n.id}", dataclasses.asdict(n))) for n in TREE.nodes)
    topology = Topology(**edit("Topology", {"nodes": nodes, "num_exits": TREE.num_exits}))
    task = make_quadratic_task(topology, **edit("make_quadratic_task", {"dim": 3, "seed": 1}))
    task = dataclasses.replace(task, **edit("QuadraticTask", {}))
    base = build_sampling_matrix(topology, **edit("build_sampling_matrix", {"k": K}))
    sampling = SamplingMatrix(**edit("SamplingMatrix", {"clients": base.clients,
                                                        "probs": base.probs}))
    weights = ExitWeights(**edit("ExitWeights", {"weights": np.full(3, 1 / 3)}))
    cfg = TrainConfig(**edit("TrainConfig", dict(rounds=3, local_steps=2, lr_schedule="theory")))
    return fedexit.run(**edit("run", dict(topology=topology, task=task, weights=weights,
                                          sampling=sampling, cfg=cfg, w_init=None)))


def mutants():
    """Every single edit, then ``MUTANTS`` seeded pairs of edits, the same on every call."""
    single = candidates()
    yield from ([e] for e in single)
    rng = random.Random(30)
    for _ in range(MUTANTS):
        yield rng.sample(single, 2)


def test_every_mutant_trains_or_is_refused_by_name():
    outcomes = {"trained": 0, "refused": 0}
    for edits in mutants():
        shown = [(target, argument, np.asarray(value, dtype=object).tolist()
                  if isinstance(value, np.ndarray) else value) for target, argument, value in edits]
        try:
            w, objective = train(edits)
        except FedexitError as exc:
            words = [word for _, argument, _ in edits for word in NAMES[argument]]
            assert any(word in str(exc) for word in words), (shown, str(exc))
            outcomes["refused"] += 1
        except Exception as exc:  # noqa: BLE001  any other exception is the finding
            raise AssertionError(f"{shown}: not a FedexitError") from exc
        else:
            # Of two edits of one argument, the later is the one applied.
            applied = {edit[:2]: edit for edit in edits}.values()
            assert not any(edit is bad for edit in applied for bad in TYPED + TASK_CONSTANTS), shown
            assert np.isfinite(w).all() and math.isfinite(objective), shown
            outcomes["trained"] += 1
    # Both outcomes occur, so the edits reach past the constructors' first checks.
    assert outcomes["trained"] > 0 and outcomes["refused"] > 0, outcomes


MLP_BUILD = {"partition": "equal", "total_samples": 70, "input_dim": 3, "hidden_dim": 4,
             "seed": 1}


@pytest.mark.parametrize("target, field, value", [
    *(("make_classification_task", field, value)
      for field in ("input_dim", "hidden_dim", "num_classes", "total_samples", "seed")
      for value in WRONG_TYPES["integer"]),
    *(("make_classification_task", "teacher_gain", value) for value in WRONG_TYPES["real"]),
    *(("make_test_set", field, value) for field in ("n", "seed")
      for value in WRONG_TYPES["integer"]),
], ids=lambda value: "10**400" if value is HUGE else None)
def test_mlp_builders_refuse_wrong_types_by_name(target, field, value):
    # seed=1.9 and True built the data of seed 1, and n=1.5 or a string size
    # ended in a raw TypeError.
    task = make_classification_task(TREE, **MLP_BUILD)
    with pytest.raises(FedexitError) as refused:
        if target == "make_test_set":
            make_test_set(task, **{"n": 5, "seed": 1, field: value})
        else:
            make_classification_task(TREE, **{**MLP_BUILD, field: value})
    assert any(word in str(refused.value) for word in NAMES[field]), str(refused.value)


@pytest.mark.parametrize("client", [n.id for n in TREE.nodes])
def test_mlp_task_without_a_client_is_refused_by_name(client):
    # A task whose data lacked a client ended in a raw KeyError from the round engine.
    task = make_classification_task(TREE, **MLP_BUILD)
    data = {c: d for c, d in task.data.items() if c != client}
    cfg = TrainConfig(rounds=1, local_steps=1, batch_size=4, base_lr=0.1)
    with pytest.raises(FedexitError) as refused:
        fedexit.run(TREE.with_dataset_sizes(task.sizes), dataclasses.replace(task, data=data),
                    ExitWeights(np.full(3, 1 / 3)), SAMPLING, cfg)
    assert any(word in str(refused.value) for word in NAMES["data"]), str(refused.value)


@pytest.mark.parametrize("field, value", _array_edits(),
                         ids=[f"{field}-{'x'.join(map(str, np.shape(value)))}"
                              for field, value in _array_edits()])
def test_quadratic_task_arrays_must_match_matrices(field, value):
    # centers cut to 2 of 3 coordinates trained into numpy's raw broadcast
    # ValueError, and a short max_exit or noise_scale ended in a raw IndexError.
    task = make_quadratic_task(TREE, dim=3, seed=1)
    with pytest.raises(InvalidArgumentError, match=f"^{field} must be shaped"):
        dataclasses.replace(task, **{field: value})
