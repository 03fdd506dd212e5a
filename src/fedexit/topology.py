"""Rooted inference trees and request-flow accounting.

A hierarchy of nodes forwards inference requests toward more capable
ancestors. Each node serves part of its incoming request stream with its own
exit and forwards the remainder to its parent, capped by a transmission
budget. The rate plan computed here fixes, for every node, its transmit and
serve rates and, for every exit, the total rate it answers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import (
    CycleError,
    ExitOrderError,
    InfeasibleSplitError,
    InvalidArgumentError,
    InvalidTopologyError,
    MissingExitError,
    MultipleRootsError,
    NonConvergenceError,
    ZeroTrafficError,
)
from .errors import integer, number, read_fields, string

FLOW_TOL = 1e-12
_EXIT, _SIZE = partial(integer, least=1), partial(integer, least=0)  # NodeSpec's readers


def on_simplex(v: np.ndarray, tol: float, sign_tol: float = 0.0) -> bool:
    """Whether ``v`` is >= ``-sign_tol`` and sums to 1 within ``tol``; a NaN or inf entry fails."""
    return bool(np.all(v >= -sign_tol) and abs(v.sum() - 1.0) <= tol)


@dataclass(frozen=True)
class NodeSpec:
    """One node: its place in the tree, its exit, and its local quantities.

    ``arrival_rate`` is the rate of requests arriving directly at the node,
    ``budget`` caps the rate it may forward to its parent, and
    ``dataset_size`` is the number of local training samples.
    """

    id: str
    parent: str | None
    exit: int
    arrival_rate: float = 0.0
    budget: float = 0.0
    dataset_size: int = 0

    def __post_init__(self) -> None:
        at = f"node {string('node id', self.id)}: "
        read_fields(self, at, exit=_EXIT, arrival_rate=number, budget=number, dataset_size=_SIZE)
        if self.parent is not None:
            string(at + "parent", self.parent)
        if not 0 <= self.arrival_rate < math.inf:
            raise InvalidArgumentError(f"{at}arrival_rate must be finite and >= 0, "
                                       f"got {self.arrival_rate}")
        if not self.budget >= 0:
            raise InvalidArgumentError(f"{at}budget must be >= 0, got {self.budget}")
        if self.dataset_size >= 2**63:  # as TrainConfig counts; exit_pools sums sizes as floats
            raise InvalidArgumentError(f"{at}dataset_size must be below 2**63")


@dataclass(frozen=True)
class Topology:
    """A rooted tree of nodes whose exits rise strictly toward the root, checked when built.

    Raises:
        InvalidTopologyError: no nodes, duplicate ids, an unknown parent, or
            an exit outside 1..num_exits.
        MultipleRootsError: more than one parentless node.
        CycleError: no root, or nodes unreachable from the root.
        ExitOrderError: a child's exit is not strictly below its parent's.
        MissingExitError: some exit in 1..num_exits has no node.
    """

    nodes: tuple[NodeSpec, ...]
    num_exits: int

    def __post_init__(self) -> None:
        read_fields(self, "", num_exits=integer)
        if not self.nodes:
            raise InvalidTopologyError("topology nodes is empty")
        if len(self.by_id) != len(self.nodes):
            raise InvalidTopologyError("duplicate node ids")
        for n in self.nodes:
            if n.parent is not None and n.parent not in self.by_id:
                raise InvalidTopologyError(f"node {n.id}: unknown parent {n.parent}")
        roots = sorted(n.id for n in self.nodes if n.parent is None)
        if len(roots) > 1:
            raise MultipleRootsError(f"multiple roots: {roots}")
        if not roots:
            raise CycleError("no root: every node has a parent")

        for n in self.nodes:
            if not 1 <= n.exit <= self.num_exits:
                raise InvalidTopologyError(
                    f"node {n.id}: exit {n.exit} outside 1..{self.num_exits}"
                )

        # Every node has one parent, so a node the walk from the root misses
        # sits on a cycle.
        missing = sorted(set(self.by_id) - set(self.post_order))
        if missing:
            raise CycleError(f"nodes unreachable from root (cycle): {missing}")

        for n in self.nodes:
            if n.parent is not None:
                parent_exit = self.by_id[n.parent].exit
                if n.exit >= parent_exit:
                    raise ExitOrderError(
                        f"node {n.id} (exit {n.exit}) under {n.parent} (exit {parent_exit})"
                    )

        assigned = {n.exit for n in self.nodes}
        for e in range(1, self.num_exits + 1):
            if e not in assigned:
                raise MissingExitError(f"exit {e} has no node")

    @cached_property
    def by_id(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                kids[n.parent].append(n.id)
        return {i: tuple(sorted(c)) for i, c in kids.items()}

    @cached_property
    def root(self) -> str:
        return next(n.id for n in self.nodes if n.parent is None)

    @cached_property
    def post_order(self) -> tuple[str, ...]:
        """Node ids with every child before its parent (iterative DFS)."""
        order: list[str] = []
        stack: list[tuple[str, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for child in reversed(self.children[node]):
                    stack.append((child, False))
        return tuple(order)

    @cached_property
    def depth(self) -> dict[str, int]:
        out = {self.root: 0}
        for node in reversed(self.post_order):
            for child in self.children[node]:
                out[child] = out[node] + 1
        return out

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(i for i, c in self.children.items() if not c))

    @cached_property
    def client_ids(self) -> tuple[str, ...]:
        return tuple(sorted(n.id for n in self.nodes))

    @cached_property
    def layers(self) -> dict[int, tuple[str, ...]]:
        """Node ids grouped by exit index."""
        out: dict[int, list[str]] = {}
        for n in self.nodes:
            out.setdefault(n.exit, []).append(n.id)
        return {e: tuple(sorted(ids)) for e, ids in out.items()}

    def exit_of(self, node_id: str) -> int:
        return self.by_id[node_id].exit

    def with_budgets(self, budgets: dict[str, float]) -> "Topology":
        """This tree with each node named in ``budgets`` given that budget, as NodeSpec reads it."""
        return self._with_each("budget", budgets)

    def with_dataset_sizes(self, sizes: dict[str, int]) -> "Topology":
        """This tree with each node named in ``sizes`` given that size, as NodeSpec reads it."""
        return self._with_each("dataset_size", sizes)

    def _with_each(self, field: str, values: dict) -> "Topology":
        unknown = sorted(set(values) - set(self.by_id))
        if unknown:
            raise InvalidTopologyError(f"{field} given for ids that name no node: {unknown}")
        nodes = tuple(
            replace(n, **{field: values[n.id]}) if n.id in values else n for n in self.nodes
        )
        return Topology(nodes=nodes, num_exits=self.num_exits)

    @property
    def total_arrival(self) -> float:
        return float(sum(n.arrival_rate for n in self.nodes))


@dataclass(frozen=True)
class RatePlan:
    """Per-node transmit/serve rates and fractions, plus per-exit serving rates."""

    transmit: dict[str, float]
    serve: dict[str, float]
    fraction: dict[str, float]
    lambda_exit: np.ndarray

    @property
    def total_rate(self) -> float:
        return float(self.lambda_exit.sum())

    @property
    def lambda_exit_normalized(self) -> np.ndarray:
        total = self.lambda_exit.sum()
        if total == 0:
            return np.zeros_like(self.lambda_exit)
        return self.lambda_exit / total

    def to_dict(self) -> dict:
        return {
            "transmit": dict(self.transmit),
            "serve": dict(self.serve),
            "fraction": dict(self.fraction),
            "lambda_exit": [float(v) for v in self.lambda_exit],
            "lambda_exit_normalized": [float(v) for v in self.lambda_exit_normalized],
        }


def _flows(topology: Topology, forward) -> RatePlan:
    """Walk children before parents and build the rate plan.

    A node's inflow is its own arrivals plus everything its children forward.
    ``forward(node, inflow)`` returns what the node sends up, and the node
    serves the rest. It is asked of the root too, which may raise, but the
    root has no parent and forwards nothing.
    """
    transmit: dict[str, float] = {}
    serve: dict[str, float] = {}
    fraction: dict[str, float] = {}
    lam = np.zeros(topology.num_exits)
    for node_id in topology.post_order:
        node = topology.by_id[node_id]
        inflow = node.arrival_rate + sum(transmit[c] for c in topology.children[node_id])
        out = forward(node, inflow)
        if node_id == topology.root:
            out = 0.0
        transmit[node_id] = out
        serve[node_id] = inflow - out
        fraction[node_id] = (inflow - out) / inflow if inflow > 0 else 1.0
        lam[node.exit - 1] += serve[node_id]
    return RatePlan(transmit=transmit, serve=serve, fraction=fraction, lambda_exit=lam)


def compute_rate_plan(topology: Topology) -> RatePlan:
    """Fill transmit rates bottom-up, saturating each budget, then derive the rest.

    Children are processed before parents, so each node's inflow (its own
    arrivals plus everything its children forward) is known when its transmit
    rate is capped at its budget. The root forwards nothing.
    """
    return _flows(topology, lambda node, inflow: min(node.budget, inflow))


def brute_force_rate_plan(
    topology: Topology, tol: float = 1e-13, max_iter: int = 100_000
) -> RatePlan:
    """Independent check: iterate greedy forwarding to a fixed point.

    Starting from zero flows, every node repeatedly recomputes how much it
    would forward given its children's current flows, until no flow moves by
    more than ``tol``. Agrees with :func:`compute_rate_plan`.
    """
    transmit = {n.id: 0.0 for n in topology.nodes}
    for _ in range(max_iter):
        delta = 0.0
        new = {}
        for node in topology.nodes:
            inflow = node.arrival_rate + sum(transmit[c] for c in topology.children[node.id])
            value = 0.0 if node.id == topology.root else min(node.budget, inflow)
            new[node.id] = value
            delta = max(delta, abs(value - transmit[node.id]))
        transmit = new
        if delta < tol:
            return _flows(topology, lambda node, inflow: transmit[node.id])
    raise NonConvergenceError(f"flow iteration did not settle within {max_iter} sweeps")


def _require_layered(topology: Topology) -> None:
    """Check exit == depth class and arrivals only on leaves."""
    e_max = topology.num_exits
    for n in topology.nodes:
        expected_exit = e_max - topology.depth[n.id]
        if n.exit != expected_exit:
            raise InvalidTopologyError(
                f"node {n.id}: exit {n.exit} does not match its depth layer {expected_exit}"
            )
    leaves = set(topology.leaves)
    for n in topology.nodes:
        if n.id not in leaves and n.arrival_rate > 0:
            raise InvalidTopologyError(
                f"node {n.id}: arrivals must enter at leaves only"
            )


def budgets_for_split(topology: Topology, split) -> dict[str, float]:
    """Invert a per-exit serving split into per-node transmission budgets.

    Only layered trees (exit index == depth class, arrivals on leaves) are
    supported. Within a layer the served requests are divided equally among
    its nodes. The returned budgets make :func:`compute_rate_plan` realize
    the requested normalized split.

    Raises:
        InfeasibleSplitError: some node would have to serve more than reaches it.
        ZeroTrafficError: the tree has no arrivals.
        InvalidArgumentError: the split is not one finite, nonnegative entry per exit summing to 1.
    """
    split = np.asarray(split, dtype=float)
    if split.ndim != 1 or split.size != topology.num_exits:
        raise InvalidArgumentError(
            f"split needs one entry per exit ({topology.num_exits}), got {split.size}")
    if not on_simplex(split, 1e-9):
        raise InvalidArgumentError("split entries must be finite, nonnegative and sum to 1")

    _require_layered(topology)
    total = topology.total_arrival
    if total <= 0:
        raise ZeroTrafficError("topology has no arrivals")
    tol = 1e-9 * max(1.0, total)

    def forward(node: NodeSpec, inflow: float) -> float:
        target = split[node.exit - 1] * total / len(topology.layers[node.exit])
        out = inflow - target
        if out < -tol:
            raise InfeasibleSplitError(
                f"node {node.id}: asked to serve {target:.6g} but receives {inflow:.6g}"
            )
        return max(out, 0.0)

    return _flows(topology, forward).transmit


def grid_search_p1(
    topology: Topology, exit_losses, step: float
) -> tuple[dict[str, float], float]:
    """Exhaustively minimize the served-loss objective over serving fractions.

    A test oracle for small trees: every non-root node's fraction ranges over
    a regular grid, flows follow from the fractions, plans violating any
    budget are discarded, and the loss-weighted serving objective
    ``sum_i loss[exit_i] * serve_i`` is minimized. The root always serves all
    it receives.
    """
    if len(topology.nodes) > 4:
        raise InvalidArgumentError("grid search oracle is limited to 4 nodes")
    if not 0 < step <= 0.2:
        raise InvalidArgumentError("step must lie in (0, 0.2]")
    losses = np.asarray(exit_losses, dtype=float)
    if losses.size != topology.num_exits:
        raise InvalidArgumentError("need one loss per exit")

    free = [n for n in topology.post_order if n != topology.root]
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    best_obj = np.inf
    best_f: dict[str, float] = {}
    for combo in itertools.product(grid, repeat=len(free)):
        fractions = dict(zip(free, combo))
        fractions[topology.root] = 1.0
        transmit: dict[str, float] = {}
        objective = 0.0
        feasible = True
        for node_id in topology.post_order:
            node = topology.by_id[node_id]
            inflow = node.arrival_rate + sum(
                transmit[c] for c in topology.children[node_id]
            )
            f = fractions[node_id]
            served = inflow * f
            out = inflow - served
            if node_id == topology.root:
                served, out = inflow, 0.0
            if out > node.budget + FLOW_TOL and node_id != topology.root:
                feasible = False
                break
            transmit[node_id] = out
            objective += losses[node.exit - 1] * served
        if feasible and objective < best_obj - 1e-15:
            best_obj = objective
            best_f = dict(fractions)
    return best_f, float(best_obj)
