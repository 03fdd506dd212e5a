"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fedexit.topology import NodeSpec, Topology


def seven_node_topology(
    arrival: float = 1.0,
    device_budget: float = 0.0,
    edge_budget: float = 0.0,
    sizes: dict[str, int] | None = None,
) -> Topology:
    """Cloud over two edges over four devices; arrivals enter at the devices."""
    sizes = sizes or {}
    nodes = [
        NodeSpec("cloud", None, 3, 0.0, 0.0, sizes.get("cloud", 100)),
        NodeSpec("edge1", "cloud", 2, 0.0, edge_budget, sizes.get("edge1", 100)),
        NodeSpec("edge2", "cloud", 2, 0.0, edge_budget, sizes.get("edge2", 100)),
        NodeSpec("dev1", "edge1", 1, arrival, device_budget, sizes.get("dev1", 100)),
        NodeSpec("dev2", "edge1", 1, arrival, device_budget, sizes.get("dev2", 100)),
        NodeSpec("dev3", "edge2", 1, arrival, device_budget, sizes.get("dev3", 100)),
        NodeSpec("dev4", "edge2", 1, arrival, device_budget, sizes.get("dev4", 100)),
    ]
    return Topology(nodes=tuple(nodes), num_exits=3)


def wide_topology(edges: int = 3, devices_per_edge: int = 4) -> Topology:
    """Cloud over ``edges`` edges, each over ``devices_per_edge`` devices.

    Arrivals enter at the devices.
    """
    nodes = [NodeSpec("cloud", None, 3)]
    for i in range(edges):
        nodes.append(NodeSpec(f"edge{i}", "cloud", 2))
        nodes += [NodeSpec(f"dev{i}_{j}", f"edge{i}", 1, 1.0) for j in range(devices_per_edge)]
    return Topology(nodes=tuple(nodes), num_exits=3)


def chain_topology(
    arrivals=(1.0, 0.0, 0.0), budgets=(0.5, 0.25), sizes=(100, 100, 100)
) -> Topology:
    """leaf -> mid -> root chain with exits 1, 2, 3."""
    nodes = [
        NodeSpec("root", None, 3, arrivals[2], 0.0, sizes[2]),
        NodeSpec("mid", "root", 2, arrivals[1], budgets[1], sizes[1]),
        NodeSpec("leaf", "mid", 1, arrivals[0], budgets[0], sizes[0]),
    ]
    return Topology(nodes=tuple(nodes), num_exits=3)


def full_gradient(task, w, x, y, exit):
    """An MLP's ``gradient_on`` at a full vector: its exit's compact vector in, full ``dim`` out."""
    segments = task.segments
    return segments.scatter(task.gradient_on(segments.gather(w, exit), x, y, exit), exit)


def random_tree(rng: np.random.Generator, max_nodes: int = 15) -> Topology:
    """Random valid topology: random parent links with strictly rising exits."""
    n = int(rng.integers(1, max_nodes + 1))
    exits = [1] * n
    parents: list[int | None] = [None] * n
    # Node 0 is the root; every other node attaches to a previous node.
    for i in range(1, n):
        parents[i] = int(rng.integers(0, i))
    # Exit of a node must exceed all its descendants'; assign by depth.
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parents[i]] + 1
    max_depth = max(depth)
    for i in range(n):
        exits[i] = max_depth - depth[i] + 1
    nodes = [
        NodeSpec(
            id=f"n{i}",
            parent=None if parents[i] is None else f"n{parents[i]}",
            exit=exits[i],
            arrival_rate=float(rng.uniform(0, 2)),
            budget=float(rng.uniform(0, 2)),
            dataset_size=int(rng.integers(1, 200)),
        )
        for i in range(n)
    ]
    return Topology(nodes=tuple(nodes), num_exits=max_depth + 1)


@pytest.fixture
def seven_nodes() -> Topology:
    return seven_node_topology(device_budget=0.6, edge_budget=0.8)
