"""Tree validation, the rate-plan recurrence, and its oracles."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from conftest import chain_topology, random_tree, seven_node_topology
from fedexit.config import from_node_dicts
from fedexit.errors import (
    CycleError,
    ExitOrderError,
    InfeasibleSplitError,
    InvalidArgumentError,
    InvalidTopologyError,
    MissingExitError,
    MultipleRootsError,
    ZeroTrafficError,
)
from fedexit.topology import (
    NodeSpec,
    Topology,
    brute_force_rate_plan,
    budgets_for_split,
    compute_rate_plan,
    grid_search_p1,
)


class TestValidate:
    """A ``Topology`` refuses a broken tree when it is built."""

    def test_seven_node_tree_is_valid(self):
        seven_node_topology()

    def test_single_node_single_exit(self):
        Topology(nodes=(NodeSpec("only", None, 1, 1.0, 0.0, 10),), num_exits=1)

    def test_child_exit_not_below_parent(self):
        nodes = (
            NodeSpec("cloud", None, 3, 0.0, 0.0, 0),
            NodeSpec("edge", "cloud", 3, 1.0, 0.5, 0),
            NodeSpec("dev", "edge", 1, 1.0, 0.5, 0),
        )
        with pytest.raises(ExitOrderError):
            Topology(nodes=nodes, num_exits=3)

    def test_multiple_roots(self):
        nodes = (
            NodeSpec("a", None, 2, 0.0, 0.0, 0),
            NodeSpec("b", None, 2, 0.0, 0.0, 0),
            NodeSpec("c", "a", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(MultipleRootsError):
            Topology(nodes=nodes, num_exits=2)

    def test_cycle(self):
        nodes = (
            NodeSpec("r", None, 3, 0.0, 0.0, 0),
            NodeSpec("a", "b", 2, 0.0, 0.0, 0),
            NodeSpec("b", "a", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(CycleError):
            Topology(nodes=nodes, num_exits=3)

    def test_missing_exit(self):
        nodes = (
            NodeSpec("r", None, 3, 0.0, 0.0, 0),
            NodeSpec("a", "r", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(MissingExitError):
            Topology(nodes=nodes, num_exits=3)

    def test_unknown_parent(self):
        nodes = (
            NodeSpec("r", None, 2, 0.0, 0.0, 0),
            NodeSpec("a", "ghost", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(InvalidTopologyError):
            Topology(nodes=nodes, num_exits=2)

    def test_from_node_dicts_roundtrip(self):
        entries = [
            {"id": "r", "parent": None, "exit": 2, "arrival_rate": 0},
            {"id": "a", "parent": "r", "exit": 1, "arrival_rate": 1.5, "dataset_size": 7},
        ]
        topo = from_node_dicts(entries)
        assert topo.num_exits == 2
        assert topo.by_id["a"].dataset_size == 7

    @pytest.mark.parametrize(
        "key, value",
        [("exit", 1.7), ("exit", True), ("dataset_size", 100.9), ("dataset_size", "7")],
    )
    def test_from_node_dicts_refuses_non_integers(self, key, value):
        # int() used to cut 1.7 to 1 and 100.9 to 100 without a word.
        entries = [
            {"id": "r", "parent": None, "exit": 2},
            {"id": "a", "parent": "r", "exit": 1, "arrival_rate": 1.0, key: value},
        ]
        with pytest.raises(InvalidArgumentError, match=f"node a: {key} must be an integer"):
            from_node_dicts(entries)

    def test_from_node_dicts_refuses_fractional_num_exits(self):
        entries = [{"id": "r", "parent": None, "exit": 1, "arrival_rate": 1.0}]
        with pytest.raises(InvalidArgumentError, match="num_exits must be an integer"):
            from_node_dicts(entries, num_exits=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("arrival_rate", float("nan")), ("arrival_rate", float("inf")),
         ("budget", float("nan"))],
    )
    def test_node_refuses_non_finite_values(self, field, value):
        values = dict(id="a", parent=None, exit=1, arrival_rate=1.0, budget=0.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"node a: {field} must be"):
            NodeSpec(**values)

    def test_node_accepts_infinite_budget(self):
        assert NodeSpec("a", None, 1, 1.0, float("inf"), 0).budget == float("inf")


def _dicts(nodes) -> list[dict]:
    return [{"id": n.id, "parent": n.parent, "exit": n.exit, "arrival_rate": n.arrival_rate,
             "dataset_size": n.dataset_size} for n in nodes]


def _refused_everywhere(topo: Topology, nodes, error) -> None:
    """``nodes`` is refused with exactly ``error`` by each way of building a tree."""
    for build in (lambda: Topology(nodes=tuple(nodes), num_exits=topo.num_exits),
                  lambda: dataclasses.replace(topo, nodes=tuple(nodes)),
                  lambda: from_node_dicts(_dicts(nodes), topo.num_exits)):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error


def _subtree(topo: Topology, node: str) -> list[str]:
    out = [node]
    for child in topo.children[node]:
        out += _subtree(topo, child)
    return out


def _corruptions(topo: Topology, rng: np.random.Generator):
    """(name, nodes, error): one node of ``topo`` broken each way that applies."""
    nodes = list(topo.nodes)
    pick = int(rng.integers(len(nodes)))
    node = nodes[pick]

    def edited(**changes):
        return nodes[:pick] + [dataclasses.replace(node, **changes)] + nodes[pick + 1:]

    yield "exit out of range", edited(exit=topo.num_exits + 1), InvalidTopologyError
    if node.parent is None:
        return
    descendants = _subtree(topo, node.id)
    yield "unknown parent", edited(parent="ghost"), InvalidTopologyError
    yield ("cycle", edited(parent=descendants[int(rng.integers(len(descendants)))]),
           CycleError)
    yield "exit order", edited(exit=topo.by_id[node.parent].exit), ExitOrderError
    if topo.layers[node.exit] == (node.id,):
        # Its children move up to its parent, so only its exit goes missing.
        yield "only node of an exit", [
            dataclasses.replace(n, parent=node.parent) if n.parent == node.id else n
            for n in nodes if n is not node
        ], MissingExitError


class TestBuiltTreesAreValid:
    """Every way of building a tree checks it, so no function sees a broken one."""

    def test_random_trees_build_and_each_corruption_is_refused(self):
        rng = np.random.default_rng(2023)
        seen: dict[str, int] = {}
        for _ in range(200):
            topo = random_tree(rng)
            topo.with_budgets({n.id: float(rng.uniform(0, 2)) for n in topo.nodes})
            topo.with_dataset_sizes({n.id: int(rng.integers(0, 50)) for n in topo.nodes})
            for name, nodes, error in _corruptions(topo, rng):
                _refused_everywhere(topo, nodes, error)
                seen[name] = seen.get(name, 0) + 1
        assert len(seen) == 5 and min(seen.values()) >= 20, seen

    # Each of these used to build, and the public API then failed on it with a
    # raw IndexError, or planned and trained on it without a word.
    @pytest.mark.parametrize(
        "extra, error",
        [(NodeSpec("x", "cloud", 5, 1.0, 0.0, 50), InvalidTopologyError),
         ((NodeSpec("a", "b", 2, 1.0, 0.0, 50), NodeSpec("b", "a", 1, 1.0, 0.0, 50)),
          CycleError),
         (NodeSpec("g", "ghost", 1, 1.0, 0.0, 50), InvalidTopologyError),
         (NodeSpec("h", "dev1", 2, 1.0, 0.0, 50), ExitOrderError)],
        ids=["exit-5-of-3", "cycle-beside-root", "unknown-parent", "exit-above-parent"],
    )
    def test_broken_seven_node_trees_are_refused(self, extra, error):
        topo = seven_node_topology()
        extra = extra if isinstance(extra, tuple) else (extra,)
        _refused_everywhere(topo, topo.nodes + extra, error)

    def test_replacements_for_unknown_ids_are_refused(self):
        # Both used to return the tree unchanged: "Dev1" is not "dev1".
        topo = seven_node_topology()
        with pytest.raises(InvalidTopologyError,
                           match=r"^budget given for ids that name no node: \['dev9', 'edge0'\]$"):
            topo.with_budgets({"edge0": 0.1, "dev1": 0.5, "dev9": 0.5})
        with pytest.raises(InvalidTopologyError,
                           match=r"^dataset_size given for ids that name no node: \['Dev1'\]$"):
            topo.with_dataset_sizes({"Dev1": 5})
        assert topo.with_budgets({}) == topo
        assert topo.with_dataset_sizes({"dev1": 5}).by_id["dev1"].dataset_size == 5

    def test_dataset_sizes_that_are_not_whole_are_refused(self):
        # 2.7 used to give dev1 2 samples without a word.
        topo = seven_node_topology()
        for size in (2.7, True, "5"):
            with pytest.raises(InvalidArgumentError, match=(
                    f"^node dev1: dataset_size must be an integer, got {size!r}$")):
                topo.with_dataset_sizes({"dev1": size})
        sized = topo.with_dataset_sizes({"dev1": 100.0, "dev2": np.int64(7)})
        assert [sized.by_id[c].dataset_size for c in ("dev1", "dev2")] == [100, 7]
        assert type(sized.by_id["dev1"].dataset_size) is int

    def test_budgets_that_are_not_real_numbers_are_refused(self):
        # "0.5" and True used to become budgets 0.5 and 1.0 without a word,
        # None a raw TypeError, and NaN or -1.0 a plain ValueError.
        topo = seven_node_topology()
        for budget in ("0.5", True, None, 1j):
            with pytest.raises(InvalidArgumentError, match=(
                    f"^node edge1: budget must be a number, got {re.escape(repr(budget))}$")):
                topo.with_budgets({"edge1": budget})
        for budget in (np.nan, -1.0, -np.inf):
            with pytest.raises(InvalidArgumentError,
                               match=f"^node edge1: budget must be >= 0, got {budget}$"):
                topo.with_budgets({"edge1": budget})
        given = topo.with_budgets({"edge1": np.inf, "dev1": np.float64(0.5), "dev2": 0})
        assert [given.by_id[c].budget for c in ("edge1", "dev1", "dev2")] == [np.inf, 0.5, 0.0]
        assert type(given.by_id["dev1"].budget) is float

    def test_empty_node_list_names_topology_nodes(self):
        for build in (lambda: Topology(nodes=(), num_exits=3), lambda: from_node_dicts([]),
                      lambda: from_node_dicts([], num_exits=3)):
            with pytest.raises(InvalidTopologyError, match="^topology nodes is empty$"):
                build()


class TestRatePlan:
    def test_zero_budgets_force_local_serving(self):
        topo = seven_node_topology(device_budget=0.0, edge_budget=0.0)
        plan = compute_rate_plan(topo)
        np.testing.assert_allclose(plan.lambda_exit, [4.0, 0.0, 0.0])
        assert all(f == 1.0 for f in plan.fraction.values())

    def test_partial_budgets_hand_values(self):
        topo = seven_node_topology(device_budget=0.6, edge_budget=0.8)
        plan = compute_rate_plan(topo)
        for dev in ("dev1", "dev2", "dev3", "dev4"):
            assert plan.transmit[dev] == pytest.approx(0.6, abs=1e-15)
            assert plan.serve[dev] == pytest.approx(0.4, abs=1e-15)
        for edge in ("edge1", "edge2"):
            assert plan.transmit[edge] == pytest.approx(0.8, abs=1e-15)
            assert plan.serve[edge] == pytest.approx(0.4, abs=1e-15)
        assert plan.transmit["cloud"] == 0.0
        assert plan.serve["cloud"] == pytest.approx(1.6, abs=1e-15)
        np.testing.assert_allclose(plan.lambda_exit, [1.6, 0.8, 1.6], atol=1e-15)

    def test_unbounded_budgets_saturate_to_root(self):
        topo = seven_node_topology(device_budget=1e12, edge_budget=1e12)
        plan = compute_rate_plan(topo)
        np.testing.assert_allclose(plan.lambda_exit, [0.0, 0.0, 4.0], atol=1e-12)

    def test_flow_conservation(self, seven_nodes):
        plan = compute_rate_plan(seven_nodes)
        assert plan.total_rate == pytest.approx(seven_nodes.total_arrival, rel=1e-12)

    def test_budget_respected_and_root_transmits_nothing(self, seven_nodes):
        plan = compute_rate_plan(seven_nodes)
        for node in seven_nodes.nodes:
            if node.id == seven_nodes.root:
                assert plan.transmit[node.id] == 0.0
            else:
                assert plan.transmit[node.id] <= node.budget + 1e-15


class TestBruteForceOracle:
    def test_matches_hand_values(self):
        topo = seven_node_topology(device_budget=0.6, edge_budget=0.8)
        plan = brute_force_rate_plan(topo)
        np.testing.assert_allclose(plan.lambda_exit, [1.6, 0.8, 1.6], atol=1e-12)

    def test_chain_hand_flow(self):
        plan = brute_force_rate_plan(chain_topology())
        np.testing.assert_allclose(plan.lambda_exit, [0.5, 0.25, 0.25], atol=1e-13)

    def test_zero_arrivals(self):
        topo = seven_node_topology(arrival=0.0, device_budget=0.5, edge_budget=0.5)
        plan = brute_force_rate_plan(topo)
        np.testing.assert_allclose(plan.lambda_exit, np.zeros(3))

    def test_agrees_with_recurrence_on_random_trees(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            topo = random_tree(rng)
            fast = compute_rate_plan(topo)
            slow = brute_force_rate_plan(topo)
            for nid in topo.by_id:
                assert fast.transmit[nid] == pytest.approx(slow.transmit[nid], abs=1e-12)
                assert fast.serve[nid] == pytest.approx(slow.serve[nid], abs=1e-12)
            np.testing.assert_allclose(fast.lambda_exit, slow.lambda_exit, atol=1e-12)
            assert fast.total_rate == pytest.approx(topo.total_arrival, rel=1e-12, abs=1e-12)

    def test_budget_increase_never_decreases_upstream_mass(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            topo = random_tree(rng)
            non_root = [n for n in topo.by_id if n != topo.root]
            if not non_root:
                continue
            target = non_root[int(rng.integers(0, len(non_root)))]
            base = compute_rate_plan(topo)
            bumped = compute_rate_plan(
                topo.with_budgets({target: topo.by_id[target].budget + rng.uniform(0.1, 1.0)})
            )
            e_i = topo.exit_of(target)
            assert bumped.lambda_exit[e_i:].sum() >= base.lambda_exit[e_i:].sum() - 1e-12


class TestBudgetsForSplit:
    def test_equal_thirds_hand_inversion(self):
        topo = seven_node_topology()
        budgets = budgets_for_split(topo, [1 / 3, 1 / 3, 1 / 3])
        for dev in ("dev1", "dev2", "dev3", "dev4"):
            assert budgets[dev] == pytest.approx(2 / 3, abs=1e-12)
        for edge in ("edge1", "edge2"):
            assert budgets[edge] == pytest.approx(2 / 3, abs=1e-12)

    def test_all_local(self):
        topo = seven_node_topology()
        budgets = budgets_for_split(topo, [1.0, 0.0, 0.0])
        assert all(budgets[d] == 0.0 for d in ("dev1", "dev2", "dev3", "dev4"))
        plan = compute_rate_plan(topo.with_budgets(budgets))
        np.testing.assert_allclose(plan.lambda_exit_normalized, [1, 0, 0], atol=1e-12)

    def test_full_forwarding_roundtrip(self):
        topo = seven_node_topology()
        budgets = budgets_for_split(topo, [0.0, 0.0, 1.0])
        assert all(budgets[d] >= 1.0 - 1e-12 for d in ("dev1", "dev2", "dev3", "dev4"))
        assert all(budgets[e] >= 2.0 - 1e-12 for e in ("edge1", "edge2"))
        plan = compute_rate_plan(topo.with_budgets(budgets))
        np.testing.assert_allclose(plan.lambda_exit_normalized, [0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize(
        "split",
        [(0.8, 0.15, 0.05), (0.6, 0.3, 0.1), (0.05, 0.15, 0.8), (0.45, 0.35, 0.2)],
    )
    def test_roundtrip_within_tolerance(self, split):
        topo = seven_node_topology()
        plan = compute_rate_plan(topo.with_budgets(budgets_for_split(topo, split)))
        np.testing.assert_allclose(plan.lambda_exit_normalized, split, atol=1e-9)

    def test_uneven_arrivals_can_be_infeasible(self):
        # One device receives nothing, so it cannot serve its equal share.
        nodes = (
            NodeSpec("root", None, 2, 0.0, 0.0, 0),
            NodeSpec("a", "root", 1, 2.0, 0.0, 0),
            NodeSpec("b", "root", 1, 0.0, 0.0, 0),
        )
        topo = Topology(nodes=nodes, num_exits=2)
        with pytest.raises(InfeasibleSplitError):
            budgets_for_split(topo, [0.9, 0.1])

    def test_non_layered_rejected(self):
        nodes = (
            NodeSpec("root", None, 3, 0.0, 0.0, 0),
            NodeSpec("mid", "root", 2, 0.0, 0.1, 0),
            NodeSpec("leaf", "mid", 1, 1.0, 0.1, 0),
            NodeSpec("shallow", "root", 1, 1.0, 0.1, 0),  # leaf at wrong depth
        )
        topo = Topology(nodes=nodes, num_exits=3)
        with pytest.raises(InvalidTopologyError):
            budgets_for_split(topo, [0.5, 0.3, 0.2])

    def test_no_arrivals_is_zero_traffic(self):
        with pytest.raises(ZeroTrafficError, match="^topology has no arrivals$"):
            budgets_for_split(seven_node_topology(arrival=0.0), [0.5, 0.3, 0.2])

    def test_bad_split_rejected(self):
        topo = seven_node_topology()
        with pytest.raises(ValueError):
            budgets_for_split(topo, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("split", [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [np.inf, 0.0, 0.0]])
    def test_non_finite_split_rejected(self, split):
        # A NaN entry used to pass and give NaN budgets to every non-root node.
        with pytest.raises(ValueError, match="finite"):
            budgets_for_split(seven_node_topology(), split)


class TestGridSearchOracle:
    def test_chain_saturating_plan_is_optimal(self):
        topo = chain_topology()
        losses = (1.0, 0.5, 0.2)
        _, best = grid_search_p1(topo, losses, step=0.05)
        assert best == pytest.approx(0.675, abs=1e-12)
        plan = compute_rate_plan(topo)
        saturating = sum(
            losses[topo.exit_of(nid) - 1] * plan.serve[nid] for nid in topo.by_id
        )
        assert saturating == pytest.approx(0.675, abs=1e-12)
        assert saturating <= best + 0.05

    def test_equal_losses_make_routing_irrelevant(self):
        topo = chain_topology()
        _, best = grid_search_p1(topo, (0.7, 0.7, 0.7), step=0.1)
        assert best == pytest.approx(0.7 * topo.total_arrival, abs=1e-12)

    def test_zero_budgets_unique_point(self):
        topo = chain_topology(budgets=(0.0, 0.0))
        fractions, best = grid_search_p1(topo, (0.9, 0.5, 0.1), step=0.1)
        assert best == pytest.approx(0.9 * 1.0, abs=1e-12)
        assert fractions["leaf"] == pytest.approx(1.0)

    def test_rejects_large_topologies(self):
        with pytest.raises(ValueError):
            grid_search_p1(seven_node_topology(), (1, 0.5, 0.2), step=0.1)
