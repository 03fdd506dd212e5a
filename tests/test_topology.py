"""Tree validation, the rate-plan recurrence, and its oracles."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import chain_topology, random_tree, seven_node_topology
from fedexit.config import from_node_dicts
from fedexit.errors import (
    ConfigParseError,
    CycleError,
    ExitOrderError,
    InfeasibleSplitError,
    InvalidTopologyError,
    MissingExitError,
    MultipleRootsError,
)
from fedexit.topology import (
    NodeSpec,
    Topology,
    brute_force_rate_plan,
    budgets_for_split,
    compute_rate_plan,
    grid_search_p1,
    validate,
)


class TestValidate:
    def test_seven_node_tree_is_valid(self):
        validate(seven_node_topology())

    def test_single_node_single_exit(self):
        topo = Topology(nodes=(NodeSpec("only", None, 1, 1.0, 0.0, 10),), num_exits=1)
        validate(topo)

    def test_child_exit_not_below_parent(self):
        nodes = (
            NodeSpec("cloud", None, 3, 0.0, 0.0, 0),
            NodeSpec("edge", "cloud", 3, 1.0, 0.5, 0),
            NodeSpec("dev", "edge", 1, 1.0, 0.5, 0),
        )
        with pytest.raises(ExitOrderError):
            validate(Topology(nodes=nodes, num_exits=3))

    def test_multiple_roots(self):
        nodes = (
            NodeSpec("a", None, 2, 0.0, 0.0, 0),
            NodeSpec("b", None, 2, 0.0, 0.0, 0),
            NodeSpec("c", "a", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(MultipleRootsError):
            validate(Topology(nodes=nodes, num_exits=2))

    def test_cycle(self):
        nodes = (
            NodeSpec("r", None, 3, 0.0, 0.0, 0),
            NodeSpec("a", "b", 2, 0.0, 0.0, 0),
            NodeSpec("b", "a", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(CycleError):
            validate(Topology(nodes=nodes, num_exits=3))

    def test_missing_exit(self):
        nodes = (
            NodeSpec("r", None, 3, 0.0, 0.0, 0),
            NodeSpec("a", "r", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(MissingExitError):
            validate(Topology(nodes=nodes, num_exits=3))

    def test_unknown_parent(self):
        nodes = (
            NodeSpec("r", None, 2, 0.0, 0.0, 0),
            NodeSpec("a", "ghost", 1, 1.0, 0.0, 0),
        )
        with pytest.raises(InvalidTopologyError):
            validate(Topology(nodes=nodes, num_exits=2))

    def test_from_node_dicts_roundtrip(self):
        entries = [
            {"id": "r", "parent": None, "exit": 2, "arrival_rate": 0},
            {"id": "a", "parent": "r", "exit": 1, "arrival_rate": 1.5, "dataset_size": 7},
        ]
        topo = from_node_dicts(entries)
        validate(topo)
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
        with pytest.raises(ConfigParseError, match=f"node a: {key} must be an integer"):
            from_node_dicts(entries)

    def test_from_node_dicts_refuses_fractional_num_exits(self):
        entries = [{"id": "r", "parent": None, "exit": 1, "arrival_rate": 1.0}]
        with pytest.raises(ConfigParseError, match="num_exits must be an integer"):
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
