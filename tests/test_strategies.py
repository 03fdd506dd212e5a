"""Exit-weight strategies and the sampling matrix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_topology, seven_node_topology
from fedexit.errors import (
    AllZeroWeightsError,
    EmptyPoolError,
    FedexitError,
    InvalidArgumentError,
    InvalidKError,
)
from fedexit.strategies import (
    STRATEGY_NAMES,
    ExitPools,
    ExitWeights,
    SamplingMatrix,
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    exit_weights,
    flops_prop,
    gen_error_adjusted,
)
from fedexit.topology import budgets_for_split, compute_rate_plan

REFERENCE_FLOPS = (78_316_160.0, 694_682_880.0, 1_770_787_840.0)


def plan_for(split):
    topo = seven_node_topology()
    return compute_rate_plan(topo.with_budgets(budgets_for_split(topo, split)))


class TestEqualWeight:
    @pytest.mark.parametrize("e", [1, 3, 4])
    def test_uniform(self, e):
        w = equal_weight(e)
        np.testing.assert_allclose(w.weights, np.full(e, 1 / e))

    def test_rejects_zero_exits(self):
        with pytest.raises(ValueError):
            equal_weight(0)


class TestFlopsProp:
    def test_reference_exit_costs(self):
        w = flops_prop(REFERENCE_FLOPS)
        np.testing.assert_allclose(w.weights, [0.0308, 0.2731, 0.6961], atol=5e-4)

    def test_equal_costs_give_uniform(self):
        np.testing.assert_allclose(flops_prop([5, 5, 5]).weights, np.full(3, 1 / 3))

    def test_direct_proportionality(self):
        np.testing.assert_allclose(flops_prop([1, 3]).weights, [0.25, 0.75])

    @given(
        st.lists(st.floats(0.1, 1e6), min_size=1, max_size=6),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, flops, scale):
        base = flops_prop(flops).weights
        scaled = flops_prop([f * scale for f in flops]).weights
        np.testing.assert_allclose(base, scaled, atol=1e-12)


class TestServingRateWeights:
    def serving_rate(self, topo):
        split = compute_rate_plan(topo).lambda_exit_normalized
        return exit_weights("serving_rate", split, [100, 100, 100], REFERENCE_FLOPS)

    def test_derived_plan(self):
        topo = seven_node_topology(device_budget=0.6, edge_budget=0.8)
        w = self.serving_rate(topo)
        np.testing.assert_allclose(w.weights, [0.4, 0.2, 0.4], atol=1e-12)

    def test_one_hot(self):
        topo = seven_node_topology(device_budget=0.0, edge_budget=0.0)
        w = self.serving_rate(topo)
        np.testing.assert_allclose(w.weights, [1, 0, 0])


class TestExitWeights:
    def test_each_name_is_its_rule(self):
        split, pools = (0.5, 0.3, 0.2), [300, 200, 100]
        expected = {
            "equal": equal_weight(3),
            "flops_prop": flops_prop(REFERENCE_FLOPS),
            "serving_rate": ExitWeights(weights=split),
            "gen_error_adj": gen_error_adjusted(split, pools, REFERENCE_FLOPS),
        }
        assert tuple(expected) == STRATEGY_NAMES
        for name, weights in expected.items():
            got = exit_weights(name, split, pools, REFERENCE_FLOPS).weights
            np.testing.assert_array_equal(got, weights.weights)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy 'mystery'"):
            exit_weights("mystery", (1.0,), [1], [1.0])


class TestGenErrorAdjusted:
    def test_uniform_pools_and_flops_reduce_to_rates(self):
        w = gen_error_adjusted(np.array([0.05, 0.15, 0.80]), [100, 100, 100], [1, 1, 1])
        np.testing.assert_allclose(w.weights, [0.05, 0.15, 0.80], atol=1e-12)

    def test_direct_formula(self):
        w = gen_error_adjusted(np.array([0.5, 0.5]), [10, 40], [1, 8])
        np.testing.assert_allclose(w.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_empty_pool_kills_weight(self):
        w = gen_error_adjusted(np.array([0.3, 0.3, 0.4]), [0, 50, 50], [1, 1, 1])
        assert w.weights[0] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeightsError):
            gen_error_adjusted(np.array([1.0, 1.0]), [0, 0], [1, 1])


class TestSamplingMatrix:
    def test_reference_rows_k01(self):
        sm = build_sampling_matrix(seven_node_topology(), k=0.1)
        np.testing.assert_allclose(sm.probs[sm.client_index["cloud"]], [0.1, 0.1, 0.8])
        np.testing.assert_allclose(sm.probs[sm.client_index["edge1"]], [0.1, 0.9, 0.0])
        np.testing.assert_allclose(sm.probs[sm.client_index["dev1"]], [1.0, 0.0, 0.0])

    def test_k02_cloud_row(self):
        sm = build_sampling_matrix(seven_node_topology(), k=0.2)
        np.testing.assert_allclose(sm.probs[sm.client_index["cloud"]], [0.2, 0.2, 0.6])

    def test_k_zero_identity_routing(self):
        sm = build_sampling_matrix(seven_node_topology(), k=0.0)
        assert np.all(np.sum(sm.probs > 0, axis=1) == 1)
        for client in sm.clients:
            own = seven_node_topology().exit_of(client)
            assert sm.prob(client, own) == 1.0

    @given(st.floats(0.0, 0.49))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, k):
        sm = build_sampling_matrix(seven_node_topology(), k=k)
        np.testing.assert_allclose(sm.probs.sum(axis=1), np.ones(7), atol=1e-12)

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            build_sampling_matrix(seven_node_topology(), k=0.5)
        with pytest.raises(InvalidKError):
            build_sampling_matrix(seven_node_topology(), k=-0.1)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_k_rejected(self, k):
        # NaN passed the k < 0 check and gave every client a NaN row.
        with pytest.raises(InvalidKError, match="finite"):
            build_sampling_matrix(seven_node_topology(), k=k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_row_refused(self, bad):
        # A NaN row passed the sum check, whose |sum - 1| > tol is false for NaN.
        sm = build_sampling_matrix(seven_node_topology(), k=0.1)
        probs = sm.probs.copy()
        probs[sm.client_index["cloud"]] = [bad, 0.1, 0.8]
        with pytest.raises(InvalidArgumentError, match="^every client row must sum to 1$"):
            SamplingMatrix(clients=sm.clients, probs=probs)


class TestExitPools:
    def test_own_layer_only_when_k_zero(self):
        topo = seven_node_topology(sizes={"edge1": 200, "edge2": 200, "cloud": 400})
        # devices keep their default 100 samples
        pools = exit_pools(topo, build_sampling_matrix(topo, 0.0))
        np.testing.assert_allclose(pools.sizes, [400, 400, 400])

    def test_union_pools_when_k_positive(self):
        topo = seven_node_topology()  # 100 samples everywhere
        pools = exit_pools(topo, build_sampling_matrix(topo, 0.1))
        np.testing.assert_allclose(pools.sizes, [700, 300, 100])
        assert pools.clients[2] == ("cloud",)

    def test_single_client(self):
        from fedexit.topology import NodeSpec, Topology

        topo = Topology(nodes=(NodeSpec("n", None, 1, 1.0, 0.0, 42),), num_exits=1)
        pools = exit_pools(topo, build_sampling_matrix(topo, 0.0))
        assert pools.sizes[0] == 42

    def test_empty_pool_detected(self):
        import dataclasses

        from fedexit.strategies import SamplingMatrix

        topo = seven_node_topology()
        sm = build_sampling_matrix(topo, 0.0)
        probs = sm.probs.copy()
        # Nobody trains exit 2: edges moved to their exit, then zeroed out.
        probs[sm.client_index["edge1"]] = [1.0, 0.0, 0.0]
        probs[sm.client_index["edge2"]] = [1.0, 0.0, 0.0]
        broken = SamplingMatrix(clients=sm.clients, probs=probs)
        with pytest.raises(EmptyPoolError):
            exit_pools(topo, broken)

    def test_weighted_empty_pool_names_its_clients(self):
        # Refused whatever the exit weights: a zero-weight exit's pool still
        # divides every share in the round's coefficients.
        topo = seven_node_topology(sizes={"edge1": 0, "edge2": 0})
        with pytest.raises(EmptyPoolError,
                           match=r"^exit 2 has no pooled data: dataset_size is 0 at edge1, edge2$"):
            exit_pools(topo, build_sampling_matrix(topo, 0.0))

    @pytest.mark.parametrize("exits", [2, 4])
    def test_sampling_with_other_exit_count_is_refused_by_name(self, exits):
        # Two exits on a three-exit tree used to end in a raw numpy broadcast
        # error in the round engine, four in "exit 4 has no contributing client".
        topo = seven_node_topology()
        probs = np.zeros((7, exits))
        probs[:, 0] = 1.0
        sampling = SamplingMatrix(clients=topo.client_ids, probs=probs)
        with pytest.raises(InvalidArgumentError, match=f"^sampling matrix has {exits} exits, but "
                                                       "the topology has 3$"):
            exit_pools(topo, sampling)

    def test_sampling_for_another_tree_names_the_missing_clients(self):
        # Used to end in a raw KeyError: 'leaf'.
        sampling = build_sampling_matrix(chain_topology(), 0.1)
        with pytest.raises(ValueError, match="^sampling matrix has clients the topology lacks: "
                                             "leaf, mid, root$"):
            exit_pools(seven_node_topology(), sampling)

    def test_hand_built_pools_keep_the_invariant(self):
        with pytest.raises(EmptyPoolError, match="^exit 2 has no contributing client$"):
            ExitPools(clients=(("a",), ()), sizes=np.array([1.0, 0.0]))
        with pytest.raises(EmptyPoolError, match="^exit 1 has no pooled data: dataset_size is 0 at a"):
            ExitPools(clients=(("a",),), sizes=np.array([0.0]))


class TestExitWeightsType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExitWeights(weights=np.array([0.5, -0.1, 0.6]))

    def test_rejects_unnormalized_when_flagged(self):
        with pytest.raises(ValueError):
            ExitWeights(weights=np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        # ExitWeights([nan, .5, .5]) used to build: NaN fails no "< 0" and no
        # "|sum - 1| > tol" test.
        with pytest.raises(InvalidArgumentError, match="^exit weights must sum to 1, not "):
            ExitWeights(weights=np.array([bad, 0.5, 0.5]))

    def test_rejects_more_than_one_axis(self):
        # A (3, 3) array of ninths sums to 1, and used to build with num_exits 9.
        with pytest.raises(InvalidArgumentError,
                           match=r"^exit weights must be one vector, got shape \(3, 3\)$"):
            ExitWeights(weights=np.full((3, 3), 1 / 9))

    def test_bad_argument_is_a_fedexit_error_and_a_value_error(self):
        with pytest.raises(InvalidArgumentError) as refused:
            ExitWeights(weights=np.array([0.5, -0.1, 0.6]))
        assert isinstance(refused.value, FedexitError)
        assert isinstance(refused.value, ValueError)
        assert str(refused.value) == "exit weights must be nonnegative"
