"""Closed-form quadratic testbed: losses, gradients, minimizers."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import seven_node_topology
from fedexit.errors import AllZeroWeightsError
from fedexit.objective import weighted_objective
from fedexit.quadratic import QuadraticTask, make_quadratic_task, quadratic_minimizers
from fedexit.strategies import (
    ExitPools,
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    normalized_weights,
)
from fedexit.topology import NodeSpec, Topology


def single_client_task(matrix, center, sigma=0.0, size=10, radius=5.0) -> QuadraticTask:
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[0]
    return QuadraticTask(
        clients=("c",),
        matrices=matrix.reshape(1, 1, d, d),
        centers=np.asarray(center, dtype=float).reshape(1, 1, d),
        noise_scale=np.array([[sigma]]),
        max_exit=np.array([1]),
        sizes={"c": size},
        radius=radius,
    )


def two_pair_1d_task(centers=(0.0, 2.0)) -> QuadraticTask:
    """One client with two exits, unit curvature, 1-D."""
    return QuadraticTask(
        clients=("c",),
        matrices=np.ones((1, 2, 1, 1)),
        centers=np.array(centers, dtype=float).reshape(1, 2, 1),
        noise_scale=np.zeros((1, 2)),
        max_exit=np.array([2]),
        sizes={"c": 10},
        radius=10.0,
    )


def pools_for(task: QuadraticTask) -> ExitPools:
    clients = tuple(tuple(task.clients) for _ in range(task.num_exits))
    sizes = np.array([sum(task.sizes.values())] * task.num_exits, dtype=float)
    return ExitPools(clients=clients, sizes=sizes)


class TestLossAndGradient:
    def test_loss_zero_at_center(self):
        task = single_client_task(np.eye(2), [1.0, -2.0])
        assert task.loss(np.array([1.0, -2.0]), "c", 1) == 0.0

    def test_half_squared_norm(self):
        task = single_client_task(np.eye(2), [0.0, 0.0])
        assert task.loss(np.array([3.0, 4.0]), "c", 1) == pytest.approx(12.5)

    def test_noiseless_gradient_is_identity_times_w(self):
        task = single_client_task(np.eye(3), np.zeros(3))
        w = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(task.full_gradient(w, "c", 1), w)

    def test_noise_second_moment_matches_budget(self):
        sigma = 0.7
        task = single_client_task(np.eye(4), np.zeros(4), sigma=sigma)
        rng = np.random.default_rng(5)
        w = np.zeros(4)
        draws = np.array(
            [task.stochastic_gradient(w, "c", 1, 1, rng) for _ in range(40_000)]
        )
        second_moment = np.mean(np.sum(draws**2, axis=1))
        assert second_moment == pytest.approx(sigma**2, rel=0.05)

    def test_capped_loss(self):
        task = single_client_task(np.eye(1), [0.0])
        assert task.loss(np.array([10.0]), "c", 1, cap=3.0) == 3.0

    def test_invalid_exit_rejected(self):
        task = single_client_task(np.eye(1), [0.0])
        with pytest.raises(ValueError):
            task.loss(np.zeros(1), "c", 2)

    def test_client_rows_follow_client_order(self):
        task = make_quadratic_task(seven_node_topology(), dim=2, seed=0)
        assert [task.client_index(c) for c in task.clients] == list(range(len(task.clients)))
        with pytest.raises(ValueError, match="not a client"):
            task.loss(np.zeros(2), "dev9", 1)


class TestWeightedObjective:
    def test_one_hot_single_client(self):
        task = two_pair_1d_task()
        pools = pools_for(task)
        w = np.array([0.5])
        weights = normalized_weights([0.0, 1.0])
        assert weighted_objective(task, w, weights, pools) == pytest.approx(
            task.loss(w, "c", 2)
        )

    def test_zero_weights_rejected(self):
        task = two_pair_1d_task()
        with pytest.raises(AllZeroWeightsError):
            normalized_weights([0.0, 0.0])

    def test_closed_form_matches_pair_sampling_monte_carlo(self):
        """Estimate the double-weighted sum by sampling (exit, client) pairs."""
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.0, 0.0), seed=11)
        sampling = build_sampling_matrix(topo, 0.1)
        pools = exit_pools(topo, sampling)
        weights = normalized_weights([0.2, 0.3, 0.5])
        rng = np.random.default_rng(99)
        w = rng.normal(size=3)
        exact = weighted_objective(task, w, weights, pools)

        n = 60_000
        exits = rng.choice(3, size=n, p=weights.weights)
        samples = np.zeros(n)
        client_lists = [list(pools.clients[e]) for e in range(3)]
        shares = [
            np.array([task.sizes[c] for c in client_lists[e]], dtype=float)
            / pools.sizes[e]
            for e in range(3)
        ]
        loss_table = {
            (c, e): task.loss(w, c, e + 1)
            for e in range(3)
            for c in client_lists[e]
        }
        for e in range(3):
            idx = np.where(exits == e)[0]
            chosen = rng.choice(len(client_lists[e]), size=len(idx), p=shares[e])
            samples[idx] = [loss_table[(client_lists[e][j], e)] for j in chosen]
        estimate = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(estimate - exact) <= 3 * se + 1e-12


class TestMinimizers:
    def test_single_pair(self):
        task = single_client_task(np.eye(2), [1.0, 2.0])
        pools = pools_for(task)
        res = quadratic_minimizers(task, normalized_weights([1.0]), pools)
        np.testing.assert_allclose(res.w_star, [1.0, 2.0], atol=1e-12)
        assert res.f_star == pytest.approx(0.0, abs=1e-15)

    def test_two_pairs_hand_solve(self):
        task = two_pair_1d_task((0.0, 2.0))
        pools = pools_for(task)
        res = quadratic_minimizers(task, normalized_weights([0.5, 0.5]), pools)
        assert res.w_star[0] == pytest.approx(1.0, abs=1e-12)
        assert res.f_star == pytest.approx(0.5, abs=1e-12)

    def test_common_center_is_exact_optimum(self):
        task = two_pair_1d_task((1.5, 1.5))
        pools = pools_for(task)
        res = quadratic_minimizers(task, normalized_weights([0.9, 0.1]), pools)
        assert res.w_star[0] == pytest.approx(1.5, abs=1e-12)
        assert res.f_star == pytest.approx(0.0, abs=1e-15)

    def test_solution_solves_weighted_normal_equations(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, seed=2)
        sampling = build_sampling_matrix(topo, 0.1)
        pools = exit_pools(topo, sampling)
        weights = equal_weight(3)
        res = quadratic_minimizers(task, weights, pools)
        # Gradient of the weighted objective vanishes at the solution.
        grad = np.zeros(4)
        for e in range(1, 4):
            for c in pools.clients[e - 1]:
                coef = weights.weights[e - 1] * task.sizes[c] / pools.sizes[e - 1]
                grad += coef * task.full_gradient(res.w_star, c, e)
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-10)

    def test_far_off_centers_are_not_refused_as_singular(self):
        # The system is as well conditioned as at center_scale 1; only rhs and
        # w_star grow, and with them the absolute residual (about 5e-10 here).
        topo = seven_node_topology()
        pools = exit_pools(topo, build_sampling_matrix(topo, 0.1))
        near = make_quadratic_task(topo, dim=4, seed=0)
        far = make_quadratic_task(topo, dim=4, center_scale=1e7, seed=0)
        res = quadratic_minimizers(far, equal_weight(3), pools)
        scale = np.linalg.norm(quadratic_minimizers(near, equal_weight(3), pools).w_star)
        assert np.linalg.norm(res.w_star) > 1e6 * scale
        assert np.isfinite(res.f_star)


class TestFactory:
    def test_curvature_constants_cover_all_pairs(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, eig_range=(0.5, 3.0), seed=7)
        eigs = []
        for i, c in enumerate(task.clients):
            for e in range(1, int(task.max_exit[i]) + 1):
                eigs.extend(np.linalg.eigvalsh(task.pair(c, e)[0]))
        assert (task.mu, task.smoothness) == (min(eigs), max(eigs))
        assert 0.5 <= task.mu <= task.smoothness <= 3.0

    def test_minimizers_inside_ball(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, seed=13)
        for i, c in enumerate(task.clients):
            for e in range(1, int(task.max_exit[i]) + 1):
                assert np.linalg.norm(task.pair(c, e)[1]) < task.radius

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eig_range": (0.0, 1.0)},
            {"eig_range": (-1.0, 1.0)},
            {"sigma_range": (-0.1, 0.5)},
            {"dim": 0},
            {"center_scale": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        # eig_range (0, 1) used to raise a ZeroDivisionError, and (-1, 1) to
        # build a task with a negative radius.
        with pytest.raises(ValueError):
            make_quadratic_task(seven_node_topology(), **{"dim": 3, **kwargs})

    def test_deterministic_given_seed(self):
        topo = seven_node_topology()
        a = make_quadratic_task(topo, dim=3, seed=42)
        b = make_quadratic_task(topo, dim=3, seed=42)
        np.testing.assert_array_equal(a.matrices, b.matrices)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_loss_cap_dominates_ball(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=5)
        cap = task.loss_cap()
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=3)
            w = v / np.linalg.norm(v) * task.radius * rng.random()
            for i, c in enumerate(task.clients):
                for e in range(1, int(task.max_exit[i]) + 1):
                    assert task.loss(w, c, e) <= cap + 1e-12
