"""Bound computations: TV distance, heterogeneity, B, bias, proxies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seven_node_topology
from fedexit.errors import EmptyPoolError, NotNormalizedError
from fedexit.quadratic import make_quadratic_task, quadratic_minimizers
from fedexit.strategies import (
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    normalized_weights,
)
from fedexit.theory import (
    TheoryParams,
    bias_bound,
    bound_B,
    empirical_bias,
    estimate_sigma,
    gen_proxy,
    grad_second_moment,
    opt_error_bound,
    statistical_heterogeneity,
    theory_params,
    tv_distance,
)
from test_quadratic import pools_for, two_pair_1d_task

simplex3 = st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3).map(
    lambda v: np.array(v) / np.sum(v)
)


def plain_params(alpha, sigma, probs, *, mu=1.0, smooth=1.0, radius=0.5, J=1):
    alpha = np.asarray(alpha, dtype=float)
    return TheoryParams(
        mu=mu,
        smoothness=smooth,
        loss_cap=1.0,
        radius=radius,
        local_steps=J,
        pairs=tuple(("c", i + 1) for i in range(alpha.size)),
        alpha=alpha,
        sigma=np.asarray(sigma, dtype=float),
        probs=np.asarray(probs, dtype=float),
    )


class TestTvDistance:
    def test_identity(self):
        v = np.array([0.2, 0.3, 0.5])
        assert tv_distance(v, v) == 0.0

    def test_hand_value(self):
        a = np.array([1 / 3, 1 / 3, 1 / 3])
        b = np.array([0.80, 0.15, 0.05])
        assert tv_distance(a, b) == pytest.approx(0.4667, abs=1e-4)

    def test_disjoint_support(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            tv_distance(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    @given(simplex3, simplex3, simplex3)
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, a, b, c):
        ab = tv_distance(a, b)
        assert ab == pytest.approx(tv_distance(b, a), abs=1e-12)
        assert 0.0 <= ab <= 1.0 + 1e-12
        assert ab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12
        assert tv_distance(a, a) == 0.0


class TestHeterogeneity:
    def test_zero_for_common_center(self):
        task = two_pair_1d_task((1.0, 1.0))
        assert statistical_heterogeneity(
            task, normalized_weights([0.5, 0.5]), pools_for(task)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_two_pairs(self):
        task = two_pair_1d_task((0.0, 2.0))
        gamma = statistical_heterogeneity(
            task, normalized_weights([0.5, 0.5]), pools_for(task)
        )
        assert gamma == pytest.approx(0.5, abs=1e-12)

    def test_presolved_minimum_gives_same_value(self):
        task = make_quadratic_task(seven_node_topology(), dim=3, seed=5)
        sampling = build_sampling_matrix(seven_node_topology(), 0.1)
        pools = exit_pools(seven_node_topology(), sampling)
        weights = normalized_weights([0.2, 0.3, 0.5])
        minimum = quadratic_minimizers(task, weights, pools)
        assert statistical_heterogeneity(task, weights, pools, minimum) == (
            statistical_heterogeneity(task, weights, pools)
        )

    def test_scales_with_curvature(self):
        base = two_pair_1d_task((0.0, 2.0))
        import dataclasses

        doubled = dataclasses.replace(
            base, matrices=2 * base.matrices, mu=2.0, smoothness=2.0
        )
        weights = normalized_weights([0.5, 0.5])
        assert statistical_heterogeneity(doubled, weights, pools_for(doubled)) == (
            pytest.approx(2 * statistical_heterogeneity(base, weights, pools_for(base)))
        )


class TestGradSecondMoment:
    def test_no_noise(self):
        params = plain_params([1.0], [0.0], [1.0], mu=1.0, smooth=1.0, radius=0.5)
        g_pairs, g_max = grad_second_moment(params)
        assert g_max == pytest.approx(1.0)

    def test_noise_only(self):
        params = plain_params([1.0], [3.0], [1.0], smooth=0.0, radius=0.5, mu=1.0)
        _, g_max = grad_second_moment(params)
        assert g_max == pytest.approx(9.0)

    def test_empirical_second_moment_below_cap(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.1, 0.5), seed=3)
        sampling = build_sampling_matrix(topo, 0.1)
        pools = exit_pools(topo, sampling)
        params = theory_params(task, equal_weight(3), sampling, pools, 1.0, 4)
        g_pairs, _ = grad_second_moment(params)
        rng = np.random.default_rng(0)
        for (client, exit), cap in zip(params.pairs, g_pairs):
            draws = []
            for _ in range(400):
                direction = rng.normal(size=3)
                w = direction / np.linalg.norm(direction) * task.radius * rng.random()
                g = task.stochastic_gradient(w, client, exit, 1, rng)
                draws.append(np.sum(g**2))
            assert np.mean(draws) <= cap


class TestBoundB:
    def test_everything_vanishes(self):
        params = plain_params([1.0], [0.0], [1.0], J=1)
        assert bound_B(params, heterogeneity=0.0) == 0.0

    def test_term_by_term(self):
        # radius 0 makes the per-pair gradient cap collapse to sigma^2 = 1
        params = plain_params([1.0], [1.0], [1.0], mu=1.0, smooth=1.0, radius=0.0, J=2)
        # noise 1, drift 0, local-step drift 8*(2-1)^2*1^2 = 8, sampling 0
        assert bound_B(params, heterogeneity=0.0) == pytest.approx(9.0)

    def test_monotone_in_probability(self):
        values = []
        for p in (0.9, 0.5, 0.2):
            params = plain_params([1.0], [0.5], [p], J=2)
            values.append(bound_B(params, heterogeneity=0.0))
        assert values[0] < values[1] < values[2]

    def test_monotone_in_sigma_and_gamma(self):
        lo = plain_params([1.0], [0.1], [0.5], J=2)
        hi = plain_params([1.0], [0.4], [0.5], J=2)
        assert bound_B(lo, 0.0) < bound_B(hi, 0.0)
        assert bound_B(lo, 0.0) < bound_B(lo, 1.0)


class TestOptErrorBound:
    def test_hand_arithmetic(self):
        params = plain_params([1.0], [1.0], [1.0], mu=1.0, smooth=1.0, radius=0.5, J=4)
        assert params.gamma == 7.0
        value = opt_error_bound(params, b_value=9.0, rounds=1, initial_dist_sq=1.0)
        assert value == pytest.approx(2.0)

    def test_halves_when_horizon_doubles(self):
        params = plain_params([1.0], [1.0], [1.0], mu=1.0, smooth=1.0, J=1)
        assert params.gamma == 7.0
        t1 = 100
        t2 = 7 + 2 * t1  # makes gamma + t2 exactly twice gamma + t1
        v1 = opt_error_bound(params, 5.0, t1, 0.7)
        v2 = opt_error_bound(params, 5.0, t2, 0.7)
        assert v2 == pytest.approx(v1 / 2, rel=1e-12)

    def test_zero_bound(self):
        params = plain_params([1.0], [0.0], [1.0], J=1)
        assert opt_error_bound(params, 0.0, 10, 0.0) == 0.0


class TestBias:
    def test_zero_gap_for_equal_weights(self):
        task = two_pair_1d_task((0.0, 2.0))
        w = normalized_weights([0.4, 0.6])
        assert bias_bound(1.0, w, w) == 0.0
        assert empirical_bias(task, w, w, n_probes=50) == 0.0

    def test_bound_arithmetic(self):
        a = np.array([1 / 3, 1 / 3, 1 / 3])
        b = np.array([0.80, 0.15, 0.05])
        assert bias_bound(1.0, a, b) == pytest.approx(0.9333, abs=1e-4)

    def test_probe_gap_below_bound(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=9)
        cap = task.loss_cap()
        rng = np.random.default_rng(2)
        for trial in range(5):
            a = normalized_weights(rng.uniform(0.01, 1, size=3))
            b = normalized_weights(rng.uniform(0.01, 1, size=3))
            gap = empirical_bias(task, a, b, n_probes=200, seed=trial)
            assert gap <= bias_bound(cap, a, b) + 1e-12


class TestGenProxy:
    def test_uniform_unit_case(self):
        assert gen_proxy(equal_weight(3), [1, 1, 1], [1, 1, 1]) == pytest.approx(1.0)

    def test_pool_scaling_law(self):
        w = equal_weight(3)
        base = gen_proxy(w, [4, 9, 16], [10, 10, 10])
        doubled = gen_proxy(w, [4, 9, 16], [20, 20, 20])
        assert doubled == pytest.approx(base / np.sqrt(2))

    def test_reference_magnitudes(self):
        value = gen_proxy(
            equal_weight(3),
            [78_316_160, 694_682_880, 1_770_787_840],
            [400, 200, 100],
        )
        assert value == pytest.approx(2171.4216472880435, rel=1e-12)

    def test_weighted_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            gen_proxy(equal_weight(2), [1, 1], [10, 0])


class TestSigmaEstimate:
    def test_quadratic_estimate_near_truth(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.3, 0.3), seed=1)
        est = estimate_sigma(task, "dev1", 1, batch_size=4, radius=task.radius, n_probes=200)
        # Worst-of-n for an isotropic Gaussian of scale sigma lands above sigma.
        assert 0.3 * 0.8 <= est <= 0.3 * 3.0
