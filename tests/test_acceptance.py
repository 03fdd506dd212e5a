"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every tolerance is fixed here; the suite is deterministic given the seeds
baked into each criterion.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from csv import DictReader

import numpy as np
import pytest

from conftest import chain_topology, full_gradient, random_tree, seven_node_topology
from fedexit.experiment import parse_config, run_experiment
from fedexit.fedtrain import (
    Job,
    TrainConfig,
    aggregate_preprojection,
    learning_rate,
    local_update,
    run_stacked,
    sample_round,
)
from fedexit.mlp import make_classification_task
from fedexit.objective import weighted_objective
from fedexit.quadratic import make_quadratic_task, quadratic_minimizers
from fedexit.strategies import (
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    flops_prop,
    normalized_weights,
)
from fedexit.theory import (
    bias_bound,
    bound_B,
    empirical_bias,
    grad_second_moment,
    opt_error_bound,
    statistical_heterogeneity,
    theory_params,
    tv_distance,
)
from fedexit.topology import brute_force_rate_plan, compute_rate_plan, grid_search_p1

SUITE_START = time.time()

SEVEN_NODES = [
    {"id": "cloud", "parent": None, "exit": 3, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge1", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge2", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "dev1", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev2", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev3", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev4", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
]

DESK_TASK = {
    "kind": "mlp",
    "input_dim": 16,
    "hidden_dim": 32,
    "num_classes": 6,
    "teacher_gain": 2.5,
}

DESK_TRAINING = {
    "rounds": 40,
    "local_steps": 2,
    "batch_size": 64,
    "lr_schedule": "cosine",
    "base_lr": 0.2,
}

DESK_SEEDS = [1, 2, 3, 4, 5]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    else:
        print(f"PASS criterion {number:2d}: {description}")


def quadratic_bench(k: float = 0.1, seed: int = 2024):
    topo = seven_node_topology()
    task = make_quadratic_task(
        topo, dim=4, eig_range=(1.0, 2.0), sigma_range=(0.0, 0.5), seed=seed
    )
    sampling = build_sampling_matrix(topo, k)
    pools = exit_pools(topo, sampling)
    weights = equal_weight(3)
    return topo, task, sampling, pools, weights


def desk_config(splits, partition, strategies) -> dict:
    return {
        "topology": {"num_exits": 3, "nodes": SEVEN_NODES},
        "serving": {"splits": splits},
        "data": {
            "partitions": [partition],
            "total_samples": 1200,
            "test_samples": 600,
        },
        "task": DESK_TASK,
        "strategies": strategies,
        "training": DESK_TRAINING,
        "seeds": DESK_SEEDS,
        "output_dir": "results",
    }


def accuracy_table(csv_path):
    table: dict[tuple[str, str, str], float] = {}
    raw: dict[tuple[str, str, str], dict[str, str]] = {}
    with open(csv_path) as handle:
        for row in DictReader(handle):
            key = (row["seed"], row["split"], f"{row['strategy']}:{row['k']}")
            table[key] = float(row["weighted_acc"])
            raw[key] = row
    return table, raw


def test_01_rate_plan_oracle_equivalence():
    start = time.time()
    with criterion(1, "recurrence matches fixed-point oracle on 200 random trees"):
        rng = np.random.default_rng(11)
        for _ in range(200):
            topo = random_tree(rng, max_nodes=15)
            fast = compute_rate_plan(topo)
            slow = brute_force_rate_plan(topo)
            for nid in topo.by_id:
                assert abs(fast.transmit[nid] - slow.transmit[nid]) <= 1e-12
                assert abs(fast.serve[nid] - slow.serve[nid]) <= 1e-12
            assert np.all(np.abs(fast.lambda_exit - slow.lambda_exit) <= 1e-12)
            total = topo.total_arrival
            if total > 0:
                assert abs(fast.total_rate - total) / total <= 1e-12
        assert time.time() - start < 5.0


def test_02_saturating_plan_matches_grid_search():
    start = time.time()
    with criterion(2, "saturating plan is grid-search optimal under decreasing losses"):
        topo = chain_topology(arrivals=(1.0, 0.0, 0.0), budgets=(0.5, 0.25))
        losses = (1.0, 0.5, 0.2)
        step = 0.05
        _, grid_best = grid_search_p1(topo, losses, step=step)
        plan = compute_rate_plan(topo)
        saturating = sum(
            losses[topo.exit_of(nid) - 1] * plan.serve[nid] for nid in topo.by_id
        )
        assert saturating <= grid_best + 1e-12  # saturation is never worse
        assert abs(saturating - grid_best) <= step
        assert time.time() - start < 10.0


def test_03_flops_proportional_weights():
    with criterion(3, "exit-cost weights reproduce 3.1/27.3/69.6 within 0.05 p.p."):
        weights = flops_prop((78_316_160, 694_682_880, 1_770_787_840)).weights
        for got, expected in zip(weights, (0.031, 0.273, 0.696)):
            assert abs(got - expected) <= 5e-4


def test_04_aggregation_unbiasedness():
    start = time.time()
    with criterion(4, "frozen-update aggregate mean within 4 SE over 1e5 resamplings"):
        topo, task, sampling, pools, weights = quadratic_bench(k=0.1)
        rng = np.random.default_rng(0)
        w_t = np.zeros(task.dim)
        frozen = {
            (c, e): rng.normal(size=task.dim)
            for e in range(1, 4)
            for c in pools.clients[e - 1]
        }
        exact = np.zeros(task.dim)
        for (c, e), delta in frozen.items():
            exact += weights.weights[e - 1] * task.sizes[c] / pools.sizes[e - 1] * delta
        n = 100_000
        draws = np.zeros((n, task.dim))
        for i in range(n):
            chosen = sample_round(sampling, rng)
            updates = [(c, e, w_t + frozen[(c, e)]) for c, e in chosen.pairs]
            draws[i] = (
                aggregate_preprojection(
                    w_t, updates, weights, sampling, pools, task.sizes, 1.0
                )
                - w_t
            )
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 4 * se)
        assert time.time() - start < 30.0


@pytest.mark.parametrize("k", [0.1, 0.2])
def test_05_aggregate_variance_bound(k):
    start = time.time()
    with criterion(5, f"round-aggregate variance within the sampling bound (k={k})"):
        topo, task, sampling, pools, weights = quadratic_bench(k=k)
        cfg = TrainConfig(
            rounds=1, local_steps=4, batch_size=1, server_lr=1.0,
            lr_schedule="theory", seed=0,
        )
        params = theory_params(task, weights, sampling, pools, 1.0, cfg.local_steps)
        g_pairs, _ = grad_second_moment(params)
        eta_last = learning_rate(cfg, task.mu, task.smoothness, 1, cfg.local_steps - 1)
        bound = (
            4.0 * eta_last**2 * cfg.local_steps**2
            * float(np.sum(params.alpha**2 * (1 - params.probs) / params.probs * g_pairs))
        )
        rng = np.random.default_rng(1)
        w_t = np.zeros(task.dim)
        pairs = [(c, e) for e in range(1, 4) for c in pools.clients[e - 1]]
        n = 5000
        sq = np.zeros(n)
        for i in range(n):
            locals_ = {
                (c, e): local_update(task, w_t, c, e, cfg, 1, rng) for c, e in pairs
            }
            mean_agg = w_t.copy()
            for (c, e), w_ce in locals_.items():
                alpha = weights.weights[e - 1] * task.sizes[c] / pools.sizes[e - 1]
                mean_agg = mean_agg + alpha * (w_ce - w_t)
            chosen = sample_round(sampling, rng)
            updates = [(c, e, locals_[(c, e)]) for c, e in chosen.pairs]
            realized = aggregate_preprojection(
                w_t, updates, weights, sampling, pools, task.sizes, 1.0
            )
            sq[i] = float(np.sum((realized - mean_agg) ** 2))
        assert sq.mean() <= bound * 1.1
        assert time.time() - start < 30.0


def test_06_optimization_error_bound_and_scaling():
    start = time.time()
    with criterion(6, "final optimality gap below the bound and ~1/(offset+JT)"):
        topo, task, sampling, pools, weights = quadratic_bench(k=0.1)
        minimum = quadratic_minimizers(task, weights, pools)
        params = theory_params(task, weights, sampling, pools, 1.0, 4)
        b_value = bound_B(params, statistical_heterogeneity(task, weights, pools))
        w0 = np.zeros(task.dim)
        init_dist_sq = float(np.sum((w0 - minimum.w_star) ** 2))
        errors = {}
        for rounds in (50, 500, 5000):
            # The 10 seeds train side by side; each row equals its seed's run alone.
            jobs = [Job(topo, task, weights, sampling, TrainConfig(
                rounds=rounds, local_steps=4, batch_size=1, server_lr=1.0,
                lr_schedule="theory", seed=seed,
            ), w_init=w0) for seed in range(10)]
            gaps = [weighted_objective(task, w_final, weights, pools) - minimum.f_star
                    for w_final in run_stacked(jobs)]
            errors[rounds] = float(np.mean(gaps))
            bound = opt_error_bound(params, b_value, rounds, init_dist_sq)
            assert 0.0 <= errors[rounds] <= bound
        j = params.local_steps
        ratio_cap = 1.5 * (params.gamma + 500 * j) / (params.gamma + 5000 * j)
        assert errors[5000] / errors[500] <= ratio_cap
        assert time.time() - start < 120.0


def test_07_bias_bound_probes():
    start = time.time()
    with criterion(7, "clipped objective gap below 2*M*tv for 20 weight pairs"):
        topo, task, _, _, _ = quadratic_bench()
        cap = task.loss_cap()
        rng = np.random.default_rng(3)
        for trial in range(20):
            a = normalized_weights(rng.uniform(0.0, 1.0, size=3) + 1e-3)
            b = normalized_weights(rng.uniform(0.0, 1.0, size=3) + 1e-3)
            gap = empirical_bias(task, a, b, n_probes=1000, seed=trial, loss_cap=cap)
            assert gap <= bias_bound(cap, a, b) + 1e-12
        assert time.time() - start < 30.0


def test_08_mlp_gradients_match_finite_differences():
    start = time.time()
    with criterion(8, "backprop matches central differences at 1e-5 per coordinate"):
        task = make_classification_task(
            seven_node_topology(),
            partition="equal",
            total_samples=420,
            input_dim=16,
            hidden_dim=32,
            num_classes=6,
            teacher_gain=2.5,
            seed=0,
        )
        h = 1e-5
        for draw in range(3):
            rng = np.random.default_rng(100 + draw)
            w = task.init_params(rng)
            client = ("dev1", "edge1", "cloud")[draw]
            exit = draw + 1
            x_all, y_all = task.data[client]
            idx = rng.integers(0, len(y_all), size=16)
            xb, yb = x_all[idx], y_all[idx]
            grad = full_gradient(task, w, xb, yb, exit)
            fd = np.zeros_like(w)
            for i in range(task.dim):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (task.loss_on(wp, xb, yb, exit) - task.loss_on(wm, xb, yb, exit)) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-5
        assert time.time() - start < 30.0


def test_09_serving_rate_beats_equal_on_device_heavy_split(tmp_path):
    start = time.time()
    with criterion(9, "serving-rate weights gain >= 1 p.p. at 80-15-5, tie at 33-33-33"):
        cfg = parse_config(
            desk_config(
                splits=[[80, 15, 5], [33, 33, 33]],
                partition="equal",
                strategies=[{"name": "equal"}, {"name": "serving_rate"}],
            )
        )
        csv_path = run_experiment(cfg, out_dir=tmp_path / "strategy_grid")
        table, raw = accuracy_table(csv_path)
        deltas = [
            table[(str(s), "80-15-5", "serving_rate:0.0")]
            - table[(str(s), "80-15-5", "equal:0.0")]
            for s in DESK_SEEDS
        ]
        assert float(np.mean(deltas)) >= 0.01
        for s in DESK_SEEDS:
            even_equal = raw[(str(s), "33-33-33", "equal:0.0")]
            even_rate = raw[(str(s), "33-33-33", "serving_rate:0.0")]
            for field in ("exit1_acc", "exit2_acc", "exit3_acc", "weighted_acc"):
                assert even_equal[field] == even_rate[field]  # textual, hence bit-exact
        assert time.time() - start < 300.0


def test_10_off_exit_sampling_helps_under_cloud_bias(tmp_path):
    start = time.time()
    with criterion(10, "k=0.2 beats k=0 for serving-rate weights under cloud-biased data"):
        cfg = parse_config(
            desk_config(
                splits=[[80, 15, 5], [60, 30, 10]],
                partition="cloud_bias_plus",
                strategies=[
                    {"name": "serving_rate", "k": 0.0},
                    {"name": "serving_rate", "k": 0.2},
                ],
            )
        )
        csv_path = run_experiment(cfg, out_dir=tmp_path / "offexit_sweep")
        table, _ = accuracy_table(csv_path)
        for split in ("80-15-5", "60-30-10"):
            deltas = [
                table[(str(s), split, "serving_rate:0.2")]
                - table[(str(s), split, "serving_rate:0.0")]
                for s in DESK_SEEDS
            ]
            assert float(np.mean(deltas)) >= 0.0
        assert time.time() - start < 300.0


def test_11_experiment_outputs_are_byte_identical(tmp_path):
    with criterion(11, "rerunning a config reproduces results.csv byte for byte"):
        cfg = parse_config(
            desk_config(
                splits=[[80, 15, 5]],
                partition="equal",
                strategies=[{"name": "equal"}, {"name": "serving_rate", "k": 0.1}],
            )
        )
        first = run_experiment(cfg, out_dir=tmp_path / "a").read_bytes()
        second = run_experiment(cfg, out_dir=tmp_path / "b").read_bytes()
        assert first == second
        report_a = sorted((tmp_path / "a" / "reports").glob("*.json"))
        report_b = sorted((tmp_path / "b" / "reports").glob("*.json"))
        assert [p.read_bytes() for p in report_a] == [p.read_bytes() for p in report_b]


def test_12_suite_runtime_budget():
    with criterion(12, "acceptance suite fits the 15-minute single-thread budget"):
        assert time.time() - SUITE_START < 900.0
