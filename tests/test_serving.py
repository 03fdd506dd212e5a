"""Serving simulation: conservation, fraction fidelity, entropy routing."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import seven_node_topology
from fedexit.errors import EmptyDatasetError, InvalidArgumentError
from fedexit.fedtrain import TrainConfig, run
from fedexit.mlp import MlpTask, exit_accuracy, make_classification_task, make_test_set
from fedexit.serving import (
    entropy_confidence,
    simulate_serving,
    weighted_quality,
)
from fedexit.strategies import build_sampling_matrix, equal_weight
from fedexit.topology import budgets_for_split, compute_rate_plan


def trained_setup(split=(0.4, 0.35, 0.25), seed=0, rounds=40, test_samples=360):
    topo = seven_node_topology()
    budgets = budgets_for_split(topo, split)
    topo = topo.with_budgets(budgets)
    task = make_classification_task(
        topo, partition="equal", total_samples=420, input_dim=8, hidden_dim=12, seed=seed
    )
    topo = topo.with_dataset_sizes(task.sizes)
    cfg = TrainConfig(rounds=rounds, local_steps=2, batch_size=16, base_lr=0.3, seed=seed)
    w, _ = run(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.0), cfg)
    plan = compute_rate_plan(topo)
    xt, yt = make_test_set(task, test_samples, seed=seed + 50)
    return topo, plan, task, w, xt, yt


def per_node_reference(topo, plan, task, w, x, y):
    """Entropy-ranked serving in which each node scores its own pool.

    Each exit is scored on its own served set. Arrivals split evenly over
    the arrival nodes. Returns the served indices, the per-exit accuracies
    and losses, and the smallest pool that any node ranked or any exit scored.
    """
    arrival_nodes = sorted(n.id for n in topo.nodes if n.arrival_rate > 0)
    per_arrival, extra = divmod(len(y), len(arrival_nodes))
    incoming = {n: [] for n in topo.by_id}
    cursor = 0
    for i, node_id in enumerate(arrival_nodes):
        count = per_arrival + (1 if i < extra else 0)
        incoming[node_id].append(np.arange(cursor, cursor + count))
        cursor += count
    served, smallest = {}, len(y)
    for node_id in sorted(topo.by_id, key=lambda n: (-topo.depth[n], n)):
        node, pooled = topo.by_id[node_id], np.concatenate(incoming[node_id])
        keep = len(pooled)
        if node_id != topo.root:
            keep = int(round(plan.fraction[node_id] * len(pooled)))
            scores = entropy_confidence(task, w, node.exit, x[pooled])
            pooled = pooled[np.argsort(scores, kind="stable")]
            smallest = min(smallest, len(pooled))
            incoming[node.parent].append(pooled[keep:])
        served[node_id] = np.sort(pooled[:keep])
    accs, losses = [], []
    for e in range(1, topo.num_exits + 1):
        idx = np.concatenate([served[n] for n in topo.layers[e]])
        smallest = min(smallest, len(idx))
        accs.append(exit_accuracy(task, w, e, x[idx], y[idx]))
        losses.append(task.loss_on(w, x[idx], y[idx], e))
    return served, accs, losses, smallest


class TestEntropy:
    def test_one_hot_head_has_zero_entropy(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=0
        )
        w = task.init_params(np.random.default_rng(0))
        _, hstop = task.segments.heads[0]
        # Huge bias on one class drives the softmax to one-hot.
        w[hstop - task.num_classes] = 1e4
        x = np.ones((3, 5))
        ent = entropy_confidence(task, w, 1, x)
        np.testing.assert_allclose(ent, 0.0, atol=1e-8)

    def test_zero_head_is_uniform(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=0
        )
        w = task.init_params(np.random.default_rng(0))
        for e in range(1, 4):
            start, stop = task.segments.heads[e - 1]
            w[start:stop] = 0.0
        ent = entropy_confidence(task, w, 2, np.random.default_rng(1).normal(size=(5, 5)))
        np.testing.assert_allclose(ent, math.log(3), atol=1e-12)

    def test_shift_invariance(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=0
        )
        w = task.init_params(np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 5))
        base = entropy_confidence(task, w, 1, x)
        shifted = w.copy()
        hstart, hstop = task.segments.heads[0]
        bias_start = hstop - task.num_classes
        shifted[bias_start:hstop] += 7.3  # same constant on every class logit
        np.testing.assert_allclose(
            entropy_confidence(task, shifted, 1, x), base, atol=1e-9
        )


class TestSimulateServing:
    def test_sample_conservation(self):
        topo, plan, task, w, xt, yt = trained_setup()
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        assert sum(outcome.served_counts.values()) == len(yt)
        all_idx = np.concatenate([v for v in outcome.served_indices.values()])
        assert len(np.unique(all_idx)) == len(yt)

    def test_zero_budgets_serve_at_leaves(self):
        topo = seven_node_topology()  # zero budgets
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=1
        )
        w = task.init_params(np.random.default_rng(0))
        plan = compute_rate_plan(topo)
        xt, yt = make_test_set(task, 200, seed=2)
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        devices = ("dev1", "dev2", "dev3", "dev4")
        assert sum(outcome.served_counts[d] for d in devices) == 200
        assert np.isnan(outcome.exit_accuracy[1]) and np.isnan(outcome.exit_accuracy[2])
        assert outcome.system_accuracy == pytest.approx(outcome.exit_accuracy[0])

    def test_full_forwarding_serves_at_root(self):
        topo = seven_node_topology()
        topo = topo.with_budgets(budgets_for_split(topo, (0.0, 0.0, 1.0)))
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=1
        )
        plan = compute_rate_plan(topo)
        xt, yt = make_test_set(task, 150, seed=3)
        w = task.init_params(np.random.default_rng(1))
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        assert outcome.served_counts["cloud"] == 150

    def test_fraction_fidelity(self):
        topo, plan, task, w, xt, yt = trained_setup(split=(0.5, 0.3, 0.2))
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        # Reconstruct per-node inflow counts: arrivals enter at the devices
        # equally (equal rates), forwards follow served counts bottom-up.
        incoming: dict[str, int] = {n: 0 for n in topo.by_id}
        arrival_nodes = sorted(n.id for n in topo.nodes if n.arrival_rate > 0)
        per_arrival, extra = divmod(len(yt), len(arrival_nodes))
        for i, n in enumerate(arrival_nodes):
            incoming[n] += per_arrival + (1 if i < extra else 0)
        for node_id in sorted(topo.by_id, key=lambda n: -topo.depth[n]):
            node = topo.by_id[node_id]
            inflow = incoming[node_id]
            served = outcome.served_counts[node_id]
            if node.parent is not None:
                incoming[node.parent] += inflow - served
            if inflow > 0 and node_id != topo.root:
                assert abs(served / inflow - plan.fraction[node_id]) <= 1.0 / inflow
        assert incoming[topo.root] == outcome.served_counts[topo.root]

    def test_entropy_ranking_beats_random(self):
        wins = []
        for seed in range(5):
            topo, plan, task, w, xt, yt = trained_setup(seed=seed, rounds=60)
            entropy_outcome = simulate_serving(topo, plan, task, w, xt, yt, ranking="entropy")
            random_outcome = simulate_serving(
                topo, plan, task, w, xt, yt, ranking="random", seed=seed
            )
            wins.append(entropy_outcome.system_accuracy - random_outcome.system_accuracy)
        assert np.mean(wins) >= 0.0

    def test_matches_per_node_reference(self):
        topo, plan, task, w, xt, yt = trained_setup(test_samples=2400)
        served, accs, losses, smallest = per_node_reference(topo, plan, task, w, xt, yt)
        # Every forward pass of the reference covers more than 200 rows, where
        # a BLAS gemm row does not depend on how many rows share the call.
        assert smallest > 200
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        assert served.keys() == outcome.served_indices.keys()
        for node_id, idx in served.items():
            assert np.array_equal(outcome.served_indices[node_id], idx)
            assert outcome.served_counts[node_id] == len(idx)
        assert list(outcome.exit_accuracy) == accs
        np.testing.assert_allclose(outcome.exit_mean_loss, losses, rtol=1e-12, atol=0)

    def test_one_backbone_pass_per_call(self, monkeypatch):
        topo, plan, task, w, xt, yt = trained_setup(rounds=1)
        calls = {"exit_logits": 0, "hidden_states": 0, "logits": 0}
        for name in calls:
            real = getattr(MlpTask, name)

            def counting(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(MlpTask, name, counting)
        simulate_serving(topo, plan, task, w, xt, yt)
        assert calls == {"exit_logits": 1, "hidden_states": 0, "logits": 0}

    def test_peak_memory_holds_one_tile_not_the_stream(self):
        # At the shipped MLP sizes a 20,000-row stream is 2.7 MB of features
        # and labels. A pass over the whole stream at once peaked at 12.8 MB
        # labelling it and 13.4 MB serving it; row tiles keep both under 8 MB.
        topo = seven_node_topology()
        topo = topo.with_budgets(budgets_for_split(topo, (0.4, 0.35, 0.25)))
        task = make_classification_task(topo, partition="equal", total_samples=420,
                                        input_dim=16, hidden_dim=32, num_classes=6, seed=1)
        topo = topo.with_dataset_sizes(task.sizes)
        plan = compute_rate_plan(topo)
        w = task.init_params(np.random.default_rng(2))

        def peak(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (x, y), labelling = peak(lambda: make_test_set(task, 20_000, seed=3))
        _, serving = peak(lambda: simulate_serving(topo, plan, task, w, x, y))
        assert x.nbytes + y.nbytes < 2.8e6
        assert labelling < 8e6 and serving < 8e6, (labelling, serving)

    def test_empty_stream_rejected(self):
        topo, plan, task, w, xt, yt = trained_setup(rounds=1)
        with pytest.raises(EmptyDatasetError):
            simulate_serving(topo, plan, task, w, xt[:0], yt[:0])

    def test_mismatched_shapes_are_refused(self):
        # 10 rows with 5 labels served 5 samples without a word, and fewer
        # rows than labels, or a short w, ended in numpy's raw ValueError.
        topo, plan, task, w, xt, yt = trained_setup(rounds=1)
        for x, y in ((xt[:10], yt[:5]), (xt[:5], yt[:10]), (xt[:, :-1], yt), (xt[0], yt[:1])):
            with pytest.raises(InvalidArgumentError, match=re.escape(f"x has shape {x.shape}, ")):
                simulate_serving(topo, plan, task, w, x, y)
        for bad in (w[:-1], w[None]):
            with pytest.raises(InvalidArgumentError, match=r"^w has shape .*, not \(\d+,\)$"):
                simulate_serving(topo, plan, task, bad, xt, yt)

    def test_seed_is_read_as_every_stream_reads_it(self):
        # seed=1.5 ended in numpy's raw TypeError, and True drew as seed 1.
        topo, plan, task, w, xt, yt = trained_setup(rounds=1)
        for seed in (1.5, True, "1", -1):
            with pytest.raises(InvalidArgumentError, match="^seed must be "):
                simulate_serving(topo, plan, task, w, xt, yt, ranking="random", seed=seed)

    def test_served_share_is_realised_split(self):
        topo, plan, task, w, xt, yt = trained_setup()
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        per_exit = [sum(outcome.served_counts[n] for n in topo.layers[e]) for e in (1, 2, 3)]
        assert list(outcome.served_share) == [c / len(yt) for c in per_exit]
        assert outcome.to_dict()["served_share"] == list(outcome.served_share)

    def test_serving_gap_reported(self):
        topo, plan, task, w, xt, yt = trained_setup()
        outcome = simulate_serving(topo, plan, task, w, xt, yt)
        assert outcome.serving_gap.shape == (3,)
        defined = ~np.isnan(outcome.serving_gap)
        assert np.any(defined)


class TestWeightedQuality:
    def test_constant_metric(self):
        assert weighted_quality([0.7, 0.7, 0.7], [1, 5, 2]) == pytest.approx(0.7)

    def test_one_hot_rates(self):
        assert weighted_quality([0.9, 0.5, 0.2], [0, 0, 3]) == pytest.approx(0.2)

    def test_dot_product(self):
        assert weighted_quality([0.9, 0.7, 0.5], [0.05, 0.15, 0.80]) == pytest.approx(0.55)

    def test_nan_entries_skipped(self):
        assert weighted_quality([0.8, np.nan, 0.4], [1, 1, 1]) == pytest.approx(0.6)
