"""Early-exit MLP: backprop against finite differences, data generation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import seven_node_topology
from fedexit.errors import EmptyDatasetError
from fedexit.mlp import (
    PARTITIONS,
    exit_accuracy,
    layer_allocation,
    make_classification_task,
    make_test_set,
    score_exits,
)


def small_task(seed=3, total=210, **kwargs):
    defaults = dict(input_dim=5, hidden_dim=6, num_classes=3)
    defaults.update(kwargs)
    return make_classification_task(
        seven_node_topology(), partition="equal", total_samples=total, seed=seed, **defaults
    )


def finite_difference(task, w, x, y, exit, h=1e-5):
    fd = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (task.loss_on(wp, x, y, exit) - task.loss_on(wm, x, y, exit)) / (2 * h)
    return fd


class TestForward:
    def test_zeroed_head_gives_log_c(self):
        task = small_task()
        w = task.init_params(np.random.default_rng(0))
        for e in range(1, 4):
            start, stop = task.segments.heads[e - 1]
            w[start:stop] = 0.0
        x, y = task.data["dev1"]
        for e in range(1, 4):
            assert task.loss_on(w, x, y, e) == pytest.approx(math.log(3), abs=1e-12)

    def test_exit_logits_equal_logits_bit_for_bit(self):
        task = small_task()
        w = task.init_params(np.random.default_rng(5))
        x, _ = make_test_set(task, 300, seed=4)
        per_exit = list(task.exit_logits(w, x))
        assert len(per_exit) == task.num_exits
        for e, z in enumerate(per_exit, start=1):
            assert z.tobytes() == task.logits(w, x, e).tobytes()

    def test_one_pass_scores_equal_per_exit_scores(self):
        task = small_task()
        w = task.init_params(np.random.default_rng(6))
        x, y = make_test_set(task, 300, seed=5)
        scores = score_exits(task, w, x, y, entropy_exits={2})
        assert len(scores) == task.num_exits
        for e, s in enumerate(scores, start=1):
            assert float(np.mean(s.correct)) == exit_accuracy(task, w, e, x, y)
            assert float(np.mean(s.loss)) == task.loss_on(w, x, y, e)
            assert (s.entropy is None) == (e != 2)

    def test_one_pass_scores_of_empty_set_rejected(self):
        task = small_task()
        with pytest.raises(EmptyDatasetError):
            score_exits(task, task.teacher, np.zeros((0, 5)), np.zeros(0, dtype=int))


class TestGradient:
    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_matches_central_differences(self, draw):
        task = small_task(seed=draw + 10)
        rng = np.random.default_rng(draw)
        w = task.init_params(rng)
        client = ["dev1", "edge2", "cloud"][draw]
        exit = [1, 2, 3][draw]
        x, y = task.data[client]
        idx = rng.integers(0, len(y), size=16)
        xb, yb = x[idx], y[idx]
        grad = task.gradient_on(w, xb, yb, exit)
        fd = finite_difference(task, w, xb, yb, exit)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5

    def test_inactive_coordinates_have_zero_gradient(self):
        task = small_task()
        w = task.init_params(np.random.default_rng(2))
        x, y = task.data["dev2"]
        for e in range(1, 4):
            grad = task.gradient_on(w, x, y, e)
            mask = task.segments.active_mask(e)
            assert np.all(grad[~mask] == 0.0)
            assert np.any(grad[mask] != 0.0)

    def test_active_sets_nest_in_backbone(self):
        segs = small_task().segments
        for e in range(1, len(segs.blocks)):
            backbone_e = set()
            for start, stop in segs.blocks[:e]:
                backbone_e.update(range(start, stop))
            backbone_next = set()
            for start, stop in segs.blocks[: e + 1]:
                backbone_next.update(range(start, stop))
            assert backbone_e < backbone_next


class TestAccuracy:
    def test_chance_level_for_random_head(self):
        task = small_task(total=210)
        w = task.init_params(np.random.default_rng(4))
        x, y = make_test_set(task, 6000, seed=9)
        acc = exit_accuracy(task, w, 1, x, y)
        assert abs(acc - 1 / 3) < 0.08

    def test_teacher_is_self_consistent(self):
        task = small_task()
        x, y = make_test_set(task, 500, seed=1)
        assert exit_accuracy(task, task.teacher, task.num_exits, x, y) == 1.0

    def test_empty_dataset_rejected(self):
        task = small_task()
        with pytest.raises(EmptyDatasetError):
            exit_accuracy(task, task.teacher, 1, np.zeros((0, 5)), np.zeros(0, dtype=int))


class TestDataGeneration:
    def test_equal_partition_counts(self):
        task = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=1200, seed=0
        )
        sizes = task.sizes
        assert all(sizes[d] == 100 for d in ("dev1", "dev2", "dev3", "dev4"))
        assert sizes["edge1"] == sizes["edge2"] == 200
        assert sizes["cloud"] == 400

    def test_cloud_bias_plus_layer_totals(self):
        task = make_classification_task(
            seven_node_topology(), partition="cloud_bias_plus", total_samples=1000, seed=0
        )
        sizes = task.sizes
        devices = sum(sizes[d] for d in ("dev1", "dev2", "dev3", "dev4"))
        edges = sizes["edge1"] + sizes["edge2"]
        assert abs(devices - 34) <= 1
        assert abs(edges - 199) <= 1
        assert abs(sizes["cloud"] - 767) <= 1
        assert devices + edges + sizes["cloud"] == 1000

    def test_within_layer_near_equal(self):
        task = make_classification_task(
            seven_node_topology(), partition="devices_bias_plus", total_samples=997, seed=0
        )
        device_sizes = [task.sizes[d] for d in ("dev1", "dev2", "dev3", "dev4")]
        assert max(device_sizes) - min(device_sizes) <= 1

    def test_deterministic_given_seed(self):
        a = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=300, seed=17
        )
        b = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=300, seed=17
        )
        np.testing.assert_array_equal(a.teacher, b.teacher)
        for c in a.data:
            np.testing.assert_array_equal(a.data[c][0], b.data[c][0])
            np.testing.assert_array_equal(a.data[c][1], b.data[c][1])

    def test_labels_reasonably_balanced(self):
        task = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=3000, seed=5
        )
        labels = np.concatenate([y for _, y in task.data.values()])
        counts = np.bincount(labels, minlength=3)
        assert counts.min() > 0.1 * len(labels)

    @pytest.mark.parametrize("dim", ["input_dim", "hidden_dim", "num_classes"])
    def test_empty_layer_rejected(self, dim):
        with pytest.raises(ValueError, match=dim):
            small_task(**{dim: 0})

    def test_allocation_fractions(self):
        counts = layer_allocation(PARTITIONS["cloud_bias_plus"], 1000, [4, 2, 1])
        assert sum(sum(layer) for layer in counts) == 1000
        assert sum(counts[0]) == 34 and sum(counts[1]) == 199 and sum(counts[2]) == 767


class TestMonotoneExitQuality:
    def test_deeper_exits_not_worse_after_joint_training(self):
        """Plain SGD on the equally weighted pooled objective, then compare exits."""
        gaps = []
        for seed in range(5):
            task = make_classification_task(
                seven_node_topology(),
                partition="equal",
                total_samples=600,
                input_dim=8,
                hidden_dim=16,
                num_classes=3,
                seed=seed,
            )
            pooled_x = np.concatenate([x for x, _ in task.data.values()])
            pooled_y = np.concatenate([y for _, y in task.data.values()])
            rng = np.random.default_rng(seed)
            w = task.init_params(rng)
            for _ in range(400):
                idx = rng.integers(0, len(pooled_y), size=32)
                grad = sum(
                    task.gradient_on(w, pooled_x[idx], pooled_y[idx], e) for e in (1, 2, 3)
                ) / 3.0
                w = w - 0.25 * grad
            xt, yt = make_test_set(task, 800, seed=seed + 100)
            accs = [exit_accuracy(task, w, e, xt, yt) for e in (1, 2, 3)]
            gaps.append([accs[1] - accs[0], accs[2] - accs[1]])
        mean_gaps = np.mean(gaps, axis=0)
        assert np.all(mean_gaps >= -0.02)
