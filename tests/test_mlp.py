"""Early-exit MLP: backprop against finite differences, data generation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import full_gradient, seven_node_topology
from fedexit.errors import EmptyDatasetError, InvalidArgumentError
from fedexit.mlp import (
    PARTITIONS,
    TILE_ROWS,
    _bias_grad,
    _row_sum,
    build_segments,
    cross_entropy,
    exit_accuracy,
    is_correct,
    layer_allocation,
    make_classification_task,
    make_test_set,
    row_tiles,
    score_exits,
    softmax_entropy,
)


def small_task(seed=3, total=210, **kwargs):
    defaults = dict(input_dim=5, hidden_dim=6, num_classes=3, partition="equal")
    defaults.update(kwargs)
    return make_classification_task(
        seven_node_topology(), total_samples=total, seed=seed, **defaults
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


# The scoring formulas as they were written before the shared softmax kernel,
# kept here as the oracle the kernel must match bit for bit.
def oracle_cross_entropy(z, y):
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    return logsumexp - z[np.arange(len(y)), y]


def oracle_entropy(z):
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    p = expz / expz.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def oracle_correct(z, y):
    return np.argmax(z, axis=1) == y


# Rows that stress the kernel, cut or repeated to the class count: ties in the
# max, signed zeros, softmax entries that underflow to exactly 0, huge
# magnitudes, and infinities and NaNs.
FINITE_ROWS = [
    [0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, 1.0], [2.0, -1.0, 2.0], [-3.0, 5.0, 5.0, 5.0],
    [0.0, -800.0], [-800.0, 0.0, -745.0], [700.0, -700.0], [1e300, -1e300, 1e300],
    [5e-324, 0.0, -5e-324],
]
SPECIAL_ROWS = [
    [np.inf, 0.0], [0.0, -np.inf], [-np.inf, -np.inf], [np.inf, np.inf, 1.0],
    [np.inf, -np.inf], [np.nan, 0.0], [0.0, np.nan, np.nan], [np.inf, np.nan], [-np.inf, np.nan],
]


def hard_logits(rng, n, classes, rows):
    """``n`` rows of logits: the given hard rows first, then rounded draws with hard rows mixed in."""
    hard = np.array([np.resize(np.array(r, dtype=float), classes) for r in rows])
    z = np.round(rng.standard_normal((n, classes)) * 4, 1)  # rounding makes ties
    pick = rng.random(n) < 0.2
    z[pick] = hard[rng.integers(0, len(hard), pick.sum())]
    z[: min(n, len(hard))] = hard[: min(n, len(hard))]
    return z


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert a.tobytes() == b.tobytes()


class ScoringStub:
    """Stands in for a task whose exits emit given logits.

    Its inputs are row indices into those logits, so a caller that passes
    the rows of one tile gets that tile's logits.
    """

    def __init__(self, logits):
        self.per_exit = logits
        self.num_exits = len(logits)

    def exit_logits(self, w, x):
        yield from (z[x] for z in self.per_exit)


class TestScoringKernel:
    @pytest.mark.parametrize("classes", [1, 2, 6, 9])
    @pytest.mark.parametrize("n", [1, 20_000])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
    def test_scores_match_oracle_bit_for_bit(self, classes, n, special):
        rng = np.random.default_rng(classes * 10 + n % 7 + special)
        rows = FINITE_ROWS + (SPECIAL_ROWS if special else [])
        # At n = 1 every hard row is scored as its own one-row set.
        sets = ([hard_logits(rng, 1, classes, [r]) for r in rows] if n == 1
                else [hard_logits(rng, n, classes, rows)])
        # Finite logits must not warn (RuntimeWarnings are errors here);
        # inf and NaN warn in the oracle as in the kernel.
        def state():
            return np.errstate(all="ignore") if special else np.errstate()

        for z in sets:
            y = rng.integers(0, classes, len(z))
            with state():
                expected = (oracle_correct(z, y), oracle_cross_entropy(z, y), oracle_entropy(z))
                got = (is_correct(z, y), cross_entropy(z, y), softmax_entropy(z))
                stub = ScoringStub([z, z[::-1].copy()])
                scores = score_exits(stub, None, np.arange(len(z)), y, {1})
            for a, b in zip(got, expected):
                assert_same_bits(a, b)
            assert_same_bits(scores[0].correct, expected[0])
            assert_same_bits(scores[0].loss, expected[1])
            assert_same_bits(scores[0].entropy, expected[2])
            assert scores[1].entropy is None
            with state():
                assert_same_bits(scores[1].loss, oracle_cross_entropy(z[::-1].copy(), y))

    def test_kernel_leaves_logits_alone(self):
        rng = np.random.default_rng(1)
        z = hard_logits(rng, 500, 6, FINITE_ROWS)
        before = z.copy()
        y = rng.integers(0, 6, 500)
        is_correct(z, y), cross_entropy(z, y), softmax_entropy(z)
        assert z.tobytes() == before.tobytes()

    def test_underflowed_and_nan_probabilities_add_no_entropy(self):
        with np.errstate(invalid="ignore"):
            h = softmax_entropy(np.array([[0.0, -800.0], [np.nan, 0.0]]))
        assert h.tolist() == [0.0, 0.0]


class TestNarrowReductions:
    """The column-wise row sum and the bias reduction add what numpy's sums add, in its order."""

    @pytest.mark.parametrize("classes", range(1, 13))
    def test_row_sum_equals_numpy_sum_bit_for_bit(self, classes):
        # Both sides of the 8-entry boundary, where numpy's order turns pairwise.
        rng = np.random.default_rng(classes)
        z = hard_logits(rng, 4000, classes, FINITE_ROWS + SPECIAL_ROWS)
        z[rng.random(z.shape) < 0.05] = np.nan
        z[-40:] = rng.choice([0.0, -0.0], (40, classes))  # rows of zeros of either sign
        z *= 10.0 ** rng.integers(-6, 6, z.shape)  # mixed magnitudes: the order shows
        with np.errstate(all="ignore"):  # the hard rows overflow and add inf to -inf
            for rows in (z, z.reshape(8, 500, classes), z.reshape(2, 4, 500, classes)):
                assert_same_bits(_row_sum(rows), rows.sum(axis=-1))

    @pytest.mark.parametrize("k", [1, 2, 6, 32])
    @pytest.mark.parametrize("lead", [(), (3,), (3, 4)], ids=["b-k", "R-b-k", "R-C-b-k"])
    @pytest.mark.parametrize("b", [1, 7, 64, 2048])
    def test_bias_reduction_equals_numpy_sum_bit_for_bit(self, k, lead, b):
        # The shapes gradient_on reduces, into a bias slice of a wider gradient as it does.
        rng = np.random.default_rng(k * 1000 + len(lead) * 100 + b)
        dz = rng.standard_normal(lead + (b, k)) * 10.0 ** rng.integers(-8, 8, lead + (b, k))
        dz[rng.random(dz.shape) < 0.05] = -0.0
        grad = np.full(lead + (k + 5,), np.nan)
        _bias_grad(dz, grad[..., 5:])
        assert_same_bits(grad[..., 5:], dz.sum(axis=-2))
        assert np.isnan(grad[..., :5]).all()


class TestRowTiles:
    @pytest.mark.parametrize("n", [0, 1, TILE_ROWS, 2 * TILE_ROWS - 1, 2 * TILE_ROWS,
                                   2 * TILE_ROWS + 37, 12_000, 20_000])
    def test_tiles_cover_the_stream_and_none_is_short(self, n):
        tiles = row_tiles(n)
        assert len(tiles) == max(1, n // TILE_ROWS)
        assert tiles[0].start == 0 and tiles[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        sizes = [t.stop - t.start for t in tiles]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= min(n, TILE_ROWS)

    @pytest.mark.parametrize("hidden_dim", [32, 128])
    @pytest.mark.parametrize("n", [2 * TILE_ROWS + 37, 20_000])
    def test_tiled_passes_equal_one_whole_stream_pass_bit_for_bit(self, n, hidden_dim):
        # The shipped layer sizes, and the paper's hidden_dim. Each reference
        # is one logits call over the whole stream.
        task = small_task(seed=7, input_dim=16, hidden_dim=hidden_dim, num_classes=6)
        w = task.init_params(np.random.default_rng(hidden_dim))
        x, y = make_test_set(task, n, seed=8)
        assert len(row_tiles(n)) > 1
        assert_same_bits(y, np.argmax(task.logits(task.teacher, x, task.num_exits), axis=1))
        scores = score_exits(task, w, x, y, entropy_exits={1, 2})
        for e, s in enumerate(scores, start=1):
            z = task.logits(w, x, e)
            assert_same_bits(task.predict(w, x, e), np.argmax(z, axis=1))
            assert_same_bits(s.correct, oracle_correct(z, y))
            assert_same_bits(s.loss, oracle_cross_entropy(z, y))
            if e == task.num_exits:
                assert s.entropy is None
            else:
                assert_same_bits(s.entropy, oracle_entropy(z))


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
        grad = full_gradient(task, w, xb, yb, exit)
        fd = finite_difference(task, w, xb, yb, exit)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5

    def test_inactive_coordinates_have_zero_gradient(self):
        # The full-dim reference puts the compact gradient back in place.
        task = small_task()
        w = task.init_params(np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for e in range(1, 4):
            grad = task.stochastic_gradient(w, "dev2", e, 64, rng)
            mask = task.segments.active_mask(e)
            assert np.all(grad[~mask] == 0.0)
            assert np.any(grad[mask] != 0.0)

    @pytest.mark.parametrize("rows", [2, 5])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("exit", [1, 2, 3])
    def test_stacked_rows_equal_single_calls_bit_for_bit(self, rows, batch, exit):
        # Batch 1 takes numpy's matrix-vector path, the others its matrix
        # product. The layer sizes are the shipped grids'.
        task = small_task(seed=4, input_dim=16, hidden_dim=32, num_classes=6)
        rng = np.random.default_rng(rows * 100 + batch * 10 + exit)
        stack = np.stack([task.init_params(rng) for _ in range(rows)])
        stack = task.segments.gather(stack, exit)
        x, y = task.data["cloud"]
        idx = rng.integers(0, len(y), size=batch)
        grads = task.gradient_on(stack, x[idx], y[idx], exit)
        assert grads.shape == stack.shape
        for w, grad in zip(stack, grads):
            single = task.gradient_on(w, x[idx], y[idx], exit)
            assert single.shape == (task.segments.width(exit),)
            assert grad.tobytes() == single.tobytes()

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("clients", [1, 4])
    @pytest.mark.parametrize("exit", [1, 2, 3])
    def test_client_batches_stacked_equal_single_calls_bit_for_bit(self, jobs, clients, exit):
        # An (R, C, dim) stack, client c on its own (b, in) batch, as a local
        # step after the first steps it; an (R, 1, dim) stack, as the first
        # step broadcasts it; and, for one job, the (C, dim) stack of a stream
        # set of one job. The layer sizes are the shipped grids'.
        task = small_task(seed=5, input_dim=16, hidden_dim=32, num_classes=6)
        rng = np.random.default_rng(jobs * 100 + clients * 10 + exit)
        stack = np.stack([[task.init_params(rng) for _ in range(clients)] for _ in range(jobs)])
        stack = task.segments.gather(stack, exit)
        x, y = task.data["cloud"]
        idx = rng.integers(0, len(y), size=(clients, 7))
        xb, yb = x[idx], y[idx]
        starts = [stack, stack[:, :1]] + ([stack[0]] if jobs == 1 else [])
        for w in starts:
            grads = task.gradient_on(w, xb, yb, exit)
            assert grads.shape == np.broadcast_shapes(w.shape, (clients, task.segments.width(exit)))
            full = np.broadcast_to(w, grads.shape)
            for row in np.ndindex(grads.shape[:-1]):
                c = row[-1]
                single = task.gradient_on(full[row], xb[c], yb[c], exit)
                assert grads[row].tobytes() == single.tobytes(), (w.shape, row)

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

    @pytest.mark.parametrize("num_exits", [2, 3, 4, 5])
    def test_active_mask_is_the_union_of_the_ranges(self, num_exits):
        # Blocks 1..e and head e, as two ranges, the first from 0.
        segs = build_segments(4, 5, 3, num_exits)
        for e in range(1, num_exits + 1):
            trained = set()
            for start, stop in segs.blocks[:e] + segs.heads[e - 1 : e]:
                trained.update(range(start, stop))
            ranges = segs.ranges(e)
            assert len(ranges) == 2 and ranges[0] == (0, segs.blocks[e - 1][1])
            assert set().union(*(range(start, stop) for start, stop in ranges)) == trained
            assert set(np.flatnonzero(segs.active_mask(e)).tolist()) == trained
            assert segs.width(e) == len(trained)


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

    @pytest.mark.parametrize(
        "partition, message",
        [("equl", r"unknown partition 'equl'; known: \['cloud_bias_minus'"),
         ((0.5, 0.5), r"partition \(0.5, 0.5\) has 2 layer shares but the tree has 3 exits")],
        ids=["unknown-name", "wrong-length"],
    )
    def test_partition_refused_as_parse_refuses_it(self, partition, message):
        # An unknown name used to raise a bare KeyError('equl'), and a wrong
        # length "need one layer fraction per exit".
        with pytest.raises(ValueError, match=message):
            small_task(partition=partition)

    def test_allocation_fractions(self):
        counts = layer_allocation(PARTITIONS["cloud_bias_plus"], 1000, [4, 2, 1])
        assert sum(sum(layer) for layer in counts) == 1000
        assert sum(counts[0]) == 34 and sum(counts[1]) == 199 and sum(counts[2]) == 767

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_allocation_refuses_non_finite_fractions(self, bad):
        # [nan, .5, .5] passed the fraction check and ended in a raw IndexError.
        with pytest.raises(InvalidArgumentError,
                           match="^layer fractions must be nonnegative and sum to 1$"):
            layer_allocation([bad, 0.5, 0.5], 100, [4, 2, 1])


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
                    full_gradient(task, w, pooled_x[idx], pooled_y[idx], e) for e in (1, 2, 3)
                ) / 3.0
                w = w - 0.25 * grad
            xt, yt = make_test_set(task, 800, seed=seed + 100)
            accs = [exit_accuracy(task, w, e, xt, yt) for e in (1, 2, 3)]
            gaps.append([accs[1] - accs[0], accs[2] - accs[1]])
        mean_gaps = np.mean(gaps, axis=0)
        assert np.all(mean_gaps >= -0.02)
