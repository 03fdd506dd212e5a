"""Round loop: schedules, sampling, local updates, aggregation, determinism."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

import fedexit
from conftest import chain_topology, random_tree, seven_node_topology, wide_topology
from fedexit import fedtrain, mlp
from fedexit import rng as rngmod
from fedexit.errors import (
    DivergenceError,
    EmptyPoolError,
    InvalidArgumentError,
    ZeroProbabilityError,
)
from fedexit.fedtrain import (
    Job,
    RoundSample,
    TrainConfig,
    aggregate,
    aggregate_preprojection,
    learning_rate,
    local_update,
    project_ball,
    run,
    run_stacked,
    sample_round,
    stack_tables,
)
from fedexit.mlp import MlpTask, make_classification_task
from fedexit.objective import weighted_objective
from fedexit.quadratic import make_quadratic_task, quadratic_minimizers
from fedexit.strategies import (
    SamplingMatrix,
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    normalized_weights,
)
from test_quadratic import pools_for, single_client_task


def theory_cfg(**kwargs) -> TrainConfig:
    defaults = dict(
        rounds=10,
        local_steps=4,
        batch_size=8,
        server_lr=1.0,
        lr_schedule="theory",
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestLearningRate:
    # The theory schedule reads a task's curvature constants: here mu = smoothness = 1.
    def test_theory_first_step(self):
        cfg = theory_cfg(local_steps=4)
        assert fedtrain.step_offset(1.0, cfg.local_steps) == 7.0
        assert learning_rate(cfg, 1.0, 1.0, 1, 0) == pytest.approx(0.25)

    def test_theory_within_round(self):
        cfg = theory_cfg(local_steps=4)
        assert learning_rate(cfg, 1.0, 1.0, 1, 3) == pytest.approx(2 / 11)

    def test_theory_across_rounds(self):
        cfg = theory_cfg(local_steps=4)
        # Step counter continues across rounds: t=2, j=0 is global step 4.
        assert learning_rate(cfg, 1.0, 1.0, 2, 0) == pytest.approx(2 / 12)

    def test_constant(self):
        cfg = TrainConfig(rounds=3, local_steps=2, lr_schedule="constant", base_lr=0.1)
        assert learning_rate(cfg, 1.0, 1.0, 1, 0) == learning_rate(cfg, 1.0, 1.0, 3, 1) == 0.1

    @pytest.mark.parametrize(
        "rounds, local_steps, base_lr", [(1, 1, 0.2), (1, 7, 0.5), (40, 2, 0.2), (97, 3, 0.37)]
    )
    def test_cosine_table_equals_scalar_steps_bit_for_bit(self, rounds, local_steps, base_lr):
        # The table maps math.cos over an array of angles; each entry must
        # equal the scalar schedule, from step 0 (round 1, local step 0) to
        # the end of the horizon (round rounds + 1, local step 0, where the
        # cosine reaches -1).
        cfg = TrainConfig(rounds=rounds, local_steps=local_steps, lr_schedule="cosine",
                          base_lr=base_lr)
        table = fedtrain._lr_table([(cfg, 1.0, 1.0)], 0, rounds)[..., 0]
        assert table.shape == (rounds, local_steps) and table.dtype == np.float64
        expected = [[learning_rate(cfg, 1.0, 1.0, t, j) for j in range(local_steps)]
                     for t in range(1, rounds + 1)]
        assert table.tobytes() == np.array(expected).tobytes()
        assert table[0, 0] == base_lr
        # The engine makes the table one block of rounds at a time.
        blocks = [fedtrain._lr_table([(cfg, 1.0, 1.0)], lo, min(7, rounds - lo))
                  for lo in range(0, rounds, 7)]
        assert np.concatenate(blocks)[..., 0].tobytes() == table.tobytes()

        t, j = np.meshgrid(np.arange(1, rounds + 2), np.arange(local_steps), indexing="ij")
        steps = learning_rate(cfg, 1.0, 1.0, t, j)
        scalars = [[learning_rate(cfg, 1.0, 1.0, int(a), int(b)) for a, b in zip(ra, rb)]
                   for ra, rb in zip(t, j)]
        assert steps.tobytes() == np.array(scalars).tobytes()
        assert learning_rate(cfg, 1.0, 1.0, rounds + 1, 0) == steps[-1, 0] == 0.0

    def test_theory_schedule_refuses_an_mlp_before_round_1(self, monkeypatch):
        # An MLP has no strong-convexity constant for the theory steps to
        # divide by. TrainConfig refused the schedule unless it was handed
        # curvature constants, which an MLP run had to fake.
        topo, task = mlp_case()
        cfg = TrainConfig(rounds=2, local_steps=1, batch_size=4, lr_schedule="theory", seed=3)
        monkeypatch.setattr(fedtrain, "_stacked_round", None)  # nothing may train
        with pytest.raises(InvalidArgumentError,
                           match=r"^seed 3: the theory schedule needs a task with 0 < mu <= "
                                 r"smoothness < inf, got mu 0.0$"):
            fedexit.run(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg)

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(rounds=0, local_steps=1)

    @pytest.mark.parametrize("rounds, local_steps", [(2**62, 2), (2**63, 1), (10**400, 1)])
    def test_steps_must_fit_the_step_counter(self, rounds, local_steps):
        # At 2**62 rounds the theory schedule's int64 step counter wrapped.
        with pytest.raises(InvalidArgumentError,
                           match=r"^rounds \* local_steps must be below 2\*\*63$"):
            TrainConfig(rounds=rounds, local_steps=local_steps)
        TrainConfig(rounds=2**62, local_steps=1)

    def test_negative_seed_is_refused(self):
        # TrainConfig(seed=-1) built, and fedexit.run then ended in numpy's raw
        # "ValueError: expected non-negative integer" from the seed's streams.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, seed=1)
        with pytest.raises(InvalidArgumentError, match="^seed must be >= 0, got -1$"):
            fedexit.run(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1),
                        TrainConfig(rounds=2, local_steps=1, seed=-1))

    @pytest.mark.parametrize("server_lr", [np.inf, np.nan, 0.0])
    def test_server_step_must_be_finite_and_positive(self, server_lr):
        # An infinite server step used to build, and its first round made the
        # iterate NaN (a RuntimeWarning, then a DivergenceError).
        with pytest.raises(InvalidArgumentError,
                           match="^server_lr must be finite and positive, got "):
            TrainConfig(rounds=1, local_steps=1, server_lr=server_lr)

    def test_fields(self):
        # Local SGD has no momentum: the bounds assume plain steps.
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "rounds", "local_steps", "batch_size", "server_lr", "lr_schedule", "base_lr", "seed",
        ]
        with pytest.raises(TypeError, match="momentum"):
            TrainConfig(rounds=1, local_steps=1, momentum=0.5)


class TestSampleRound:
    def test_degenerate_row_always_own_exit(self):
        sm = build_sampling_matrix(seven_node_topology(), 0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            chosen = dict(sample_round(sm, rng).pairs)
            assert chosen["dev1"] == 1
            assert chosen["edge1"] == 2
            assert chosen["cloud"] == 3

    def test_cloud_row_frequencies(self):
        sm = build_sampling_matrix(seven_node_topology(), 0.1)
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[dict(sample_round(sm, rng).pairs)["cloud"] - 1] += 1
        freq = counts / n
        for p_true, p_hat in zip((0.1, 0.1, 0.8), freq):
            se = np.sqrt(p_true * (1 - p_true) / n)
            assert abs(p_hat - p_true) <= 3 * se

    def test_clients_draw_independently(self):
        sm = build_sampling_matrix(seven_node_topology(), 0.2)
        rng = np.random.default_rng(2)
        n = 60_000
        cloud_hits = np.zeros(n)
        edge_hits = np.zeros(n)
        for i in range(n):
            chosen = dict(sample_round(sm, rng).pairs)
            cloud_hits[i] = chosen["cloud"] == 1
            edge_hits[i] = chosen["edge1"] == 1
        cov = np.cov(cloud_hits, edge_hits)[0, 1]
        se = np.sqrt(cloud_hits.var() * edge_hits.var() / n)
        assert abs(cov) <= 4 * se

    def test_matches_searchsorted(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random((6, 4)) * (rng.random((6, 4)) < 0.7)
            raw[:, -1] += 1e-3
            sm = SamplingMatrix(clients=tuple(f"c{i}" for i in range(6)),
                                probs=raw / raw.sum(axis=1, keepdims=True))
            seed = int(rng.integers(1 << 30))
            got = sample_round(sm, np.random.default_rng(seed)).pairs
            u = np.random.default_rng(seed).random(6)
            want = tuple(
                (c, min(int(np.searchsorted(sm.row_cumsum[i], u[i], side="right")), 3) + 1)
                for i, c in enumerate(sm.clients)
            )
            assert got == want

    def test_row_summing_below_one_never_draws_a_zero_probability_exit(self):
        # edge1's row sums to 1 - 1e-13, so a uniform above its sum used to be
        # capped at exit 3, which edge1 samples with p=0.
        chosen = dict(sample_round(short_row_sampling(seven_node_topology()),
                                   NearOneUniform()).pairs)
        assert chosen == {"cloud": 3, "edge1": 2, "edge2": 2, "dev1": 1, "dev2": 1,
                          "dev3": 1, "dev4": 1}


class NearOneUniform:
    """A generator whose every uniform is the largest float below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def short_row_sampling(topo):
    """k = 0.3 sampling whose edge1 row, [0.3, 0.7 - 1e-13, 0], sums to just below 1."""
    sampling = build_sampling_matrix(topo, 0.3)
    probs = sampling.probs.copy()
    probs[sampling.client_index["edge1"]] = [0.3, 0.7 - 1e-13, 0.0]
    return SamplingMatrix(clients=sampling.clients, probs=probs)


def recording_local_phase(monkeypatch, task_class, seen):
    """Make ``task_class``'s local phase append a copy of each round's exits to ``seen``."""
    real_phase = task_class.local_phase

    def recording_phase(jobs, job_set):
        phase = real_phase(jobs, job_set)

        def recording(w, exits, draws, etas):
            seen.append(exits.copy())
            return phase(w, exits, draws, etas)

        return recording

    monkeypatch.setattr(task_class, "local_phase", staticmethod(recording_phase))


class TestLocalUpdate:
    def test_fixed_point_at_center(self):
        task = single_client_task(np.eye(3), [0.5, -0.5, 1.0])
        cfg = theory_cfg(local_steps=5)
        w0 = np.array([0.5, -0.5, 1.0])
        out = local_update(task, w0, "c", 1, cfg, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out, w0)

    def test_single_explicit_gd_step(self):
        task = single_client_task(np.eye(1), [0.0])
        cfg = theory_cfg(local_steps=1)
        out = local_update(task, np.array([1.0]), "c", 1, cfg, 1, np.random.default_rng(0))
        assert out[0] == pytest.approx(0.75)

    def test_empty_client_dataset_rejected(self):
        from fedexit.errors import EmptyClientDatasetError
        from fedexit.mlp import MlpTask

        task = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=210,
            input_dim=5, hidden_dim=6, seed=0,
        )
        data = dict(task.data)
        data["dev1"] = (np.zeros((0, 5)), np.zeros(0, dtype=int))
        starved = MlpTask(
            input_dim=5, hidden_dim=6, num_classes=3, num_exits=3,
            data=data, teacher=task.teacher,
        )
        cfg = TrainConfig(rounds=1, local_steps=1, batch_size=4, base_lr=0.1)
        with pytest.raises(EmptyClientDatasetError):
            local_update(starved, starved.init_params(np.random.default_rng(0)),
                         "dev1", 1, cfg, 1, np.random.default_rng(1))

    def test_inactive_blocks_bit_identical(self):
        task = make_classification_task(
            seven_node_topology(), partition="equal", total_samples=210,
            input_dim=5, hidden_dim=6, seed=1,
        )
        w0 = task.init_params(np.random.default_rng(3))
        cfg = TrainConfig(rounds=1, local_steps=3, batch_size=8, base_lr=0.1)
        out = local_update(task, w0, "dev1", 1, cfg, 1, np.random.default_rng(4))
        mask = task.segments.active_mask(1)
        np.testing.assert_array_equal(out[~mask], w0[~mask])
        assert np.any(out[mask] != w0[mask])


class TestAggregate:
    def _setup(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, seed=0)
        sampling = build_sampling_matrix(topo, 0.0)
        pools = exit_pools(topo, sampling)
        return topo, task, sampling, pools

    def test_no_motion_when_updates_equal_broadcast(self):
        topo, task, sampling, pools = self._setup()
        w = np.array([0.1, 0.2, 0.3, 0.4])
        updates = [(c, topo.exit_of(c), w.copy()) for c in sampling.clients]
        out = aggregate(w, updates, equal_weight(3), sampling, pools, task.sizes, 1.0, 10.0)
        np.testing.assert_array_equal(out, w)

    def test_weights_collapse_for_single_client(self):
        from fedexit.strategies import ExitPools, SamplingMatrix
        from fedexit.topology import NodeSpec, Topology

        topo = Topology(nodes=(NodeSpec("n", None, 1, 1.0, 0.0, 50),), num_exits=1)
        sampling = SamplingMatrix(clients=("n",), probs=np.array([[1.0]]))
        pools = ExitPools(clients=(("n",),), sizes=np.array([50.0]))
        w = np.zeros(3)
        target = np.array([0.5, 0.5, 0.5])
        out = aggregate(
            w, [("n", 1, target)], normalized_weights([1.0]), sampling, pools,
            {"n": 50}, 1.0, 10.0,
        )
        np.testing.assert_allclose(out, target, atol=1e-15)

    def test_projection_rescales_to_radius(self):
        v = np.array([3.0, 4.0])  # norm 5
        out = project_ball(v, 2.5)
        assert np.linalg.norm(out) == pytest.approx(2.5)
        np.testing.assert_allclose(out / np.linalg.norm(out), v / 5.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_projection_keeps_an_overflowing_iterate_inside_the_ball(self):
        # The squared norm overflowed to inf, so an iterate of norm 5e200
        # inside a ball of radius 1e201 came back as the zero vector.
        v = np.array([3e200, -4e200])
        assert project_ball(v, 1e201) is v

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_projection_scales_an_overflowing_iterate_onto_the_ball(self):
        v = np.array([3e200, -4e200, 1.0])
        out = project_ball(v, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(out, [0.6, -0.8, 2e-201])

    def test_zero_probability_update_rejected(self):
        topo, task, sampling, pools = self._setup()
        w = np.zeros(4)
        updates = [("dev1", 2, np.ones(4))]  # devices never train exit 2 at k=0
        with pytest.raises(ZeroProbabilityError):
            aggregate_preprojection(w, updates, equal_weight(3), sampling, pools, task.sizes, 1.0)


class TestRun:
    def test_objective_decreases_on_noiseless_quadratic(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, sigma_range=(0.0, 0.0), seed=8)
        sampling = build_sampling_matrix(topo, 0.0)
        pools = exit_pools(topo, sampling)
        weights = equal_weight(3)
        cfg = theory_cfg(rounds=60, local_steps=4, seed=1)
        minimum = quadratic_minimizers(task, weights, pools)
        w0 = task.init_params(rngmod.stream(cfg.seed, rngmod.INIT))
        objective = [weighted_objective(task, w0, weights, pools)]
        # The theory schedule and the round streams do not read cfg.rounds, so a
        # shorter run ends on the longer run's iterate of that round.
        for rounds in (15, 30, 60):
            objective.append(run(topo, task, weights, sampling,
                                 dataclasses.replace(cfg, rounds=rounds))[1])
        gap = np.array(objective) - minimum.f_star
        assert gap[-1] >= -1e-12
        assert gap[3] < gap[2] < gap[1] < gap[0]

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_short_run_is_prefix_of_longer_reference(self, backend):
        # Every stream draws one fixed-size block per round, whatever exit was
        # sampled, so round T of a 2T-round run is the end of a T-round run.
        # Both tasks draw local noise or batches on every client.
        rounds = 6
        if backend == "quadratic":
            topo = seven_node_topology()
            task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3)
            cfg = TrainConfig(rounds=rounds, local_steps=3, base_lr=0.05, seed=2)
        else:
            topo, task = mlp_case()
            cfg = TrainConfig(rounds=rounds, local_steps=2, batch_size=8, base_lr=0.1, seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        weights = normalized_weights([0.2, 0.3, 0.5])
        short = run_stacked([Job(topo, task, weights, sampling, cfg)])[0]
        longer = list(reference_iterates(topo, task, weights, sampling,
                                         dataclasses.replace(cfg, rounds=2 * rounds)))
        assert short.tobytes() == longer[rounds - 1].tobytes()
        assert np.any(longer[-1] != short)

    def test_weighted_empty_pool_is_refused(self):
        topo = seven_node_topology(sizes={"cloud": 0})
        task = make_quadratic_task(topo, dim=3, seed=4)
        cfg = TrainConfig(rounds=2, local_steps=2, base_lr=0.05)
        job = Job(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg)
        with pytest.raises(EmptyPoolError, match="^exit 3 .*dataset_size is 0 at cloud$"):
            run_stacked([job])

    def test_unweighted_empty_pool_is_refused(self):
        # Exit 3 has weight 0, so its update's coefficient was 0 * (0 / 0):
        # NaN, reported as "seed 0, round 1: the iterate is not finite".
        topo = seven_node_topology(sizes={"cloud": 0})
        task = make_quadratic_task(topo, dim=3, seed=4)
        cfg = TrainConfig(rounds=2, local_steps=2, base_lr=0.05)
        weights, sampling = normalized_weights([0.5, 0.5, 0]), build_sampling_matrix(topo, 0.1)
        with pytest.raises(EmptyPoolError, match="^exit 3 has no pooled data: dataset_size is 0 at cloud$"):
            run(topo, task, weights, sampling, cfg)

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_task_without_a_client_is_refused_by_name(self, backend):
        # A task that held nothing for a sampled client ended in a raw KeyError: 'dev1'.
        if backend == "quadratic":
            topo = seven_node_topology()
            task = make_quadratic_task(topo, dim=3, seed=4)
            task = dataclasses.replace(task, sizes={c: n for c, n in task.sizes.items()
                                                    if c != "dev1"})
            cfg = TrainConfig(rounds=2, local_steps=2, base_lr=0.05)
        else:
            topo, task = mlp_case()
            task = dataclasses.replace(task, data={c: d for c, d in task.data.items()
                                                   if c != "dev1"})
            cfg = TrainConfig(rounds=2, local_steps=2, batch_size=8, base_lr=0.1)
        refusal = r"^client dev1: task holds no samples but topology declares \d+$"
        with pytest.raises(InvalidArgumentError, match=refusal):
            run(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg)

    def test_bit_identical_given_seed(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        cfg = theory_cfg(rounds=15, seed=9)
        w_a, objective_a = run(topo, task, equal_weight(3), sampling, cfg)
        w_b, objective_b = run(topo, task, equal_weight(3), sampling, cfg)
        np.testing.assert_array_equal(w_a, w_b)
        assert objective_a == objective_b

    def test_different_seed_changes_run(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.5), seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        base = dict(rounds=5, local_steps=4, lr_schedule="theory")
        w_a, _ = run(topo, task, equal_weight(3), sampling, TrainConfig(seed=1, **base))
        w_b, _ = run(topo, task, equal_weight(3), sampling, TrainConfig(seed=2, **base))
        assert np.any(w_a != w_b)

    def test_projection_safety_along_trajectory(self):
        topo = seven_node_topology()
        radius = 0.5  # deliberately tight so the projection engages
        task = dataclasses.replace(
            make_quadratic_task(topo, dim=4, sigma_range=(0.3, 0.5), seed=12), radius=radius)
        sampling = build_sampling_matrix(topo, 0.1)
        # Every prefix of the 30-round run, one run per length.
        for rounds in range(1, 31):
            cfg = theory_cfg(rounds=rounds, seed=3)
            w_end, _ = run(topo, task, equal_weight(3), sampling, cfg)
            assert np.linalg.norm(w_end) <= radius + 1e-12

    def test_one_hot_weights_move_only_their_exit(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=6
        )
        topo = topo.with_dataset_sizes(task.sizes)
        sampling = build_sampling_matrix(topo, 0.0)
        weights = normalized_weights([0.0, 1.0, 0.0])
        cfg = TrainConfig(rounds=4, local_steps=2, batch_size=8, base_lr=0.1, seed=2)
        w0 = task.init_params(rngmod.stream(cfg.seed, rngmod.INIT))
        w_end, _ = run(topo, task, weights, sampling, cfg)
        mask = task.segments.active_mask(2)
        np.testing.assert_array_equal(w_end[~mask], w0[~mask])
        assert np.any(w_end[mask] != w0[mask])

    def test_size_mismatch_rejected(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=6
        )
        sampling = build_sampling_matrix(topo, 0.0)
        cfg = TrainConfig(rounds=1, local_steps=1)
        with pytest.raises(ValueError):
            run(topo, task, equal_weight(3), sampling, cfg)

    @pytest.mark.parametrize("exits", [2, 4])
    def test_weights_for_another_exit_count_rejected(self, exits):
        # Used to end in a raw numpy broadcast error while building the round.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=4)
        cfg = TrainConfig(rounds=1, local_steps=1, seed=1)
        with pytest.raises(InvalidArgumentError, match=f"^seed 1: {exits} exit weights for 3 exits$"):
            run(topo, task, equal_weight(exits), build_sampling_matrix(topo, 0.1), cfg)

    def test_sampling_for_another_tree_rejected(self):
        # Used to end in a raw KeyError: 'leaf'.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=4)
        sampling = build_sampling_matrix(chain_topology(), 0.1)
        cfg = TrainConfig(rounds=1, local_steps=1)
        with pytest.raises(ValueError, match="clients the topology lacks: leaf, mid, root$"):
            run(topo, task, equal_weight(3), sampling, cfg)

    @pytest.mark.parametrize(
        "w_init, message",
        [(np.zeros(4), r"w_init has shape \(4,\), but the task's iterates have shape \(3,\)$"),
         (np.zeros((2, 3)),
          r"w_init has shape \(2, 3\), but the task's iterates have shape \(3,\)$"),
         (np.array([0.0, np.nan, 0.0]), "w_init is not finite$"),
         (np.array([0.0, 0.0, -np.inf]), "w_init is not finite$"),
         (["a", "b", "c"],
          r"w_init is not an array of numbers \(could not convert string to float: 'a'\)$"),
         (object(), r"w_init is not an array of numbers \(.+\)$")],
        ids=["length-4", "shape-2x3", "nan", "inf", "strings", "object"],
    )
    def test_bad_start_is_refused_before_training(self, w_init, message):
        # The shapes used to end in a raw numpy broadcast error inside the
        # local phase, and NaN in "seed 1, round 1: the iterate is not finite".
        # Strings and an object were read while keying jobs, and ended in a raw
        # ValueError or TypeError that named no job.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        cfg = TrainConfig(rounds=2, local_steps=2, seed=1)
        with pytest.raises(ValueError, match="^seed 1: " + message):
            fedexit.run(topo, task, equal_weight(3), sampling, cfg, w_init=w_init)
        job = Job(topo, task, equal_weight(3), sampling, cfg, w_init,
                  label="strategy equal, k=0.1")
        with pytest.raises(ValueError, match="^seed 1, strategy equal, k=0.1: " + message):
            run_stacked([job])

    def test_mlp_client_without_samples_is_refused_before_round_1(self, monkeypatch):
        # It used to be refused by its first batch draw, inside round 1.
        from fedexit.errors import EmptyClientDatasetError

        topo, task = mlp_case()
        x, y = task.data["dev1"]
        starved = dataclasses.replace(task, data={**task.data, "dev1": (x[:0], y[:0])})
        topo = topo.with_dataset_sizes({"dev1": 0})
        cfg = TrainConfig(rounds=2, local_steps=1, batch_size=4, base_lr=0.1, seed=1)
        rounds = []
        real_round = fedtrain._stacked_round

        def recording_round(sets, pools):
            advance = real_round(sets, pools)

            def recording(w, t):
                rounds.append(t)
                return advance(w, t)

            return recording

        monkeypatch.setattr(fedtrain, "_stacked_round", recording_round)
        job = Job(topo, starved, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg)
        with pytest.raises(EmptyClientDatasetError, match="^client dev1 has no samples$"):
            run_stacked([job])
        assert rounds == []

    def test_returns_run_stacked_iterate_and_its_objective(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.5), seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        weights = normalized_weights([0.2, 0.3, 0.5])
        cfg = theory_cfg(rounds=6, seed=2)
        w_init = np.full(task.dim, 0.25)
        for start in (None, w_init):
            result = run(topo, task, weights, sampling, cfg, w_init=start)
            assert isinstance(result, tuple) and len(result) == 2
            w_end, objective = result
            stacked = run_stacked([Job(topo, task, weights, sampling, cfg, start)])
            assert w_end.tobytes() == stacked[0].tobytes()
            assert type(objective) is float
            assert objective == weighted_objective(task, w_end, weights,
                                                   exit_pools(topo, sampling))

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_row_summing_below_one_trains_on_its_last_exit_with_p(self, backend, monkeypatch):
        # Every round draws the largest uniform below 1. edge1 used to be sent
        # to exit 3, which it samples with p=0: the MLP raised
        # ZeroProbabilityError and the quadratic "edge1 holds exits 1..2, not 3".
        if backend == "quadratic":
            topo = seven_node_topology()
            task = dataclasses.replace(
                make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3), radius=50.0)
        else:
            topo, task = mlp_case()
        cfg = TrainConfig(rounds=3, local_steps=2, batch_size=8, base_lr=0.05, seed=2)
        sampling = short_row_sampling(topo)
        weights = normalized_weights([0.2, 0.3, 0.5])
        real_stream = rngmod.stream

        def near_one_stream(seed, *key):
            return NearOneUniform() if key == (rngmod.ROUND_SAMPLE,) else real_stream(seed, *key)

        monkeypatch.setattr(rngmod, "stream", near_one_stream)
        seen = []
        recording_local_phase(monkeypatch, type(task), seen)
        w_end, objective = fedexit.run(topo, task, weights, sampling, cfg)
        edge1 = sampling.client_index["edge1"]
        assert [int(exits[0, edge1]) + 1 for exits in seen] == [2, 2, 2]
        ref_w, ref_objective = reference_run(topo, task, weights, sampling, cfg)
        assert w_end.tobytes() == ref_w.tobytes()
        assert objective == ref_objective


def reference_iterates(topo, task, weights, sampling, cfg):
    """The round loop spelled out with the per-pair reference functions.

    Yields the iterate after every round. One sample stream and one local
    stream per client serve the whole run.
    """
    pools = exit_pools(topo, sampling)
    w = task.init_params(rngmod.stream(cfg.seed, rngmod.INIT))
    sample_rng = rngmod.stream(cfg.seed, rngmod.ROUND_SAMPLE)
    local_rngs = [rngmod.stream(cfg.seed, rngmod.LOCAL, i) for i in range(len(sampling.clients))]
    for t in range(1, cfg.rounds + 1):
        chosen = sample_round(sampling, sample_rng)
        updates = [
            (c, e, local_update(task, w, c, e, cfg, t, local_rng))
            for (c, e), local_rng in zip(chosen.pairs, local_rngs)
        ]
        w = aggregate(w, updates, weights, sampling, pools, task.sizes,
                      cfg.server_lr, task.radius)
        yield w


def reference_run(topo, task, weights, sampling, cfg):
    """The last iterate of :func:`reference_iterates` and the weighted objective at it."""
    *_, w = reference_iterates(topo, task, weights, sampling, cfg)
    return w, weighted_objective(task, w, weights, exit_pools(topo, sampling))


def stacked_round_cases():
    """The seven-node tree plus random trees shallow enough for k=0.1."""
    yield "seven", seven_node_topology(), normalized_weights([0.2, 0.3, 0.5]), 0.5
    rng = np.random.default_rng(17)
    for i in range(8):
        topo = random_tree(rng, max_nodes=8)
        yield f"tree{i}", topo, equal_weight(topo.num_exits), None


def both_orders(sampling):
    """The matrix as built, and with its clients listed out of name order.

    Streams follow the list, sums the names.
    """
    return sampling, SamplingMatrix(clients=sampling.clients[::-1], probs=sampling.probs[::-1])


def mlp_case(seed=6):
    """A small MLP task and its seven-node tree, sized to the task's data."""
    topo = seven_node_topology()
    task = make_classification_task(
        topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=seed
    )
    return topo.with_dataset_sizes(task.sizes), task


def quadratic_reference_cases(k):
    """(name, topology, task, weights, sampling, cfg) on quadratic tasks."""
    for name, topo, weights, radius in stacked_round_cases():
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.1, 0.6), seed=len(name))
        task.noise_scale[0] = 0.0  # one noiseless client: it draws all the same
        if radius:
            task = dataclasses.replace(task, radius=radius)
        for sampling in both_orders(build_sampling_matrix(topo, k)):
            cfg = theory_cfg(rounds=12, local_steps=3, seed=5)
            yield name, topo, task, weights, sampling, cfg


def mlp_reference_cases(k):
    """(name, topology, task, weights, sampling, cfg) on a small MLP task."""
    topo, task = mlp_case()
    for batch_size, schedule in ((8, "constant"), (5, "cosine")):
        cfg = TrainConfig(rounds=3, local_steps=2, batch_size=batch_size, lr_schedule=schedule,
                          base_lr=0.1, seed=4)
        for sampling in both_orders(build_sampling_matrix(topo, k)):
            yield (f"mlp {schedule} batch {batch_size}", topo, task,
                   normalized_weights([0.2, 0.3, 0.5]), sampling, cfg)


def assert_matches_reference(cases):
    """run() must equal the per-client reference loop bit for bit on every case."""
    for name, topo, task, weights, sampling, cfg in cases:
        w_end, objective = run(topo, task, weights, sampling, cfg)
        ref_w, ref_objective = reference_run(topo, task, weights, sampling, cfg)
        assert np.array_equal(w_end, ref_w), name
        assert objective == ref_objective, name


class TestStackedQuadraticRound:
    """run() on a quadratic task must equal the per-client reference loop bit for bit."""

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_matches_per_pair_reference(self, k):
        assert_matches_reference(quadratic_reference_cases(k))

    def test_exit_beyond_client_rejected(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=2)
        sampling = build_sampling_matrix(topo, 0.0)
        probs = sampling.probs.copy()
        probs[sampling.client_index["dev1"]] = [0.0, 1.0, 0.0]
        bad = SamplingMatrix(clients=sampling.clients, probs=probs)
        cfg = theory_cfg(rounds=2)
        with pytest.raises(ValueError, match="dev1 holds exits 1..1, not 2"):
            run(topo, task, equal_weight(3), bad, cfg)

    def test_projects_onto_the_task_ball(self):
        # The radius is the task's own: a job on a task with a ball of radius
        # 0.1 matches the reference loop, whose aggregate projects onto 0.1,
        # and ends on that ball. The engine used TrainConfig's radius, 1e6
        # unless the caller copied the task's.
        topo = seven_node_topology()
        task = dataclasses.replace(
            make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3), radius=0.1)
        sampling = build_sampling_matrix(topo, 0.1)
        weights = normalized_weights([0.2, 0.3, 0.5])
        cfg = theory_cfg(rounds=40, local_steps=3, seed=2)
        w_end = run_stacked([Job(topo, task, weights, sampling, cfg)])[0]
        assert w_end.tobytes() == reference_run(topo, task, weights, sampling, cfg)[0].tobytes()
        assert np.linalg.norm(w_end) == pytest.approx(0.1)

    def test_stream_set_tables_are_built_in_one_copy(self):
        # Four seeds' stream sets at dim 40: the matrices table is
        # 4 * 7 * 3 * 40**2 * 8 = 1,075,200 bytes. Gathering each set's
        # matrices and then stacking them peaked at twice that.
        from fedexit.quadratic import QuadraticTask

        topo = seven_node_topology()
        sampling = build_sampling_matrix(topo, 0.1)
        leads = [Job(topo, make_quadratic_task(topo, 40, seed=s), equal_weight(3), sampling,
                     TrainConfig(rounds=1, local_steps=1, seed=s)) for s in range(1, 5)]
        table = 4 * 7 * 3 * 40**2 * 8
        tracemalloc.start()
        try:
            QuadraticTask.local_phase(leads, np.arange(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table < peak < 1.5 * table, peak

    def test_exit_a_client_lacks_is_refused_before_any_round(self, monkeypatch):
        # p=1e-9 on an exit dev1 does not hold: such a job used to train until
        # a round drew that exit, which almost none does.
        from fedexit.quadratic import QuadraticTask

        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=2)
        sampling = build_sampling_matrix(topo, 0.0)
        probs = sampling.probs.copy()
        probs[sampling.client_index["dev1"]] = [1.0 - 1e-9, 1e-9, 0.0]
        bad = SamplingMatrix(clients=sampling.clients, probs=probs)
        cfg = theory_cfg(rounds=2)
        seen = []
        recording_local_phase(monkeypatch, QuadraticTask, seen)
        with pytest.raises(ValueError, match="^client dev1 holds exits 1..1, not 2$"):
            run_stacked([Job(topo, task, equal_weight(3), bad, cfg)])
        assert seen == []


class TestPerClientRound:
    """run() on an MLP task must equal the per-client reference loop bit for bit."""

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_matches_per_pair_reference(self, k):
        assert_matches_reference(mlp_reference_cases(k))


class TestStackedJobs:
    """run_stacked must give every job the iterate run() gives it alone, bit for bit."""

    def test_no_jobs_are_refused(self):
        # An empty list used to end in a raw IndexError on jobs[0].
        with pytest.raises(InvalidArgumentError, match="^run_stacked needs at least one job$"):
            run_stacked([])

    def test_matches_per_job_run(self):
        for name, topo, weights, radius in stacked_round_cases():
            tasks = {}
            jobs = []
            # Tasks of two seeds, so step-size rows (theory schedule) and radii
            # differ, and one task run at two seeds, whose streams differ.
            for task_seed, seed, job_radius in ((5, 5, radius or 0.5), (6, 6, None),
                                                (5, 7, None)):
                if task_seed not in tasks:
                    tasks[task_seed] = make_quadratic_task(
                        topo, dim=3, sigma_range=(0.1, 0.6), seed=task_seed
                    )
                    tasks[task_seed].noise_scale[0] = 0.0  # a noiseless client draws too
                task = tasks[task_seed]
                if job_radius:
                    task = dataclasses.replace(task, radius=job_radius)
                cfg = theory_cfg(rounds=12, local_steps=3, seed=seed)
                for k in (0.0, 0.1):
                    sampling = build_sampling_matrix(topo, k)
                    # Both weightings of one (seed, k) share one stream set's draws.
                    for job_weights in (weights, equal_weight(topo.num_exits)):
                        jobs.append(Job(topo, task, job_weights, sampling, cfg))
            stacked = run_stacked(jobs)
            assert stacked.shape == (len(jobs), 3)
            for job, row in zip(jobs, stacked):
                alone, _ = run(job.topology, job.task, job.weights, job.sampling, job.cfg)
                reference = reference_run(job.topology, job.task, job.weights, job.sampling,
                                          job.cfg)[0]
                assert np.array_equal(row, alone), name
                assert np.array_equal(row, reference), name

    def test_mlp_jobs_over_several_stacks_match_reference(self, monkeypatch):
        topo, first = mlp_case(seed=6)
        _, second = mlp_case(seed=7)
        # Room for two jobs per stack, so five jobs in four stream sets train
        # as stacks of 2, 1, 1 and 1; the first stack's two jobs share one set.
        monkeypatch.setattr(fedtrain, "STACK_BYTES", 2 * len(topo.nodes) * first.dim * 8)
        jobs = []
        for task, base_lr in ((first, 0.1), (second, 0.2)):
            for k, seed in ((0.0, 3), (0.1, 4)):
                cfg = TrainConfig(rounds=3, local_steps=2, batch_size=8,
                                  lr_schedule="cosine", base_lr=base_lr, seed=seed)
                jobs.append(Job(topo, task, normalized_weights([0.2, 0.3, 0.5]),
                                build_sampling_matrix(topo, k), cfg))
        jobs.insert(1, dataclasses.replace(jobs[0], weights=equal_weight(3)))
        stacked = run_stacked(jobs)
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            reference = reference_run(job.topology, job.task, job.weights, job.sampling,
                                      job.cfg)[0]
            assert np.array_equal(row, reference), r

    def test_mlp_stream_set_cut_across_stacks_matches_each_alone(self, monkeypatch):
        # Two stream sets, interleaved: set A has five jobs, set B two. A stack
        # holds two rows, so A is cut into parts of 2, 2 and 1, and B, packed
        # after A, cannot join A's last part.
        topo, task = mlp_case(seed=6)
        monkeypatch.setattr(fedtrain, "STACK_BYTES", 2 * len(topo.nodes) * task.dim * 8)
        stacks = []
        real_round = fedtrain._stacked_round

        def recording_round(sets, pools):
            stacks.append(sum(map(len, sets)))
            return real_round(sets, pools)

        monkeypatch.setattr(fedtrain, "_stacked_round", recording_round)
        shares = ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2],
                  [1 / 3, 1 / 3, 1 / 3])
        set_a = [
            Job(topo, task, normalized_weights(share), build_sampling_matrix(topo, 0.1),
                TrainConfig(rounds=3, local_steps=2, batch_size=8, base_lr=base_lr, seed=3))
            for share, base_lr in zip(shares, (0.1, 0.2, 0.1, 0.3, 0.1))
        ]
        set_b = [
            Job(topo, task, normalized_weights(share), build_sampling_matrix(topo, 0.0),
                TrainConfig(rounds=3, local_steps=2, batch_size=8, base_lr=0.1, seed=3))
            for share in shares[:2]
        ]
        jobs = [set_a[0], set_b[0], *set_a[1:3], set_b[1], *set_a[3:]]
        stacked = run_stacked(jobs)
        assert stacks == [2, 2, 1, 2]
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            alone = run_stacked([job])[0]
            assert row.tobytes() == alone.tobytes(), r
        reference = reference_run(topo, task, jobs[2].weights, jobs[2].sampling, jobs[2].cfg)[0]
        assert np.array_equal(stacked[2], reference)
        assert len({row.tobytes() for row in stacked}) == len(jobs)

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_stack_packs_stream_sets_only_where_its_backend_steps_them_together(
        self, backend, monkeypatch
    ):
        # Three stream sets of two jobs, and room for six jobs per stack. The
        # quadratic steps them in one stack; the MLP, which steps one set per
        # backprop, used to pack them too and now trains one set per stack.
        if backend == "quadratic":
            topo = seven_node_topology()
            task = dataclasses.replace(
                make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3), radius=50.0)
        else:
            topo, task = mlp_case(seed=6)
        monkeypatch.setattr(fedtrain, "STACK_BYTES", 6 * len(topo.nodes) * task.dim * 8)
        stacks = []
        real_round = fedtrain._stacked_round

        def recording_round(sets, pools):
            stacks.append(len({fedtrain._set_key(job) for members in sets for job in members}))
            return real_round(sets, pools)

        monkeypatch.setattr(fedtrain, "_stacked_round", recording_round)
        jobs = [
            Job(topo, task, normalized_weights(share), build_sampling_matrix(topo, k),
                TrainConfig(rounds=3, local_steps=2, batch_size=8, base_lr=0.05, seed=seed))
            for k, seed in ((0.0, 3), (0.1, 3), (0.1, 4))
            for share in ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        ]
        stacked = run_stacked(jobs)
        assert stacks == ([3] if backend == "quadratic" else [1, 1, 1])
        monkeypatch.undo()
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            assert row.tobytes() == run_stacked([job])[0].tobytes(), r
        assert len({row.tobytes() for row in stacked}) == len(jobs)

    def test_mlp_jobs_of_two_batch_sizes_refused(self, monkeypatch):
        # Their rows of local draws differ in shape, which one call used to
        # draw on a path of its own; a grid has one batch size.
        topo, task = mlp_case(seed=6)
        sampling = build_sampling_matrix(topo, 0.1)
        jobs = [
            Job(topo, task, normalized_weights([0.2, 0.3, 0.5]), sampling,
                TrainConfig(rounds=3, local_steps=2, batch_size=batch_size, base_lr=0.1, seed=3))
            for batch_size in (8, 5)
        ]
        monkeypatch.setattr(fedtrain, "_stacked_round", None)  # nothing may train
        with pytest.raises(ValueError, match="batch_size$"):
            run_stacked(jobs)

    def test_quadratic_jobs_of_two_batch_sizes_share_one_stream_set(self, monkeypatch):
        # A quadratic draws noise, not batches, so its batch size keys no
        # stream set: both jobs open one sample stream and one local stream per client.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3)
        jobs = [
            Job(topo, task, normalized_weights([0.2, 0.3, 0.5]), build_sampling_matrix(topo, 0.1),
                TrainConfig(rounds=5, local_steps=2, batch_size=batch_size, base_lr=0.05, seed=2))
            for batch_size in (1, 7)
        ]
        opened = []
        real_stream = rngmod.stream

        def recording_stream(seed, *key):
            opened.append(key[0])
            return real_stream(seed, *key)

        monkeypatch.setattr(rngmod, "stream", recording_stream)
        stacked = run_stacked(jobs)
        assert opened.count(rngmod.ROUND_SAMPLE) == 1
        assert opened.count(rngmod.LOCAL) == len(topo.nodes)
        monkeypatch.undo()
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            assert row.tobytes() == run_stacked([job])[0].tobytes(), r

    def test_exits_of_every_round_match_sample_round(self, monkeypatch):
        # The engine draws every round's exits before round 1. Stream set s
        # (here job s: two seeds times two k) must still see, at round t,
        # sample_round's t-th draw from its own persistent sample stream.
        from fedexit.quadratic import QuadraticTask

        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=5)
        seen = []
        recording_local_phase(monkeypatch, QuadraticTask, seen)
        jobs = [
            Job(topo, task, equal_weight(3), build_sampling_matrix(topo, k),
                theory_cfg(rounds=30, seed=seed))
            for seed in (3, 4) for k in (0.1, 0.3)
        ]
        run_stacked(jobs)
        assert len(seen) == 30
        sample_rngs = [rngmod.stream(job.cfg.seed, rngmod.ROUND_SAMPLE) for job in jobs]
        for t, exits in enumerate(seen, start=1):
            assert exits.shape == (len(jobs), len(topo.client_ids))
            for job, row, sample_rng in zip(jobs, exits, sample_rngs):
                want = sample_round(job.sampling, sample_rng)
                assert [(c, int(e) + 1) for c, e in zip(job.sampling.clients, row)] == list(
                    want.pairs
                ), (t, job.cfg.seed)
        # The draws reach past each client's own exit, so the table is no constant.
        assert len(np.unique(np.stack(seen))) == 3

    def test_jobs_that_cannot_share_a_stack_rejected(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=2)
        sampling = build_sampling_matrix(topo, 0.0)
        jobs = [
            Job(topo, task, equal_weight(3), sampling,
                theory_cfg(rounds=rounds))
            for rounds in (3, 4)
        ]
        with pytest.raises(ValueError, match="share"):
            run_stacked(jobs)

    def test_each_distinct_job_trains_once(self, monkeypatch):
        # A repeated job and a copy that differs only in label train once and
        # get the same row; a different seed, start or exit weighting trains
        # on its own. An equal w_init in another array is the same start.
        topo, task = mlp_case(seed=6)
        trained = []
        real_round = fedtrain._stacked_round

        def recording_round(sets, pools):
            trained.extend(job for members in sets for job in members)
            return real_round(sets, pools)

        monkeypatch.setattr(fedtrain, "_stacked_round", recording_round)
        cfg = TrainConfig(rounds=3, local_steps=2, batch_size=8, base_lr=0.1, seed=3)
        base = Job(topo, task, normalized_weights([0.2, 0.3, 0.5]),
                   build_sampling_matrix(topo, 0.1), cfg, label="first")
        started = dataclasses.replace(base, w_init=np.full(task.dim, 0.05))
        jobs = [
            base,
            dataclasses.replace(base, label="second"),
            dataclasses.replace(base, cfg=dataclasses.replace(cfg, seed=4)),
            started,
            dataclasses.replace(started, w_init=np.full(task.dim, 0.05)),
            dataclasses.replace(base, weights=equal_weight(3)),
            base,
        ]
        stacked = run_stacked(jobs)
        assert trained[0] is base and len(trained) == 4
        assert stacked.shape == (len(jobs), task.dim)
        assert len({row.tobytes() for row in stacked}) == 4
        for a, b in ((0, 1), (0, 6), (3, 4)):
            assert stacked[a].tobytes() == stacked[b].tobytes(), (a, b)
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            assert row.tobytes() == run_stacked([job])[0].tobytes(), r


def wide_case(hidden_dim):
    """An MLP task on a cloud over 3 edges over 12 devices, and the tree sized to its data.

    At ``hidden_dim`` 32, the shipped grids' layer sizes, the default row
    budget holds 22 clients on exit 1, 9 on exit 2 and 5 on exit 3, so, as
    at 6, every client of an exit.
    """
    topo = wide_topology(edges=3, devices_per_edge=4)
    task = make_classification_task(topo, partition="equal", total_samples=480, input_dim=16,
                                    hidden_dim=hidden_dim, num_classes=6, seed=8)
    return topo.with_dataset_sizes(task.sizes), task


def recording_gradients(monkeypatch, calls):
    """Append the number of clients of every ``MlpTask.gradient_on`` call to ``calls``."""
    original = MlpTask.gradient_on

    def recording(self, w, x, y, exit):
        calls.append(len(x) if x.ndim == 3 else 1)
        return original(self, w, x, y, exit)

    monkeypatch.setattr(MlpTask, "gradient_on", recording)


class TestWideTree:
    """One backprop steps every client that drew an exit, up to the row budget; no bit moves."""

    WIDE_CFG = TrainConfig(rounds=3, local_steps=2, batch_size=8, lr_schedule="cosine",
                           base_lr=0.1, seed=4)

    @pytest.mark.parametrize("k", [0.0, 0.1])
    @pytest.mark.parametrize("hidden_dim, rows, calls", [
        (32, 1, [1] * 16),  # one row per call: a backprop per client
        (32, 3, [3, 3, 3, 3, 1, 1, 1, 1]),  # 12 devices in 4 calls, an edge's row is wider
        (32, None, [12, 3, 1]),  # the default budget: 22 exit-1 rows, 9 exit-2 rows
        (6, None, [12, 3, 1]),  # the default budget holds every client of an exit
    ], ids=["one-row", "cut", "default", "default-whole-exits"])
    def test_matches_per_client_reference(self, monkeypatch, k, hidden_dim, rows, calls):
        # A budget of `rows` rows of exit 1's trained coordinates.
        topo, task = wide_case(hidden_dim)
        if rows is not None:
            monkeypatch.setattr(mlp, "GRAD_BYTES", rows * task.segments.width(1) * 8)
        weights = normalized_weights([0.2, 0.3, 0.5])
        seen = []
        recording_gradients(monkeypatch, seen)
        steps = self.WIDE_CFG.rounds * self.WIDE_CFG.local_steps
        for sampling in both_orders(build_sampling_matrix(topo, k)):
            seen.clear()
            w_end, objective = run(topo, task, weights, sampling, self.WIDE_CFG)
            if k == 0.0:  # every client draws its own exit: the calls are known
                assert sorted(seen) == sorted(calls * steps)
            ref_w, ref_objective = reference_run(topo, task, weights, sampling, self.WIDE_CFG)
            assert w_end.tobytes() == ref_w.tobytes()
            assert objective == ref_objective

    def test_jobs_of_one_stream_set_match_reference(self, monkeypatch):
        # Two jobs share a stream set and 4 rows of exit 1 hold 2 clients of each.
        topo, task = wide_case(32)
        monkeypatch.setattr(mlp, "GRAD_BYTES", 4 * task.segments.width(1) * 8)
        sampling = build_sampling_matrix(topo, 0.1)
        jobs = [Job(topo, task, weights, sampling, self.WIDE_CFG)
                for weights in (normalized_weights([0.2, 0.3, 0.5]), equal_weight(3))]
        seen = []
        recording_gradients(monkeypatch, seen)
        stacked = run_stacked(jobs)
        assert max(seen) == 2
        for job, row in zip(jobs, stacked):
            reference = reference_run(topo, task, job.weights, sampling, self.WIDE_CFG)[0]
            assert row.tobytes() == reference.tobytes()

    def test_exit_1_call_outgrows_the_full_dim_budget(self, monkeypatch):
        # Two jobs share a stream set. A budget counted in full-dim rows gave
        # each call max(1, 5 // 2) = 2 clients; exit 1's 742 of 3,250
        # coordinates give its calls 22 // 2 = 11, every row still bit for bit.
        topo, task = wide_case(32)
        sampling = build_sampling_matrix(topo, 0.1)
        jobs = [Job(topo, task, weights, sampling, self.WIDE_CFG)
                for weights in (normalized_weights([0.2, 0.3, 0.5]), equal_weight(3))]
        seen = []
        recording_gradients(monkeypatch, seen)
        stacked = run_stacked(jobs)
        assert max(seen) == 11 > max(1, mlp.grad_rows(task.dim) // 2)
        for job, row in zip(jobs, stacked):
            reference = reference_run(topo, task, job.weights, sampling, self.WIDE_CFG)[0]
            assert row.tobytes() == reference.tobytes()

    def test_peak_memory_holds_one_calls_rows(self):
        # Training peaks at 0.35 MiB with one row per call and at 0.84 MiB
        # at the default budget, whose one exit-1 call steps all 12 devices on
        # their compact vectors; on full-dim vectors that call took 1.61 MiB.
        topo, task = wide_case(32)
        cfg = dataclasses.replace(self.WIDE_CFG, batch_size=32)
        job = Job(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.0), cfg)
        tracemalloc.start()
        try:
            run_stacked([job])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20, peak


def block_case(backend):
    """(topology, task, sampling, cfg, one round's bytes of local draws) for a 30-round run."""
    if backend == "quadratic":
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.6), seed=3)
        cfg = TrainConfig(rounds=30, local_steps=3, base_lr=0.05, seed=2)
        width = task.dim
    else:
        topo, task = mlp_case()
        cfg = TrainConfig(rounds=30, local_steps=2, batch_size=8, base_lr=0.1, seed=4)
        width = cfg.batch_size
    round_bytes = len(topo.nodes) * cfg.local_steps * width * 8
    return topo, task, build_sampling_matrix(topo, 0.1), cfg, round_bytes


class CountingStream:
    """A generator that appends ``tag`` to ``events`` at each call of one of its methods."""

    def __init__(self, gen, events, tag):
        self._gen, self._events, self._tag = gen, events, tag

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def logged(*args, **kwargs):
            self._events.append(self._tag)
            return method(*args, **kwargs)

        return logged


class TestBlockDraws:
    """Each local stream draws its rounds in blocks; the results keep every bit."""

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_run_over_several_blocks_matches_reference(self, backend, monkeypatch):
        # Blocks of 4 rounds: 30 rounds are 7 whole blocks and a block of 2.
        topo, task, sampling, cfg, round_bytes = block_case(backend)
        monkeypatch.setattr(fedtrain, "DRAW_BYTES", 4 * round_bytes + 8)
        weights = normalized_weights([0.2, 0.3, 0.5])
        w_end, objective = run(topo, task, weights, sampling, cfg)
        ref_w, ref_objective = reference_run(topo, task, weights, sampling, cfg)
        assert w_end.tobytes() == ref_w.tobytes()
        assert objective == ref_objective

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_each_local_stream_is_called_once_per_block(self, backend, monkeypatch):
        # The sample stream and every local stream are called at the first
        # round of each block and at no other round, and no other stream is
        # called once round 1 starts.
        topo, task, sampling, cfg, round_bytes = block_case(backend)
        monkeypatch.setattr(fedtrain, "DRAW_BYTES", 4 * round_bytes + 8)
        events = []
        real_stream, real_phase = rngmod.stream, type(task).local_phase

        def counting_stream(seed, *key):
            tag = {rngmod.LOCAL: "draw", rngmod.ROUND_SAMPLE: "sample"}.get(key[0], "other")
            return CountingStream(real_stream(seed, *key), events, tag)

        def logging_phase(jobs, job_set):
            phase = real_phase(jobs, job_set)

            def logged(w, exits, draws, etas):
                events.append("round")
                return phase(w, exits, draws, etas)

            return logged

        monkeypatch.setattr(rngmod, "stream", counting_stream)
        monkeypatch.setattr(type(task), "local_phase", staticmethod(logging_phase))
        run_stacked([Job(topo, task, equal_weight(3), sampling, cfg)])
        streams = len(topo.nodes)
        want = []
        for lo in range(0, cfg.rounds, 4):
            want += ["sample"] + ["draw"] * streams + ["round"] * min(4, cfg.rounds - lo)
        assert "other" not in events[events.index("round"):]
        assert [event for event in events if event != "other"] == want


class TestDivergence:
    """Under the suite's error::RuntimeWarning filter: divergence is refused, never warned."""

    def test_quadratic_names_seed_label_and_round(self):
        # A huge constant step used to finish with nan in every reported loss.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=1)
        cfg = TrainConfig(rounds=4, local_steps=2, base_lr=1e200, seed=7)
        sampling = build_sampling_matrix(topo, 0.0)
        with pytest.raises(DivergenceError, match="^seed 7, round 1: the iterate is not finite"):
            run(topo, task, equal_weight(3), sampling, cfg)
        jobs = [Job(topo, task, equal_weight(3), sampling, cfg, label="strategy equal, k=0")]
        with pytest.raises(DivergenceError, match="^seed 7, strategy equal, k=0, round 1:"):
            run_stacked(jobs)

    def test_overflowing_start_is_refused_as_divergence(self):
        # A finite w_init of 1e308 overflowed in the local phase's matmul, and
        # the caller got numpy's RuntimeWarning instead of the typed refusal.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, seed=1)
        cfg = TrainConfig(rounds=2, local_steps=2)
        with pytest.raises(DivergenceError, match="^seed 0, round 1: the iterate is not finite"):
            fedexit.run(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg,
                        w_init=np.full(4, 1e308))

    def test_mlp_names_seed_label_and_round(self):
        topo = seven_node_topology()
        task = make_classification_task(
            topo, partition="equal", total_samples=210, input_dim=5, hidden_dim=6, seed=6
        )
        topo = topo.with_dataset_sizes(task.sizes)
        x, y = task.data["dev1"]
        task.data["dev1"] = (np.full_like(x, np.nan), y)
        cfg = TrainConfig(rounds=4, local_steps=2, batch_size=8, base_lr=0.1, seed=2)
        jobs = [Job(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.0), cfg,
                    label="strategy equal, k=0")]
        with pytest.raises(DivergenceError, match="^seed 2, strategy equal, k=0, round 1:"):
            run_stacked(jobs)


def training_peak(jobs) -> int:
    """The tracemalloc peak of ``run_stacked(jobs)``, the tasks already built."""
    tracemalloc.start()
    try:
        run_stacked(jobs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_grid(rng: random.Random, backend: str):
    """A small seeded grid on the seven-node tree: its jobs, and its tables' summed bytes.

    One or two seeds, sampling matrices and exit weights, as a config's grid
    crosses them, at the sizes where the tables outweigh fixed costs.
    """
    topo = seven_node_topology()
    seeds = rng.sample(range(100), rng.randint(1, 2))
    samplings = [build_sampling_matrix(topo, k)
                 for k in rng.sample([0.0, 0.1, 0.3], rng.randint(1, 2))]
    weights = [equal_weight(3), normalized_weights([0.2, 0.3, 0.5])][:rng.randint(1, 2)]
    shape = dict(rounds=rng.randint(1, 4), local_steps=rng.randint(1, 3))
    if backend == "quadratic":
        args = dict(dim=rng.choice([16, 48, 128]))
        tasks = {s: make_quadratic_task(topo, seed=s, **args) for s in seeds}
        cfgs = {s: TrainConfig(**shape, lr_schedule="theory", seed=s) for s in seeds}
    else:
        args = dict(input_dim=rng.choice([4, 16]), hidden_dim=rng.choice([32, 64, 128]),
                    num_classes=rng.choice([2, 6]))
        tasks = {s: make_classification_task(topo, partition="equal", total_samples=700, seed=s,
                                             **args) for s in seeds}
        batch = rng.choice([64, 512, 2048])
        cfgs = {s: TrainConfig(**shape, batch_size=batch, seed=s) for s in seeds}
    jobs = [Job(topo.with_dataset_sizes(tasks[s].sizes), tasks[s], w, sampling, cfgs[s])
            for s in seeds for sampling in samplings for w in weights]
    tables = stack_tables(type(tasks[seeds[0]]), cfgs[seeds[0]], len(topo.client_ids), len(jobs),
                          len(seeds) * len(samplings), num_exits=3, **args)
    return jobs, sum(nbytes for _, nbytes, _ in tables)


class TestTrainingMemory:
    """What training holds is what the engine and the task class state, whatever the rounds."""

    SLACK = 256 * 1024  # fixed costs: Python objects, per-job small arrays
    FACTOR = 3  # the statements bound every exit's and call's worst case

    @pytest.mark.parametrize("backend", ["quadratic", "mlp"])
    def test_peak_is_bounded_by_the_stated_tables(self, backend):
        # The estimate once missed the hidden states that backprop holds: at
        # hidden_dim 256 and batch_size 80,000 training peaked at 1,122.8 MiB
        # against a largest table of 25.0 MiB. It also missed every job's
        # iterates, and each trained stack kept its last block of inputs.
        rng = random.Random(31)
        for _ in range(6):
            jobs, estimate = random_grid(rng, backend)
            peak = training_peak(jobs)
            assert peak <= estimate + self.SLACK and estimate <= self.FACTOR * peak, (
                jobs[0].cfg, jobs[0].task.dim, len(jobs), peak, estimate)

    def test_peak_does_not_grow_with_rounds(self):
        # The quadratic_bounds grid's 12 jobs (6 seeds by 2 exit weights, one
        # sampling matrix) held every round's exits and step sizes: 137.4 MiB
        # at 100,000 rounds. Each block of rounds now makes its own.
        topo = seven_node_topology()
        sampling = build_sampling_matrix(topo, 0.1)
        tasks = [make_quadratic_task(topo, 4, seed=seed) for seed in range(6)]

        def peak(rounds):
            return training_peak([
                Job(topo, task, weights, sampling, TrainConfig(
                    rounds=rounds, local_steps=4, batch_size=1, lr_schedule="theory", seed=seed))
                for seed, task in enumerate(tasks)
                for weights in (equal_weight(3), normalized_weights([0.45, 0.35, 0.2]))])

        short, long = peak(40), peak(4000)
        assert abs(long - short) <= 64 * 1024, (short, long)


class TestAggregationMoments:
    """Small-scale versions of the unbiasedness and variance checks."""

    def _instance(self, k):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.1, 0.4), seed=21)
        sampling = build_sampling_matrix(topo, k)
        pools = exit_pools(topo, sampling)
        weights = equal_weight(3)
        return topo, task, sampling, pools, weights

    def test_frozen_update_mean_matches_expectation(self):
        topo, task, sampling, pools, weights = self._instance(0.1)
        rng = np.random.default_rng(0)
        w_t = np.zeros(3)
        frozen = {
            (c, e): rng.normal(size=3)
            for e in range(1, 4)
            for c in pools.clients[e - 1]
        }
        exact = np.zeros(3)
        for (c, e), delta in frozen.items():
            exact += weights.weights[e - 1] * task.sizes[c] / pools.sizes[e - 1] * delta

        n = 20_000
        draws = np.zeros((n, 3))
        for i in range(n):
            chosen = sample_round(sampling, rng)
            updates = [(c, e, w_t + frozen[(c, e)]) for c, e in chosen.pairs]
            draws[i] = aggregate_preprojection(
                w_t, updates, weights, sampling, pools, task.sizes, 1.0
            ) - w_t
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - exact), 4 * se + 1e-12)

    def test_variance_within_lemma_bound(self):
        from fedexit.theory import grad_second_moment, theory_params

        topo, task, sampling, pools, weights = self._instance(0.2)
        cfg = theory_cfg(rounds=1, local_steps=4)
        params = theory_params(task, weights, sampling, pools, cfg.server_lr, cfg.local_steps)
        g_pairs, _ = grad_second_moment(params)
        eta_last = learning_rate(cfg, task.mu, task.smoothness, 1, cfg.local_steps - 1)
        bound = 4 * eta_last**2 * cfg.local_steps**2 * float(
            np.sum(params.alpha**2 * (1 - params.probs) / params.probs * g_pairs)
        )

        rng = np.random.default_rng(1)
        w_t = np.zeros(3)
        n = 4000
        sq_norms = np.zeros(n)
        for i in range(n):
            locals_ = {
                (c, e): local_update(task, w_t, c, e, cfg, 1, rng)
                for e in range(1, 4)
                for c in pools.clients[e - 1]
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
            sq_norms[i] = np.sum((realized - mean_agg) ** 2)
        assert sq_norms.mean() <= bound * 1.1
