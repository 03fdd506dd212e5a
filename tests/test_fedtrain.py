"""Round loop: schedules, sampling, local updates, aggregation, determinism."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import random_tree, seven_node_topology
from fedexit import fedtrain
from fedexit import rng as rngmod
from fedexit.errors import DivergenceError, EmptyPoolError, ZeroProbabilityError
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
)
from fedexit.mlp import make_classification_task
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
        mu=1.0,
        smoothness=1.0,
        projection_radius=50.0,
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestLearningRate:
    def test_theory_first_step(self):
        cfg = theory_cfg(local_steps=4)
        assert cfg.gamma_value == 7.0
        assert learning_rate(cfg, 1, 0) == pytest.approx(0.25)

    def test_theory_within_round(self):
        cfg = theory_cfg(local_steps=4)
        assert learning_rate(cfg, 1, 3) == pytest.approx(2 / 11)

    def test_theory_across_rounds(self):
        cfg = theory_cfg(local_steps=4)
        # Step counter continues across rounds: t=2, j=0 is global step 4.
        assert learning_rate(cfg, 2, 0) == pytest.approx(2 / 12)

    def test_constant(self):
        cfg = TrainConfig(rounds=3, local_steps=2, lr_schedule="constant", base_lr=0.1)
        assert learning_rate(cfg, 1, 0) == learning_rate(cfg, 3, 1) == 0.1

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
        table = fedtrain._lr_table(cfg)
        assert table.shape == (rounds, local_steps) and table.dtype == np.float64
        expected = [[learning_rate(cfg, t, j) for j in range(local_steps)]
                     for t in range(1, rounds + 1)]
        assert table.tobytes() == np.array(expected).tobytes()
        assert table[0, 0] == base_lr

        t, j = np.meshgrid(np.arange(1, rounds + 2), np.arange(local_steps), indexing="ij")
        steps = learning_rate(cfg, t, j)
        scalars = [[learning_rate(cfg, int(a), int(b)) for a, b in zip(ra, rb)]
                   for ra, rb in zip(t, j)]
        assert steps.tobytes() == np.array(scalars).tobytes()
        assert learning_rate(cfg, rounds + 1, 0) == steps[-1, 0] == 0.0

    def test_theory_needs_curvature(self):
        with pytest.raises(ValueError):
            TrainConfig(rounds=1, local_steps=1, lr_schedule="theory")

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(rounds=0, local_steps=1)

    def test_fields(self):
        # Local SGD has no momentum: the bounds assume plain steps.
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "rounds", "local_steps", "batch_size", "server_lr", "lr_schedule", "base_lr",
            "mu", "smoothness", "projection_radius", "seed",
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
        cfg = theory_cfg(
            rounds=60, local_steps=4, mu=task.mu, smoothness=task.smoothness,
            projection_radius=task.radius, seed=1,
        )
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
            cfg = TrainConfig(rounds=rounds, local_steps=3, base_lr=0.05,
                              projection_radius=task.radius, seed=2)
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
        cfg = TrainConfig(rounds=2, local_steps=2, base_lr=0.05, projection_radius=task.radius)
        job = Job(topo, task, equal_weight(3), build_sampling_matrix(topo, 0.1), cfg)
        with pytest.raises(EmptyPoolError, match="^exit 3 .*dataset_size is 0 at cloud$"):
            run_stacked([job])

    def test_bit_identical_given_seed(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        cfg = theory_cfg(rounds=15, mu=task.mu, smoothness=task.smoothness,
                         projection_radius=task.radius, seed=9)
        w_a, objective_a = run(topo, task, equal_weight(3), sampling, cfg)
        w_b, objective_b = run(topo, task, equal_weight(3), sampling, cfg)
        np.testing.assert_array_equal(w_a, w_b)
        assert objective_a == objective_b

    def test_different_seed_changes_run(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.5), seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        base = dict(rounds=5, local_steps=4, lr_schedule="theory", mu=task.mu,
                    smoothness=task.smoothness, projection_radius=task.radius)
        w_a, _ = run(topo, task, equal_weight(3), sampling, TrainConfig(seed=1, **base))
        w_b, _ = run(topo, task, equal_weight(3), sampling, TrainConfig(seed=2, **base))
        assert np.any(w_a != w_b)

    def test_projection_safety_along_trajectory(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=4, sigma_range=(0.3, 0.5), seed=12)
        sampling = build_sampling_matrix(topo, 0.1)
        radius = 0.5  # deliberately tight so the projection engages
        # Every prefix of the 30-round run, one run per length.
        for rounds in range(1, 31):
            cfg = theory_cfg(rounds=rounds, mu=task.mu, smoothness=task.smoothness,
                             projection_radius=radius, seed=3)
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

    def test_returns_run_stacked_iterate_and_its_objective(self):
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, sigma_range=(0.2, 0.5), seed=4)
        sampling = build_sampling_matrix(topo, 0.1)
        weights = normalized_weights([0.2, 0.3, 0.5])
        cfg = theory_cfg(rounds=6, mu=task.mu, smoothness=task.smoothness,
                         projection_radius=task.radius, seed=2)
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
                      cfg.server_lr, cfg.projection_radius)
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
        for sampling in both_orders(build_sampling_matrix(topo, k)):
            cfg = theory_cfg(
                rounds=12, local_steps=3, mu=task.mu, smoothness=task.smoothness,
                projection_radius=radius or task.radius, seed=5,
            )
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
        cfg = theory_cfg(rounds=2, mu=task.mu, smoothness=task.smoothness)
        with pytest.raises(ValueError, match="dev1 holds exits 1..1, not 2"):
            run(topo, task, equal_weight(3), bad, cfg)


class TestPerClientRound:
    """run() on an MLP task must equal the per-client reference loop bit for bit."""

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_matches_per_pair_reference(self, k):
        assert_matches_reference(mlp_reference_cases(k))


class TestStackedJobs:
    """run_stacked must give every job the iterate run() gives it alone, bit for bit."""

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
                cfg = theory_cfg(
                    rounds=12, local_steps=3, mu=task.mu, smoothness=task.smoothness,
                    projection_radius=job_radius or task.radius, seed=seed,
                )
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
        # Room for two jobs per stack, so five jobs train as stacks of 2, 2 and 1;
        # the first stack's two jobs share one stream set.
        monkeypatch.setattr(fedtrain, "STACK_BYTES", 2 * len(topo.nodes) * first.dim * 8)
        jobs = []
        for task, base_lr, batch_size in ((first, 0.1, 8), (second, 0.2, 5)):
            for k, seed in ((0.0, 3), (0.1, 4)):
                cfg = TrainConfig(rounds=3, local_steps=2, batch_size=batch_size,
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

        def recording_round(jobs, pools):
            stacks.append(len(jobs))
            return real_round(jobs, pools)

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

    def test_mlp_jobs_of_two_batch_sizes_match_each_alone(self):
        # A stream set's jobs share one batch draw per client, so jobs that
        # differ only in batch size must draw their own. The two batch-8 jobs
        # differ in exit weights, so they are two jobs of one stream set.
        topo, task = mlp_case(seed=6)
        sampling = build_sampling_matrix(topo, 0.1)
        jobs = [
            Job(topo, task, normalized_weights(shares), sampling,
                TrainConfig(rounds=3, local_steps=2, batch_size=batch_size, base_lr=0.1, seed=3))
            for batch_size, shares in ((8, [0.2, 0.3, 0.5]), (5, [0.2, 0.3, 0.5]),
                                       (8, [0.5, 0.3, 0.2]))
        ]
        stacked = run_stacked(jobs)
        for r, (job, row) in enumerate(zip(jobs, stacked)):
            alone = run_stacked([job])[0]
            reference = reference_run(job.topology, job.task, job.weights, job.sampling,
                                      job.cfg)[0]
            assert row.tobytes() == alone.tobytes(), r
            assert np.array_equal(row, reference), r
        assert np.any(stacked[0] != stacked[1])

    def test_exits_of_every_round_match_sample_round(self, monkeypatch):
        # The engine draws every round's exits before round 1. Stream set s
        # (here job s: two seeds times two k) must still see, at round t,
        # sample_round's t-th draw from its own persistent sample stream.
        from fedexit.quadratic import QuadraticTask

        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=5)
        seen = []
        real_phase = QuadraticTask.local_phase

        def recording_phase(jobs, job_set):
            phase = real_phase(jobs, job_set)

            def recording(w, exits, gens, etas):
                seen.append(exits.copy())
                return phase(w, exits, gens, etas)

            return recording

        monkeypatch.setattr(QuadraticTask, "local_phase", staticmethod(recording_phase))
        jobs = [
            Job(topo, task, equal_weight(3), build_sampling_matrix(topo, k),
                theory_cfg(rounds=30, mu=task.mu, smoothness=task.smoothness,
                           projection_radius=task.radius, seed=seed))
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
                theory_cfg(rounds=rounds, mu=task.mu, smoothness=task.smoothness))
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

        def recording_round(jobs, pools):
            trained.extend(jobs)
            return real_round(jobs, pools)

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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestDivergence:
    def test_quadratic_names_seed_label_and_round(self):
        # A huge constant step used to finish with nan in every reported loss.
        topo = seven_node_topology()
        task = make_quadratic_task(topo, dim=3, seed=1)
        cfg = TrainConfig(rounds=4, local_steps=2, base_lr=1e200, seed=7,
                          projection_radius=task.radius)
        sampling = build_sampling_matrix(topo, 0.0)
        with pytest.raises(DivergenceError, match="^seed 7, round 1: the iterate is not finite"):
            run(topo, task, equal_weight(3), sampling, cfg)
        jobs = [Job(topo, task, equal_weight(3), sampling, cfg, label="strategy equal, k=0")]
        with pytest.raises(DivergenceError, match="^seed 7, strategy equal, k=0, round 1:"):
            run_stacked(jobs)

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
        cfg = theory_cfg(rounds=1, local_steps=4, mu=task.mu, smoothness=task.smoothness,
                         projection_radius=task.radius)
        params = theory_params(task, weights, sampling, pools, cfg.server_lr, cfg.local_steps)
        g_pairs, _ = grad_second_moment(params)
        eta_last = learning_rate(cfg, 1, cfg.local_steps - 1)
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
