"""Round loop: exit sampling, local SGD, weighted pseudo-gradient aggregation.

Each round the server samples one exit per client, broadcasts the global
model, lets every client run a few local SGD steps on its sampled exit, and
folds the parameter deltas back with weights that combine the exit's
aggregation weight, the client's share of that exit's data pool, and the
inverse sampling probability. The result is projected onto an
origin-centered ball. All randomness comes from streams keyed by
(seed, round, client), so runs are bit-reproducible regardless of execution
order. A run computes the states of all its round streams at once with
:func:`rng.stream_states` and reseats one reused generator from that table
before each draw site, which gives the same draws as opening each stream
with :func:`rng.stream`.

On a :class:`QuadraticTask` the local phase is stacked: one ``(N, d)``
iterate holds every client, each local step is one batched matmul over the
sampled pairs' matrices, and each client's noise for all of its local steps
is one draw from its own stream. The result is bit-identical to calling
:func:`local_update` and :func:`aggregate` per client, which other backends
(the MLP) still do and which stay the reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import EmptyPoolError, ZeroProbabilityError
from .objective import weighted_objective
from .quadratic import QuadraticTask
from .strategies import ExitPools, ExitWeights, SamplingMatrix, exit_pools
from .topology import Topology

SCHEDULES = ("constant", "theory", "cosine")


def step_offset(kappa: float, local_steps: int) -> float:
    """Offset gamma of the theory step size 2 / (mu * (gamma + step + 1)).

    The convergence bound uses the same gamma.
    """
    return max(8.0 * kappa, float(local_steps)) - 1.0


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the round loop.

    The ``theory`` schedule needs the curvature constants ``mu`` and
    ``smoothness``; its offset is :func:`step_offset` of ``smoothness / mu``
    and ``local_steps``. ``constant`` and ``cosine`` schedules use
    ``base_lr``. Momentum is an engineering option outside the convergence
    analysis; the bounds assume it is 0.
    """

    rounds: int
    local_steps: int
    batch_size: int = 32
    server_lr: float = 1.0
    lr_schedule: str = "constant"
    base_lr: float = 0.1
    mu: float = 0.0
    smoothness: float = 0.0
    projection_radius: float = 1e6
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.server_lr <= 0:
            raise ValueError("server_lr must be positive")
        if self.projection_radius <= 0:
            raise ValueError("projection_radius must be positive")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.lr_schedule == "theory":
            if self.mu <= 0 or self.smoothness < self.mu:
                raise ValueError("theory schedule needs 0 < mu <= smoothness")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")

    @property
    def gamma_value(self) -> float:
        kappa = self.smoothness / self.mu if self.mu > 0 else 1.0
        return step_offset(kappa, self.local_steps)


def learning_rate(cfg: TrainConfig, t: int, j: int) -> float:
    """Local step size at round ``t`` (1-based) and local step ``j`` (0-based)."""
    if cfg.lr_schedule == "theory":
        step = (t - 1) * cfg.local_steps + j
        return 2.0 / (cfg.mu * (cfg.gamma_value + step + 1.0))
    if cfg.lr_schedule == "cosine":
        step = (t - 1) * cfg.local_steps + j
        horizon = cfg.rounds * cfg.local_steps
        return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * step / horizon))
    return cfg.base_lr


@dataclass(frozen=True)
class RoundSample:
    """One (client, exit) pair per client for a single round."""

    pairs: tuple[tuple[str, int], ...]


def _sample_exits(sampling: SamplingMatrix, rng: np.random.Generator) -> np.ndarray:
    """0-based sampled exit of every client, in ``sampling.clients`` order."""
    u = rng.random(len(sampling.clients))
    # Rows of the cumulative sums never decrease, so counting the entries
    # <= u is searchsorted(side="right").
    exit_idx = (sampling.row_cumsum <= u[:, None]).sum(axis=1)
    return np.minimum(exit_idx, sampling.num_exits - 1)


def sample_round(sampling: SamplingMatrix, rng: np.random.Generator) -> RoundSample:
    """Draw every client's exit independently from its categorical row."""
    exits = _sample_exits(sampling, rng)
    return RoundSample(
        pairs=tuple((client, int(e) + 1) for client, e in zip(sampling.clients, exits))
    )


def _local_steps(w: np.ndarray, cfg: TrainConfig, t: int, gradient) -> np.ndarray:
    """Take ``cfg.local_steps`` SGD steps from ``w`` in round ``t``.

    ``w`` is one iterate or a stack of them, and ``gradient(w, j)`` returns
    the gradient of the same shape at local step ``j``. Step sizes and
    momentum enter the local phase here and nowhere else.
    """
    velocity = np.zeros_like(w) if cfg.momentum > 0 else None
    for j in range(cfg.local_steps):
        grad = gradient(w, j)
        eta = learning_rate(cfg, t, j)
        if velocity is not None:
            velocity = cfg.momentum * velocity + grad
            w = w - eta * velocity
        else:
            w = w - eta * grad
    return w


def local_update(
    task,
    w_start: np.ndarray,
    client: str,
    exit: int,
    cfg: TrainConfig,
    t: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run the local mini-batch SGD steps for one sampled (client, exit) pair.

    Coordinates outside the exit's active set carry zero gradient and come
    back bit-identical to the broadcast model.
    """
    def gradient(w: np.ndarray, j: int) -> np.ndarray:
        return task.stochastic_gradient(w, client, exit, cfg.batch_size, rng)

    return _local_steps(w_start, cfg, t, gradient)


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


def aggregate_preprojection(
    w_t: np.ndarray,
    updates: list[tuple[str, int, np.ndarray]],
    weights: ExitWeights,
    sampling: SamplingMatrix,
    pools: ExitPools,
    sizes: dict[str, int],
    server_lr: float,
) -> np.ndarray:
    """Weighted pseudo-gradient sum, reduced in ascending client order."""
    delta = np.zeros_like(w_t)
    for client, exit, w_end in sorted(updates, key=lambda u: u[0]):
        prob = sampling.prob(client, exit)
        if prob <= 0:
            raise ZeroProbabilityError(f"update from ({client}, exit {exit}) with p=0")
        coef = (
            weights.weights[exit - 1]
            * (sizes[client] / pools.sizes[exit - 1])
            / prob
        )
        delta += coef * (w_end - w_t)
    return w_t + server_lr * delta


def aggregate(
    w_t: np.ndarray,
    updates: list[tuple[str, int, np.ndarray]],
    weights: ExitWeights,
    sampling: SamplingMatrix,
    pools: ExitPools,
    sizes: dict[str, int],
    server_lr: float,
    radius: float,
) -> np.ndarray:
    raw = aggregate_preprojection(w_t, updates, weights, sampling, pools, sizes, server_lr)
    return project_ball(raw, radius)


@dataclass
class Trajectory:
    """Per-round summary of a run; index 0 is the initial model.

    ``objective`` is None when the run was asked not to record it.
    """

    objective: np.ndarray | None
    dist_to_opt: np.ndarray | None = None
    snapshots: list[np.ndarray] = field(default_factory=list)


def run(
    topology: Topology,
    task,
    weights: ExitWeights,
    sampling: SamplingMatrix,
    cfg: TrainConfig,
    w_init: np.ndarray | None = None,
    w_star: np.ndarray | None = None,
    record_snapshots: bool = False,
    record_objective: bool = True,
) -> tuple[np.ndarray, Trajectory]:
    """Train for ``cfg.rounds`` rounds and return the last iterate.

    With ``record_objective=False`` the per-round weighted objective is not
    evaluated; the iterates are the same either way.

    Raises:
        EmptyPoolError: some exit has no client able to train it.
        ValueError: task and topology disagree on client dataset sizes.
    """
    pools = exit_pools(topology, sampling)
    for client in sampling.clients:
        if task.sizes[client] != topology.by_id[client].dataset_size:
            raise ValueError(
                f"client {client}: task holds {task.sizes[client]} samples but "
                f"topology declares {topology.by_id[client].dataset_size}"
            )
    for e in range(1, weights.num_exits + 1):
        if weights.weights[e - 1] > 0 and pools.sizes[e - 1] <= 0:
            raise EmptyPoolError(f"exit {e} is weighted but has no pooled data")

    if w_init is None:
        w = task.init_params(rngmod.stream(cfg.seed, rngmod.INIT))
    else:
        w = np.asarray(w_init, dtype=float).copy()
    sizes = dict(task.sizes)

    objective = np.zeros(cfg.rounds + 1) if record_objective else None
    dist = np.zeros(cfg.rounds + 1) if w_star is not None else None
    snapshots: list[np.ndarray] = []

    def record(index: int, vec: np.ndarray) -> None:
        if objective is not None:
            objective[index] = weighted_objective(task, vec, weights, pools)
        if dist is not None:
            dist[index] = float(np.linalg.norm(vec - w_star))
        if record_snapshots:
            snapshots.append(vec.copy())

    record(0, w)
    if isinstance(task, QuadraticTask):
        advance = _stacked_quadratic_round(task, weights, sampling, pools, sizes, cfg)
    else:
        advance = _per_client_round(task, weights, sampling, pools, sizes, cfg)
    for t in range(1, cfg.rounds + 1):
        w = advance(w, t)
        record(t, w)

    return w, Trajectory(objective=objective, dist_to_opt=dist, snapshots=snapshots)


def _round_states(cfg: TrainConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """States of every stream a run's rounds draw from, for :func:`rng.reseat`.

    ``sample[t - 1]`` is ``stream(seed, ROUND_SAMPLE, t)`` and
    ``local[t - 1, i]`` is ``stream(seed, LOCAL, t, i)`` for the ``i``-th
    client of the sampling matrix.
    """
    rounds = np.arange(1, cfg.rounds + 1)
    sample = rngmod.stream_states(
        cfg.seed, np.column_stack([np.full(cfg.rounds, rngmod.ROUND_SAMPLE), rounds])
    )
    t, i = np.meshgrid(rounds, np.arange(n), indexing="ij")
    local = rngmod.stream_states(
        cfg.seed, np.column_stack([np.full(t.size, rngmod.LOCAL), t.ravel(), i.ravel()])
    )
    return sample, local.reshape(cfg.rounds, n, 4)


def _per_client_round(task, weights, sampling, pools, sizes, cfg):
    """``advance(w, t)``: one round through the per-pair reference functions."""
    client_order = {c: i for i, c in enumerate(sampling.clients)}
    sample_states, local_states = _round_states(cfg, len(sampling.clients))
    # One generator serves every stream: each is done drawing before the next reseat.
    gen = np.random.default_rng(0)

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        chosen = sample_round(sampling, rngmod.reseat(gen, sample_states[t - 1]))
        updates = []
        for client, exit in chosen.pairs:
            local_rng = rngmod.reseat(gen, local_states[t - 1, client_order[client]])
            updates.append((client, exit, local_update(task, w, client, exit, cfg, t, local_rng)))
        return aggregate(
            w, updates, weights, sampling, pools, sizes, cfg.server_lr, cfg.projection_radius
        )

    return advance


def _stacked_quadratic_round(task: QuadraticTask, weights, sampling, pools, sizes, cfg):
    """``advance(w, t)``: one round with every client's local phase stacked.

    Bit-identical to :func:`_per_client_round`: the same streams give the
    same draws (J noise vectors in one call equal J calls), each batched
    matmul is the same per-pair matrix-vector product, and the deltas are
    summed in the same ascending client order with the same coefficients.
    """
    clients = sampling.clients
    n = len(clients)
    rows = np.array([task.client_index(c) for c in clients], dtype=int)
    every = np.arange(n)
    by_name = sorted(every.tolist(), key=lambda i: clients[i])
    sqrt_dim = np.sqrt(task.dim)
    sample_states, local_states = _round_states(cfg, n)
    # One generator serves every stream: each is done drawing before the next reseat.
    gen = np.random.default_rng(0)
    # aggregate_preprojection's coefficient for every pair it can be sent.
    coef = np.zeros(sampling.probs.shape)
    for i, client in enumerate(clients):
        for e in range(1, sampling.num_exits + 1):
            prob = sampling.prob(client, e)
            if prob > 0:
                share = sizes[client] / pools.sizes[e - 1]
                coef[i, e - 1] = weights.weights[e - 1] * share / prob

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        exits = _sample_exits(sampling, rngmod.reseat(gen, sample_states[t - 1]))
        for i in np.flatnonzero(exits >= task.max_exit[rows]):
            task.pair(clients[i], int(exits[i]) + 1)  # raises ValueError
        a_sel = task.matrices[rows, exits]
        c_sel = task.centers[rows, exits]
        sigma = task.noise_scale[rows, exits]
        draws = np.zeros((n, cfg.local_steps, task.dim))
        for i in np.flatnonzero(sigma > 0):
            rngmod.reseat(gen, local_states[t - 1, i]).standard_normal(out=draws[i])
        # A noiseless client adds 0.0 where the reference adds nothing; that
        # can only flip the sign of a zero, which w_end - w and the sum from
        # 0.0 below erase.
        noise = sigma[:, None, None] * draws / sqrt_dim

        def gradient(stack: np.ndarray, j: int) -> np.ndarray:
            return np.matmul(a_sel, (stack - c_sel)[..., None])[..., 0] + noise[:, j]

        # The broadcast model becomes the (N, d) stack at the first step.
        w_end = _local_steps(w, cfg, t, gradient)

        pair_probs = sampling.probs[every, exits]
        terms = coef[every, exits][:, None] * (w_end - w)
        delta = np.zeros_like(w)
        for i in by_name:
            if pair_probs[i] <= 0:
                raise ZeroProbabilityError(
                    f"update from ({clients[i]}, exit {exits[i] + 1}) with p=0"
                )
            delta += terms[i]
        return project_ball(w + cfg.server_lr * delta, cfg.projection_radius)

    return advance
