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

On a :class:`QuadraticTask` one engine trains R jobs side by side
(:func:`run_stacked`; :func:`run` is the engine with R = 1). Their iterates
form an ``(R, d)`` stack, every client's local phase of every job is one
batched matmul per local step, and each client's noise for all of its local
steps is one draw from its own stream. Jobs that share a seed, a task and a
sampling matrix draw the same exits and noise, so they share one stream table
and one draw per round. The result is bit-identical to calling
:func:`local_update` and :func:`aggregate` per client and per job, which the
MLP backend still does and which stay the reference implementation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import DivergenceError, EmptyPoolError, ZeroProbabilityError
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
    """Local step size at round ``t`` (1-based) and local step ``j`` (0-based).

    The ``theory`` and ``constant`` schedules also take integer arrays.
    """
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


def _lr_table(cfg: TrainConfig) -> np.ndarray:
    """``learning_rate(cfg, t, j)`` for every round and local step, as one array."""
    if cfg.lr_schedule == "cosine":
        # math.cos takes scalars, and np.cos need not round the same way.
        return np.array(
            [[learning_rate(cfg, t, j) for j in range(cfg.local_steps)]
             for t in range(1, cfg.rounds + 1)]
        )
    t, j = np.meshgrid(np.arange(1, cfg.rounds + 1), np.arange(cfg.local_steps), indexing="ij")
    return np.broadcast_to(learning_rate(cfg, t, j), t.shape).astype(float)


def _local_steps(w: np.ndarray, momentum: float, etas, gradient) -> np.ndarray:
    """Take one SGD step from ``w`` per step size in ``etas``.

    ``w`` is one iterate or a stack of them, and ``gradient(w, j)`` returns
    the gradient of the same shape at local step ``j``. A step size is a
    float or an array that broadcasts against the stack. Step sizes and
    momentum enter the local phase here and nowhere else.
    """
    velocity = np.zeros_like(w) if momentum > 0 else None
    for j, eta in enumerate(etas):
        grad = gradient(w, j)
        if velocity is not None:
            velocity = momentum * velocity + grad
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

    etas = [learning_rate(cfg, t, j) for j in range(cfg.local_steps)]
    return _local_steps(w_start, cfg.momentum, etas, gradient)


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


@dataclass(frozen=True)
class Job:
    """One training run: the arguments of :func:`run` that decide its iterates.

    ``label`` names the job, next to its seed, in a :class:`DivergenceError`.
    """

    topology: Topology
    task: object
    weights: ExitWeights
    sampling: SamplingMatrix
    cfg: TrainConfig
    w_init: np.ndarray | None = None
    label: str = ""


def _start(job: Job) -> tuple[ExitPools, np.ndarray]:
    """Check that ``job`` can train; return its exit pools and initial iterate."""
    task, sampling = job.task, job.sampling
    pools = exit_pools(job.topology, sampling)
    for client in sampling.clients:
        if task.sizes[client] != job.topology.by_id[client].dataset_size:
            raise ValueError(
                f"client {client}: task holds {task.sizes[client]} samples but "
                f"topology declares {job.topology.by_id[client].dataset_size}"
            )
    for e in range(1, job.weights.num_exits + 1):
        if job.weights.weights[e - 1] > 0 and pools.sizes[e - 1] <= 0:
            raise EmptyPoolError(f"exit {e} is weighted but has no pooled data")
    if job.w_init is None:
        return pools, task.init_params(rngmod.stream(job.cfg.seed, rngmod.INIT))
    return pools, np.asarray(job.w_init, dtype=float).copy()


def _require_finite(w: np.ndarray, t: int, jobs: Sequence[Job]) -> None:
    """Raise :class:`DivergenceError` if a job's iterate, a row of ``w``, is not finite."""
    if np.isfinite(w).all():
        return
    finite = np.isfinite(w.reshape(len(jobs), -1)).all(axis=1)
    job = jobs[int(np.argmin(finite))]
    where = ", ".join(filter(None, (f"seed {job.cfg.seed}", job.label, f"round {t}")))
    raise DivergenceError(f"{where}: the iterate is not finite")


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
    label: str = "",
) -> tuple[np.ndarray, Trajectory]:
    """Train for ``cfg.rounds`` rounds and return the last iterate.

    With ``record_objective=False`` the per-round weighted objective is not
    evaluated; the iterates are the same either way. ``label`` names the run
    in a :class:`DivergenceError`.

    Raises:
        EmptyPoolError: some exit has no client able to train it.
        ValueError: task and topology disagree on client dataset sizes.
        DivergenceError: an iterate stopped being finite.
    """
    job = Job(topology, task, weights, sampling, cfg, w_init, label)
    pools, w = _start(job)

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
        advance_stack = _stacked_quadratic_round([job], [pools])

        def advance(w: np.ndarray, t: int) -> np.ndarray:
            return advance_stack(w[None], t)[0]

    else:
        advance = _per_client_round(job, pools)
    for t in range(1, cfg.rounds + 1):
        w = advance(w, t)
        record(t, w)

    return w, Trajectory(objective=objective, dist_to_opt=dist, snapshots=snapshots)


def run_stacked(jobs: Sequence[Job]) -> np.ndarray:
    """Train quadratic jobs side by side; row ``r`` is the last iterate of ``jobs[r]``.

    Each row equals the iterate :func:`run` returns for that job alone, bit
    for bit. The jobs must share their clients, ``rounds``, ``local_steps``,
    ``momentum`` and ``dim``, as the jobs of one grid do.

    Raises:
        ValueError: the jobs cannot share a stack, or as :func:`run`.
        EmptyPoolError, ZeroProbabilityError, DivergenceError: as :func:`run`.
    """
    starts = [_start(job) for job in jobs]
    advance = _stacked_quadratic_round(jobs, [pools for pools, _ in starts])
    w = np.stack([w0 for _, w0 in starts])
    for t in range(1, jobs[0].cfg.rounds + 1):
        w = advance(w, t)
    return w


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


def _per_client_round(job: Job, pools: ExitPools):
    """``advance(w, t)``: one round through the per-pair reference functions."""
    task, sampling, cfg = job.task, job.sampling, job.cfg
    client_order = {c: i for i, c in enumerate(sampling.clients)}
    sizes = dict(task.sizes)
    sample_states, local_states = _round_states(cfg, len(sampling.clients))
    # One generator serves every stream: each is done drawing before the next reseat.
    gen = np.random.default_rng(0)

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        chosen = sample_round(sampling, rngmod.reseat(gen, sample_states[t - 1]))
        updates = []
        for client, exit in chosen.pairs:
            local_rng = rngmod.reseat(gen, local_states[t - 1, client_order[client]])
            updates.append((client, exit, local_update(task, w, client, exit, cfg, t, local_rng)))
        w = aggregate(
            w, updates, job.weights, sampling, pools, sizes, cfg.server_lr, cfg.projection_radius
        )
        _require_finite(w, t, [job])
        return w

    return advance


def _stacked_quadratic_round(jobs: Sequence[Job], pools: Sequence[ExitPools]):
    """``advance(w, t)``: one round of every job, ``w`` the ``(R, d)`` stack of iterates.

    Bit-identical to :func:`_per_client_round` run per job: the same streams
    give the same draws (J noise vectors in one call equal J calls), each
    batched matmul is the same per-pair matrix-vector product, and each job's
    deltas are summed in the same ascending client order with the same
    coefficients. Jobs with the same seed, task and sampling matrix form one
    stream set, which samples its exits and draws its noise once per round.
    """
    first = jobs[0]
    clients = first.sampling.clients
    shape = (clients, first.cfg.rounds, first.cfg.local_steps, first.cfg.momentum)
    for job in jobs:
        if not isinstance(job.task, QuadraticTask):
            raise ValueError("only quadratic jobs can be stacked")
        if (job.sampling.clients, job.cfg.rounds, job.cfg.local_steps,
                job.cfg.momentum) != shape or job.task.dim != first.task.dim:
            raise ValueError(
                "stacked jobs must share clients, rounds, local_steps, momentum and dim"
            )
    n, dim, momentum = len(clients), first.task.dim, first.cfg.momentum
    local_steps, rounds = first.cfg.local_steps, first.cfg.rounds
    every = np.arange(n)
    by_name = sorted(every.tolist(), key=lambda i: clients[i])
    sqrt_dim = np.sqrt(dim)

    # Stream sets: the jobs whose rounds draw exactly the same numbers.
    set_of: dict[tuple, int] = {}
    job_set = np.array([
        set_of.setdefault(
            (job.cfg.seed, id(job.task), job.sampling.probs.tobytes()), len(set_of)
        )
        for job in jobs
    ])
    leads = [jobs[int(np.flatnonzero(job_set == s)[0])] for s in range(len(set_of))]
    # Flattened task tables: stream set s's client i on exit e is row
    # (s * n + i) * E + e - 1, and set_base[s, i] is that row for exit 1.
    # Per-client rows (stream states, draws) are s * n + i.
    rows = [[job.task.client_index(c) for c in clients] for job in leads]
    matrices = np.concatenate([job.task.matrices[r] for job, r in zip(leads, rows)])
    num_exits = matrices.shape[1]
    matrices = matrices.reshape(-1, dim, dim)
    centers = np.concatenate([job.task.centers[r] for job, r in zip(leads, rows)]).reshape(-1, dim)
    noise_scale = np.concatenate([job.task.noise_scale[r] for job, r in zip(leads, rows)]).ravel()
    max_exit = np.stack([job.task.max_exit[r] for job, r in zip(leads, rows)])
    set_base = np.arange(len(leads) * n).reshape(-1, n) * num_exits
    sample_states = np.empty((rounds, len(leads), 4), dtype=np.uint64)
    local_states = np.empty((rounds, len(leads) * n, 4), dtype=np.uint64)
    for s, job in enumerate(leads):
        sample_states[:, s], local_states[:, s * n:(s + 1) * n] = _round_states(job.cfg, n)
    # One generator serves every stream: each is done drawing before the next reseat.
    gen = np.random.default_rng(0)

    # Per job: aggregate_preprojection's coefficient for every pair it can be
    # sent, the step sizes of every round, the server step and the radius.
    coef = np.zeros((len(jobs),) + first.sampling.probs.shape)
    for r, (job, job_pools) in enumerate(zip(jobs, pools)):
        for i, client in enumerate(clients):
            for e in range(1, job.sampling.num_exits + 1):
                prob = job.sampling.prob(client, e)
                if prob > 0:
                    share = job.task.sizes[client] / job_pools.sizes[e - 1]
                    coef[r, i, e - 1] = job.weights.weights[e - 1] * share / prob
    # Job r's client i on exit e is entry job_base[r, i] + e - 1 of these.
    coef = coef.ravel()
    probs = np.concatenate([job.sampling.probs for job in jobs]).ravel()
    job_base = np.arange(len(jobs) * n).reshape(-1, n) * first.sampling.num_exits
    # Job r's client i is row job_slot[r, i] of its stream set's per-client draws.
    job_slot = job_set[:, None] * n + every
    # etas[t - 1, j] broadcasts each job's step size over its (N, d) slab.
    etas = np.stack([_lr_table(job.cfg) for job in jobs], axis=-1)[..., None, None]
    server_lr = np.array([job.cfg.server_lr for job in jobs])[:, None]
    radius = np.array([job.cfg.projection_radius for job in jobs])

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        set_exits = np.stack([
            _sample_exits(job.sampling, rngmod.reseat(gen, sample_states[t - 1, s]))
            for s, job in enumerate(leads)
        ])
        if (set_exits >= max_exit).any():
            s, i = np.argwhere(set_exits >= max_exit)[0]
            leads[s].task.pair(clients[i], int(set_exits[s, i]) + 1)  # raises ValueError
        pairs = set_base + set_exits
        sigma = noise_scale[pairs].ravel()
        draws = np.zeros((sigma.size, local_steps, dim))
        for k in np.flatnonzero(sigma > 0).tolist():
            rngmod.reseat(gen, local_states[t - 1, k]).standard_normal(out=draws[k])
        # A noiseless client adds 0.0 where the reference adds nothing; that
        # can only flip the sign of a zero, which w_end - w and the sum from
        # 0.0 below erase.
        noise = (sigma[:, None, None] * draws / sqrt_dim)[job_slot]
        job_pairs = pairs.ravel()[job_slot]
        a_sel = matrices[job_pairs]
        c_sel = centers[job_pairs]

        def gradient(stack: np.ndarray, j: int) -> np.ndarray:
            return np.matmul(a_sel, (stack - c_sel)[..., None])[..., 0] + noise[:, :, j]

        # Each job's broadcast model becomes its (N, d) slab at the first step.
        w_end = _local_steps(w[:, None], momentum, etas[t - 1], gradient)

        exits = set_exits.ravel()[job_slot]
        zero = probs[job_base + exits] <= 0
        if zero.any():
            r = int(np.flatnonzero(zero.any(axis=1))[0])
            i = next(i for i in by_name if zero[r, i])
            raise ZeroProbabilityError(
                f"update from ({clients[i]}, exit {exits[r, i] + 1}) with p=0"
            )
        terms = coef[job_base + exits][..., None] * (w_end - w[:, None])
        delta = np.zeros_like(w)
        for i in by_name:
            delta += terms[:, i]
        w = w + server_lr * delta
        # project_ball row by row, wherever a row may lie outside its ball:
        # these norms can differ from project_ball's in the last bits only.
        norms = np.sqrt(np.einsum("rd,rd->r", w, w))
        for r in np.flatnonzero(~(norms <= radius * (1.0 - 1e-9))):
            w[r] = project_ball(w[r], radius[r])
        _require_finite(w, t, jobs)
        return w

    return advance
