"""Round loop: exit sampling, local SGD, weighted pseudo-gradient aggregation.

Each round the server samples one exit per client, broadcasts the global
model, lets every client run a few local SGD steps on its sampled exit, and
folds the parameter deltas back with weights that combine the exit's
aggregation weight, the client's share of that exit's data pool, and the
inverse sampling probability. The result is projected onto an
origin-centered ball. All randomness comes from streams keyed by (seed,
client), so runs are bit-reproducible regardless of execution order:
``stream(seed, ROUND_SAMPLE)`` draws every round's exits, and client ``i``'s
``stream(seed, LOCAL, i)`` its local noise or batches. Each is opened once per
run and draws one fixed-size block per round whatever exit was sampled, so a
T-round run is a prefix of a longer one.

One engine trains R jobs side by side on either backend (:func:`run_stacked`;
:func:`run` trains one job through it and also returns the weighted objective
at the last iterate). Jobs equal in every field but their label train once.
It samples the exits, sums each job's weighted deltas in client-name order,
projects and checks that the iterates stay finite. The task class supplies
the local phase. Jobs that share a seed, a task, a sampling matrix and a
batch size form a stream set: they draw the same exits and local streams, so
they share one set of streams and one draw per round. The quadratic steps the
whole ``(R, N, d)`` slab with one batched matmul per local step and draws
each client's noise for all of its local steps at once; the MLP steps each
stream set's jobs with one stacked backprop per client and local step, on the
batch they share. The result is bit-identical to calling :func:`sample_round`,
:func:`local_update` and :func:`aggregate` per round, per client and per job,
which stay the reference implementation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import DivergenceError, ZeroProbabilityError
from .objective import weighted_objective
from .strategies import ExitPools, ExitWeights, SamplingMatrix, exit_pools, require_pooled_data
from .topology import Topology

SCHEDULES = ("constant", "theory", "cosine")


def step_offset(kappa: float, local_steps: int) -> float:
    """Offset gamma of the theory step size 2 / (mu * (gamma + step + 1)).

    The convergence bound uses the same gamma.
    """
    return max(8.0 * kappa, float(local_steps)) - 1.0


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the round loop: plain local SGD, as the bounds assume.

    The ``theory`` schedule needs the curvature constants ``mu`` and
    ``smoothness``; its offset is :func:`step_offset` of ``smoothness / mu``
    and ``local_steps``. ``constant`` and ``cosine`` schedules use
    ``base_lr``. Every round ends with a projection onto the ball of radius
    ``projection_radius``. The experiment runner fills ``mu``,
    ``smoothness`` and ``projection_radius`` from a quadratic task, whose
    ``opt_bound`` assumes exactly those constants.
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.server_lr > 0:
            raise ValueError(f"server_lr must be positive, got {self.server_lr}")
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not self.projection_radius > 0:
            raise ValueError(f"projection_radius must be positive, got {self.projection_radius}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.lr_schedule == "theory":
            if not 0 < self.mu <= self.smoothness < math.inf:
                raise ValueError("theory schedule needs 0 < mu <= smoothness < inf")

    @property
    def gamma_value(self) -> float:
        kappa = self.smoothness / self.mu if self.mu > 0 else 1.0
        return step_offset(kappa, self.local_steps)


def learning_rate(cfg: TrainConfig, t: int, j: int) -> float:
    """Local step size at round ``t`` (1-based) and local step ``j`` (0-based).

    ``t`` and ``j`` may also be integer arrays.
    """
    if cfg.lr_schedule == "theory":
        step = (t - 1) * cfg.local_steps + j
        return 2.0 / (cfg.mu * (cfg.gamma_value + step + 1.0))
    if cfg.lr_schedule == "cosine":
        step = (t - 1) * cfg.local_steps + j
        horizon = cfg.rounds * cfg.local_steps
        return cfg.base_lr * 0.5 * (1.0 + _cos(math.pi * step / horizon))
    return cfg.base_lr


def _cos(angle):
    """``math.cos`` of a float, or of each entry of an array: ``np.cos`` need not round the same way."""
    if np.ndim(angle) == 0:
        return math.cos(angle)
    return np.fromiter(map(math.cos, angle.flat), float, count=angle.size).reshape(angle.shape)


@dataclass(frozen=True)
class RoundSample:
    """One (client, exit) pair per client for a single round."""

    pairs: tuple[tuple[str, int], ...]


def sample_round(sampling: SamplingMatrix, rng: np.random.Generator) -> RoundSample:
    """Draw every client's exit independently from its categorical row."""
    u = rng.random(len(sampling.clients))
    # Rows of the cumulative sums never decrease, so counting the entries
    # <= u is searchsorted(side="right"); the cap guards against rounding.
    exits = np.minimum((sampling.row_cumsum <= u[:, None]).sum(axis=1), sampling.num_exits - 1)
    return RoundSample(
        pairs=tuple((client, int(e) + 1) for client, e in zip(sampling.clients, exits))
    )


def _lr_table(cfg: TrainConfig) -> np.ndarray:
    """``learning_rate(cfg, t, j)`` for every round and local step, as one array."""
    t, j = np.arange(1, cfg.rounds + 1)[:, None], np.arange(cfg.local_steps)
    return np.broadcast_to(learning_rate(cfg, t, j), (cfg.rounds, cfg.local_steps)).astype(float)


def _local_steps(w: np.ndarray, etas, gradient) -> np.ndarray:
    """Take one plain SGD step from ``w`` per step size in ``etas``.

    ``w`` is one iterate or a stack of them, and ``gradient(w, j)`` returns
    the gradient of the same shape at local step ``j``. A step size is a
    float or an array that broadcasts against the stack. Step sizes enter
    the local phase here and nowhere else.
    """
    for j, eta in enumerate(etas):
        w = w - eta * gradient(w, j)
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
    return _local_steps(w_start, etas, gradient)


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """``v`` if it lies in the origin-centered ball of ``radius``, else ``v`` scaled onto it."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == math.inf and np.isfinite(v).all():
        # The squares overflow, not the norm: measure v in units of its largest entry.
        scale = float(np.abs(v).max())
        unit = v / scale
        unit_norm = float(np.linalg.norm(unit))
        return v if scale * unit_norm <= radius else unit * (radius / unit_norm)
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


@dataclass(frozen=True)
class Job:
    """One training run: everything that decides its iterates.

    ``label`` names the job, next to its seed, in a :class:`DivergenceError`
    raised by :func:`run_stacked`.
    """

    topology: Topology
    task: object
    weights: ExitWeights
    sampling: SamplingMatrix
    cfg: TrainConfig
    w_init: np.ndarray | None = None
    label: str = ""


def initial_iterate(job: Job) -> np.ndarray:
    """Where ``job`` starts: a copy of its ``w_init``, else the task's draw from stream (seed, INIT)."""
    if job.w_init is None:
        return job.task.init_params(rngmod.stream(job.cfg.seed, rngmod.INIT))
    return np.asarray(job.w_init, dtype=float).copy()


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
    require_pooled_data(job.weights, pools)
    return pools, initial_iterate(job)


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
) -> tuple[np.ndarray, float]:
    """Train one job for ``cfg.rounds`` rounds through :func:`run_stacked`.

    Returns the last iterate and the weighted objective at it.

    Raises:
        As :func:`run_stacked`.
    """
    w = run_stacked([Job(topology, task, weights, sampling, cfg, w_init)])[0]
    return w, weighted_objective(task, w, weights, exit_pools(topology, sampling))


# Byte budget of one stack's (R, N, d) slab of local iterates: run_stacked
# packs whole stream sets into stacks that stay under it.
STACK_BYTES = 1024 * 1024


def stack_rows(clients: int, dim: int) -> int:
    """How many jobs one stack holds: as many as keep the slab within STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // (clients * dim * 8))


def _set_key(job: Job) -> tuple:
    """Jobs with equal keys form one stream set: every round they draw the same numbers.

    A set's jobs share one batch draw per client, so the batch size is keyed.
    """
    return (job.cfg.seed, id(job.task), job.sampling.probs.tobytes(), job.cfg.batch_size)


def _job_key(job: Job) -> tuple:
    """Jobs with equal keys train to the same iterate: every field but ``label`` matches."""
    w_init = None if job.w_init is None else np.asarray(job.w_init, dtype=float).tobytes()
    return (id(job.topology), id(job.task), job.sampling.clients, job.sampling.probs.tobytes(),
            job.weights.weights.tobytes(), job.cfg, w_init)


def run_stacked(jobs: Sequence[Job]) -> np.ndarray:
    """Train jobs side by side; row ``r`` is the last iterate of ``jobs[r]``.

    This is the one driver of the round engine. Each row equals, bit for bit,
    the iterate of that job trained alone. Each distinct job (:func:`_job_key`)
    trains once, under the label of its first appearance, and every job equal
    to it gets the same row. The jobs must share their task class, clients,
    ``rounds``, ``local_steps`` and ``dim``, as the jobs of one grid do.
    Stream sets (:func:`_set_key`), in order of first appearance, are packed
    whole into stacks whose slab stays within :data:`STACK_BYTES`; a set too
    large for one stack is cut into parts that fill one each. Streams are
    keyed by (seed, client), so every part of a cut set draws what the whole
    set would.

    Raises:
        ValueError: the jobs cannot share a stack, or a job's task and
            topology disagree on client dataset sizes.
        EmptyPoolError: some weighted exit has no pooled data.
        ZeroProbabilityError: a client drew an exit it samples with p=0.
        DivergenceError: an iterate stopped being finite.
    """
    def shape(job: Job) -> tuple:
        cfg = job.cfg
        return (type(job.task), job.sampling.clients, cfg.rounds, cfg.local_steps,
                job.task.dim)

    first = jobs[0]
    if any(shape(job) != shape(first) for job in jobs):
        raise ValueError("stacked jobs must share task class, clients, rounds, "
                         "local_steps and dim")
    index: dict[tuple, int] = {}
    rows = [index.setdefault(_job_key(job), len(index)) for job in jobs]
    jobs = [jobs[rows.index(r)] for r in range(len(index))]
    starts = [_start(job) for job in jobs]
    size = stack_rows(len(first.sampling.clients), first.task.dim)
    sets: dict[tuple, list[int]] = {}
    for r, job in enumerate(jobs):
        sets.setdefault(_set_key(job), []).append(r)
    stacks = [[]]
    for members in sets.values():
        for lo in range(0, len(members), size):
            part = members[lo : lo + size]
            if len(stacks[-1]) + len(part) > size:
                stacks.append([])
            stacks[-1].extend(part)
    out = np.empty((len(jobs), first.task.dim))
    for stack in map(sorted, stacks):
        advance = _stacked_round([jobs[r] for r in stack], [starts[r][0] for r in stack])
        w = np.stack([starts[r][1] for r in stack])
        for t in range(1, first.cfg.rounds + 1):
            w = advance(w, t)
        out[stack] = w
    return out[rows]


def _stacked_round(jobs: Sequence[Job], pools: Sequence[ExitPools]):
    """``advance(w, t)``: one round of every job, ``w`` the ``(R, d)`` stack of iterates.

    Bit-identical to :func:`local_update` and :func:`aggregate` run per
    client and per job: the same streams give the same draws, and each job's
    deltas are summed in the same ascending client order with the same
    coefficients. Jobs with the same seed, task, sampling matrix and batch
    size form one stream set, which opens its streams once per stack and
    samples its exits once per round. The exits of every round are drawn
    before the first; a round whose exits a job samples with p=0 is still
    refused in that round.

    The task class's ``local_phase(jobs, job_set)`` returns
    ``phase(w, exits, gens, etas)``: from the broadcast models, the ``(S, N)``
    0-based exits of every stream set, the local generators (``gens[s * N +
    i]`` is stream set ``s``'s client ``i``; each draws one fixed-size block
    per round, whatever its exit) and the ``(local_steps, R)`` step sizes, it
    returns the ``(R, N, d)`` local iterates in a new array.
    """
    first = jobs[0]
    clients = first.sampling.clients
    n, rounds = len(clients), first.cfg.rounds
    by_name = sorted(range(n), key=lambda i: clients[i])

    set_of: dict[tuple, int] = {}
    job_set = np.array([set_of.setdefault(_set_key(job), len(set_of)) for job in jobs])
    leads = [jobs[int(np.flatnonzero(job_set == s)[0])] for s in range(len(set_of))]
    # Every round's exits, drawn before round 1 as sample_round draws them:
    # round t's N uniforms are row t - 1 of one draw from the sample stream,
    # then the count of cumulative probabilities <= each, capped at the last exit.
    u = np.stack([
        rngmod.stream(job.cfg.seed, rngmod.ROUND_SAMPLE).random((rounds, n)) for job in leads
    ], axis=1)
    cumsum = np.stack([job.sampling.row_cumsum for job in leads])
    exit_table = np.minimum((cumsum <= u[..., None]).sum(axis=-1), first.sampling.num_exits - 1)
    gens = [rngmod.stream(job.cfg.seed, rngmod.LOCAL, i) for job in leads for i in range(n)]
    local_phase = type(first.task).local_phase(jobs, job_set)

    # Per job: aggregate_preprojection's coefficient for every pair it can be
    # sent, the step sizes of every round, the server step and the radius.
    coef = np.zeros((len(jobs),) + first.sampling.probs.shape)
    for r, (job, job_pools) in enumerate(zip(jobs, pools)):
        sent = job.sampling.probs > 0
        sizes = np.array([[job.task.sizes[c]] for c in clients], dtype=float)
        share = np.divide(sizes, job_pools.sizes, out=np.zeros(sent.shape), where=sent)
        np.divide(job.weights.weights * share, job.sampling.probs, out=coef[r], where=sent)
    probs = np.stack([job.sampling.probs for job in jobs])
    rows = np.arange(len(jobs))[:, None], np.arange(n)
    etas = np.stack([_lr_table(job.cfg) for job in jobs], axis=-1)
    server_lr = np.array([job.cfg.server_lr for job in jobs])[:, None]
    radius = np.array([job.cfg.projection_radius for job in jobs])

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        set_exits = exit_table[t - 1]
        w_end = local_phase(w, set_exits, gens, etas[t - 1])
        exits = set_exits[job_set]
        at = rows + (exits,)  # job r's client i on its sampled exit is entry [r, i]
        zero = probs[at] <= 0
        if zero.any():
            r = int(np.flatnonzero(zero.any(axis=1))[0])
            i = next(i for i in by_name if zero[r, i])
            raise ZeroProbabilityError(
                f"update from ({clients[i]}, exit {exits[r, i] + 1}) with p=0"
            )
        w_end -= w[:, None]  # the weighted deltas, in place: no second (R, N, d) slab
        w_end *= coef[at][..., None]
        delta = np.zeros_like(w)
        for i in by_name:
            delta += w_end[:, i]
        w = w + server_lr * delta
        # project_ball row by row, wherever a row may lie outside its ball:
        # these norms can differ from project_ball's in the last bits only.
        norms = np.sqrt(np.einsum("rd,rd->r", w, w))
        for r in np.flatnonzero(~(norms <= radius * (1.0 - 1e-9))):
            w[r] = project_ball(w[r], radius[r])
        _require_finite(w, t, jobs)
        return w

    return advance
