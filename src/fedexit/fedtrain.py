"""Round loop: exit sampling, local SGD, weighted pseudo-gradient aggregation.

Each round the server samples one exit per client, broadcasts the global
model, lets every client run a few local SGD steps on its sampled exit, and
folds the parameter deltas back with weights that combine the exit's
aggregation weight, the client's share of that exit's data pool, and the
inverse sampling probability. The result is projected onto the task's origin-centered
ball of ``task.radius`` (an MLP's is infinite). All randomness comes from streams keyed
by (seed, client), so runs are bit-reproducible regardless of execution order:
``stream(seed, ROUND_SAMPLE)`` draws every round's exits, and client ``i``'s
``stream(seed, LOCAL, i)`` its local noise or batches. Each is opened once per
run and gives every round one fixed-size draw whatever exit was sampled, so a
T-round run is a prefix of a longer one. The engine makes a block of rounds'
exits, local draws and step sizes at once: a bulk draw equals the same draws
made one round at a time, no table grows with the rounds, and the round loop
itself makes no generator call.

One engine trains R jobs side by side on either backend (:func:`run_stacked`;
:func:`run` trains one job through it and also returns the weighted objective
at the last iterate). Jobs equal in every field but their label train once.
It samples the exits, sums each job's weighted deltas in client-name order,
projects and checks that the iterates stay finite; every other refusal comes
before round 1. The task class says how a local stream draws and supplies the
local phase, whose end iterates come in groups over ranges of the flat vector;
each client's delta is summed over its own ranges. Jobs that share a seed, a
task and a sampling matrix form a stream set: they draw the same exits and
local streams, so they share one set of streams and one draw per round
(:func:`run_stacked` says which sets share a stack). The result is bit-identical
to calling :func:`sample_round`, :func:`local_update` and :func:`aggregate` per
round, per client and per job, which stay the reference implementation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import rng as rngmod
from .errors import DivergenceError, InvalidArgumentError, ZeroProbabilityError
from .errors import integer, number, read_fields, string
from .objective import weighted_objective
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
    """Choices of the round loop: plain local SGD, as the bounds assume.

    ``constant`` and ``cosine`` schedules use ``base_lr``. The ``theory``
    schedule reads the task's curvature constants instead (see
    :func:`learning_rate`), and every round ends with a projection onto the
    task's feasible ball: both are constants of the problem, which the task
    owns. Each field is read once.
    """

    rounds: int
    local_steps: int
    batch_size: int = 32
    server_lr: float = 1.0
    lr_schedule: str = "constant"
    base_lr: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        count = partial(integer, least=1)
        read_fields(self, "", rounds=count, local_steps=count, batch_size=count, server_lr=number,
                    lr_schedule=string, base_lr=number, seed=rngmod.read_seed)
        if self.rounds * self.local_steps >= 2**63:  # the schedules count in int64
            raise InvalidArgumentError("rounds * local_steps must be below 2**63")
        for name, value in (("server_lr", self.server_lr), ("base_lr", self.base_lr)):
            if not 0 < value < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and positive, got {value}")
        if self.lr_schedule not in SCHEDULES:
            raise InvalidArgumentError(f"unknown lr_schedule {self.lr_schedule!r}")


def learning_rate(cfg: TrainConfig, mu: float, smoothness: float, t: int, j: int) -> float:
    """Local step size at round ``t`` (1-based) and local step ``j`` (0-based).

    Only the ``theory`` schedule reads the task's ``mu`` and ``smoothness``, with the offset
    :func:`step_offset` of ``smoothness / mu``. ``t`` and ``j`` may also be integer arrays.
    """
    if cfg.lr_schedule == "theory":
        step = (t - 1) * cfg.local_steps + j
        gamma = step_offset(smoothness / mu, cfg.local_steps)
        return 2.0 / (mu * (gamma + step + 1.0))
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
    # Rows of the cumulative sums never decrease, so counting the entries <= u
    # is searchsorted(side="right"). A row may sum to just below 1, so the
    # count is capped at the row's last exit with p > 0, as the engine's is.
    exits = np.minimum((sampling.row_cumsum <= u[:, None]).sum(axis=1), sampling.last_exit - 1)
    return RoundSample(
        pairs=tuple((client, int(e) + 1) for client, e in zip(sampling.clients, exits))
    )


def _lr_table(schedules: Sequence[tuple], lo: int, k: int) -> np.ndarray:
    """``[t - lo - 1, j, c]`` is ``learning_rate(*schedules[c], t, j)``: a schedule is a config
    and a task's ``mu`` and ``smoothness``, and the configs share ``local_steps``."""
    t, j = np.arange(lo + 1, lo + k + 1)[:, None], np.arange(schedules[0][0].local_steps)
    table = np.empty((k, len(j), len(schedules)))
    for c, schedule in enumerate(schedules):
        table[..., c] = learning_rate(*schedule, t, j)
    return table


def _local_steps(w: np.ndarray, etas, gradient) -> np.ndarray:
    """Take one plain SGD step from ``w`` per step size in ``etas``.

    ``w`` is one iterate or a stack of them. ``gradient(w, j)`` returns the
    gradient at local step ``j`` in a new array of the stepped iterate's
    shape, which ``w`` broadcasts to; the step scales it in place. A step
    size is a float or an array that broadcasts against it. Step sizes
    enter the local phase here and nowhere else. The first step writes a
    new iterate and every later step updates that one in place, so ``w``
    is never written.
    """
    for j, eta in enumerate(etas):
        g = gradient(w, j)
        g *= eta
        if j == 0:
            w = w - g
        else:
            w -= g
        del g  # else it is held through the next step's backprop
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

    etas = [learning_rate(cfg, task.mu, task.smoothness, t, j) for j in range(cfg.local_steps)]
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


def _name(job: Job) -> str:
    """The job's seed and label, as errors name it."""
    return ", ".join(filter(None, (f"seed {job.cfg.seed}", job.label)))


def initial_iterate(job: Job) -> np.ndarray:
    """Where ``job`` starts: a copy of its ``w_init``, else the task's draw from stream (seed, INIT).

    Raises:
        InvalidArgumentError: ``w_init`` is not one finite vector of the task's ``dim``.
    """
    if job.w_init is None:
        return job.task.init_params(rngmod.stream(job.cfg.seed, rngmod.INIT))
    try:
        w = np.array(job.w_init, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(
            f"{_name(job)}: w_init is not an array of numbers ({exc})") from None
    if w.shape != (job.task.dim,):
        raise InvalidArgumentError(f"{_name(job)}: w_init has shape {w.shape}, but the task's "
                                   f"iterates have shape {(job.task.dim,)}")
    if not np.isfinite(w).all():
        raise InvalidArgumentError(f"{_name(job)}: w_init is not finite")
    return w


def _start(job: Job, w_init: np.ndarray | None = None) -> tuple[ExitPools, np.ndarray]:
    """Check that ``job`` can train; return its exit pools and initial iterate, ``w_init`` if given.

    Raises as :func:`run_stacked` does for one job.
    """
    task, sampling = job.task, job.sampling
    pools = exit_pools(job.topology, sampling)
    if job.weights.num_exits != pools.num_exits:
        raise InvalidArgumentError(f"{_name(job)}: {job.weights.num_exits} exit weights for "
                                   f"{pools.num_exits} exits")
    if job.cfg.lr_schedule == "theory" and not 0 < task.mu <= task.smoothness < math.inf:
        raise InvalidArgumentError(f"{_name(job)}: the theory schedule needs a task with "
                                   f"0 < mu <= smoothness < inf, got mu {task.mu}")
    for client in sampling.clients:
        held = task.sizes.get(client, "no")
        if held != job.topology.by_id[client].dataset_size:
            raise InvalidArgumentError(
                f"client {client}: task holds {held} samples but "
                f"topology declares {job.topology.by_id[client].dataset_size}")
    return pools, initial_iterate(job) if w_init is None else w_init


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


# Byte budgets of one stack's (R, N, d) slab of local iterates (see stack_rows) and of
# its block of local draws (see block_rounds).
STACK_BYTES = 1024 * 1024
DRAW_BYTES = 128 * 1024


def stack_rows(clients: int, dim: int) -> int:
    """How many jobs one stack holds: as many as keep the slab within STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // (clients * dim * 8))


def block_rounds(rounds: int, streams: int, draw_shape) -> int:
    """Rounds per block: as many as keep ``streams`` streams' draws within DRAW_BYTES, or one."""
    return min(rounds, max(1, DRAW_BYTES // (streams * math.prod(draw_shape) * 8)))


def stack_tables(task_cls, cfg: TrainConfig, clients: int, jobs: int, sets: int, **args):
    """(what, bytes, config keys that size it) of each table :func:`run_stacked` holds at most.

    ``args`` are the task's and ``num_exits``. A block holds its exits, step sizes and local
    draws, twice while stacking them, then once next to the task class's first table (what a
    round's phase builds from them). Each job's iterate is held thrice: first, last, returned.
    """
    dim, dim_keys = task_cls.dim_of(**args)
    rows = min(jobs, stack_rows(clients, dim))
    sets = min(rows, sets) if task_cls.PACKS_SETS else 1
    streams, shape = sets * clients, task_cls.draw_shape(cfg, dim)
    k = block_rounds(cfg.rounds, streams, shape)
    draws = k * streams * math.prod(shape) * 8
    exits_and_steps = k * (streams * (args["num_exits"] + 32) + 24 * cfg.local_steps * rows)
    (_, gathered, keys), *own = task_cls.stack_tables(cfg, clients, rows, sets, **args)
    return [("the block of local draws", max(2 * draws, draws + gathered) + exits_and_steps, keys),
            ("the slab and every job's iterates", (rows * clients + 3 * jobs) * dim * 8, dim_keys),
            *own]


def _set_key(job: Job) -> tuple:
    """Jobs with equal keys form one stream set: every round they draw the same numbers."""
    return (job.cfg.seed, id(job.task), job.sampling.probs.tobytes())


def _job_key(job: Job, w_init: np.ndarray | None) -> tuple:
    """Jobs with equal keys train to the same iterate: every field but ``label`` matches."""
    return (id(job.topology), id(job.task), job.sampling.clients, job.sampling.probs.tobytes(),
            job.weights.weights.tobytes(), job.cfg, None if w_init is None else w_init.tobytes())


def run_stacked(jobs: Sequence[Job]) -> np.ndarray:
    """Train jobs side by side; row ``r`` is the last iterate of ``jobs[r]``.

    This is the one driver of the round engine. Each row equals, bit for bit,
    the iterate of that job trained alone. Each distinct job (:func:`_job_key`)
    trains once, under the label of its first appearance, and every job equal
    to it gets the same row. The jobs must share their task class, clients,
    ``rounds``, ``local_steps``, ``dim`` and, on an MLP, ``batch_size``, as
    the jobs of one grid do. Every job is checked before the first round, so
    no refusal but divergence comes once training has begun. Stream sets
    (:func:`_set_key`), in order of first appearance, go into stacks whose
    slab stays within :data:`STACK_BYTES`; a set too large for one stack is
    cut into parts that fill one each. Streams are keyed by (seed, client),
    so every part of a cut set draws what the whole set would. Where the
    task class's ``PACKS_SETS`` is true (the quadratic, which steps its whole
    slab at once) whole sets and parts are packed together into a stack
    while they fit; elsewhere (the MLP) a stack holds one set or part of one.

    Raises:
        InvalidArgumentError: the jobs cannot share a stack, a job's exit
            weights, sampling matrix and topology disagree on the number of
            exits, its task lacks a client or disagrees with the topology on
            client dataset sizes,
            its ``w_init`` is not a finite vector of numbers of the task's
            ``dim``, its ``theory`` schedule meets a task without
            ``0 < mu <= smoothness < inf`` (an MLP), or a quadratic job
            samples an exit that a client does not hold.
        EmptyPoolError: some exit has no pooled data.
        EmptyClientDatasetError: an MLP client has no samples.
        DivergenceError: an iterate stopped being finite.
    """
    def shape(job: Job) -> tuple:
        cfg = job.cfg
        return (type(job.task), job.sampling.clients, cfg.rounds, cfg.local_steps,
                job.task.dim, job.task.draw_shape(cfg, job.task.dim))

    if not jobs:
        raise InvalidArgumentError("run_stacked needs at least one job")
    first = jobs[0]
    if any(shape(job) != shape(first) for job in jobs):
        raise InvalidArgumentError("stacked jobs must share task class, clients, rounds, "
                                   "local_steps, dim and, on an MLP, batch_size")
    inits = [None if job.w_init is None else initial_iterate(job) for job in jobs]
    index: dict[tuple, int] = {}  # each distinct job's key: its first place in jobs
    rows = [index.setdefault(_job_key(job, w), r) for r, (job, w) in enumerate(zip(jobs, inits))]
    starts = {r: _start(jobs[r], inits[r]) for r in index.values()}
    size = stack_rows(len(first.sampling.clients), first.task.dim)
    sets: dict[tuple, list[int]] = {}
    for r in starts:
        sets.setdefault(_set_key(jobs[r]), []).append(r)
    stacks: list[list[list[int]]] = []  # each stack's stream sets (or parts of one), as rows
    for members in sets.values():
        for lo in range(0, len(members), size):
            part = members[lo : lo + size]
            if first.task.PACKS_SETS and stacks and sum(map(len, stacks[-1])) + len(part) <= size:
                stacks[-1].append(part)
            else:
                stacks.append([part])
    advances = [([r for part in parts for r in part],
                 _stacked_round([[jobs[r] for r in part] for part in parts],
                                [starts[r][0] for part in parts for r in part]))
                for parts in stacks]
    out: dict[int, np.ndarray] = {}  # each distinct job's last iterate
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check is the refusal
        while advances:  # popped, so that a trained stack frees its last block of inputs
            stack, advance = advances.pop(0)
            w = np.stack([starts[r][1] for r in stack])
            for t in range(1, first.cfg.rounds + 1):
                w = advance(w, t)
            out.update(zip(stack, w))
    return np.stack([out[r] for r in rows])


def _stacked_round(sets: Sequence[Sequence[Job]], pools: Sequence[ExitPools]):
    """``advance(w, t)``: one round of every job, ``w`` the ``(R, d)`` stack of iterates.

    The rows are the jobs of ``sets`` (a list per stream set) in turn; ``pools[r]`` is row
    ``r``'s. ``advance`` is called for t = 1, 2, ... in turn. It is bit-identical to
    :func:`local_update` and :func:`aggregate` run per client and per job: the same streams give
    the same draws, and each job's deltas are summed in the same ascending client order with the
    same coefficients, over each client's own ranges: outside them a delta is a zero.
    A stream set opens its streams once per stack. ``advance`` only trains: it refuses nothing
    but divergence. It is the engine's one place that calls a stream: per block of
    :func:`block_rounds` rounds, each set's sample stream draws the exit uniforms and each local
    stream its draws (the task's ``draw_rounds(gen, client, cfg, rounds)``), and each distinct
    config and task curvature gives step sizes. Bulk draws equal per-round ones: no bit moves.

    The task class's ``local_phase(leads, job_set)``, from each stream set's first job and
    each job's set, returns ``phase(w, exits, draws, etas)``: from the broadcast models, the
    ``(S, N)`` 0-based exits of every stream set, this round's local draws (``draws[s * N +
    i]`` is stream set ``s``'s client ``i``'s row, whatever its exit) and the ``(local_steps,
    R)`` step sizes, it returns groups ``(clients, ranges, w_end)`` that hold every client once:
    ``w_end`` is a new ``(R, C, width)`` array of the ``C`` clients' local iterates over the
    ``(start, stop)`` ranges of the flat vector, laid end to end. ``S`` is 1 unless the class's
    ``PACKS_SETS`` is true. Building the phase refuses a stack that some round could not train.
    """
    jobs = [job for members in sets for job in members]
    leads = [members[0] for members in sets]
    job_set = np.repeat(np.arange(len(sets)), [len(members) for members in sets])
    first = jobs[0]
    clients = first.sampling.clients
    n, rounds = len(clients), first.cfg.rounds
    by_name = sorted(range(n), key=lambda i: clients[i])
    samplers = [rngmod.stream(job.cfg.seed, rngmod.ROUND_SAMPLE) for job in leads]
    cumsum = np.stack([job.sampling.row_cumsum for job in leads])
    last = np.stack([job.sampling.last_exit for job in leads]) - 1
    streams = [(job, rngmod.stream(job.cfg.seed, rngmod.LOCAL, i), client)
               for job in leads for i, client in enumerate(clients)]
    block = block_rounds(rounds, len(streams), first.task.draw_shape(first.cfg, first.task.dim))
    schedule_of: dict[tuple, int] = {}  # each distinct (config, curvature): its table column
    job_schedule = [schedule_of.setdefault((job.cfg, job.task.mu, job.task.smoothness),
                                           len(schedule_of)) for job in jobs]

    def round_inputs():
        """Each round's exits, local draws and step sizes, made one block of rounds at a time."""
        for lo in range(0, rounds, block):
            k = min(block, rounds - lo)
            # Round t's exits: row t - lo - 1 of a uniform draw, counted and capped as sample_round.
            u = np.stack([gen.random((k, n)) for gen in samplers], axis=1)
            exits = sum(cumsum[..., e] <= u for e in range(cumsum.shape[-1]))  # 2x .sum(-1)'s speed
            yield from zip(np.minimum(exits, last),
                           np.stack([job.task.draw_rounds(gen, client, job.cfg, k)
                                     for job, gen, client in streams], axis=1),
                           _lr_table(list(schedule_of), lo, k)[..., job_schedule])

    inputs = round_inputs()
    local_phase = type(first.task).local_phase(leads, job_set)

    # Per job: the aggregation coefficient of every pair it can be sent, server step and radius.
    coef = np.zeros((len(jobs),) + first.sampling.probs.shape)
    for r, (job, job_pools) in enumerate(zip(jobs, pools)):
        share = np.array([[job.task.sizes[c]] for c in clients], dtype=float) / job_pools.sizes
        np.divide(job.weights.weights * share, job.sampling.probs, out=coef[r],
                  where=job.sampling.probs > 0)
    rows = np.arange(len(jobs))[:, None], np.arange(n)
    server_lr = np.array([job.cfg.server_lr for job in jobs])[:, None]
    radius = np.array([job.task.radius for job in jobs])
    bounded = bool(np.isfinite(radius).any())  # an MLP's ball is infinite: no row projects
    near = radius * (1.0 - 1e-9)  # a row this far out may lie outside its ball
    delta = np.empty((len(jobs), first.task.dim))  # a round's summed weighted deltas

    @cache
    def spans_of(ranges: tuple) -> list:
        """(compact slice, full slice, view of ``delta``) of each of a group's ranges."""
        ends = np.cumsum([0] + [stop - start for start, stop in ranges]).tolist()
        return [(slice(lo, hi), slice(start, stop), delta[:, start:stop])
                for lo, hi, (start, stop) in zip(ends, ends[1:], ranges)]

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        set_exits, draws, etas = next(inputs)
        # Job r's client i on its sampled exit is entry [r, i] of the coefficients.
        scale = coef[rows + (set_exits[job_set],)][..., None]
        own = {}  # client i: its group's iterates, its place in them and its spans
        for clients, ranges, w_end in local_phase(w, set_exits, draws, etas):
            parts = spans_of(ranges)
            for part, full, _ in parts:  # the weighted deltas, in place in the group's iterates
                mine = w_end[..., part]
                mine -= w[:, None, full]
            w_end *= scale if len(clients) == n else scale[:, clients]  # all clients: no copy
            own.update((i, (w_end, k, parts)) for k, i in enumerate(clients))
        delta.fill(0.0)
        for i in by_name:
            w_end, k, parts = own[i]
            for part, _, total in parts:
                total += w_end[:, k, part]
        w = w + server_lr * delta
        # project_ball row by row, wherever a row may lie outside its ball (a NaN row is
        # refused below): these norms can differ from project_ball's in the last bits only.
        if bounded:
            norms = np.sqrt(np.einsum("rd,rd->r", w, w))
            for r in np.flatnonzero(norms > near):
                w[r] = project_ball(w[r], radius[r])
        if not np.isfinite(w).all():
            job = jobs[int(np.argmin(np.isfinite(w).all(axis=1)))]
            raise DivergenceError(f"{_name(job)}, round {t}: the iterate is not finite")
        return w

    return advance
