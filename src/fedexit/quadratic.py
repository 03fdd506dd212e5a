"""Strongly convex quadratic testbed with closed-form optima.

Each (client, exit) pair owns a quadratic loss ``0.5 (w - a)' A (w - a)``
with a symmetric positive definite ``A``. Curvature constants come from the
matrices' eigenvalues, and minimizers and the weighted objective in closed form,
which makes this the backend for verifying convergence and bias bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .errors import InvalidArgumentError, SingularSystemError, integer, number, read_fields
from .fedtrain import _local_steps
from .objective import weighted_objective
from .strategies import ExitPools, ExitWeights
from .topology import Topology


@dataclass(frozen=True)
class QuadraticTask:
    """Per-(client, exit) quadratics and the feasible ball they are trained on.

    ``matrices[i, e-1]`` and ``centers[i, e-1]`` define the loss of client
    ``clients[i]`` on exit ``e``; entries with ``e > max_exit[i]`` are unused.
    ``noise_scale`` is the standard deviation budget of the stochastic gradient noise per
    pair, and training projects onto the origin-centered ball of ``radius``. ``dim``,
    ``num_exits``, ``mu`` and ``smoothness`` are read from ``matrices``, whose shape the
    other arrays must match.
    """

    PACKS_SETS = True  # a stack packs stream sets: local_phase steps them all as one batch

    clients: tuple[str, ...]
    matrices: np.ndarray  # (N, E, d, d)
    centers: np.ndarray  # (N, E, d)
    noise_scale: np.ndarray  # (N, E)
    max_exit: np.ndarray  # (N,)
    sizes: dict[str, int]
    radius: float

    def __post_init__(self) -> None:
        read_fields(self, "", radius=number)
        n, shape = len(self.clients), np.shape(self.matrices)
        if len(shape) != 4 or shape[0] != n or shape[2] != shape[3] or (
                shape[1] < max(np.ravel(self.max_exit), default=0)):  # an exit for every held pair
            raise InvalidArgumentError(f"matrices must be shaped ({n}, exits, d, d), got {shape}")
        for name, want in (("max_exit", (n,)), ("centers", shape[:3]), ("noise_scale", shape[:2])):
            got = np.shape(getattr(self, name))
            if got != want:
                raise InvalidArgumentError(f"{name} must be shaped {want}, got {got}")
        spectra = {}  # (row, exit) -> lowest and highest eigenvalue, one held pair at a time
        for i, cid in enumerate(self.clients):
            for e in range(1, int(self.max_exit[i]) + 1):
                a_mat = self.matrices[i, e - 1]  # eigvalsh reads one triangle, A (w - a) both
                if not (np.isfinite(a_mat).all() and (a_mat == a_mat.T).all()):
                    raise InvalidArgumentError(
                        f"matrices of client {cid} on exit {e} must be finite and symmetric")
                spectra[i, e] = tuple(map(float, np.linalg.eigvalsh(a_mat)[[0, -1]]))
        object.__setattr__(self, "_spectra", spectra)
        object.__setattr__(self, "mu", min((lo for lo, _ in spectra.values()), default=0.0))
        object.__setattr__(self, "smoothness", max((hi for _, hi in spectra.values()), default=0.0))
        if not (0 < self.radius < np.inf and 0 < self.mu <= self.smoothness < np.inf):
            raise InvalidArgumentError(
                "need 0 < radius < inf and held matrices with 0 < mu <= smoothness < inf, got "
                f"radius {self.radius}, mu {self.mu} and smoothness {self.smoothness}")

    dim = property(lambda self: self.matrices.shape[-1])
    num_exits = property(lambda self: self.matrices.shape[1])

    @property
    def kind(self) -> str:
        return "quadratic"

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.clients)}

    def client_index(self, client: str) -> int:
        try:
            return self._rows[client]
        except KeyError:
            raise InvalidArgumentError(f"{client!r} is not a client of this task") from None

    def _check_pair(self, i: int, exit: int) -> None:
        if not 1 <= exit <= self.max_exit[i]:
            raise InvalidArgumentError(
                f"client {self.clients[i]} holds exits 1..{self.max_exit[i]}, not {exit}")

    def pair(self, client: str, exit: int) -> tuple[np.ndarray, np.ndarray]:
        i = self.client_index(client)
        self._check_pair(i, exit)
        return self.matrices[i, exit - 1], self.centers[i, exit - 1]

    def sigma(self, client: str, exit: int) -> float:
        i = self.client_index(client)
        self._check_pair(i, exit)
        return float(self.noise_scale[i, exit - 1])

    def loss(self, w: np.ndarray, client: str, exit: int, cap: float | None = None) -> float:
        a_mat, center = self.pair(client, exit)
        diff = w - center
        value = 0.5 * float(diff @ a_mat @ diff)
        if cap is not None:
            value = min(value, cap)
        return value

    def full_gradient(self, w: np.ndarray, client: str, exit: int) -> np.ndarray:
        a_mat, center = self.pair(client, exit)
        return a_mat @ (w - center)

    def stochastic_gradient(
        self,
        w: np.ndarray,
        client: str,
        exit: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Exact gradient plus isotropic noise with squared norm budget sigma^2.

        The ``dim`` normals are drawn even where sigma is 0, so every call
        advances ``rng`` by the same amount.
        """
        grad = self.full_gradient(w, client, exit)
        sigma = self.sigma(client, exit)
        return grad + sigma * rng.standard_normal(self.dim) / np.sqrt(self.dim)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    @staticmethod
    def draw_shape(cfg, dim: int) -> tuple[int, int]:
        """One round of one client's local draws: a noise vector per local step."""
        return (cfg.local_steps, dim)

    def draw_rounds(self, gen: np.random.Generator, client: str, cfg, rounds: int) -> np.ndarray:
        """``rounds`` rounds of ``client``'s local noise, as :meth:`stochastic_gradient` draws it.

        The normals are drawn whatever the client's exit and sigma, so every
        round advances ``gen`` by the same amount.
        """
        return gen.standard_normal((rounds, *self.draw_shape(cfg, self.dim)))

    @staticmethod
    def local_phase(leads, job_set: np.ndarray):
        """The round engine's local phase: all (job, client) rows step on one ``(R, N, d)`` slab.

        ``leads[s]`` is stream set ``s``'s first job and ``job_set[r]`` job
        ``r``'s set. Each step is one batched matmul, row by row the
        matrix-vector product of :meth:`stochastic_gradient`. A stream-set
        row's noise is ``sigma * draw / sqrt(dim)`` on its row of the round's
        draws (see :meth:`draw_rounds`), and every job of the set shares it.
        The slab comes back as one group of every client over ``[0, d)``.
        """
        first = leads[0]
        clients, dim = first.sampling.clients, first.task.dim
        sqrt_dim = np.sqrt(dim)
        for job in leads:  # refuse an exit a client samples with p > 0 but does not hold
            for client, last in zip(clients, job.sampling.last_exit):
                job.task.pair(client, int(last))
        rows = [[job.task.client_index(c) for c in clients] for job in leads]
        # Stream set s's client i on exit e + 1 is entry [s, i, e] of these tables.
        tables = {name: np.empty((len(leads), len(clients)) + getattr(first.task, name).shape[1:])
                  for name in ("matrices", "centers", "noise_scale")}
        for s, (job, r) in enumerate(zip(leads, rows)):
            for name, table in tables.items():  # in place: take buffers `out` only in mode "raise"
                np.take(getattr(job.task, name), r, axis=0, out=table[s], mode="clip")
        matrices, centers, noise_scale = tables.values()
        cells = np.arange(len(leads))[:, None], np.arange(len(clients))
        every, whole = range(len(clients)), ((0, dim),)

        def phase(w, exits, draws, etas):
            sigma = noise_scale[cells + (exits,)].ravel()
            noise = (sigma[:, None, None] * draws / sqrt_dim).reshape(exits.shape + (-1, dim))
            at = job_set[:, None], cells[1], exits[job_set]
            a_sel, c_sel, noise = matrices[at], centers[at], noise[job_set]

            def gradient(stack: np.ndarray, j: int) -> np.ndarray:
                return np.matmul(a_sel, (stack - c_sel)[..., None])[..., 0] + noise[:, :, j]

            # Each job's broadcast model becomes its (N, d) slab at the first
            # step, and its step size broadcasts over that slab: one group of every client.
            return [(every, whole, _local_steps(w[:, None], etas[..., None, None], gradient))]

        return phase

    @staticmethod
    def dim_of(*, dim: int, **_) -> tuple[int, str]:
        return dim, "task dim"

    @staticmethod
    def stack_tables(cfg, clients: int, rows: int, sets: int, *, dim: int, num_exits: int, **_):
        """What :meth:`local_phase` holds for ``rows`` jobs of ``sets`` stream sets: a job's
        gathered matrix row comes with its center and its local steps' slabs (``6 * dim``)."""
        copy, keys = sets * clients * num_exits * (dim * dim + dim + 1) * 8, "task dim"
        return [("a round's noise", (rows + sets) * clients * cfg.local_steps * dim * 8,
                 "training local_steps and task dim"),
                ("every stream set's matrices", copy, "task dim and seeds" if sets > 1 else keys),
                ("a round's matrices of every job", rows * clients * dim * (dim + 6) * 8, keys)]

    @staticmethod
    def task_tables(clients: int, tasks: int, *, dim: int, num_exits: int, **_):
        """What ``tasks`` calls of :func:`make_quadratic_task` build: ``(N, E, d, d)`` matrices."""
        return [("the tasks' matrices", tasks * clients * num_exits * dim * dim * 8,
                 "task dim and seeds" if tasks > 1 else "task dim")]

    def loss_cap(self) -> float:
        """Exact upper bound on any pair loss over the feasible ball."""
        worst = 0.0
        for (i, e), (_, top) in self._spectra.items():
            reach = self.radius + float(np.linalg.norm(self.centers[i, e - 1]))
            worst = max(worst, 0.5 * top * reach**2)
        return worst

    def population_exit_loss(
        self, w: np.ndarray, exit: int, cap: float | None = None
    ) -> float:
        """Data-weighted mean loss of exit ``exit`` over every client holding it."""
        holders = [c for i, c in enumerate(self.clients) if self.max_exit[i] >= exit]
        total = sum(self.sizes[c] for c in holders)
        if total <= 0:
            raise InvalidArgumentError(f"no data behind exit {exit}")
        return sum(
            self.sizes[c] / total * self.loss(w, c, exit, cap=cap) for c in holders
        )


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def check_quadratic_task(dim: int, eig_range, sigma_range, center_scale: float) -> tuple:
    """The arguments as read, in order, if :func:`make_quadratic_task` can build from them."""
    dim, center_scale = integer("dim", dim, least=1), number("center_scale", center_scale)
    if len(eig_range) != 2 or not 0 < eig_range[0] <= eig_range[1] < np.inf:
        raise InvalidArgumentError(
            f"eig_range must be [lo, hi] with 0 < lo <= hi < inf, got {list(eig_range)}")
    if len(sigma_range) != 2 or not 0 <= sigma_range[0] <= sigma_range[1] < np.inf:
        raise InvalidArgumentError(
            f"sigma_range must be [lo, hi] with 0 <= lo <= hi < inf, got {list(sigma_range)}")
    if not 0 <= center_scale < np.inf:
        raise InvalidArgumentError(f"center_scale must be finite and >= 0, got {center_scale}")
    return dim, eig_range, sigma_range, center_scale


def make_quadratic_task(
    topology: Topology,
    dim: int,
    *,
    eig_range: tuple[float, float] = (1.0, 2.0),
    sigma_range: tuple[float, float] = (0.0, 0.5),
    center_scale: float = 1.0,
    seed: int = 0,
) -> QuadraticTask:
    """Draw a random instance over the topology's clients.

    Eigenvalues are drawn per pair from ``eig_range``, so the task's ``mu`` and ``smoothness``,
    which it reads from the matrices, lie in that range. Centers lie in a ball of radius
    ``center_scale``; the feasible radius keeps every minimizer strictly interior.

    Raises:
        InvalidArgumentError: a value :func:`check_quadratic_task` refuses.
    """
    dim, eig_range, sigma_range, center_scale = check_quadratic_task(
        dim, eig_range, sigma_range, center_scale)
    clients = topology.client_ids
    n, e_max = len(clients), topology.num_exits
    gen = rngmod.stream(seed, rngmod.label("quadratic-task"))
    matrices = np.zeros((n, e_max, dim, dim))
    centers = np.zeros((n, e_max, dim))
    sigmas = np.zeros((n, e_max))
    max_exit = np.array([topology.exit_of(c) for c in clients])
    for i in range(n):
        for e in range(int(max_exit[i])):
            eigs = gen.uniform(eig_range[0], eig_range[1], size=dim)
            basis = _random_orthogonal(gen, dim)
            mat = (basis * eigs) @ basis.T
            matrices[i, e] = 0.5 * (mat + mat.T)
            centers[i, e] = rngmod.ball_point(gen, dim, center_scale)
            sigmas[i, e] = gen.uniform(sigma_range[0], sigma_range[1])
    kappa_bound = eig_range[1] / eig_range[0]
    return QuadraticTask(
        clients=clients, matrices=matrices, centers=centers, noise_scale=sigmas, max_exit=max_exit,
        sizes={c: topology.by_id[c].dataset_size for c in clients},
        radius=1.0 + 2.0 * kappa_bound * center_scale)


@dataclass(frozen=True)
class Minimizers:
    """Closed-form optimum of the weighted objective.

    Each pair's own optimum is its center, where its loss is 0.
    """

    w_star: np.ndarray
    f_star: float


def quadratic_minimizers(
    task: QuadraticTask, weights: ExitWeights, pools: ExitPools
) -> Minimizers:
    """Solve the weighted normal equations exactly.

    The weighted objective is a sum of quadratics, so its minimizer solves
    ``(sum coef * A) w = sum coef * A a`` with ``coef`` the exit weight times
    the client's share of the pool.
    """
    lhs = np.zeros((task.dim, task.dim))
    rhs = np.zeros(task.dim)
    for e in range(1, pools.num_exits + 1):
        pool_size = pools.sizes[e - 1]
        for client in pools.clients[e - 1]:
            coef = weights.weights[e - 1] * task.sizes[client] / pool_size
            a_mat, center = task.pair(client, e)
            lhs += coef * a_mat
            rhs += coef * (a_mat @ center)
    try:
        w_star = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    # Relative to the sizes of the terms, so that far-off centers, which scale
    # rhs and w_star alike, do not read as a singular system.
    residual = float(np.linalg.norm(lhs @ w_star - rhs))
    scale = float(np.linalg.norm(lhs) * np.linalg.norm(w_star) + np.linalg.norm(rhs))
    if not residual <= 1e-10 * scale:
        raise SingularSystemError(
            f"normal equations residual {residual:.3e} against a scale of {scale:.3e}"
        )
    f_star = weighted_objective(task, w_star, weights, pools)
    return Minimizers(w_star=w_star, f_star=f_star)
