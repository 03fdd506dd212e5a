"""Strongly convex quadratic testbed with closed-form optima.

Each (client, exit) pair owns a quadratic loss ``0.5 (w - a)' A (w - a)``
with a symmetric positive definite ``A``. Curvature constants, minimizers,
and the weighted objective are all available exactly, which makes this the
backend for verifying convergence and bias bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .errors import SingularSystemError
from .fedtrain import _local_steps
from .strategies import ExitPools, ExitWeights
from .topology import Topology


@dataclass(frozen=True)
class QuadraticTask:
    """Per-(client, exit) quadratics plus the feasible-ball radius.

    ``matrices[i, e-1]`` and ``centers[i, e-1]`` define the loss of client
    ``clients[i]`` on exit ``e``; entries with ``e > max_exit[i]`` are unused.
    ``noise_scale`` is the standard deviation budget of the stochastic
    gradient noise per pair.
    """

    clients: tuple[str, ...]
    num_exits: int
    dim: int
    matrices: np.ndarray  # (N, E, d, d)
    centers: np.ndarray  # (N, E, d)
    noise_scale: np.ndarray  # (N, E)
    max_exit: np.ndarray  # (N,)
    sizes: dict[str, int]
    radius: float
    mu: float
    smoothness: float

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
            raise ValueError(f"{client!r} is not a client of this task") from None

    def _check_pair(self, i: int, exit: int) -> None:
        if not 1 <= exit <= self.max_exit[i]:
            raise ValueError(
                f"client {self.clients[i]} holds exits 1..{self.max_exit[i]}, not {exit}"
            )

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
        """Exact gradient plus isotropic noise with squared norm budget sigma^2."""
        grad = self.full_gradient(w, client, exit)
        sigma = self.sigma(client, exit)
        if sigma > 0:
            grad = grad + sigma * rng.standard_normal(self.dim) / np.sqrt(self.dim)
        return grad

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    @staticmethod
    def local_phase(jobs, job_set: np.ndarray):
        """The round engine's local phase: all (job, client) rows step on one ``(R, N, d)`` slab.

        Each step is one batched matmul, row by row the matrix-vector product
        of :meth:`stochastic_gradient`. A stream-set row draws the noise of
        all its local steps in one call, which equals one call per step, and
        every job of the set shares that draw.
        """
        first = jobs[0]
        clients, dim, momentum = first.sampling.clients, first.task.dim, first.cfg.momentum
        sqrt_dim = np.sqrt(dim)
        leads = [jobs[int(np.flatnonzero(job_set == s)[0])].task for s in range(job_set.max() + 1)]
        rows = [[task.client_index(c) for c in clients] for task in leads]
        # Stream set s's client i on exit e + 1 is entry [s, i, e] of these tables.
        matrices, centers, noise_scale, max_exit = (
            np.stack([getattr(task, name)[r] for task, r in zip(leads, rows)])
            for name in ("matrices", "centers", "noise_scale", "max_exit")
        )
        cells = np.arange(len(leads))[:, None], np.arange(len(clients))

        def phase(w, exits, gen, states, etas):
            if (exits >= max_exit).any():
                s, i = np.argwhere(exits >= max_exit)[0]
                leads[s].pair(clients[i], int(exits[s, i]) + 1)  # raises ValueError
            sigma = noise_scale[cells + (exits,)].ravel()
            draws = np.zeros((sigma.size, first.cfg.local_steps, dim))
            for k in np.flatnonzero(sigma > 0).tolist():
                rngmod.reseat(gen, states[k]).standard_normal(out=draws[k])
            # A noiseless client adds 0.0 where the reference adds nothing;
            # that can only flip the sign of a zero, which the engine's
            # w_end - w and its sum from 0.0 erase.
            noise = (sigma[:, None, None] * draws / sqrt_dim).reshape(exits.shape + (-1, dim))
            at = job_set[:, None], cells[1], exits[job_set]
            a_sel, c_sel, noise = matrices[at], centers[at], noise[job_set]

            def gradient(stack: np.ndarray, j: int) -> np.ndarray:
                return np.matmul(a_sel, (stack - c_sel)[..., None])[..., 0] + noise[:, :, j]

            # Each job's broadcast model becomes its (N, d) slab at the first
            # step, and its step size broadcasts over that slab.
            return _local_steps(w[:, None], momentum, etas[..., None, None], gradient)

        return phase

    def loss_cap(self) -> float:
        """Exact upper bound on any pair loss over the feasible ball."""
        worst = 0.0
        for i, cid in enumerate(self.clients):
            for e in range(1, int(self.max_exit[i]) + 1):
                eigs = np.linalg.eigvalsh(self.matrices[i, e - 1])
                reach = self.radius + float(np.linalg.norm(self.centers[i, e - 1]))
                worst = max(worst, 0.5 * float(eigs[-1]) * reach**2)
        return worst

    def population_exit_loss(
        self, w: np.ndarray, exit: int, cap: float | None = None
    ) -> float:
        """Data-weighted mean loss of exit ``exit`` over every client holding it."""
        holders = [c for i, c in enumerate(self.clients) if self.max_exit[i] >= exit]
        total = sum(self.sizes[c] for c in holders)
        if total <= 0:
            raise ValueError(f"no data behind exit {exit}")
        return sum(
            self.sizes[c] / total * self.loss(w, c, exit, cap=cap) for c in holders
        )


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def check_quadratic_task(dim: int, eig_range, sigma_range, center_scale: float) -> None:
    """Raise ValueError unless :func:`make_quadratic_task` can build from these values."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if len(eig_range) != 2 or not 0 < eig_range[0] <= eig_range[1] < np.inf:
        raise ValueError(
            f"eig_range must be [lo, hi] with 0 < lo <= hi < inf, got {list(eig_range)}"
        )
    if len(sigma_range) != 2 or not 0 <= sigma_range[0] <= sigma_range[1] < np.inf:
        raise ValueError(
            f"sigma_range must be [lo, hi] with 0 <= lo <= hi < inf, got {list(sigma_range)}"
        )
    if not 0 <= center_scale < np.inf:
        raise ValueError(f"center_scale must be finite and >= 0, got {center_scale}")


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

    Eigenvalues are drawn per pair from ``eig_range`` so the global strong
    convexity and smoothness constants are known exactly. Centers lie in a
    ball of radius ``center_scale``; the feasible radius keeps every
    minimizer strictly interior.

    Raises:
        ValueError: a value :func:`check_quadratic_task` refuses.
    """
    check_quadratic_task(dim, eig_range, sigma_range, center_scale)
    clients = topology.client_ids
    n, e_max = len(clients), topology.num_exits
    gen = rngmod.stream(seed, rngmod.label("quadratic-task"))
    matrices = np.zeros((n, e_max, dim, dim))
    centers = np.zeros((n, e_max, dim))
    sigmas = np.zeros((n, e_max))
    max_exit = np.array([topology.exit_of(c) for c in clients])
    mu, smooth = np.inf, 0.0
    for i in range(n):
        for e in range(int(max_exit[i])):
            eigs = gen.uniform(eig_range[0], eig_range[1], size=dim)
            basis = _random_orthogonal(gen, dim)
            mat = (basis * eigs) @ basis.T
            matrices[i, e] = 0.5 * (mat + mat.T)
            centers[i, e] = rngmod.ball_point(gen, dim, center_scale)
            sigmas[i, e] = gen.uniform(sigma_range[0], sigma_range[1])
            mu = min(mu, float(eigs.min()))
            smooth = max(smooth, float(eigs.max()))
    kappa_bound = eig_range[1] / eig_range[0]
    return QuadraticTask(
        clients=clients,
        num_exits=e_max,
        dim=dim,
        matrices=matrices,
        centers=centers,
        noise_scale=sigmas,
        max_exit=max_exit,
        sizes={c: topology.by_id[c].dataset_size for c in clients},
        radius=1.0 + 2.0 * kappa_bound * center_scale,
        mu=mu,
        smoothness=smooth,
    )


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
    from .objective import weighted_objective

    f_star = weighted_objective(task, w_star, weights, pools)
    return Minimizers(w_star=w_star, f_star=f_star)
