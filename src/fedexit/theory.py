"""Error bounds and diagnostics for the training algorithm.

Everything here is stated per (client, exit) pair with a positive sampling
probability: the pair's aggregation coefficient alpha combines the server
step size, the exit weight, and the client's share of the exit's data pool.
The bounds (optimization error, bias, gradient second moments) are exact on
the quadratic backend, where curvature constants and minimizers are known in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import EmptyPoolError, InvalidArgumentError, NotNormalizedError, ZeroProbabilityError
from .errors import integer
from .fedtrain import step_offset
from .quadratic import Minimizers, QuadraticTask, quadratic_minimizers
from .strategies import ExitPools, ExitWeights, SamplingMatrix
from .topology import on_simplex

SIMPLEX_CHECK_TOL = 1e-9


def _as_simplex(a) -> np.ndarray:
    v = a.weights if isinstance(a, ExitWeights) else np.asarray(a, dtype=float)
    if not on_simplex(v, SIMPLEX_CHECK_TOL, sign_tol=SIMPLEX_CHECK_TOL):
        raise NotNormalizedError(f"vector {v!r} is not on the probability simplex")
    return v


def tv_distance(a, b) -> float:
    """Total variation distance: half the L1 gap between two simplex vectors."""
    va, vb = _as_simplex(a), _as_simplex(b)
    if va.size != vb.size:
        raise InvalidArgumentError("vectors must have equal length")
    return 0.5 * float(np.abs(va - vb).sum())


@dataclass(frozen=True)
class TheoryParams:
    """Constants entering the bounds, flattened over the sampled pairs."""

    mu: float
    smoothness: float
    loss_cap: float
    radius: float
    local_steps: int
    pairs: tuple[tuple[str, int], ...]
    alpha: np.ndarray
    sigma: np.ndarray
    probs: np.ndarray

    @property
    def kappa(self) -> float:
        return self.smoothness / self.mu

    @property
    def gamma(self) -> float:
        return step_offset(self.kappa, self.local_steps)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


def theory_params(
    task: QuadraticTask,
    weights: ExitWeights,
    sampling: SamplingMatrix,
    pools: ExitPools,
    server_lr: float,
    local_steps: int,
) -> TheoryParams:
    """Collect per-pair alphas, noise scales, and probabilities for a run."""
    pairs: list[tuple[str, int]] = []
    alpha: list[float] = []
    sigma: list[float] = []
    probs: list[float] = []
    for e in range(1, pools.num_exits + 1):
        for client in pools.clients[e - 1]:
            p = sampling.prob(client, e)
            if p <= 0:
                raise ZeroProbabilityError(f"pooled pair ({client}, {e}) has p=0")
            pairs.append((client, e))
            alpha.append(
                server_lr * weights.weights[e - 1] * task.sizes[client] / pools.sizes[e - 1]
            )
            sigma.append(task.sigma(client, e))
            probs.append(p)
    return TheoryParams(
        mu=task.mu,
        smoothness=task.smoothness,
        loss_cap=task.loss_cap(),
        radius=task.radius,
        local_steps=local_steps,
        pairs=tuple(pairs),
        alpha=np.array(alpha),
        sigma=np.array(sigma),
        probs=np.array(probs),
    )


def statistical_heterogeneity(
    task: QuadraticTask,
    weights: ExitWeights,
    pools: ExitPools,
    minimum: Minimizers | None = None,
) -> float:
    """Largest gap between a pair's loss at the shared optimum and its own optimum.

    A pair's own optimum is its center, where its loss is 0, so the gap is
    the pair's loss at the shared optimum. ``minimum`` is
    ``quadratic_minimizers(task, weights, pools)``; it is solved here when
    the caller has not solved it already.
    """
    if minimum is None:
        minimum = quadratic_minimizers(task, weights, pools)
    worst = 0.0
    for e in range(1, pools.num_exits + 1):
        for client in pools.clients[e - 1]:
            worst = max(worst, task.loss(minimum.w_star, client, e))
    return worst


def grad_second_moment(params: TheoryParams) -> tuple[np.ndarray, float]:
    """Per-pair second-moment caps sigma^2 + (L * diameter)^2, and their max."""
    g_pairs = params.sigma**2 + (params.smoothness * params.diameter) ** 2
    return g_pairs, float(g_pairs.max())


def bound_B(params: TheoryParams, heterogeneity: float) -> float:
    """Noise-and-drift constant feeding the optimization-error bound.

    Sums the aggregation noise, the heterogeneity drift, the local-step
    drift, and the partial-participation variance term.
    """
    g_pairs, g_max = grad_second_moment(params)
    j = params.local_steps
    noise = float(np.sum(params.alpha**2 * params.sigma**2))
    drift = 6.0 * params.smoothness * heterogeneity
    local = 8.0 * (j - 1) ** 2 * g_max**2
    sampling_var = 4.0 * j**2 * float(
        np.sum(params.alpha**2 * (1.0 - params.probs) / params.probs * g_pairs)
    )
    return noise + drift + local + sampling_var


def opt_error_bound(
    params: TheoryParams,
    b_value: float,
    rounds: int,
    initial_dist_sq: float,
) -> float:
    """Upper bound on the expected final optimality gap of the round loop.

    The horizon is gamma + J*T local steps. The initial-condition term uses
    the squared distance to the optimum.
    """
    rounds = integer("rounds", rounds, least=1)
    horizon = params.gamma + params.local_steps * rounds
    return (params.kappa / horizon) * (
        2.0 * b_value / params.mu + params.mu * (params.gamma + 1.0) / 2.0 * initial_dist_sq
    )


def bias_bound(loss_cap: float, a, b) -> float:
    """Worst-case objective gap induced by mismatched exit weights."""
    return 2.0 * loss_cap * tv_distance(a, b)


def empirical_bias(
    task: QuadraticTask,
    a,
    b,
    n_probes: int,
    seed: int = 0,
    loss_cap: float | None = None,
) -> float:
    """Largest observed gap |F_a(w) - F_b(w)| over random points in the ball.

    Both weightings are applied to the same per-exit population losses,
    clipped at the loss cap.
    """
    va, vb = _as_simplex(a), _as_simplex(b)
    cap = task.loss_cap() if loss_cap is None else loss_cap
    gen = rngmod.stream(seed, rngmod.PROBE)
    worst = 0.0
    for _ in range(n_probes):
        w = rngmod.ball_point(gen, task.dim, task.radius)
        exit_losses = np.array(
            [task.population_exit_loss(w, e, cap=cap) for e in range(1, task.num_exits + 1)]
        )
        gap = abs(float(va @ exit_losses) - float(vb @ exit_losses))
        worst = max(worst, gap)
    return worst


def gen_proxy(weights: ExitWeights, flops, pool_sizes) -> float:
    """Capacity-over-data diagnostic: sum of w_e * sqrt(cost_e / pool_e).

    An ordering tool for comparing strategies, not a certified bound.
    """
    wvec = weights.weights if isinstance(weights, ExitWeights) else np.asarray(weights)
    flops = np.asarray(flops, dtype=float)
    pools = np.asarray(pool_sizes, dtype=float)
    value = 0.0
    for e in range(wvec.size):
        if wvec[e] == 0:
            continue
        if pools[e] <= 0:
            raise EmptyPoolError(f"exit {e + 1} has weight {wvec[e]} but an empty pool")
        value += wvec[e] * np.sqrt(flops[e] / pools[e])
    return float(value)


def estimate_sigma(
    task,
    client: str,
    exit: int,
    batch_size: int,
    radius: float,
    n_probes: int = 100,
    seed: int = 0,
) -> float:
    """Worst observed batch-gradient deviation norm over random probe points.

    A diagnostic that no runner calls: its tests check it against a quadratic
    task's exact noise scale, and the benchmark's tracer still wraps it.
    """
    gen = rngmod.stream(seed, rngmod.PROBE, rngmod.label("sigma"))
    worst = 0.0
    for _ in range(n_probes):
        w = rngmod.ball_point(gen, task.dim, radius)
        exact = task.full_gradient(w, client, exit)
        noisy = task.stochastic_gradient(w, client, exit, batch_size, gen)
        worst = max(worst, float(np.linalg.norm(noisy - exact)))
    return worst
