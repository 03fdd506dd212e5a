"""Aggregation weights and exit-sampling matrices for the training strategies.

Each strategy picks a normalized per-exit weight vector for the training
objective; the sampling matrix decides which exit every client trains in a
given round, and so which clients pool their data for each exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AllZeroWeightsError, EmptyPoolError, InvalidArgumentError, InvalidKError
from .errors import integer, number
from .topology import Topology, on_simplex

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class ExitWeights:
    """Nonnegative per-exit weights that sum to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise InvalidArgumentError(f"exit weights must be one vector, got shape {w.shape}")
        if not on_simplex(w, SIMPLEX_TOL):
            raise InvalidArgumentError("exit weights must be nonnegative" if np.any(w < 0)
                                       else f"exit weights must sum to 1, not {w.sum()!r}")

    @property
    def num_exits(self) -> int:
        return int(self.weights.size)


def normalized_weights(raw) -> ExitWeights:
    """Scale a nonnegative vector to the probability simplex."""
    raw = np.asarray(raw, dtype=float)
    if np.any(raw < 0):
        raise InvalidArgumentError("weights must be nonnegative")
    total = raw.sum()
    if total <= 0:
        raise AllZeroWeightsError("all candidate weights are zero")
    return ExitWeights(weights=raw / total)


def equal_weight(num_exits: int) -> ExitWeights:
    """Uniform weight on every exit."""
    num_exits = integer("num_exits", num_exits, least=1)
    return ExitWeights(weights=np.full(num_exits, 1.0 / num_exits))


def flops_prop(flops) -> ExitWeights:
    """Weights proportional to each exit's inference cost."""
    flops = np.asarray(flops, dtype=float)
    if np.any(flops <= 0):
        raise InvalidArgumentError("all flops must be positive")
    return normalized_weights(flops)


def gen_error_adjusted(rates, pool_sizes, flops) -> ExitWeights:
    """Per-exit serving rates rescaled by per-exit data volume over model cost.

    Exits with large serving rates but little pooled training data relative
    to their cost get their weight damped.
    """
    lam = np.asarray(rates, dtype=float)
    pools = np.asarray(pool_sizes, dtype=float)
    flops = np.asarray(flops, dtype=float)
    if np.any(flops <= 0):
        raise InvalidArgumentError("all flops must be positive")
    if np.any(pools < 0):
        raise InvalidArgumentError("pool sizes must be nonnegative")
    raw = lam * pools / flops
    return normalized_weights(raw)


STRATEGY_NAMES = ("equal", "flops_prop", "serving_rate", "gen_error_adj")


def exit_weights(name: str, split, pool_sizes, flops) -> ExitWeights:
    """The exit weights of strategy ``name`` at a normalized serving split.

    ``equal`` weighs every exit alike, ``flops_prop`` by its inference cost,
    ``serving_rate`` by the split itself, and ``gen_error_adj`` by the split
    rescaled as in :func:`gen_error_adjusted`.
    """
    if name == "equal":
        return equal_weight(len(split))
    if name == "flops_prop":
        return flops_prop(flops)
    if name == "serving_rate":
        return ExitWeights(weights=split)
    if name == "gen_error_adj":
        return gen_error_adjusted(split, pool_sizes, flops)
    raise InvalidArgumentError(f"unknown strategy {name!r}")


@dataclass(frozen=True)
class SamplingMatrix:
    """Per-client categorical distribution over which exit to train."""

    clients: tuple[str, ...]
    probs: np.ndarray  # (num_clients, num_exits)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2 or p.shape[0] != len(self.clients):
            raise InvalidArgumentError("probs must be (num_clients, num_exits)")
        if not all(on_simplex(row, SIMPLEX_TOL) for row in p):
            raise InvalidArgumentError("probabilities must be nonnegative" if np.any(p < 0)
                                       else "every client row must sum to 1")

    @property
    def num_exits(self) -> int:
        return int(self.probs.shape[1])

    @cached_property
    def client_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.clients)}

    @cached_property
    def row_cumsum(self) -> np.ndarray:
        return np.cumsum(self.probs, axis=1)

    @cached_property
    def last_exit(self) -> np.ndarray:
        """Per client, the highest exit it samples with p > 0: where a draw is capped."""
        return self.probs.shape[1] - np.argmax(self.probs[:, ::-1] > 0, axis=1)

    def prob(self, client: str, exit: int) -> float:
        return float(self.probs[self.client_index[client], exit - 1])


def build_sampling_matrix(topology: Topology, k: float) -> SamplingMatrix:
    """Every client trains each exit below its own with probability ``k``.

    The remaining mass goes to the client's own exit, so a client with exit
    ``E_c`` keeps probability ``1 - k*(E_c - 1)`` for it. Clients on exit 1
    always train their own exit.
    """
    k = number("k", k)
    if not 0 <= k < np.inf:
        raise InvalidKError(f"k must be finite and nonnegative, got {k}")
    clients = topology.client_ids
    probs = np.zeros((len(clients), topology.num_exits))
    for i, cid in enumerate(clients):
        own = topology.exit_of(cid)
        own_mass = 1.0 - k * (own - 1)
        if own_mass <= 0:
            raise InvalidKError(
                f"client {cid}: k={k} leaves no probability for its own exit {own}"
            )
        probs[i, : own - 1] = k
        probs[i, own - 1] = own_mass
    return SamplingMatrix(clients=clients, probs=probs)


@dataclass(frozen=True)
class ExitPools:
    """Which clients can train each exit, and how much data they pool.

    Every pool has a client and holds data, else :class:`EmptyPoolError`: a
    round weighs each update by its client's share of its exit's pool.
    """

    clients: tuple[tuple[str, ...], ...]  # per exit
    sizes: np.ndarray  # per exit, total samples

    def __post_init__(self) -> None:
        for e, (members, size) in enumerate(zip(self.clients, self.sizes), start=1):
            if not members:
                raise EmptyPoolError(f"exit {e} has no contributing client")
            if not size > 0:
                raise EmptyPoolError(f"exit {e} has no pooled data: dataset_size "
                                     f"is 0 at {', '.join(members)}")

    @property
    def num_exits(self) -> int:
        return len(self.clients)


def exit_pools(topology: Topology, sampling: SamplingMatrix) -> ExitPools:
    """Pool every client with positive sampling probability into its exits.

    A client of ``sampling`` that ``topology`` lacks, or a number of exits
    other than the tree's, is refused with InvalidArgumentError.
    """
    lacking = sorted(set(sampling.clients) - set(topology.by_id))
    if lacking:
        raise InvalidArgumentError(
            f"sampling matrix has clients the topology lacks: {', '.join(lacking)}")
    if sampling.num_exits != topology.num_exits:
        raise InvalidArgumentError(f"sampling matrix has {sampling.num_exits} exits, but the "
                                   f"topology has {topology.num_exits}")
    members = tuple(tuple(c for c in sampling.clients if sampling.prob(c, e) > 0)
                    for e in range(1, sampling.num_exits + 1))
    sizes = [float(sum(topology.by_id[c].dataset_size for c in pool)) for pool in members]
    return ExitPools(clients=members, sizes=np.array(sizes))
