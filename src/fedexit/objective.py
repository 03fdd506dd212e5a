"""The pool-weighted training objective shared by both task backends."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .strategies import ExitPools, ExitWeights


def weighted_objective(task, w: np.ndarray, weights: ExitWeights, pools: ExitPools) -> float:
    """Exit-weighted, data-share-weighted mean of the per-pair losses.

    For every exit the contributing clients are those in its pool, each
    weighted by its share of the pooled samples; exits are then combined with
    the strategy weights.
    """
    wvec = weights.weights
    if wvec.size != pools.num_exits:
        raise InvalidArgumentError("weights and pools disagree on the number of exits")
    value = 0.0
    for e in range(1, pools.num_exits + 1):
        exit_weight = wvec[e - 1]
        if exit_weight == 0:
            continue
        pool_size = pools.sizes[e - 1]
        for client in pools.clients[e - 1]:
            share = task.sizes[client] / pool_size
            if share == 0:
                continue
            value += exit_weight * share * task.loss(w, client, e)
    return float(value)
