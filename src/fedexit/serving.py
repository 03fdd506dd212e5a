"""Inference-time simulation: confidence-ranked local serving with forwarding.

Test samples enter at the arrival nodes, each node answers the easiest
fraction of its incoming stream with its own exit (easiness = softmax entropy
at that exit) and forwards the rest to its parent; the root answers
everything it receives. The outcome reports per-exit quality on the samples
actually served there, which generally differs from quality on an i.i.d.
stream - that gap is reported as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroTrafficError
from .mlp import exit_accuracy, largest_remainder
from .topology import RatePlan, Topology


def entropy_confidence(task, w: np.ndarray, exit: int, x: np.ndarray) -> np.ndarray:
    """Shannon entropy of the head's softmax output; lower means more confident."""
    p = task.probs(w, x, exit)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


@dataclass
class ServingOutcome:
    """Where every sample was answered and how well each exit did there."""

    served_indices: dict[str, np.ndarray]
    served_counts: dict[str, int]
    exit_accuracy: np.ndarray  # nan for exits that served nothing
    exit_mean_loss: np.ndarray
    iid_exit_accuracy: np.ndarray
    serving_gap: np.ndarray  # accuracy on served minus accuracy on iid stream
    system_accuracy: float
    system_loss: float

    def to_dict(self) -> dict:
        return {
            "served_counts": dict(self.served_counts),
            "exit_accuracy": [float(v) for v in self.exit_accuracy],
            "exit_mean_loss": [float(v) for v in self.exit_mean_loss],
            "iid_exit_accuracy": [float(v) for v in self.iid_exit_accuracy],
            "serving_gap": [float(v) for v in self.serving_gap],
            "system_accuracy": self.system_accuracy,
            "system_loss": self.system_loss,
        }


def weighted_quality(values, rates) -> float:
    """Rate-weighted average of per-exit metrics, skipping undefined entries."""
    values = np.asarray(values, dtype=float)
    rates = np.asarray(rates, dtype=float)
    defined = ~np.isnan(values)
    mass = rates[defined].sum()
    if mass <= 0:
        raise ZeroTrafficError("no serving rate behind any defined metric")
    return float(values[defined] @ rates[defined] / mass)


def simulate_serving(
    topology: Topology,
    plan: RatePlan,
    task,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    ranking: str = "entropy",
    seed: int = 0,
) -> ServingOutcome:
    """Route a labeled test stream through the tree and score the served sets.

    Samples are split across arrival nodes proportionally to their arrival
    rates. Each non-root node serves the rounded ``fraction * inflow``
    easiest samples of its pooled stream (local arrivals and everything its
    children forwarded, ranked jointly) and forwards the rest. ``ranking``
    may be ``"entropy"`` or ``"random"`` (an ablation baseline).
    """
    if ranking not in ("entropy", "random"):
        raise ValueError(f"unknown ranking {ranking!r}")
    arrival_nodes = [n.id for n in topology.nodes if n.arrival_rate > 0]
    arrival_nodes.sort()
    if not arrival_nodes:
        raise ZeroTrafficError("no node has a positive arrival rate")
    shares = np.array([topology.by_id[n].arrival_rate for n in arrival_nodes])
    counts = largest_remainder(shares / shares.sum() * len(y), len(y))
    incoming: dict[str, list[np.ndarray]] = {n.id: [] for n in topology.nodes}
    cursor = 0
    for node_id, count in zip(arrival_nodes, counts):
        incoming[node_id].append(np.arange(cursor, cursor + count))
        cursor += count

    rng = np.random.default_rng(seed)
    served: dict[str, np.ndarray] = {}
    order = sorted(topology.by_id, key=lambda n: (-topology.depth[n], n))
    for node_id in order:
        pooled = (
            np.concatenate(incoming[node_id])
            if incoming[node_id]
            else np.arange(0)
        )
        node = topology.by_id[node_id]
        if node_id == topology.root:
            keep = len(pooled)
        else:
            keep = int(round(plan.fraction[node_id] * len(pooled)))
            keep = min(max(keep, 0), len(pooled))
        if len(pooled) and keep < len(pooled):
            if ranking == "entropy":
                scores = entropy_confidence(task, w, node.exit, x[pooled])
                ranked = pooled[np.argsort(scores, kind="stable")]
            else:
                ranked = pooled[rng.permutation(len(pooled))]
        else:
            ranked = pooled
        served[node_id] = np.sort(ranked[:keep])
        if node.parent is not None:
            incoming[node.parent].append(ranked[keep:])

    num_exits = topology.num_exits
    exit_acc = np.full(num_exits, np.nan)
    exit_loss = np.full(num_exits, np.nan)
    iid_acc = np.zeros(num_exits)
    for e in range(1, num_exits + 1):
        indices = [served[n] for n in topology.layers.get(e, ()) if len(served[n])]
        iid_acc[e - 1] = exit_accuracy(task, w, e, x, y)
        if indices:
            idx = np.concatenate(indices)
            exit_acc[e - 1] = exit_accuracy(task, w, e, x[idx], y[idx])
            exit_loss[e - 1] = task.loss_on(w, x[idx], y[idx], e)
    rates = plan.lambda_exit
    return ServingOutcome(
        served_indices=served,
        served_counts={n: int(len(v)) for n, v in served.items()},
        exit_accuracy=exit_acc,
        exit_mean_loss=exit_loss,
        iid_exit_accuracy=iid_acc,
        serving_gap=exit_acc - iid_acc,
        system_accuracy=weighted_quality(exit_acc, rates),
        system_loss=weighted_quality(exit_loss, rates),
    )
