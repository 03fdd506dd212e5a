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

from .errors import InvalidArgumentError, ZeroTrafficError
from .mlp import largest_remainder, score_exits, softmax_entropy
from .rng import read_seed
from .topology import RatePlan, Topology


def entropy_confidence(task, w: np.ndarray, exit: int, x: np.ndarray) -> np.ndarray:
    """Shannon entropy of the head's softmax output; lower means more confident."""
    return softmax_entropy(task.logits(w, x, exit))


@dataclass
class ServingOutcome:
    """Where every sample was answered and how well each exit did there."""

    served_indices: dict[str, np.ndarray]
    served_counts: dict[str, int]
    exit_accuracy: np.ndarray  # nan for exits that served nothing
    exit_mean_loss: np.ndarray
    iid_exit_accuracy: np.ndarray
    iid_exit_mean_loss: np.ndarray  # not in to_dict: the CSV's weighted_loss reads it
    serving_gap: np.ndarray  # accuracy on served minus accuracy on iid stream
    system_accuracy: float
    system_loss: float
    served_share: np.ndarray  # per exit: samples served there over the stream

    def to_dict(self) -> dict:
        """The report's entry; an exit that served nothing reads ``None`` (JSON ``null``)."""
        served = ~np.isnan(self.exit_accuracy)

        def on_served(values) -> list:
            return [float(v) if ok else None for v, ok in zip(values, served)]

        return {
            "served_counts": dict(self.served_counts),
            "served_share": [float(v) for v in self.served_share],
            "exit_accuracy": on_served(self.exit_accuracy),
            "exit_mean_loss": on_served(self.exit_mean_loss),
            "iid_exit_accuracy": [float(v) for v in self.iid_exit_accuracy],
            "serving_gap": on_served(self.serving_gap),
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
    children forwarded, ranked jointly) and forwards the rest, children before
    parents (``topology.post_order``). ``ranking`` may be ``"entropy"`` or
    ``"random"`` (an ablation baseline, drawn node by node in that order).

    :func:`score_exits` scores the whole stream at every exit, one backbone
    pass per row tile (``mlp.row_tiles``), so a call holds one tile's hidden
    state and logits, never the stream's. Ranking and scoring then index the
    per-sample scores, so a sample's scores do not depend on the pool it
    sits in. A misshapen ``x`` or ``w`` is refused.
    """
    if ranking not in ("entropy", "random"):
        raise InvalidArgumentError(f"unknown ranking {ranking!r}")
    if np.shape(x) != (len(y), task.input_dim):
        raise InvalidArgumentError(f"x has shape {np.shape(x)}, not {(len(y), task.input_dim)}")
    if np.shape(w) != (task.dim,):
        raise InvalidArgumentError(f"w has shape {np.shape(w)}, not {(task.dim,)}")
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
    ranked_exits = {n.exit for n in topology.nodes if n.id != topology.root}
    scores = score_exits(task, w, x, y, ranked_exits if ranking == "entropy" else ())

    rng = np.random.default_rng(read_seed("seed", seed))
    served: dict[str, np.ndarray] = {}
    for node_id in topology.post_order:
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
                entropy = scores[node.exit - 1].entropy[pooled]
                ranked = pooled[np.argsort(entropy, kind="stable")]
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
    iid_loss = np.zeros(num_exits)
    share = np.zeros(num_exits)
    for e, (correct, loss, _) in enumerate(scores, start=1):
        indices = [served[n] for n in topology.layers.get(e, ()) if len(served[n])]
        iid_acc[e - 1] = np.mean(correct)
        iid_loss[e - 1] = np.mean(loss)
        if indices:
            idx = np.concatenate(indices)
            exit_acc[e - 1] = np.mean(correct[idx])
            exit_loss[e - 1] = np.mean(loss[idx])
            share[e - 1] = len(idx) / len(y)
    rates = plan.lambda_exit
    return ServingOutcome(
        served_indices=served,
        served_counts={n: int(len(v)) for n, v in served.items()},
        exit_accuracy=exit_acc,
        exit_mean_loss=exit_loss,
        iid_exit_accuracy=iid_acc,
        iid_exit_mean_loss=iid_loss,
        serving_gap=exit_acc - iid_acc,
        system_accuracy=weighted_quality(exit_acc, rates),
        system_loss=weighted_quality(exit_loss, rates),
        served_share=share,
    )
