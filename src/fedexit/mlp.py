"""Early-exit multilayer perceptron on teacher-labeled synthetic data.

The network is a chain of tanh blocks with one linear softmax head per
block, all stored in a single flat parameter vector. Labels come from the
deepest head of a fixed random teacher of the same architecture, so deeper
student exits have the capacity to fit the data better than shallow ones.
Gradients are computed by hand; a finite-difference oracle in the test suite
keeps them honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .errors import EmptyClientDatasetError, EmptyDatasetError
from .segments import SegmentMap
from .topology import Topology

# Layer share of the total training data per exit layer (devices, edges, cloud).
PARTITIONS: dict[str, tuple[float, ...]] = {
    "equal": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    "cloud_bias_minus": (0.143, 0.286, 0.571),
    "cloud_bias_plus": (0.034, 0.199, 0.767),
    "devices_bias_plus": (0.767, 0.199, 0.034),
}


def build_segments(input_dim: int, hidden_dim: int, num_classes: int, num_exits: int) -> SegmentMap:
    """Flat layout: backbone blocks first, then one head per exit."""
    blocks: list[tuple[int, int]] = []
    cursor = 0
    for b in range(num_exits):
        fan_in = input_dim if b == 0 else hidden_dim
        size = hidden_dim * fan_in + hidden_dim
        blocks.append((cursor, cursor + size))
        cursor += size
    heads: list[tuple[int, int]] = []
    head_size = num_classes * hidden_dim + num_classes
    for _ in range(num_exits):
        heads.append((cursor, cursor + head_size))
        cursor += head_size
    return SegmentMap(blocks=tuple(blocks), heads=tuple(heads), dim=cursor)


@dataclass(frozen=True)
class MlpTask:
    """Client datasets plus the shared early-exit MLP architecture."""

    input_dim: int
    hidden_dim: int
    num_classes: int
    num_exits: int
    data: dict[str, tuple[np.ndarray, np.ndarray]]
    teacher: np.ndarray

    @property
    def kind(self) -> str:
        return "mlp"

    @cached_property
    def segments(self) -> SegmentMap:
        return build_segments(self.input_dim, self.hidden_dim, self.num_classes, self.num_exits)

    @property
    def dim(self) -> int:
        return self.segments.dim

    @cached_property
    def sizes(self) -> dict[str, int]:
        return {c: len(y) for c, (_, y) in self.data.items()}

    def _block(self, w: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self.segments.blocks[b - 1]
        fan_in = self.input_dim if b == 1 else self.hidden_dim
        weight = w[start : start + self.hidden_dim * fan_in].reshape(self.hidden_dim, fan_in)
        bias = w[start + self.hidden_dim * fan_in : stop]
        return weight, bias

    def _head(self, w: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self.segments.heads[e - 1]
        weight = w[start : start + self.num_classes * self.hidden_dim].reshape(
            self.num_classes, self.hidden_dim
        )
        bias = w[start + self.num_classes * self.hidden_dim : stop]
        return weight, bias

    def hidden_states(self, w: np.ndarray, x: np.ndarray, exit: int) -> list[np.ndarray]:
        """Activations h_1..h_exit; h_0 is the input itself."""
        states = [x]
        h = x
        for b in range(1, exit + 1):
            weight, bias = self._block(w, b)
            h = np.tanh(h @ weight.T + bias)
            states.append(h)
        return states

    def logits(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        h = self.hidden_states(w, x, exit)[-1]
        weight, bias = self._head(w, exit)
        return h @ weight.T + bias

    def probs(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        z = self.logits(w, x, exit)
        z = z - z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        return expz / expz.sum(axis=1, keepdims=True)

    def predict(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        return np.argmax(self.logits(w, x, exit), axis=1)

    def loss_on(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> float:
        """Mean softmax cross-entropy of the requested head."""
        z = self.logits(w, x, exit)
        zmax = z.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
        return float(np.mean(logsumexp - z[np.arange(len(y)), y]))

    def loss(self, w: np.ndarray, client: str, exit: int) -> float:
        x, y = self.data[client]
        if len(y) == 0:
            raise EmptyClientDatasetError(f"client {client} has no samples")
        return self.loss_on(w, x, y, exit)

    def gradient_on(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> np.ndarray:
        """Backprop of the mean cross-entropy; zero outside the exit's active set."""
        n = len(y)
        states = self.hidden_states(w, x, exit)
        head_w, head_b = self._head(w, exit)
        z = states[-1] @ head_w.T + head_b
        z = z - z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        probs = expz / expz.sum(axis=1, keepdims=True)
        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n

        grad = np.zeros_like(w)
        hstart, _ = self.segments.heads[exit - 1]
        hw_size = self.num_classes * self.hidden_dim
        grad[hstart : hstart + hw_size] = (dlogits.T @ states[-1]).ravel()
        grad[hstart + hw_size : hstart + hw_size + self.num_classes] = dlogits.sum(axis=0)

        dh = dlogits @ head_w
        for b in range(exit, 0, -1):
            dz = dh * (1.0 - states[b] ** 2)
            weight, _ = self._block(w, b)
            bstart, _ = self.segments.blocks[b - 1]
            fan_in = self.input_dim if b == 1 else self.hidden_dim
            bw_size = self.hidden_dim * fan_in
            grad[bstart : bstart + bw_size] = (dz.T @ states[b - 1]).ravel()
            grad[bstart + bw_size : bstart + bw_size + self.hidden_dim] = dz.sum(axis=0)
            dh = dz @ weight
        return grad

    def full_gradient(self, w: np.ndarray, client: str, exit: int) -> np.ndarray:
        x, y = self.data[client]
        if len(y) == 0:
            raise EmptyClientDatasetError(f"client {client} has no samples")
        return self.gradient_on(w, x, y, exit)

    def stochastic_gradient(
        self,
        w: np.ndarray,
        client: str,
        exit: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Gradient on a batch drawn uniformly with replacement from the client."""
        x, y = self.data[client]
        n = len(y)
        if n == 0:
            raise EmptyClientDatasetError(f"client {client} has no samples")
        idx = rng.integers(0, n, size=batch_size)
        return self.gradient_on(w, x[idx], y[idx], exit)

    def init_params(self, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
        """Fan-in scaled Gaussian weights, zero biases."""
        w = np.zeros(self.dim)
        for b in range(1, self.num_exits + 1):
            start, _ = self.segments.blocks[b - 1]
            fan_in = self.input_dim if b == 1 else self.hidden_dim
            size = self.hidden_dim * fan_in
            w[start : start + size] = gain * rng.standard_normal(size) / np.sqrt(fan_in)
        for e in range(1, self.num_exits + 1):
            start, _ = self.segments.heads[e - 1]
            size = self.num_classes * self.hidden_dim
            w[start : start + size] = gain * rng.standard_normal(size) / np.sqrt(self.hidden_dim)
        return w


def exit_accuracy(task: MlpTask, w: np.ndarray, exit: int, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose predicted class matches the label."""
    if len(y) == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")
    return float(np.mean(task.predict(w, x, exit) == y))


def layer_allocation(fractions, total: int, layer_counts: list[int]) -> list[list[int]]:
    """Split ``total`` samples into per-client counts, layer by layer.

    Layer totals follow the fractions by largest remainder (they sum to
    ``total`` exactly); within a layer clients differ by at most one sample.
    """
    fractions = np.asarray(fractions, dtype=float)
    if abs(fractions.sum() - 1.0) > 1e-9 or np.any(fractions < 0):
        raise ValueError("layer fractions must be nonnegative and sum to 1")
    raw = fractions * total
    floors = np.floor(raw).astype(int)
    remainder = total - int(floors.sum())
    order = np.argsort(-(raw - floors), kind="stable")
    for i in range(remainder):
        floors[order[i]] += 1
    out: list[list[int]] = []
    for layer_total, n_clients in zip(floors, layer_counts):
        base, extra = divmod(int(layer_total), n_clients)
        out.append([base + (1 if j < extra else 0) for j in range(n_clients)])
    return out


def make_classification_task(
    topology: Topology,
    *,
    partition,
    total_samples: int,
    input_dim: int = 16,
    hidden_dim: int = 32,
    num_classes: int = 3,
    teacher_gain: float = 1.5,
    seed: int = 0,
) -> MlpTask:
    """Generate teacher-labeled client datasets over the topology's layers.

    ``partition`` is a registered name from :data:`PARTITIONS` or an explicit
    per-exit-layer fraction tuple. All clients draw i.i.d. samples from the
    same feature distribution; within a layer the data is split near-equally.
    """
    fractions = PARTITIONS[partition] if isinstance(partition, str) else tuple(partition)
    if len(fractions) != topology.num_exits:
        raise ValueError("need one layer fraction per exit")
    shell = MlpTask(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        num_exits=topology.num_exits,
        data={},
        teacher=np.zeros(0),
    )
    teacher = shell.init_params(rngmod.stream(seed, rngmod.TEACHER), gain=teacher_gain)

    features = rngmod.stream(seed, rngmod.DATA).standard_normal((total_samples, input_dim))
    labels = shell.predict(teacher, features, topology.num_exits)

    layers = [topology.layers[e] for e in range(1, topology.num_exits + 1)]
    counts = layer_allocation(fractions, total_samples, [len(layer) for layer in layers])
    data: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    cursor = 0
    for layer, layer_counts in zip(layers, counts):
        for client, n in zip(layer, layer_counts):
            data[client] = (features[cursor : cursor + n], labels[cursor : cursor + n])
            cursor += n
    return MlpTask(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        num_exits=topology.num_exits,
        data=data,
        teacher=teacher,
    )


def make_test_set(task: MlpTask, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh i.i.d. samples labeled by the task's teacher."""
    x = rngmod.stream(seed, rngmod.TEST_DATA).standard_normal((n, task.input_dim))
    y = task.predict(task.teacher, x, task.num_exits)
    return x, y
