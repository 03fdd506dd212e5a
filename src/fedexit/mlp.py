"""Early-exit multilayer perceptron on teacher-labeled synthetic data.

The network is a chain of tanh blocks with one linear softmax head per
block, all stored in a single flat parameter vector. Labels come from the
deepest head of a fixed random teacher of the same architecture, so deeper
student exits have the capacity to fit the data better than shallow ones.
Gradients are computed by hand; a finite-difference oracle in the test suite
keeps them honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .errors import EmptyClientDatasetError, EmptyDatasetError
from .fedtrain import _local_steps
from .topology import Topology

# Layer share of the total training data per exit layer (devices, edges, cloud).
PARTITIONS: dict[str, tuple[float, ...]] = {
    "equal": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    "cloud_bias_minus": (0.143, 0.286, 0.571),
    "cloud_bias_plus": (0.034, 0.199, 0.767),
    "devices_bias_plus": (0.767, 0.199, 0.034),
}


@dataclass(frozen=True)
class Segments:
    """Half-open ranges of each backbone block and each head in the flat vector.

    Exit ``e`` trains blocks 1..e and head ``e``, so the backbone parts of
    the exits' active sets are nested.
    """

    blocks: tuple[tuple[int, int], ...]
    heads: tuple[tuple[int, int], ...]
    dim: int

    def active_mask(self, exit: int) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        for start, stop in self.blocks[:exit] + self.heads[exit - 1 : exit]:
            mask[start:stop] = True
        return mask


def build_segments(input_dim: int, hidden_dim: int, num_classes: int, num_exits: int) -> Segments:
    """Flat layout: backbone blocks first, then one head per exit.

    Each range holds a row-major weight, then one bias per row. Block 1
    reads the input; every later block and every head reads a hidden state.
    """
    shapes = [(hidden_dim, input_dim)] + [(hidden_dim, hidden_dim)] * (num_exits - 1)
    shapes += [(num_classes, hidden_dim)] * num_exits
    stops = np.cumsum([rows * (fan_in + 1) for rows, fan_in in shapes]).tolist()
    spans = tuple(zip([0] + stops[:-1], stops))
    return Segments(blocks=spans[:num_exits], heads=spans[num_exits:], dim=stops[-1])


def _weight_and_bias(w: np.ndarray, span: tuple[int, int], rows: int):
    """Views of the ``(rows, fan_in)`` weight and the ``rows`` bias stored in ``w[..., span]``.

    ``w`` is one flat vector or a stack of them; a stack gives stacked views.
    """
    start, stop = span
    weight = w[..., start : stop - rows]
    return weight.reshape(weight.shape[:-1] + (rows, -1)), w[..., stop - rows : stop]


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1)``, one class column at a time.

    ``np.maximum`` propagates NaN as that reduction does, and a pass per
    column skips the reduction's per-row cost on a narrow class axis.
    """
    zmax = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(zmax, z[..., j], out=zmax)
    return zmax


def _softmax_parts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max, ``exp(z - max)`` and its row sum: what every softmax score of ``z`` reads.

    ``z`` holds logits on its last axis. A caller that needs several scores
    of the same logits computes these once.
    """
    zmax = _row_max(z)
    expz = z - zmax[..., None]
    np.exp(expz, out=expz)
    return zmax, expz, expz.sum(axis=-1)


def _softmax(z: np.ndarray) -> np.ndarray:
    _, expz, expsum = _softmax_parts(z)
    expz /= expsum[..., None]
    return expz


def _cross_entropy(z, y, zmax, expsum) -> np.ndarray:
    loss = np.log(expsum)
    loss += zmax
    loss -= z[np.arange(len(y)), y]
    return loss


def _entropy(expz, expsum) -> np.ndarray:
    """Overwrites ``expz`` with the softmax; a zero or NaN probability adds nothing."""
    p = expz
    p /= expsum[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
        terms *= p
    terms[~(p > 0)] = 0.0
    h = terms.sum(axis=1)
    return np.negative(h, out=h)


def cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy of logits ``z`` against labels ``y``."""
    zmax, _, expsum = _softmax_parts(z)
    return _cross_entropy(z, y, zmax, expsum)


def is_correct(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample flag: the top logit is the label."""
    return np.argmax(z, axis=1) == y


def softmax_entropy(z: np.ndarray) -> np.ndarray:
    """Per-sample Shannon entropy of the softmax of logits ``z``."""
    _, expz, expsum = _softmax_parts(z)
    return _entropy(expz, expsum)


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
    def segments(self) -> Segments:
        return build_segments(self.input_dim, self.hidden_dim, self.num_classes, self.num_exits)

    @property
    def dim(self) -> int:
        return self.segments.dim

    @cached_property
    def sizes(self) -> dict[str, int]:
        return {c: len(y) for c, (_, y) in self.data.items()}

    def _block(self, w: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Backbone block ``b``'s weight and bias, as views of ``w``."""
        return _weight_and_bias(w, self.segments.blocks[b - 1], self.hidden_dim)

    def _head(self, w: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Exit ``e``'s head weight and bias, as views of ``w``."""
        return _weight_and_bias(w, self.segments.heads[e - 1], self.num_classes)

    def _client_data(self, client: str) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.data[client]
        if len(y) == 0:
            raise EmptyClientDatasetError(f"client {client} has no samples")
        return x, y

    def _states(self, w: np.ndarray, x: np.ndarray):
        """Activations h_1, h_2, ... of one pass through the backbone, one at a time.

        For a stack of ``R`` parameter vectors each state is ``(R, n, hidden)``.
        """
        h = x
        for b in range(1, self.num_exits + 1):
            weight, bias = self._block(w, b)
            h = h @ weight.swapaxes(-1, -2)
            h += bias[..., None, :]
            yield np.tanh(h, out=h)

    def _head_logits(self, w: np.ndarray, h: np.ndarray, exit: int) -> np.ndarray:
        weight, bias = self._head(w, exit)
        z = h @ weight.swapaxes(-1, -2)
        z += bias[..., None, :]
        return z

    def hidden_states(self, w: np.ndarray, x: np.ndarray, exit: int) -> list[np.ndarray]:
        """Activations h_1..h_exit; h_0 is the input itself."""
        return [x, *itertools.islice(self._states(w, x), exit)]

    def logits(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        """Exit ``exit``'s logits; each hidden state is dropped once the next is built."""
        h = next(itertools.islice(self._states(w, x), exit - 1, None))
        return self._head_logits(w, h, exit)

    def exit_logits(self, w: np.ndarray, x: np.ndarray):
        """Every exit's logits in turn, exit 1 first, from one backbone pass.

        Exit ``e``'s logits equal ``logits(w, x, e)`` bit for bit. Only the
        current hidden state is held, so a caller that drops each exit's
        logits after use never holds more than one exit's.
        """
        for e, h in enumerate(self._states(w, x), start=1):
            yield self._head_logits(w, h, e)

    def predict(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        return np.argmax(self.logits(w, x, exit), axis=1)

    def loss_on(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> float:
        """Mean softmax cross-entropy of the requested head."""
        return float(np.mean(cross_entropy(self.logits(w, x, exit), y)))

    def loss(self, w: np.ndarray, client: str, exit: int) -> float:
        return self.loss_on(w, *self._client_data(client), exit)

    def gradient_on(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> np.ndarray:
        """Backprop of the mean cross-entropy; zero outside the exit's active set.

        ``w`` is one parameter vector, or an ``(R, dim)`` stack of them that
        all see the batch ``(x, y)``. Row ``r`` of a stack's gradient equals
        the gradient at ``w[r]`` alone, bit for bit: each matmul runs the
        same kernel per row, and each sum adds the same terms in the same order.
        """
        n = len(y)
        states = self.hidden_states(w, x, exit)
        dlogits = _softmax(self._head_logits(w, states[-1], exit))
        dlogits[..., np.arange(n), y] -= 1.0
        dlogits /= n

        grad = np.zeros_like(w)
        grad_w, grad_b = self._head(grad, exit)
        grad_w[...] = dlogits.swapaxes(-1, -2) @ states[-1]
        grad_b[...] = dlogits.sum(axis=-2)

        dh = dlogits @ self._head(w, exit)[0]
        for b in range(exit, 0, -1):
            dz = dh * (1.0 - states[b] ** 2)
            grad_w, grad_b = self._block(grad, b)
            grad_w[...] = dz.swapaxes(-1, -2) @ states[b - 1]
            grad_b[...] = dz.sum(axis=-2)
            if b > 1:  # h_0 is the input, whose gradient nothing reads
                weight, _ = self._block(w, b)
                dh = dz @ weight
        return grad

    def full_gradient(self, w: np.ndarray, client: str, exit: int) -> np.ndarray:
        return self.gradient_on(w, *self._client_data(client), exit)

    def stochastic_gradient(
        self,
        w: np.ndarray,
        client: str,
        exit: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Gradient on a batch drawn uniformly with replacement from the client."""
        x, y = self._client_data(client)
        idx = rng.integers(0, len(y), size=batch_size)
        return self.gradient_on(w, x[idx], y[idx], exit)

    @staticmethod
    def local_phase(jobs, job_set: np.ndarray):
        """The round engine's local phase: each stream set's jobs step as one stack per client.

        Each step is :meth:`stochastic_gradient` on one batch drawn from the
        client's stream, as in :func:`fedtrain.local_update`. A stream set
        draws the batches of all its local steps in one call per client,
        which equals one call per step. Its jobs share that draw and the
        sampled exit, so one stacked :meth:`gradient_on` steps all of them; a
        set of one job steps its row alone.
        """
        clients = jobs[0].sampling.clients
        n = len(clients)
        members = [np.flatnonzero(job_set == s).tolist() for s in range(job_set.max() + 1)]

        def phase(w, exits, gens, etas):
            w_end = np.empty((len(jobs), n, w.shape[1]))
            for s, rows in enumerate(members):
                lead = jobs[rows[0]]
                at = rows if len(rows) > 1 else rows[0]
                for i, client in enumerate(clients):
                    x, y = lead.task._client_data(client)
                    idx = gens[s * n + i].integers(
                        0, len(y), size=(lead.cfg.local_steps, lead.cfg.batch_size)
                    )
                    xb, yb, exit = x[idx], y[idx], int(exits[s, i]) + 1

                    def gradient(v: np.ndarray, j: int) -> np.ndarray:
                        return lead.task.gradient_on(v, xb[j], yb[j], exit)

                    w_end[at, i] = _local_steps(w[at], etas[:, at, None], gradient)
            return w_end

        return phase

    def init_params(self, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
        """Fan-in scaled Gaussian weights, zero biases."""
        w = np.zeros(self.dim)
        weights = [self._block(w, b)[0] for b in range(1, self.num_exits + 1)]
        weights += [self._head(w, e)[0] for e in range(1, self.num_exits + 1)]
        for weight in weights:
            weight[:] = gain * rng.standard_normal(weight.shape) / np.sqrt(weight.shape[1])
        return w


def exit_accuracy(task: MlpTask, w: np.ndarray, exit: int, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose predicted class matches the label."""
    if len(y) == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")
    return float(np.mean(is_correct(task.logits(w, x, exit), y)))


class ExitScores(NamedTuple):
    """One exit's per-sample scores on a labeled set."""

    correct: np.ndarray  # bool: the exit's prediction is the label
    loss: np.ndarray  # softmax cross-entropy
    entropy: np.ndarray | None  # softmax entropy, None where not asked for


def score_exits(
    task: MlpTask, w: np.ndarray, x: np.ndarray, y: np.ndarray, entropy_exits=()
) -> list[ExitScores]:
    """Every exit's per-sample scores on ``(x, y)`` from one backbone pass.

    Entropy is computed only for the exits in ``entropy_exits``. Each score
    is the per-sample term that :func:`exit_accuracy`, ``MlpTask.loss_on``
    and ``serving.entropy_confidence`` average or return. Each exit's row
    max, exponentials and row sums come from one :func:`_softmax_parts`
    call, which the loss and the entropy share.
    """
    if len(y) == 0:
        raise EmptyDatasetError("scores of an empty dataset are undefined")
    scores = []
    for e, z in enumerate(task.exit_logits(w, x), start=1):
        zmax, expz, expsum = _softmax_parts(z)
        scores.append(ExitScores(
            is_correct(z, y), _cross_entropy(z, y, zmax, expsum),
            _entropy(expz, expsum) if e in entropy_exits else None,
        ))
    return scores


def largest_remainder(raw: np.ndarray, total: int) -> np.ndarray:
    """Round ``raw``, which sums to ``total``, to integers that sum to ``total`` exactly.

    Every entry gets its floor, then the entries with the largest fractional
    parts get one more each; ties go to the earlier entry.
    """
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(total - int(counts.sum())):
        counts[order[i]] += 1
    return counts


def layer_allocation(fractions, total: int, layer_counts: list[int]) -> list[list[int]]:
    """Split ``total`` samples into per-client counts, layer by layer.

    Layer totals follow the fractions by :func:`largest_remainder` (they sum
    to ``total`` exactly); within a layer clients differ by at most one sample.
    """
    fractions = np.asarray(fractions, dtype=float)
    if abs(fractions.sum() - 1.0) > 1e-9 or np.any(fractions < 0):
        raise ValueError("layer fractions must be nonnegative and sum to 1")
    out: list[list[int]] = []
    for layer_total, n_clients in zip(largest_remainder(fractions * total, total), layer_counts):
        base, extra = divmod(int(layer_total), n_clients)
        out.append([base + (1 if j < extra else 0) for j in range(n_clients)])
    return out


def layer_shares(partition, num_exits: int) -> tuple[float, ...]:
    """Each exit layer's share of the training data under ``partition``.

    ``partition`` is a name from :data:`PARTITIONS` or explicit shares.

    Raises:
        ValueError: an unknown name, or not one share per exit of the tree.
    """
    explicit = isinstance(partition, (tuple, list))
    shares = tuple(partition) if explicit else PARTITIONS.get(partition)
    if shares is None:
        raise ValueError(f"unknown partition {partition!r}; known: {sorted(PARTITIONS)}")
    if len(shares) != num_exits:
        raise ValueError(f"partition {partition!r} has {len(shares)} layer shares "
                         f"but the tree has {num_exits} exits")
    return shares


def check_classification_task(
    input_dim: int, hidden_dim: int, num_classes: int, teacher_gain: float
) -> None:
    """Raise ValueError unless :func:`make_classification_task` can build this task.

    A zero or non-finite ``teacher_gain`` would label every sample class 0.
    """
    for name, value in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                        ("num_classes", num_classes)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 0 < teacher_gain < np.inf:
        raise ValueError(f"teacher_gain must be finite and > 0, got {teacher_gain}")


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

    Raises:
        ValueError: a layer size or gain :func:`check_classification_task`
            refuses, or a partition :func:`layer_shares` refuses.
    """
    check_classification_task(input_dim, hidden_dim, num_classes, teacher_gain)
    fractions = layer_shares(partition, topology.num_exits)
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
