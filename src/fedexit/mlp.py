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
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .errors import EmptyClientDatasetError, EmptyDatasetError, InvalidArgumentError
from .errors import integer, number
from .fedtrain import _local_steps
from .topology import Topology, on_simplex

# Layer share of the total training data per exit layer (devices, edges, cloud).
PARTITIONS: dict[str, tuple[float, ...]] = {
    "equal": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    "cloud_bias_minus": (0.143, 0.286, 0.571),
    "cloud_bias_plus": (0.034, 0.199, 0.767),
    "devices_bias_plus": (0.767, 0.199, 0.034),
}

# Fewest rows in one tile of a many-row forward pass (see :func:`row_tiles`).
TILE_ROWS = 4096

# Byte budget of one stacked gradient of the local phase (see :func:`grad_rows`).
GRAD_BYTES = 128 * 1024


@dataclass(frozen=True)
class Segments:
    """Half-open ranges of each backbone block and each head in the flat vector.

    Exit ``e`` trains blocks 1..e and head ``e``, two ranges (:meth:`ranges`);
    its compact vector (:meth:`gather`) holds them end to end.
    """

    blocks: tuple[tuple[int, int], ...]
    heads: tuple[tuple[int, int], ...]
    dim: int

    def ranges(self, exit: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return (0, self.blocks[exit - 1][1]), self.heads[exit - 1]

    def width(self, exit: int) -> int:
        return sum(stop - start for start, stop in self.ranges(exit))

    def compact_head(self, exit: int) -> tuple[int, int]:  # in the exit's compact vector
        return self.blocks[exit - 1][1], self.width(exit)

    def active_mask(self, exit: int) -> np.ndarray:
        return self.scatter(np.ones(self.width(exit), dtype=bool), exit)

    def gather(self, w: np.ndarray, exit: int) -> np.ndarray:
        """Exit ``exit``'s compact vector of ``w``, ``(..., dim)``, in a new array."""
        return np.concatenate([w[..., start:stop] for start, stop in self.ranges(exit)], axis=-1)

    def scatter(self, v: np.ndarray, exit: int) -> np.ndarray:
        """The ``(..., dim)`` vector that holds compact ``v`` and is zero elsewhere."""
        w = np.zeros(v.shape[:-1] + (self.dim,), v.dtype)
        (_, prefix), (start, stop) = self.ranges(exit)
        w[..., :prefix], w[..., start:stop] = v[..., :prefix], v[..., prefix:]
        return w


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


def _affine(h: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    z = h @ weight.swapaxes(-1, -2)
    z += bias[..., None, :]
    return z


def row_tiles(n: int) -> list[slice]:
    """``max(1, n // TILE_ROWS)`` near-equal slices that cover ``range(n)`` in order.

    No tile is shorter than :data:`TILE_ROWS` rows unless ``n`` is, so a
    stream under ``2 * TILE_ROWS`` rows is one tile. A gemm row of that many
    rows does not depend on how many rows share the call (BLAS takes its
    small-matrix path only far below it), so a pass over the tiles gives the
    bytes of one pass over the whole stream.
    """
    k = max(1, n // TILE_ROWS)
    bounds = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def grad_rows(width: int) -> int:
    """How many (job, client) rows of ``width`` coordinates fit in :data:`GRAD_BYTES`, or one."""
    return max(1, GRAD_BYTES // (width * 8))


def _exit_calls(exits: list[int], per_call: dict[int, int]):
    """``(exit, clients)`` of each stacked backprop of a round's local phase.

    ``exits[i]`` is client ``i``'s 0-based sampled exit. Clients are grouped
    by exit, in client order, and exit ``e``'s group is cut into calls of at
    most ``per_call[e]`` clients.
    """
    groups: dict[int, list[int]] = {}
    for i, e in enumerate(exits):
        groups.setdefault(e + 1, []).append(i)
    for exit, group in groups.items():
        for lo in range(0, len(group), per_call[exit]):
            yield exit, group[lo : lo + per_call[exit]]


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

    PACKS_SETS = False  # a stack holds one stream set: local_phase batches one set's jobs only
    mu = 0.0  # the loss is not strongly convex, so the theory schedule refuses an MLP
    smoothness = math.inf  # nor is its gradient Lipschitz over the whole parameter space
    radius = math.inf  # no feasible ball: the round engine never projects an MLP iterate

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
            h = _affine(h, *self._block(w, b))
            yield np.tanh(h, out=h)

    def hidden_states(self, w: np.ndarray, x: np.ndarray, exit: int) -> list[np.ndarray]:
        """Activations h_1..h_exit; h_0 is the input. ``w`` may be the exit's compact vector."""
        return [x, *itertools.islice(self._states(w, x), exit)]

    def logits(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        """Exit ``exit``'s logits; each hidden state is dropped once the next is built."""
        h = next(itertools.islice(self._states(w, x), exit - 1, None))
        return _affine(h, *self._head(w, exit))

    def exit_logits(self, w: np.ndarray, x: np.ndarray):
        """Every exit's logits in turn, exit 1 first, from one backbone pass.

        Exit ``e``'s logits equal ``logits(w, x, e)`` bit for bit. Only the
        current hidden state is held, so a caller that drops each exit's
        logits after use never holds more than one exit's.
        """
        for e, h in enumerate(self._states(w, x), start=1):
            yield _affine(h, *self._head(w, e))

    def predict(self, w: np.ndarray, x: np.ndarray, exit: int) -> np.ndarray:
        """Exit ``exit``'s top class per row, one :func:`row_tiles` tile at a time."""
        labels = np.empty(len(x), dtype=np.intp)
        for tile in row_tiles(len(x)):
            labels[tile] = np.argmax(self.logits(w, x[tile], exit), axis=1)
        return labels

    def loss_on(self, w: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> float:
        """Mean softmax cross-entropy of the requested head."""
        return float(np.mean(cross_entropy(self.logits(w, x, exit), y)))

    def loss(self, w: np.ndarray, client: str, exit: int) -> float:
        return self.loss_on(w, *self._client_data(client), exit)

    def gradient_on(self, v: np.ndarray, x: np.ndarray, y: np.ndarray, exit: int) -> np.ndarray:
        """Backprop of the mean cross-entropy over exit ``exit``'s compact vector.

        ``v`` is that vector (:meth:`Segments.gather`) or a stack of them,
        ``(..., width)``, and so is the gradient. The batch is ``x``, ``(...,
        b, input_dim)``, with labels ``y``, ``(..., b)``; their leading dims
        are equal and broadcast against those of ``v``. So an ``(R, width)``
        stack shares one batch, and an ``(R, C, width)`` stack (or an ``(R, 1,
        width)`` one) steps ``C`` clients, client ``c`` on batch ``x[c]``,
        ``y[c]``. Row ``(r, c)`` of the gradient equals the gradient at ``v[r,
        c]`` on batch ``c`` alone, bit for bit: each matmul runs the same
        kernel per row, and each sum adds the same terms in the same order.
        """
        n = y.shape[-1]
        head = self.segments.compact_head(exit)
        states = self.hidden_states(v, x, exit)
        weight, bias = _weight_and_bias(v, head, self.num_classes)
        dlogits = _softmax(_affine(states[-1], weight, bias))
        dlogits -= y[..., None] == np.arange(self.num_classes)
        dlogits /= n

        grad = np.empty(dlogits.shape[:-2] + v.shape[-1:])  # the head and blocks fill it
        grad_w, grad_b = _weight_and_bias(grad, head, self.num_classes)
        grad_w[...] = dlogits.swapaxes(-1, -2) @ states[-1]
        grad_b[...] = dlogits.sum(axis=-2)

        # dh, a block's square and its dz share one allocation: new ones per step churn the heap
        work = np.empty((3,) + dlogits.shape[:-1] + (self.hidden_dim,))
        dh = np.matmul(dlogits, weight, out=work[0])
        for b in range(exit, 0, -1):
            spare = work[(exit - b + 1) % 2]  # the one of the first two that dh is not in
            dz = np.subtract(1.0, np.square(states[b], out=spare), out=work[2])
            dz *= dh
            grad_w, grad_b = self._block(grad, b)
            grad_w[...] = dz.swapaxes(-1, -2) @ states[b - 1]
            grad_b[...] = dz.sum(axis=-2)
            if b > 1:  # h_0 is the input, whose gradient nothing reads
                dh = np.matmul(dz, self._block(v, b)[0], out=spare)
        return grad

    def stochastic_gradient(
        self,
        w: np.ndarray,
        client: str,
        exit: int,
        batch_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Gradient on a batch drawn uniformly with replacement from the client, at full ``dim``."""
        x, y = self._client_data(client)
        idx = rng.integers(0, len(y), size=batch_size)
        v = self.segments.gather(w, exit)
        return self.segments.scatter(self.gradient_on(v, x[idx], y[idx], exit), exit)

    @staticmethod
    def draw_shape(cfg, dim: int) -> tuple[int, int]:
        """One round of one client's local draws: a batch of sample indices per local step."""
        return (cfg.local_steps, cfg.batch_size)

    def draw_rounds(self, gen: np.random.Generator, client: str, cfg, rounds: int) -> np.ndarray:
        """``rounds`` rounds of ``client``'s batch indices, as :meth:`stochastic_gradient` draws.

        Indices are drawn uniformly with replacement from the client's samples.
        """
        _, y = self._client_data(client)
        return gen.integers(0, len(y), size=(rounds, *self.draw_shape(cfg, self.dim)))

    @staticmethod
    def local_phase(leads, job_set: np.ndarray):
        """The round engine's local phase: one stacked backprop per sampled exit and local step.

        Each step is :meth:`stochastic_gradient` on one batch, whose indices
        are the client's row of the round's draws (see :meth:`draw_rounds`),
        as in :func:`fedtrain.local_update`. A stack is one stream set
        (``PACKS_SETS`` is false), so ``leads`` is its first job, ``job_set``
        is ``R`` zeros, and the jobs share the task and each client's batch
        and sampled exit. Each exit's clients, in client order, are cut into
        calls of ``max(1, grad_rows(width) // R)`` clients: one stacked
        :meth:`gradient_on` steps the compact vectors of a call's ``(job,
        client)`` rows, each client on its own batch, into one group of ``(R,
        C, width)`` end iterates. A call of one client steps the ``(R, width)``
        stack on its batch alone; a stack of one job drops the job axis.
        """
        task, rows = leads[0].task, len(job_set)
        # Refuses a client with no samples before round 1.
        data = [task._client_data(client) for client in leads[0].sampling.clients]
        segments = task.segments
        per_call = {e: max(1, grad_rows(segments.width(e)) // rows)
                    for e in range(1, task.num_exits + 1)}
        at = slice(None) if rows > 1 else 0

        def phase(w, exits, draws, etas):
            groups = []
            for exit, part in _exit_calls(exits[0].tolist(), per_call):
                v = segments.gather(w[at], exit)
                if len(part) == 1:
                    (x, y), idx = data[part[0]], draws[part[0]]
                    xb, yb, eta = x[idx], y[idx], etas[:, at, None]
                else:
                    xb = np.stack([data[i][0][draws[i]] for i in part], axis=1)
                    yb = np.stack([data[i][1][draws[i]] for i in part], axis=1)
                    v, eta = v[..., None, :], etas[:, at, None, None]

                def gradient(v: np.ndarray, j: int) -> np.ndarray:
                    return task.gradient_on(v, xb[j], yb[j], exit)

                v_end = _local_steps(v, eta, gradient)
                groups.append((part, segments.ranges(exit), v_end.reshape(rows, len(part), -1)))
            return groups

        return phase

    @staticmethod
    def dim_of(*, input_dim, hidden_dim, num_classes, num_exits, **_) -> tuple[int, str]:
        dim = build_segments(input_dim, hidden_dim, num_classes, num_exits).dim
        return dim, "task input_dim, hidden_dim and num_classes"

    @staticmethod
    def stack_tables(cfg, clients: int, rows: int, sets: int, *, input_dim, hidden_dim,
                     num_classes, num_exits, **_):
        """What one call of :meth:`local_phase` on an exit of ``width`` coordinates holds at most in
        a stack of any ``R <= rows`` jobs: the batches of ``min(N, grad_rows(width))`` clients,
        gathered and stacked; for each of ``max(rows, min(rows * N, grad_rows(width)))`` rows a
        compact gradient and either backprop's hidden state per exit trained, 3 more and two
        logits or the step's one more; and each row's start, one per job for one step."""
        segments = build_segments(input_dim, hidden_dim, num_classes, num_exits)
        b, h, steps = cfg.batch_size, hidden_dim, cfg.local_steps
        widths = {e: segments.width(e) for e in range(1, num_exits + 1)}
        calls = {e: max(rows, min(rows * clients, grad_rows(w))) for e, w in widths.items()}
        return [("one stacked gradient's batches", 2 * steps * b * (input_dim + 1) * 8
                 * max(min(clients, grad_rows(w)) for w in widths.values()),
                 "training batch_size and local_steps, and task input_dim"),
                ("one stacked gradient's hidden states", 8 * max(
                    calls[e] * (max((e + 3) * b * h + 2 * b * num_classes, w) + w)
                    + (rows if steps == 1 else calls[e]) * w for e, w in widths.items()),
                 "training batch_size and task hidden_dim")]

    @staticmethod
    def task_tables(clients: int, tasks: int, *, input_dim, total_samples, test_samples, **_):
        """Data :func:`make_classification_task` and :func:`make_test_set` draw ``tasks`` times."""
        return [("the training and test data",
                 tasks * (total_samples + test_samples) * (input_dim + 1) * 8,
                 ("seeds, partitions, " if tasks > 1 else "")
                 + "data total_samples and test_samples, and task input_dim")]

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
    """Every exit's per-sample scores on ``(x, y)``, from one backbone pass per row tile.

    Entropy is computed only for the exits in ``entropy_exits``. Each score
    is the per-sample term that :func:`exit_accuracy`, ``MlpTask.loss_on``
    and ``serving.entropy_confidence`` average or return. Each
    :func:`row_tiles` tile goes through ``task.exit_logits`` in turn and its
    scores fill the score arrays, so a call holds one tile's hidden state
    and logits at a time. Each exit's row max, exponentials and row sums
    come from one :func:`_softmax_parts` call, which the loss and the
    entropy share.
    """
    n = len(y)
    if n == 0:
        raise EmptyDatasetError("scores of an empty dataset are undefined")
    scores = [
        ExitScores(np.empty(n, dtype=bool), np.empty(n),
                   np.empty(n) if e in entropy_exits else None)
        for e in range(1, task.num_exits + 1)
    ]
    for tile in row_tiles(n):
        yt = y[tile]
        for s, z in zip(scores, task.exit_logits(w, x[tile]), strict=True):
            zmax, expz, expsum = _softmax_parts(z)
            s.correct[tile] = is_correct(z, yt)
            s.loss[tile] = _cross_entropy(z, yt, zmax, expsum)
            if s.entropy is not None:
                s.entropy[tile] = _entropy(expz, expsum)
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
    if not on_simplex(fractions, 1e-9):
        raise InvalidArgumentError("layer fractions must be nonnegative and sum to 1")
    out: list[list[int]] = []
    for layer_total, n_clients in zip(largest_remainder(fractions * total, total), layer_counts):
        base, extra = divmod(int(layer_total), n_clients)
        out.append([base + (1 if j < extra else 0) for j in range(n_clients)])
    return out


def layer_shares(partition, num_exits: int) -> tuple[float, ...]:
    """Each exit layer's share of the training data under ``partition``.

    ``partition`` is a name from :data:`PARTITIONS` or explicit shares.

    Raises:
        InvalidArgumentError: an unknown name, or not one share per exit of the tree.
    """
    explicit = isinstance(partition, (tuple, list))
    shares = tuple(partition) if explicit else PARTITIONS.get(partition)
    if shares is None:
        raise InvalidArgumentError(f"unknown partition {partition!r}; known: {sorted(PARTITIONS)}")
    if len(shares) != num_exits:
        raise InvalidArgumentError(f"partition {partition!r} has {len(shares)} layer shares "
                                   f"but the tree has {num_exits} exits")
    return shares


def client_sizes(topology: Topology, partition, total_samples: int) -> dict[str, int]:
    """Each client's training samples, by :func:`layer_allocation` of :func:`layer_shares`."""
    total_samples = integer("total_samples", total_samples, least=0)
    layers = [topology.layers[e] for e in range(1, topology.num_exits + 1)]
    counts = layer_allocation(layer_shares(partition, topology.num_exits), total_samples,
                              [len(layer) for layer in layers])
    return {c: n for layer, ns in zip(layers, counts) for c, n in zip(layer, ns)}


def check_classification_task(
    input_dim: int, hidden_dim: int, num_classes: int, teacher_gain: float
) -> tuple:
    """The arguments as read, in order, if :func:`make_classification_task` can build this task.

    A zero or non-finite ``teacher_gain`` would label every sample class 0.
    """
    sizes = [integer(name, value, least=1) for name, value in (
        ("input_dim", input_dim), ("hidden_dim", hidden_dim), ("num_classes", num_classes))]
    teacher_gain = number("teacher_gain", teacher_gain)
    if not 0 < teacher_gain < np.inf:
        raise InvalidArgumentError(f"teacher_gain must be finite and > 0, got {teacher_gain}")
    return (*sizes, teacher_gain)


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
        InvalidArgumentError: a layer size or gain :func:`check_classification_task`
            refuses, or a partition :func:`layer_shares` refuses.
    """
    input_dim, hidden_dim, num_classes, teacher_gain = check_classification_task(
        input_dim, hidden_dim, num_classes, teacher_gain)
    sizes = client_sizes(topology, partition, total_samples)
    shell = MlpTask(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        num_exits=topology.num_exits,
        data={},
        teacher=np.zeros(0),
    )
    teacher = shell.init_params(rngmod.stream(seed, rngmod.TEACHER), gain=teacher_gain)

    features = rngmod.stream(seed, rngmod.DATA).standard_normal((sum(sizes.values()), input_dim))
    labels = shell.predict(teacher, features, topology.num_exits)

    bounds = np.cumsum([0, *sizes.values()])
    data = {c: (features[a:b], labels[a:b]) for c, a, b in zip(sizes, bounds, bounds[1:])}
    return replace(shell, data=data, teacher=teacher)


def make_test_set(task: MlpTask, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh i.i.d. samples labeled by the task's teacher."""
    n = integer("n", n, least=1)
    x = rngmod.stream(seed, rngmod.TEST_DATA).standard_normal((n, task.input_dim))
    y = task.predict(task.teacher, x, task.num_exits)
    return x, y
