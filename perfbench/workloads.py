"""The benchmark's workloads: inputs generated from a seed, one pass, output checks.

Each workload builds its inputs with :meth:`setup`, runs one closed-loop pass
with :meth:`run_pass`, and checks that pass's outputs with :meth:`check`.
An operation is one grid cell (``mlp_grid``, ``quadratic_bounds``) or one
split of the serving sweep (``serve_tree``); a failed operation raised or
produced output that failed a check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fedexit
import fedexit.experiment
import fedexit.serving
import fedexit.topology
from fedexit import rng as rngmod

SEVEN_NODE_TREE = [
    {"id": "cloud", "parent": None, "exit": 3, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge1", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge2", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "dev1", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev2", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev3", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev4", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
]

MLP_TASK = {"input_dim": 16, "hidden_dim": 32, "num_classes": 6, "teacher_gain": 2.5}
ACC_COLUMNS = ("exit1_acc", "exit2_acc", "exit3_acc", "weighted_acc", "system_acc_routed")


@dataclass
class PassOutcome:
    """What one pass attempted, which operations failed, and its quality."""

    ops: int
    failed: set = field(default_factory=set)
    error: float = math.nan  # share of the task left unsolved, over checked operations
    bytes_written: int = 0


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class GridWorkload:
    """A generated grid config run through ``fedexit.experiment.run_experiment``.

    The check reads ``results.csv`` and the reports back. Every cell needs one
    row and one report per strategy, rows that pass :meth:`row_ok`, and the
    same bytes on every pass of the run (sha256 per cell).
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.config = None
        self.reference: dict[tuple, str] | None = None

    def raw_config(self) -> dict:
        raise NotImplementedError

    def row_ok(self, row: dict) -> bool:
        raise NotImplementedError

    def row_error(self, row: dict) -> float:
        raise NotImplementedError

    def setup(self) -> str:
        self.config = fedexit.experiment.parse_config(self.raw_config())
        self.cells = [
            (str(seed), partition, split.label)
            for seed in self.config.seeds
            for partition in self.config.partitions
            for split in self.config.splits
        ]
        return _digest(repr(self.config).encode())

    @property
    def ops_per_pass(self) -> int:
        return len(self.cells)

    @property
    def items_per_pass(self) -> int:
        """Federated rounds per pass: cells x strategies x rounds."""
        return len(self.cells) * len(self.config.strategies) * int(self.config.training["rounds"])

    def run_pass(self, out_dir: Path):
        return fedexit.experiment.run_experiment(self.config, out_dir=out_dir)

    def check(self, result, out_dir: Path) -> PassOutcome:
        outcome = PassOutcome(ops=len(self.cells))
        outcome.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        everything = set(self.cells)
        if isinstance(result, BaseException):
            outcome.failed = everything
            return outcome
        per_cell = {cell: {"lines": [], "rows": [], "reports": []} for cell in self.cells}
        try:
            text = (out_dir / "results.csv").read_text()
            lines = text.splitlines()
            records = list(csv.reader(lines))
            header = records[0]
            for line, values in zip(lines[1:], records[1:]):
                row = dict(zip(header, values))
                per_cell[(row["seed"], row["partition"], row["split"])]["lines"].append(line)
                per_cell[(row["seed"], row["partition"], row["split"])]["rows"].append(row)
            for path in sorted((out_dir / "reports").iterdir()):
                raw = path.read_bytes()
                report = json.loads(raw)
                key = (str(report["seed"]), report["partition"], report["split"])
                per_cell[key]["reports"].append(path.name.encode() + b"\0" + raw)
        except (OSError, IndexError, KeyError, ValueError, TypeError):
            # Missing files, rows for cells never asked for, or unreadable
            # output: nothing in this pass can be trusted.
            outcome.failed = everything
            return outcome

        n_strategies = len(self.config.strategies)
        digests = {}
        errors = []
        for cell, found in per_cell.items():
            digests[cell] = _digest(
                lines[0].encode(),
                *sorted(line.encode() for line in found["lines"]),
                *sorted(found["reports"]),
            )
            ok = (
                len(found["rows"]) == n_strategies
                and len(found["reports"]) == n_strategies
                and all(self.row_ok(row) for row in found["rows"])
            )
            if self.reference is not None and digests[cell] != self.reference.get(cell):
                ok = False
            if ok:
                errors.extend(self.row_error(row) for row in found["rows"])
            else:
                outcome.failed.add(cell)
        if self.reference is None:
            self.reference = digests
        if errors:
            outcome.error = float(np.mean(errors))
        return outcome


class MlpGrid(GridWorkload):
    """The paper's strategy grid: 2 partitions x 3 splits x 4 strategies."""

    name = "mlp_grid"

    def raw_config(self) -> dict:
        return {
            "topology": {"num_exits": 3, "nodes": SEVEN_NODE_TREE},
            "serving": {"splits": [[70, 20, 10], [40, 35, 25], [10, 30, 60]]},
            "data": {
                "partitions": ["equal", "cloud_bias_plus"],
                "total_samples": 1200,
                "test_samples": 600,
            },
            "task": {"kind": "mlp", **MLP_TASK},
            "strategies": [
                {"name": "equal"},
                {"name": "flops_prop"},
                {"name": "serving_rate", "k": 0.0},
                {"name": "serving_rate", "k": 0.1},
            ],
            "training": {
                "rounds": 40,
                "local_steps": 2,
                "batch_size": 64,
                "lr_schedule": "cosine",
                "base_lr": 0.2,
            },
            "seeds": [self.seed],
        }

    def row_ok(self, row: dict) -> bool:
        values = [_float(row.get(col, "")) for col in ACC_COLUMNS]
        return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)

    def row_error(self, row: dict) -> float:
        """Classification error of the rate-weighted exits."""
        return 1.0 - float(row["weighted_acc"])


class QuadraticBounds(GridWorkload):
    """Quadratic bound cells: tiny steps, many rounds, several seeds."""

    name = "quadratic_bounds"
    n_seeds = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._initial_loss: dict[int, float] = {}

    def raw_config(self) -> dict:
        seeds = np.random.default_rng(self.seed).integers(0, 2**31 - 1, size=self.n_seeds)
        return {
            "topology": {"num_exits": 3, "nodes": SEVEN_NODE_TREE},
            "serving": {"splits": [[45, 35, 20]]},
            "task": {
                "kind": "quadratic",
                "dim": 4,
                "eig_range": [1.0, 2.0],
                "sigma_range": [0.0, 0.5],
                "center_scale": 1.0,
            },
            "strategies": [{"name": "serving_rate", "k": 0.1}, {"name": "equal", "k": 0.1}],
            "training": {"rounds": 300, "local_steps": 4, "batch_size": 1, "lr_schedule": "theory"},
            "seeds": [int(s) for s in seeds],
        }

    def row_ok(self, row: dict) -> bool:
        empirical = _float(row.get("empirical_opt_error", ""))
        bound = _float(row.get("opt_bound", ""))
        return math.isfinite(empirical) and math.isfinite(bound) and empirical <= bound

    def row_error(self, row: dict) -> float:
        """Rate-weighted population loss after training over the same loss at the start."""
        seed = int(row["seed"])
        if seed not in self._initial_loss:
            self._initial_loss[seed] = self._loss_at_init(seed)
        return float(row["weighted_loss"]) / self._initial_loss[seed]

    def _loss_at_init(self, seed: int) -> float:
        """Rate-weighted population loss of the initial model, from public functions."""
        split = np.asarray(self.config.splits[0].fractions)
        base = self.config.topology
        topo = base.with_budgets(fedexit.budgets_for_split(base, split))
        spec = self.config.task
        task = fedexit.make_quadratic_task(
            topo,
            dim=int(spec["dim"]),
            eig_range=tuple(spec["eig_range"]),
            sigma_range=tuple(spec["sigma_range"]),
            center_scale=float(spec["center_scale"]),
            seed=seed,
        )
        w_init = task.init_params(rngmod.stream(seed, rngmod.INIT))
        losses = [task.population_exit_loss(w_init, e) for e in range(1, topo.num_exits + 1)]
        return float(np.asarray(losses) @ split)


class ServeTree:
    """Serving what-if on a wide layered tree for a sweep of exit splits.

    Setup trains one model with ``fedexit.run``. Each split then runs
    ``budgets_for_split``, ``compute_rate_plan`` and ``simulate_serving``
    with entropy ranking over the whole test stream.
    """

    name = "serve_tree"
    edges = 8
    devices_per_edge = 8
    train_samples = 4800
    train_rounds = 15
    test_samples = 20_000
    splits = (
        (0.7, 0.2, 0.1),
        (0.5, 0.3, 0.2),
        (0.34, 0.33, 0.33),
        (0.2, 0.3, 0.5),
        (0.1, 0.2, 0.7),
    )
    plan_tol = 1e-9

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._oracle: dict[int, object] = {}

    def topology(self) -> fedexit.Topology:
        nodes = [fedexit.NodeSpec("cloud", None, 3)]
        for i in range(self.edges):
            edge = f"edge{i:02d}"
            nodes.append(fedexit.NodeSpec(edge, "cloud", 2))
            for j in range(self.devices_per_edge):
                nodes.append(fedexit.NodeSpec(f"dev{i:02d}_{j:02d}", edge, 1, arrival_rate=1.0))
        return fedexit.Topology(nodes=tuple(nodes), num_exits=3)

    def setup(self) -> str:
        topo = self.topology()
        task = fedexit.make_classification_task(
            topo, partition="equal", total_samples=self.train_samples, seed=self.seed, **MLP_TASK
        )
        trained = topo.with_dataset_sizes(task.sizes)
        cfg = fedexit.TrainConfig(
            rounds=self.train_rounds, local_steps=2, batch_size=32, lr_schedule="cosine", base_lr=0.2, seed=self.seed
        )
        sampling = fedexit.build_sampling_matrix(trained, 0.0)
        w, _ = fedexit.run(trained, task, fedexit.equal_weight(3), sampling, cfg)
        x, y = fedexit.make_test_set(task, self.test_samples, self.seed)
        self.topo, self.task, self.w, self.x, self.y = topo, task, w, x, y
        return _digest(w.tobytes(), x.tobytes(), y.tobytes())

    @property
    def ops_per_pass(self) -> int:
        return len(self.splits)

    @property
    def items_per_pass(self) -> int:
        """Test samples routed and scored per pass."""
        return len(self.splits) * self.test_samples

    def run_pass(self, out_dir: Path):
        results = []
        for split in self.splits:
            try:
                budgets = fedexit.topology.budgets_for_split(self.topo, split)
                routed = self.topo.with_budgets(budgets)
                plan = fedexit.topology.compute_rate_plan(routed)
                outcome = fedexit.serving.simulate_serving(
                    routed, plan, self.task, self.w, self.x, self.y, ranking="entropy"
                )
                results.append((routed, plan, outcome))
            except Exception as exc:  # counted as a failed operation by check()
                results.append(exc)
        return results

    def check(self, result, out_dir: Path) -> PassOutcome:
        outcome = PassOutcome(ops=len(self.splits))
        if isinstance(result, BaseException):
            outcome.failed = set(range(len(self.splits)))
            return outcome
        accuracies = []
        for i, entry in enumerate(result):
            if isinstance(entry, BaseException) or not self._split_ok(i, *entry):
                outcome.failed.add(i)
            else:
                accuracies.append(entry[2].system_accuracy)
        if accuracies:
            outcome.error = 1.0 - float(np.mean(accuracies))
        return outcome

    def _split_ok(self, i: int, routed, plan, served) -> bool:
        if i not in self._oracle:
            self._oracle[i] = fedexit.brute_force_rate_plan(routed)
        oracle = self._oracle[i]
        for name in ("transmit", "serve", "fraction"):
            mine, ref = getattr(plan, name), getattr(oracle, name)
            if mine.keys() != ref.keys() or any(abs(mine[n] - ref[n]) > self.plan_tol for n in ref):
                return False
        if np.max(np.abs(plan.lambda_exit - oracle.lambda_exit)) > self.plan_tol:
            return False
        total = self.test_samples
        if sum(served.served_counts.values()) != total:
            return False
        # Each node rounds its served count, and the error flows upward, so
        # an exit's realised count may be off by one sample per node at or
        # below its layer.
        exits = {n.id: n.exit for n in routed.nodes}
        for e, share in enumerate(self.splits[i], start=1):
            count = sum(c for n, c in served.served_counts.items() if exits[n] == e)
            slack = sum(1 for n in exits.values() if n <= e)
            if abs(count - share * total) > slack:
                return False
        acc = served.system_accuracy
        return math.isfinite(acc) and 0.0 <= acc <= 1.0


WORKLOADS = {w.name: w for w in (MlpGrid, QuadraticBounds, ServeTree)}
