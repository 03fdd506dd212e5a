"""Experiment runner: wire topology, strategy, task, training, and metrics.

A JSON config describes a grid of (seed, partition, split, strategy) cells.
Every cell contributes one CSV row plus one JSON report. :func:`parse_config`
plans every serving point and builds every strategy's sampling matrix once,
so a tree that cannot carry the config is refused before any output exists.

The runner then works in three passes. It first plans every cell: each (seed,
partition) group builds once, and shares across all of its splits and
strategies, the task instance, the tree sized to it, the test set, the
initial model, the training config and a table of estimated noise scales per
(client, exit). Training never reads budgets, so a cell's training job is
keyed by (seed, partition, k, exit weights), and ``equal`` and ``flops_prop``
give one job per group rather than one per split. It then trains every
distinct job once through :func:`fedtrain.run_stacked`, which trains as many
jobs side by side as its byte budget allows: all quadratic jobs of a grid in
one stack, each MLP job alone. Each MLP job is scored once on its group's test
set. Last, it evaluates each cell from its job's result and its split. Strategy
comparisons are therefore paired, and reruns of the same config produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .errors import ConfigParseError, MissingRowsError, ZeroTrafficError
from .fedtrain import Job, TrainConfig, run_stacked
from .fedtrain import run  # noqa: F401  kept: perfbench's tracer wraps fedexit.experiment.run
from .mlp import (
    PARTITIONS,
    check_classification_task,
    make_classification_task,
    make_test_set,
    score_exits,
)
from .objective import weighted_objective
from .quadratic import check_quadratic_task, make_quadratic_task, quadratic_minimizers
from .serving import simulate_serving, weighted_quality
from .strategies import (
    ExitPools,
    ExitWeights,
    SamplingMatrix,
    build_sampling_matrix,
    equal_weight,
    exit_pools,
    flops_prop,
    gen_error_adjusted,
)
from .theory import (
    ErrorReport,
    bias_bound,
    bound_B,
    estimate_sigma,
    gen_proxy,
    grad_second_moment,
    opt_error_bound,
    statistical_heterogeneity,
    theory_params,
    tv_distance,
)
from .topology import (
    RatePlan,
    Topology,
    budgets_for_split,
    compute_rate_plan,
    from_node_dicts,
    integer,
)

REFERENCE_FLOPS = (78_316_160.0, 694_682_880.0, 1_770_787_840.0)

CSV_COLUMNS = [
    "seed",
    "partition",
    "split",
    "strategy",
    "k",
    "exit1_acc",
    "exit2_acc",
    "exit3_acc",
    "weighted_acc",
    "system_acc_routed",
    "weighted_loss",
    "tv",
    "gen_proxy",
    "opt_bound",
    "empirical_opt_error",
]

STRATEGY_NAMES = ("equal", "flops_prop", "serving_rate", "gen_error_adj")


@dataclass(frozen=True)
class StrategySpec:
    name: str
    k: float
    sampling: SamplingMatrix  # built once, by parse_config


@dataclass(frozen=True)
class SplitSpec:
    """One serving point, planned by parse_config: a split, or the explicit budgets."""

    label: str  # "budgets" for the explicit budgets
    fractions: tuple[float, ...]  # normalized; for budgets, the plan's normalized rates
    plan: RatePlan


@dataclass(frozen=True)
class ExperimentConfig:
    topology: Topology
    splits: tuple[SplitSpec, ...]
    partitions: tuple[str, ...]
    total_samples: int
    test_samples: int
    task: dict
    flops: tuple[float, ...]
    strategies: tuple[StrategySpec, ...]
    training: dict
    seeds: tuple[int, ...]
    output_dir: str


def _split_label(entries) -> str:
    return "-".join(f"{float(v):g}" for v in entries)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigParseError on any defect."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


def _reject_duplicates(what: str, values) -> None:
    """Refuse a repeated grid value.

    Reports are named by seed, partition and split label, so a repeated value
    would write one cell's report over another's.
    """
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigParseError(f"duplicate {what} {value!r}")
        seen.add(value)


# A whole-number config value; int() would cut a fractional one.
_integer = functools.partial(integer, error=ConfigParseError)


def _seeds(values) -> tuple[int, ...]:
    seeds = tuple(_integer("seed", s) for s in values)
    if not seeds:
        raise ConfigParseError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigParseError(f"seeds must be >= 0, got {min(seeds)}")
    _reject_duplicates("seed", seeds)
    return seeds


def _reject_unknown_keys(what: str, section: dict, known) -> None:
    """Refuse a key nobody reads, so a misspelt one cannot fall back to a default."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigParseError(f"unknown {what} keys {unknown}; known: {sorted(known)}")


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        _reject_unknown_keys(
            "config",
            raw,
            ("topology", "serving", "data", "task", "strategies", "training", "seeds",
             "flops", "output_dir"),
        )
        topo = from_node_dicts(raw["topology"]["nodes"], raw["topology"].get("num_exits"))
        serving = raw["serving"]
        _reject_unknown_keys("serving", serving, ("splits", "budgets"))
        if ("splits" in serving) == ("budgets" in serving):
            raise ConfigParseError("serving needs exactly one of 'splits' or 'budgets'")
        if not topo.total_arrival > 0:
            raise ZeroTrafficError("no node has a positive arrival rate, so nothing is served")
        splits = []
        if "splits" in serving:
            if not serving["splits"]:
                raise ConfigParseError("serving needs at least one split")
            for entry in serving["splits"]:
                vec = np.asarray(entry, dtype=float)
                if vec.shape != (topo.num_exits,):
                    raise ConfigParseError(
                        f"split {entry} needs one entry per exit ({topo.num_exits})"
                    )
                if not (np.isfinite(vec).all() and np.all(vec >= 0) and vec.sum() > 0):
                    raise ConfigParseError(f"bad split {entry}")
                fractions = vec / vec.sum()
                plan = compute_rate_plan(topo.with_budgets(budgets_for_split(topo, fractions)))
                splits.append(SplitSpec(_split_label(entry), tuple(fractions), plan))
            _reject_duplicates("split", [s.label for s in splits])
        else:
            budgets = {str(k): float(v) for k, v in serving["budgets"].items()}
            for node, value in budgets.items():
                if node not in topo.by_id:
                    raise ConfigParseError(f"budget for {node!r}, which is no node of the tree")
                if not value >= 0:
                    raise ConfigParseError(f"budget of {node} must be >= 0, got {value}")
            plan = compute_rate_plan(topo.with_budgets(budgets))
            splits.append(SplitSpec("budgets", tuple(plan.lambda_exit_normalized), plan))

        task = dict(raw["task"])
        kind = task.get("kind")
        if kind not in TASK_KEYS:
            raise ConfigParseError(f"unknown task kind {kind!r}")
        _reject_unknown_keys(f"{kind} task", task, TASK_KEYS[kind])
        check = check_quadratic_task if kind == "quadratic" else check_classification_task
        try:
            check(**_task_args(task))
        except ValueError as exc:
            raise ConfigParseError(f"bad task section: {exc}") from exc
        _reject_unknown_keys("training", raw["training"], TRAINING_KEYS)
        _train_config(raw["training"], kind, seed=0)

        data = raw.get("data", {})
        _reject_unknown_keys("data", data, ("partitions", "total_samples", "test_samples"))
        partitions = tuple(data.get("partitions", ("none",)))
        _reject_duplicates("partition", partitions)
        if kind == "quadratic" and partitions != ("none",):
            raise ConfigParseError("quadratic tasks take their sizes from the topology")
        if kind == "mlp" and partitions == ("none",):
            raise ConfigParseError("mlp tasks need data.partitions")
        if kind == "mlp":
            for name in partitions:
                if name not in PARTITIONS:
                    raise ConfigParseError(
                        f"unknown partition {name!r}; known: {sorted(PARTITIONS)}"
                    )
                if len(PARTITIONS[name]) != topo.num_exits:
                    raise ConfigParseError(
                        f"partition {name!r} has {len(PARTITIONS[name])} layer shares "
                        f"but the tree has {topo.num_exits} exits"
                    )

        strategies = []
        report_names = set()
        for s in raw["strategies"]:
            _reject_unknown_keys("strategy", s, ("name", "k"))
            name = s["name"]
            if name not in STRATEGY_NAMES:
                raise ConfigParseError(f"unknown strategy {name!r}")
            k = float(s.get("k", 0.0))
            spec = StrategySpec(name, k, build_sampling_matrix(topo, k))  # may raise InvalidKError
            # Reports are named by strategy and k:g, so two entries that agree
            # there would write one report over the other.
            report_name = (name, f"{spec.k:g}")
            if report_name in report_names:
                raise ConfigParseError(f"duplicate strategy {name!r} with k={spec.k:g}")
            report_names.add(report_name)
            strategies.append(spec)

        seeds = _seeds(raw["seeds"])

        flops = tuple(float(f) for f in raw.get("flops", REFERENCE_FLOPS))
        if len(flops) != topo.num_exits:
            raise ConfigParseError("need one flops value per exit")
        if not all(0 < f < np.inf for f in flops):
            raise ConfigParseError(f"flops must be finite and > 0, got {list(flops)}")

        return ExperimentConfig(
            topology=topo,
            splits=tuple(splits),
            partitions=partitions,
            total_samples=_integer("total_samples", data.get("total_samples", 0)),
            test_samples=_integer("test_samples", data.get("test_samples", 0)),
            task=task,
            flops=flops,
            strategies=tuple(strategies),
            training=dict(raw["training"]),
            seeds=seeds,
            output_dir=str(raw.get("output_dir", "results")),
        )
    except KeyError as exc:
        raise ConfigParseError(f"missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


# The keys _task_args reads from the task section, per kind.
TASK_KEYS = {
    "quadratic": ("kind", "dim", "eig_range", "sigma_range", "center_scale"),
    "mlp": ("kind", "input_dim", "hidden_dim", "num_classes", "teacher_gain"),
}


def _task_args(spec: dict) -> dict:
    """The task builder's keyword arguments that the task section sets, defaults filled in."""
    if spec["kind"] == "quadratic":
        return dict(
            dim=_integer("task dim", spec.get("dim", 4)),
            eig_range=tuple(spec.get("eig_range", (1.0, 2.0))),
            sigma_range=tuple(spec.get("sigma_range", (0.0, 0.5))),
            center_scale=float(spec.get("center_scale", 1.0)),
        )
    return dict(
        input_dim=_integer("task input_dim", spec.get("input_dim", 16)),
        hidden_dim=_integer("task hidden_dim", spec.get("hidden_dim", 32)),
        num_classes=_integer("task num_classes", spec.get("num_classes", 3)),
        teacher_gain=float(spec.get("teacher_gain", 1.5)),
    )


def _build_task(cfg: ExperimentConfig, partition: str, seed: int):
    """Client data depend on the tree's structure and sizes, never on budgets."""
    if cfg.task["kind"] == "quadratic":
        return make_quadratic_task(cfg.topology, **_task_args(cfg.task), seed=seed)
    return make_classification_task(
        cfg.topology,
        partition=partition,
        total_samples=cfg.total_samples,
        **_task_args(cfg.task),
        seed=seed,
    )


# The training section sets TrainConfig's fields by name, all but the seed.
TRAINING_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")


def _train_config(training: dict, kind: str, seed: int, task=None) -> TrainConfig:
    """The round loop's config for one seed, validated by ``TrainConfig`` itself.

    Only the values the section sets reach ``TrainConfig``, which owns every
    default. A theory schedule that names no ``mu`` takes ``mu`` and
    ``smoothness`` from the quadratic task, and a missing or null
    ``projection_radius`` is the quadratic task's feasible radius.
    ``parse_config`` calls this without a task: stand-ins that ``TrainConfig``
    accepts fill those values, so everything the section names is checked
    before any run.

    Raises:
        ConfigParseError: ``rounds`` or ``local_steps`` is missing, an integer
            field has a fractional part, a value is refused by
            ``TrainConfig``, or an mlp theory schedule has no mu.
    """
    for key in ("rounds", "local_steps"):
        if key not in training:
            raise ConfigParseError(f"training needs {key!r}")
    args = {}
    for key, value in training.items():
        if key in ("rounds", "local_steps", "batch_size"):
            args[key] = _integer(key, value)
        elif key == "lr_schedule":
            args[key] = value
        elif value is not None or key != "projection_radius":
            args[key] = float(value)
    if args.get("lr_schedule") == "theory" and args.get("mu", 0.0) == 0.0:
        if kind != "quadratic":
            raise ConfigParseError("theory schedule needs mu/smoothness for mlp tasks")
        args["mu"], args["smoothness"] = (1.0, 1.0) if task is None else (task.mu, task.smoothness)
    if "projection_radius" not in args and kind == "quadratic" and task is not None:
        args["projection_radius"] = float(task.radius)
    try:
        return TrainConfig(**args, seed=seed)
    except ValueError as exc:
        raise ConfigParseError(f"cannot build the training config: {exc}") from exc


def _strategy_weights(
    spec: StrategySpec,
    cfg: ExperimentConfig,
    lam_norm: np.ndarray,
    pools,
) -> ExitWeights:
    if spec.name == "equal":
        return equal_weight(len(lam_norm))
    if spec.name == "flops_prop":
        return flops_prop(cfg.flops)
    if spec.name == "serving_rate":
        return ExitWeights(weights=lam_norm)
    return gen_error_adjusted(lam_norm, pools.sizes, cfg.flops)


@dataclass
class _Group:
    """What the cells of one (seed, partition) group share across splits."""

    seed: int
    partition: str
    task: object
    topology: Topology  # the config's tree, sized to the task
    train_cfg: TrainConfig
    w_init: np.ndarray
    test_x: np.ndarray | None
    test_y: np.ndarray | None
    sigma: dict[tuple[str, int], float] = field(default_factory=dict)

    def noise_scale(self, client: str, exit: int) -> float:
        """Estimated batch-gradient noise of one (client, exit) pair, computed once."""
        key = (client, exit)
        if key not in self.sigma:
            self.sigma[key] = estimate_sigma(
                self.task,
                client,
                exit,
                self.train_cfg.batch_size,
                radius=1.0,
                n_probes=20,
                seed=self.seed,
            )
        return self.sigma[key]


def _build_group(cfg: ExperimentConfig, seed: int, partition: str) -> _Group:
    task = _build_task(cfg, partition, seed)
    if task.kind == "mlp":
        test_x, test_y = make_test_set(task, cfg.test_samples, seed)
    else:
        test_x = test_y = None
    return _Group(
        seed=seed,
        partition=partition,
        task=task,
        topology=cfg.topology.with_dataset_sizes(task.sizes),
        train_cfg=_train_config(cfg.training, cfg.task["kind"], seed, task),
        w_init=task.init_params(rngmod.stream(seed, rngmod.INIT)),
        test_x=test_x,
        test_y=test_y,
    )


@dataclass(frozen=True)
class _Cell:
    """One (group, split, strategy) cell: its training job and what it reports on."""

    group: _Group
    split: SplitSpec
    spec: StrategySpec
    pools: ExitPools
    job: Job

    @property
    def job_key(self) -> tuple:
        # Training reads neither budgets nor the rate plan, so the final
        # iterate depends on the split only through the exit weights.
        group, weights = self.group, self.job.weights.weights
        return (group.seed, group.partition, self.spec.k, weights.tobytes())


def _plan_cell(
    cfg: ExperimentConfig, group: _Group, split: SplitSpec, spec: StrategySpec
) -> _Cell:
    """One strategy's cell at one split of a group."""
    pools = exit_pools(group.topology, spec.sampling)
    weights = _strategy_weights(spec, cfg, np.asarray(split.fractions), pools)
    job = Job(group.topology, group.task, weights, spec.sampling, group.train_cfg,
              w_init=group.w_init, label=f"strategy {spec.name}, k={spec.k:g}")
    return _Cell(group, split, spec, pools, job)


def _train(cells: list[_Cell]) -> dict[tuple, tuple]:
    """Train the distinct job of every cell once; return the results by job key.

    A result is the final iterate and, on the MLP, its test-set accuracies and
    losses per exit. All jobs train through :func:`run_stacked`.
    """
    firsts: dict[tuple, _Cell] = {}
    for cell in cells:
        firsts.setdefault(cell.job_key, cell)
    finals = run_stacked([cell.job for cell in firsts.values()])
    trained = {}
    for (key, cell), w in zip(firsts.items(), finals):
        scores = None
        if cell.group.test_x is not None:
            per_exit = score_exits(cell.job.task, w, cell.group.test_x, cell.group.test_y)
            scores = ([float(np.mean(s.correct)) for s in per_exit],
                      [float(np.mean(s.loss)) for s in per_exit])
        trained[key] = (w, scores)
    return trained


def _evaluate(cfg: ExperimentConfig, cell: _Cell, w_final: np.ndarray, scores) -> tuple[dict, dict]:
    """One cell's CSV row and report, from its job's result and its split."""
    group, split, spec, pools = cell.group, cell.split, cell.spec, cell.pools
    lam_norm = np.asarray(split.fractions)
    topo, task, weights, sampling, train_cfg = (
        cell.job.topology, cell.job.task, cell.job.weights, cell.job.sampling, cell.job.cfg
    )
    tv_value = tv_distance(weights.weights, lam_norm)
    proxy = gen_proxy(weights, cfg.flops, pools.sizes)
    row = {
        "seed": group.seed,
        "partition": group.partition,
        "split": split.label,
        "strategy": spec.name,
        "k": spec.k,
        "tv": tv_value,
        "gen_proxy": proxy,
    }
    report = ErrorReport(tv_value=tv_value, gen_proxy=proxy)

    if task.kind == "mlp":
        outcome = simulate_serving(topo, split.plan, task, w_final, group.test_x, group.test_y)
        accs, losses = scores
        for e, acc in enumerate(accs[:3], start=1):
            row[f"exit{e}_acc"] = acc
        row["weighted_acc"] = weighted_quality(accs, lam_norm)
        row["system_acc_routed"] = outcome.system_accuracy
        row["weighted_loss"] = weighted_quality(losses, lam_norm)
        report.sigma_source = "estimated"
        report.g_per_pair = {
            f"{c}:{e}": group.noise_scale(c, e)
            for e in range(1, topo.num_exits + 1)
            for c in pools.clients[e - 1]
        }
        extra = {"serving": outcome.to_dict()}
    else:
        params = theory_params(
            task, weights, sampling, pools, train_cfg.server_lr, train_cfg.local_steps
        )
        minimum = quadratic_minimizers(task, weights, pools)
        gamma_value = statistical_heterogeneity(task, weights, pools, minimum)
        b_value = bound_B(params, gamma_value)
        init_dist_sq = float(np.sum((group.w_init - minimum.w_star) ** 2))
        bound = opt_error_bound(params, b_value, train_cfg.rounds, init_dist_sq)
        empirical = weighted_objective(task, w_final, weights, pools) - minimum.f_star
        pop_losses = [
            task.population_exit_loss(w_final, e) for e in range(1, topo.num_exits + 1)
        ]
        row["weighted_loss"] = float(np.asarray(pop_losses) @ lam_norm)
        row["opt_bound"] = bound
        row["empirical_opt_error"] = empirical

        g_pairs, g_max = grad_second_moment(params)
        report.gamma_value = gamma_value
        report.g_max = g_max
        report.g_per_pair = {f"{c}:{e}": float(g) for (c, e), g in zip(params.pairs, g_pairs)}
        report.b_value = b_value
        report.opt_bound = {train_cfg.rounds: bound}
        report.empirical_opt_error = {train_cfg.rounds: empirical}
        report.loss_cap = params.loss_cap
        report.bias_bound = bias_bound(params.loss_cap, weights.weights, lam_norm)
        extra = {}

    return row, {
        "seed": group.seed,
        "partition": group.partition,
        "split": split.label,
        "strategy": spec.name,
        "k": spec.k,
        "rate_plan": split.plan.to_dict(),
        "exit_weights": [float(v) for v in weights.weights],
        "sampling_probs": {
            c: [float(p) for p in sampling.probs[i]] for i, c in enumerate(sampling.clients)
        },
        "error_report": report.to_dict(),
        **extra,
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(
    config: str | Path | ExperimentConfig,
    out_dir: str | Path | None = None,
    seed_override: int | None = None,
) -> Path:
    """Run the full grid and write results.csv plus per-cell reports.

    Returns the path of the CSV. Output is byte-identical across reruns of
    the same config.
    """
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seeds=_seeds([seed_override]))
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)

    cells = [
        _plan_cell(cfg, group, split, spec)
        for seed in cfg.seeds
        for partition in cfg.partitions
        for group in [_build_group(cfg, seed, partition)]
        for split in cfg.splits
        for spec in cfg.strategies
    ]
    trained = _train(cells)
    cell_key = operator.itemgetter("seed", "partition", "split", "strategy", "k")
    all_rows = []
    all_reports = {}
    for cell in cells:
        row, report = _evaluate(cfg, cell, *trained[cell.job_key])
        all_rows.append(row)
        all_reports[cell_key(row)] = report

    # Made only here: a run refused in training or evaluation leaves no directory.
    (out / "reports").mkdir(parents=True, exist_ok=True)
    all_rows.sort(key=cell_key)
    csv_path = out / "results.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in all_rows:
            writer.writerow([_format_cell(row.get(col)) for col in CSV_COLUMNS])

    for key in sorted(all_reports):
        seed, partition, split_label, strategy, k = key
        name = f"report_s{seed}_{partition}_{split_label}_{strategy}_k{k:g}.json"
        payload = json.dumps(all_reports[key], indent=2, sort_keys=True)
        (out / "reports" / name).write_text(payload + "\n")
    return csv_path


def compare(csv_path: str | Path, baseline: str, candidate: str) -> list[dict]:
    """Per-(partition, split) mean accuracy deltas, candidate minus baseline."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise MissingRowsError(f"no such results file: {csv_path}")
    by_cell: dict[tuple[str, str], dict[str, dict[int, float]]] = {}
    with csv_path.open() as handle:
        for record in csv.DictReader(handle):
            if record["strategy"] not in (baseline, candidate):
                continue
            if not record["weighted_acc"]:
                continue
            cell = (record["partition"], record["split"])
            per_strategy = by_cell.setdefault(cell, {baseline: {}, candidate: {}})
            per_strategy[record["strategy"]][int(record["seed"])] = float(
                record["weighted_acc"]
            )
    if not by_cell:
        raise MissingRowsError(
            f"no accuracy rows for strategies {baseline!r}/{candidate!r}"
        )
    out = []
    for (partition, split), per_strategy in sorted(by_cell.items()):
        base_rows, cand_rows = per_strategy[baseline], per_strategy[candidate]
        seeds = sorted(set(base_rows) & set(cand_rows))
        if not seeds or set(base_rows) != set(cand_rows):
            raise MissingRowsError(
                f"cell {partition}/{split}: seed grids differ between strategies"
            )
        deltas = np.array([cand_rows[s] - base_rows[s] for s in seeds])
        out.append(
            {
                "partition": partition,
                "split": split,
                "n_seeds": len(seeds),
                "baseline_mean": float(np.mean([base_rows[s] for s in seeds])),
                "candidate_mean": float(np.mean([cand_rows[s] for s in seeds])),
                "delta_mean": float(deltas.mean()),
                "delta_se": float(
                    deltas.std(ddof=1) / np.sqrt(len(seeds)) if len(seeds) > 1 else 0.0
                ),
            }
        )
    return out
