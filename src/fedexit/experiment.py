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
one stack, each MLP job alone. Last, it evaluates each cell from its job's final
iterate and its split. An MLP cell's accuracies and losses, on the requests it
serves and on the i.i.d. test stream alike, come from the one backbone pass of
its serving simulation. Strategy comparisons are therefore paired, and reruns
of the same config produce byte-identical outputs.
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
from .errors import (
    BoundOverflowError,
    ConfigParseError,
    MissingRowsError,
    MixedKError,
    OutputExistsError,
    ZeroTrafficError,
)
from .fedtrain import Job, TrainConfig, run_stacked
from .fedtrain import run  # noqa: F401  perfbench's tests need a call site per traced span
from .mlp import check_classification_task, layer_shares, make_classification_task, make_test_set
from .objective import weighted_objective
from .quadratic import check_quadratic_task, make_quadratic_task, quadratic_minimizers
from .serving import simulate_serving, weighted_quality
from .strategies import (
    STRATEGY_NAMES,
    ExitPools,
    SamplingMatrix,
    build_sampling_matrix,
    exit_pools,
    exit_weights,
)
from .theory import (
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
    array,
    budgets_for_split,
    compute_rate_plan,
    from_node_dicts,
    integer,
    number,
    reject_unknown_keys,
    string,
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
    total_samples: int  # 0 for a quadratic task, which takes its sizes from the tree
    test_samples: int
    task: dict  # the task's kind and the builder's parsed keyword arguments
    flops: tuple[float, ...]
    strategies: tuple[StrategySpec, ...]
    training: dict
    seeds: tuple[int, ...]
    output_dir: str


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


def _check_grid_axis(what: str, values) -> None:
    """Refuse an empty grid axis, which would run no cell, or a repeated value.

    Reports are named by seed, partition, split label, strategy and k, so a
    repeated value would write one cell's report over another's.
    """
    if not values:
        raise ConfigParseError(f"need at least one {what}")
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigParseError(f"duplicate {what} {value!r}")
        seen.add(value)


# The config's readers: every value parse_config reads goes through one.
_integer, _number, _list, _string, _reject_unknown_keys = (
    functools.partial(reader, error=ConfigParseError)
    for reader in (integer, number, array, string, reject_unknown_keys)
)


def _numbers(what: str, values) -> tuple[float, ...]:
    """A JSON array of numbers as a tuple of floats."""
    return tuple(_number(what, v) for v in _list(what, values))


def _seeds(values) -> tuple[int, ...]:
    seeds = tuple(_integer("seed", s) for s in _list("seeds", values))
    _check_grid_axis("seed", seeds)
    if min(seeds) < 0:
        raise ConfigParseError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        _reject_unknown_keys(
            "config",
            raw,
            ("topology", "serving", "data", "task", "strategies", "training", "seeds",
             "flops", "output_dir"),
        )
        _reject_unknown_keys("topology", raw["topology"], ("nodes", "num_exits"))
        topo = from_node_dicts(raw["topology"]["nodes"], raw["topology"].get("num_exits"))
        serving = raw["serving"]
        _reject_unknown_keys("serving", serving, ("splits", "budgets"))
        if ("splits" in serving) == ("budgets" in serving):
            raise ConfigParseError("serving needs exactly one of 'splits' or 'budgets'")
        if not topo.total_arrival > 0:
            raise ZeroTrafficError("no node has a positive arrival rate, so nothing is served")
        splits = []
        if "splits" in serving:
            for entry in _list("serving splits", serving["splits"]):
                vec = np.asarray(_numbers("split", entry))
                if vec.shape != (topo.num_exits,):
                    raise ConfigParseError(
                        f"split {entry} needs one entry per exit ({topo.num_exits})"
                    )
                if not (np.isfinite(vec).all() and np.all(vec >= 0) and vec.sum() > 0):
                    raise ConfigParseError(f"bad split {entry}")
                fractions = vec / vec.sum()
                plan = compute_rate_plan(topo.with_budgets(budgets_for_split(topo, fractions)))
                label = "-".join(f"{v:g}" for v in vec)
                splits.append(SplitSpec(label, tuple(fractions), plan))
            _check_grid_axis("split", [s.label for s in splits])
        else:
            _reject_unknown_keys("serving budgets", serving["budgets"], topo.by_id)
            budgets = {k: _number(f"budget of {k}", v) for k, v in serving["budgets"].items()}
            for node, value in budgets.items():
                if not value >= 0:
                    raise ConfigParseError(f"budget of {node} must be >= 0, got {value}")
            plan = compute_rate_plan(topo.with_budgets(budgets))
            splits.append(SplitSpec("budgets", tuple(plan.lambda_exit_normalized), plan))

        task = raw["task"]
        has_kind = isinstance(task, dict) and "kind" in task
        kind = _string("task kind", task["kind"]) if has_kind else None
        if kind not in TASK_KEYS:
            raise ConfigParseError(f"task needs a kind in {sorted(TASK_KEYS)}, got {task!r}")
        _reject_unknown_keys(f"{kind} task", task, ("kind", *TASK_KEYS[kind]))
        task_args = _task_args(task)
        check = check_quadratic_task if kind == "quadratic" else check_classification_task
        try:
            check(**task_args)
        except ValueError as exc:
            raise ConfigParseError(f"bad task section: {exc}") from exc
        _reject_unknown_keys("training", raw["training"], TRAINING_KEYS)
        _train_config(raw["training"], kind, seed=0)

        if kind == "quadratic":
            if "data" in raw:
                raise ConfigParseError(
                    "a quadratic task reads no data section: its sizes come from the nodes"
                )
            partitions, samples = ("none",), (0, 0)
        else:
            data = raw["data"]
            _reject_unknown_keys("data", data, ("partitions", "total_samples", "test_samples"))
            partitions = tuple(
                _string("partition", name) for name in _list("partitions", data["partitions"])
            )
            _check_grid_axis("partition", partitions)
            for name in partitions:
                layer_shares(name, topo.num_exits)
            samples = []
            for key in ("total_samples", "test_samples"):
                samples.append(_integer(f"data {key}", data[key]))
                if samples[-1] < 1:
                    raise ConfigParseError(f"data {key} must be >= 1, got {samples[-1]}")

        strategies = []
        for s in _list("strategies", raw["strategies"]):
            _reject_unknown_keys("strategy", s, ("name", "k"))
            name = _string("strategy name", s["name"])
            if name not in STRATEGY_NAMES:
                raise ConfigParseError(f"unknown strategy {name!r}")
            k = _number("strategy k", s.get("k", 0.0))
            # build_sampling_matrix may raise InvalidKError.
            strategies.append(StrategySpec(name, k, build_sampling_matrix(topo, k)))
        _check_grid_axis("strategy", [f"{s.name} with k={s.k:g}" for s in strategies])

        seeds = _seeds(raw["seeds"])

        flops = _numbers("flops", raw["flops"]) if "flops" in raw else REFERENCE_FLOPS
        if len(flops) != topo.num_exits:
            raise ConfigParseError("need one flops value per exit")
        if not all(0 < f < np.inf for f in flops):
            raise ConfigParseError(f"flops must be finite and > 0, got {list(flops)}")

        return ExperimentConfig(
            topology=topo,
            splits=tuple(splits),
            partitions=partitions,
            total_samples=samples[0],
            test_samples=samples[1],
            task={"kind": kind, **task_args},
            flops=flops,
            strategies=tuple(strategies),
            training=dict(raw["training"]),
            seeds=seeds,
            output_dir=_string("output_dir", raw.get("output_dir", "results")),
        )
    except KeyError as exc:
        raise ConfigParseError(f"missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


# Per task kind, the reader and default of each key of the task section; each
# key is a keyword argument of the kind's task builder.
TASK_KEYS = {
    "quadratic": {"dim": (_integer, 4), "eig_range": (_numbers, [1.0, 2.0]),
                  "sigma_range": (_numbers, [0.0, 0.5]), "center_scale": (_number, 1.0)},
    "mlp": {"input_dim": (_integer, 16), "hidden_dim": (_integer, 32),
            "num_classes": (_integer, 3), "teacher_gain": (_number, 1.5)},
}


def _task_args(spec: dict) -> dict:
    """The task builder's keyword arguments that the task section sets, defaults filled in."""
    return {key: read(f"task {key}", spec.get(key, default))
            for key, (read, default) in TASK_KEYS[spec["kind"]].items()}


def _build_task(cfg: ExperimentConfig, partition: str, seed: int):
    """Client data depend on the tree's structure and sizes, never on budgets."""
    args = {key: value for key, value in cfg.task.items() if key != "kind"}
    if cfg.task["kind"] == "quadratic":
        return make_quadratic_task(cfg.topology, **args, seed=seed)
    return make_classification_task(
        cfg.topology, partition=partition, total_samples=cfg.total_samples, **args, seed=seed
    )


# TrainConfig's fields but the seed and those a quadratic task sets.
TRAINING_KEYS = ("rounds", "local_steps", "batch_size", "server_lr", "lr_schedule", "base_lr")


def _train_config(training: dict, kind: str, seed: int, task=None) -> TrainConfig:
    """The round loop's config for one seed, validated by ``TrainConfig`` itself.

    Only the values the section sets reach ``TrainConfig``, which owns every
    default. A quadratic task always trains with its own ``mu``,
    ``smoothness`` and feasible radius, the constants its ``opt_bound``
    assumes. ``parse_config`` calls this without a task: stand-ins that
    ``TrainConfig`` accepts fill those values, so everything the section
    names is checked before any run.

    Raises:
        ConfigParseError: ``rounds`` or ``local_steps`` is missing, an integer
            field has a fractional part, a rate is not a number, a value is
            refused by ``TrainConfig``, the theory schedule is given a
            ``base_lr`` it never reads, or an mlp task asks for the theory
            schedule, which needs curvature constants an mlp does not have.
    """
    for key in ("rounds", "local_steps"):
        if key not in training:
            raise ConfigParseError(f"training needs {key!r}")
    if training.get("lr_schedule") == "theory":
        if kind == "mlp":
            raise ConfigParseError("the theory schedule needs a quadratic task's mu/smoothness")
        if "base_lr" in training:
            raise ConfigParseError("the theory schedule reads no base_lr; its steps follow mu")
    args = {}
    for key, value in training.items():
        if key in ("rounds", "local_steps", "batch_size"):
            args[key] = _integer(key, value)
        elif key == "lr_schedule":
            args[key] = _string(key, value)
        else:
            args[key] = _number(key, value)
    if kind == "quadratic":
        args["mu"], args["smoothness"], args["projection_radius"] = (
            (1.0, 1.0, 1.0) if task is None else (task.mu, task.smoothness, task.radius)
        )
    try:
        return TrainConfig(**args, seed=seed)
    except ValueError as exc:
        raise ConfigParseError(f"cannot build the training config: {exc}") from exc


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
    bounds: dict | None = None  # a quadratic cell's, from _quadratic_bounds
    f_star: float | None = None

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
    weights = exit_weights(spec.name, split.fractions, pools.sizes, cfg.flops)
    job = Job(group.topology, group.task, weights, spec.sampling, group.train_cfg,
              w_init=group.w_init, label=f"strategy {spec.name}, k={spec.k:g}")
    bounds = () if group.task.kind == "mlp" else _quadratic_bounds(group, split, pools, job)
    return _Cell(group, split, spec, pools, job, *bounds)


def _quadratic_bounds(
    group: _Group, split: SplitSpec, pools: ExitPools, job: Job
) -> tuple[dict, float]:
    """A quadratic cell's bound entries and its optimal objective f*, known before training.

    Raises:
        BoundOverflowError: a bound or one of its constants is not a finite float.
        SingularSystemError: the weighted normal equations cannot be solved.
    """
    task, weights, sampling, cfg = job.task, job.weights, job.sampling, job.cfg
    try:
        with np.errstate(over="raise", invalid="raise"):
            params = theory_params(task, weights, sampling, pools, cfg.server_lr, cfg.local_steps)
            minimum = quadratic_minimizers(task, weights, pools)
            gamma_value = statistical_heterogeneity(task, weights, pools, minimum)
            b_value = bound_B(params, gamma_value)
            init_dist_sq = float(np.sum((group.w_init - minimum.w_star) ** 2))
            bound = opt_error_bound(params, b_value, cfg.rounds, init_dist_sq)
            g_pairs, g_max = grad_second_moment(params)
            bias = bias_bound(params.loss_cap, weights.weights, np.asarray(split.fractions))
            # A product of Python floats overflows to inf without raising.
            if not np.isfinite([params.loss_cap, b_value, bound, bias]).all():
                raise OverflowError
    except (OverflowError, FloatingPointError) as exc:
        raise BoundOverflowError(
            f"seed {group.seed}, {job.label}: a bound does not fit in a float; lower the "
            "task's eig_range, center_scale or sigma_range, or server_lr"
        ) from exc
    return dict(
        heterogeneity=gamma_value,
        grad_second_moment_max=g_max,
        grad_second_moment_per_pair={
            f"{c}:{e}": float(g) for (c, e), g in zip(params.pairs, g_pairs)
        },
        B=b_value,
        opt_bound={str(cfg.rounds): bound},
        bias_bound=bias,
        loss_cap=params.loss_cap,
        sigma_source="exact",
    ), minimum.f_star


def _train(cells: list[_Cell]) -> dict[tuple, np.ndarray]:
    """Train the distinct job of every cell once through :func:`run_stacked`.

    Returns each job's final iterate by job key.
    """
    jobs: dict[tuple, Job] = {}
    for cell in cells:
        jobs.setdefault(cell.job_key, cell.job)
    return dict(zip(jobs, run_stacked(list(jobs.values()))))


def _evaluate(cfg: ExperimentConfig, cell: _Cell, w_final: np.ndarray) -> tuple[dict, dict]:
    """One cell's CSV row and report, from its job's final iterate and its split."""
    group, split, spec, pools = cell.group, cell.split, cell.spec, cell.pools
    lam_norm = np.asarray(split.fractions)
    topo, task, weights, sampling, train_cfg = (
        cell.job.topology, cell.job.task, cell.job.weights, cell.job.sampling, cell.job.cfg
    )
    tv_value = tv_distance(weights.weights, lam_norm)
    proxy = gen_proxy(weights, cfg.flops, pools.sizes)
    identity = {"seed": group.seed, "partition": group.partition, "split": split.label,
                "strategy": spec.name, "k": spec.k}
    row = {**identity, "tv": tv_value, "gen_proxy": proxy}
    error_report = {"tv": tv_value, "gen_proxy": proxy}

    if task.kind == "mlp":
        outcome = simulate_serving(topo, split.plan, task, w_final, group.test_x, group.test_y)
        accs = [float(v) for v in outcome.iid_exit_accuracy]
        for e, acc in enumerate(accs[:3], start=1):
            row[f"exit{e}_acc"] = acc
        row["weighted_acc"] = weighted_quality(accs, lam_norm)
        row["system_acc_routed"] = outcome.system_accuracy
        row["weighted_loss"] = weighted_quality(outcome.iid_exit_mean_loss, lam_norm)
        # The worst probed batch-gradient deviation per pair (estimate_sigma).
        error_report["sigma_source"] = "estimated"
        error_report["noise_scale_per_pair"] = {
            f"{c}:{e}": group.noise_scale(c, e)
            for e in range(1, topo.num_exits + 1)
            for c in pools.clients[e - 1]
        }
        extra = {"serving": outcome.to_dict()}
    else:
        empirical = weighted_objective(task, w_final, weights, pools) - cell.f_star
        pop_losses = [
            task.population_exit_loss(w_final, e) for e in range(1, topo.num_exits + 1)
        ]
        row["weighted_loss"] = float(np.asarray(pop_losses) @ lam_norm)
        row["opt_bound"] = cell.bounds["opt_bound"][str(train_cfg.rounds)]
        row["empirical_opt_error"] = empirical
        error_report.update(cell.bounds, empirical_opt_error={str(train_cfg.rounds): empirical})
        extra = {}

    return row, {
        **identity,
        "rate_plan": split.plan.to_dict(),
        "exit_weights": [float(v) for v in weights.weights],
        "sampling_probs": {
            c: [float(p) for p in sampling.probs[i]] for i, c in enumerate(sampling.clients)
        },
        "error_report": error_report,
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

    Raises:
        OutputExistsError: the output directory exists and is not empty, so
            its files would mix with this run's. Nothing is deleted.
    """
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seeds=_seeds([seed_override]))
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise OutputExistsError(f"output path {out} exists and is not an empty directory")

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
        row, report = _evaluate(cfg, cell, trained[cell.job_key])
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
    """Per-(partition, split) mean accuracy deltas, candidate minus baseline.

    Raises:
        MissingRowsError: no results file, or no paired accuracy rows.
        MixedKError: a strategy's rows carry more than one ``k``, so one
            row per seed and cell would stand for several runs.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise MissingRowsError(f"no such results file: {csv_path}")
    by_cell: dict[tuple[str, str], dict[str, dict[int, float]]] = {}
    ks: dict[str, set[str]] = {baseline: set(), candidate: set()}
    with csv_path.open() as handle:
        for record in csv.DictReader(handle):
            if record["strategy"] not in (baseline, candidate):
                continue
            if not record["weighted_acc"]:
                continue
            ks[record["strategy"]].add(record["k"])
            cell = (record["partition"], record["split"])
            per_strategy = by_cell.setdefault(cell, {baseline: {}, candidate: {}})
            per_strategy[record["strategy"]][int(record["seed"])] = float(
                record["weighted_acc"]
            )
    if not by_cell:
        raise MissingRowsError(
            f"no accuracy rows for strategies {baseline!r}/{candidate!r}"
        )
    for name, values in ks.items():
        if len(values) > 1:
            raise MixedKError(f"strategy {name!r} has rows at k = {', '.join(sorted(values))}; "
                              "compare needs one k per strategy")
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
