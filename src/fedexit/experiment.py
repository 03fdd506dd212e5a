"""Experiment runner: wire topology, strategy, task, training, and metrics.

Every (seed, partition, split, strategy) cell of a parsed config
(:mod:`fedexit.config`) contributes one CSV row plus one JSON report. The
runner works in three passes. It first plans every cell: each (seed, partition)
group builds once, and shares across all of its splits and strategies, the task
instance, the tree sized to it, the test set and the training config. It then
passes every cell's training job to :func:`fedtrain.run_stacked`, which trains
each distinct job once. Training reads neither budgets nor the rate plan, so
``equal`` and ``flops_prop``, whose exit weights ignore the split, give one job
per group rather than one per split. Whole stream sets train side by side
within a byte budget: all quadratic jobs of a grid in one stack, and the jobs
of each MLP stream set (one seed, partition and sampling matrix) with one
stacked backprop per client and local step. Last, it evaluates each cell from
its job's final iterate and its split. An MLP cell's accuracies and losses, on
the requests it serves and on the i.i.d. test stream alike, come from the one
backbone pass of its serving simulation. Strategy comparisons are therefore
paired, and reruns of the same config produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import operator
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, SplitSpec, StrategySpec, load_config, parse_seeds
from .config import parse_config  # noqa: F401  perfbench calls fedexit.experiment.parse_config
from .errors import BoundOverflowError, MissingRowsError, MixedKError, OutputExistsError
from .fedtrain import Job, TrainConfig, initial_iterate, run_stacked
from .fedtrain import run  # noqa: F401  perfbench's tests need a call site per traced span
from .mlp import make_classification_task, make_test_set
from .objective import weighted_objective
from .quadratic import make_quadratic_task, quadratic_minimizers
from .serving import simulate_serving, weighted_quality
from .strategies import ExitPools, exit_pools, exit_weights, require_pooled_data
from .theory import estimate_sigma  # noqa: F401  unused here; perfbench traces this name
from .theory import (
    bias_bound,
    bound_B,
    gen_proxy,
    grad_second_moment,
    opt_error_bound,
    statistical_heterogeneity,
    theory_params,
    tv_distance,
)
from .topology import Topology

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


def _build_task(cfg: ExperimentConfig, partition: str, seed: int):
    """Client data depend on the tree's structure and sizes, never on budgets."""
    args = {key: value for key, value in cfg.task.items() if key != "kind"}
    if cfg.task["kind"] == "quadratic":
        return make_quadratic_task(cfg.topology, **args, seed=seed)
    return make_classification_task(
        cfg.topology, partition=partition, total_samples=cfg.total_samples, **args, seed=seed
    )


@dataclass
class _Group:
    """What the cells of one (seed, partition) group share across splits."""

    seed: int
    partition: str
    task: object
    topology: Topology  # the config's tree, sized to the task
    train_cfg: TrainConfig
    test_x: np.ndarray | None
    test_y: np.ndarray | None


def _build_group(cfg: ExperimentConfig, seed: int, partition: str) -> _Group:
    task = _build_task(cfg, partition, seed)
    if task.kind == "mlp":
        test_x, test_y = make_test_set(task, cfg.test_samples, seed)
        constants = {}
    else:
        test_x = test_y = None
        # The constants a quadratic task's opt_bound assumes.
        constants = dict(mu=task.mu, smoothness=task.smoothness, projection_radius=task.radius)
    return _Group(
        seed=seed,
        partition=partition,
        task=task,
        topology=cfg.topology.with_dataset_sizes(task.sizes),
        train_cfg=TrainConfig(**cfg.training, **constants, seed=seed),
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


def _plan_cell(
    cfg: ExperimentConfig, group: _Group, split: SplitSpec, spec: StrategySpec
) -> _Cell:
    """One strategy's cell at one split of a group."""
    pools = exit_pools(group.topology, spec.sampling)
    weights = exit_weights(spec.name, split.fractions, pools.sizes, cfg.flops)
    job = Job(group.topology, group.task, weights, spec.sampling, group.train_cfg,
              label=f"strategy {spec.name}, k={spec.k:g}")
    require_pooled_data(weights, pools)
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
            init_dist_sq = float(np.sum((initial_iterate(job) - minimum.w_star) ** 2))
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
    ), minimum.f_star


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
    the same config. The files are written into a fresh hidden sibling of
    the output directory and moved into it after the last one is written.

    Raises:
        OutputExistsError: the output directory exists and is not empty, so
            its files would mix with this run's. Nothing is deleted.
    """
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seeds=parse_seeds([seed_override]))
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
    trained = run_stacked([cell.job for cell in cells])
    cell_key = operator.itemgetter("seed", "partition", "split", "strategy", "k")
    all_rows = []
    all_reports = {}
    for cell, w_final in zip(cells, trained):
        row, report = _evaluate(cfg, cell, w_final)
        all_rows.append(row)
        all_reports[cell_key(row)] = report

    # The outputs are written into a fresh sibling directory and moved into
    # out after the last file, results.csv last. So a run refused in training
    # or evaluation, or a write that fails, leaves no output behind.
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        (staging / "reports").mkdir()
        all_rows.sort(key=cell_key)
        with (staging / "results.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for row in all_rows:
                writer.writerow([_format_cell(row.get(col)) for col in CSV_COLUMNS])

        for key in sorted(all_reports):
            seed, partition, split_label, strategy, k = key
            name = f"report_s{seed}_{partition}_{split_label}_{strategy}_k{k:g}.json"
            # Strict JSON: a NaN or infinity fails the run before anything is moved.
            payload = json.dumps(all_reports[key], indent=2, sort_keys=True, allow_nan=False)
            (staging / "reports" / name).write_text(payload + "\n")
        # Moved entry by entry, since out may be an existing empty directory,
        # even the working one, which renaming a directory onto would unlink.
        out.mkdir(exist_ok=True)
        for entry in ("reports", "results.csv"):
            (staging / entry).replace(out / entry)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out / "results.csv"


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
