"""Config parsing, the experiment grid, CSV/report outputs, and the CLI."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_tree
from fedexit.cli import main as cli_main
from fedexit.errors import (
    ConfigParseError,
    InvalidTopologyError,
    MissingRowsError,
    SingularSystemError,
)
from fedexit.experiment import (
    CSV_COLUMNS,
    compare,
    load_config,
    parse_config,
    run_experiment,
)
from fedexit.topology import brute_force_rate_plan

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SEVEN_NODES = [
    {"id": "cloud", "parent": None, "exit": 3, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge1", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "edge2", "parent": "cloud", "exit": 2, "arrival_rate": 0.0, "dataset_size": 100},
    {"id": "dev1", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev2", "parent": "edge1", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev3", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
    {"id": "dev4", "parent": "edge2", "exit": 1, "arrival_rate": 1.0, "dataset_size": 100},
]


# Node edits that leave a tree with no traffic to serve.
NO_ARRIVALS = {f"dev{i}": {"arrival_rate": 0.0} for i in range(1, 5)}


def mlp_config(**overrides) -> dict:
    cfg = {
        "topology": {"num_exits": 3, "nodes": SEVEN_NODES},
        "serving": {"splits": [[80, 15, 5], [33, 33, 33]]},
        "data": {"partitions": ["equal"], "total_samples": 210, "test_samples": 105},
        "task": {"kind": "mlp", "input_dim": 6, "hidden_dim": 8, "num_classes": 3},
        "strategies": [{"name": "equal"}, {"name": "serving_rate"}],
        "training": {"rounds": 4, "local_steps": 2, "batch_size": 8, "base_lr": 0.2},
        "seeds": [1, 2],
        "output_dir": "results",
    }
    cfg.update(overrides)
    return cfg


def quadratic_config(**overrides) -> dict:
    cfg = mlp_config(
        task={"kind": "quadratic", "dim": 3},
        training={"rounds": 4, "local_steps": 2, "lr_schedule": "theory"},
    )
    del cfg["data"]
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, mlp_config()))
        assert cfg.topology.num_exits == 3
        assert cfg.splits is not None and len(cfg.splits) == 2
        assert cfg.splits[0].label == "80-15-5"
        np.testing.assert_allclose(np.sum(cfg.splits[0].fractions), 1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            load_config(tmp_path / "nope.json")

    def test_split_and_budgets_mutually_exclusive(self, tmp_path):
        raw = mlp_config()
        raw["serving"]["budgets"] = {"dev1": 0.5}
        with pytest.raises(ConfigParseError):
            parse_config(raw)

    @pytest.mark.parametrize(
        "serving, message",
        [
            ({"budgets": {"edgeX": 0.2}}, "budget for 'edgeX', which is no node of the tree"),
            ({"budgets": {"edge1": -0.2}}, "budget of edge1 must be >= 0, got -0.2"),
            ({"budgets": {"edge1": float("nan")}}, "budget of edge1 must be >= 0, got nan"),
            ({"splits": [[45, 35]]}, r"needs one entry per exit \(3\)"),
            ({"splits": [[45, float("nan"), 20]]}, "bad split"),
        ],
        ids=["unknown-node", "negative-budget", "nan-budget", "short-split", "nan-split"],
    )
    def test_serving_checked_at_parse_time(self, serving, message):
        # An unknown budget key used to be dropped without a word, a negative
        # budget or a short split to end the run in a raw ValueError, and a
        # NaN budget or split in a DivergenceError that blamed training.
        with pytest.raises(ConfigParseError, match=message):
            parse_config(quadratic_config(serving=serving))

    def test_serving_points_planned_at_parse_time(self):
        cfg = parse_config(mlp_config())
        assert [point.label for point in cfg.splits] == ["80-15-5", "33-33-33"]
        for point in cfg.splits:
            np.testing.assert_allclose(
                point.plan.lambda_exit_normalized, point.fractions, rtol=0, atol=1e-12
            )
        budgets = {"dev1": 0.6, "dev2": 0.6, "dev3": 0.6, "dev4": 0.6, "edge1": 0.8,
                   "edge2": 0.8}
        (point,) = parse_config(mlp_config(serving={"budgets": budgets})).splits
        assert point.label == "budgets"
        assert point.fractions == tuple(point.plan.lambda_exit_normalized)
        np.testing.assert_allclose(point.fractions, [0.4, 0.2, 0.4], rtol=0, atol=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigParseError):
            parse_config(mlp_config(strategies=[{"name": "mystery"}]))

    def test_duplicate_strategy_rejected(self):
        # Two identical entries used to write two CSV rows but one report.
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config(mlp_config(strategies=[{"name": "equal"}, {"name": "equal"}]))
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config(
                mlp_config(
                    strategies=[{"name": "serving_rate"}, {"name": "serving_rate", "k": 0.0}]
                )
            )

    def test_duplicate_seed_rejected(self):
        # A repeated seed used to write 8 CSV rows but only 4 reports.
        with pytest.raises(ConfigParseError, match="duplicate seed"):
            parse_config(mlp_config(seeds=[1, 1]))

    def test_duplicate_split_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate split"):
            parse_config(mlp_config(serving={"splits": [[80, 15, 5], [80, 15, 5]]}))
        # Labels are formatted with :g, so 80 and 80.0 name the same report.
        with pytest.raises(ConfigParseError, match="duplicate split"):
            parse_config(mlp_config(serving={"splits": [[80, 15, 5], [80.0, 15, 5]]}))

    def test_duplicate_partition_rejected(self):
        raw = mlp_config()
        raw["data"] = dict(raw["data"], partitions=["equal", "equal"])
        with pytest.raises(ConfigParseError, match="duplicate partition"):
            parse_config(raw)

    def test_thirds_parse_to_exact_thirds(self):
        cfg = parse_config(mlp_config())
        thirds = cfg.splits[1].fractions
        assert thirds[0] == 1.0 / 3.0  # bitwise: 33/99 rounds to the same double

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "seed"),
            ("serving", "split"),
            ("data", "test_sample"),
            ("task", "hidden"),
            ("training", "base_rl"),
        ],
    )
    def test_unknown_key_rejected(self, section, key):
        # A misspelt key used to run silently on the default value.
        raw = mlp_config()
        if section is None:
            raw[key] = 1
        else:
            raw[section] = dict(raw[section], **{key: 1e6})
        with pytest.raises(ConfigParseError, match=f"unknown .*{key}"):
            parse_config(raw)

    def test_task_keys_are_per_kind(self):
        raw = mlp_config(task={"kind": "quadratic", "dim": 3, "hidden_dim": 8})
        del raw["data"]
        with pytest.raises(ConfigParseError, match="hidden_dim"):
            parse_config(raw)

    def test_unknown_strategy_key_rejected(self):
        # {"name": "serving_rate", "K": 0.1} used to run at k=0.
        with pytest.raises(ConfigParseError, match="unknown strategy keys"):
            parse_config(mlp_config(strategies=[{"name": "serving_rate", "K": 0.1}]))

    def test_partition_must_fit_the_tree(self):
        nodes = [
            {"id": "cloud", "parent": None, "exit": 2, "dataset_size": 100},
            {"id": "dev1", "parent": "cloud", "exit": 1, "arrival_rate": 1.0,
             "dataset_size": 100},
        ]
        raw = mlp_config(
            topology={"num_exits": 2, "nodes": nodes},
            serving={"splits": [[50, 50]]},
            flops=[1.0, 2.0],
        )
        with pytest.raises(ConfigParseError, match="2 exits"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "training, message",
        [
            ({"local_steps": 2}, "training needs 'rounds'"),
            ({"rounds": 4}, "training needs 'local_steps'"),
            ({"rounds": 4, "local_steps": 2, "lr_schedule": "theroy"}, "unknown lr_schedule"),
            ({"rounds": 0, "local_steps": 2}, "rounds must be >= 1"),
            ({"rounds": 4, "local_steps": 2, "momentum": 1.0}, "momentum"),
            ({"rounds": 4, "local_steps": 2, "lr_schedule": "theory", "mu": 2.0,
              "smoothness": 1.0}, "0 < mu <= smoothness"),
            ({"rounds": 4, "local_steps": 2, "server_lr": float("nan")}, "server_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": float("nan")}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": float("inf")}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": -0.1}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "projection_radius": float("nan")},
             "projection_radius"),
            ({"rounds": 4, "local_steps": 2, "lr_schedule": "theory", "mu": float("nan"),
              "smoothness": 1.0}, "0 < mu <= smoothness"),
        ],
    )
    def test_training_checked_at_parse_time(self, training, message):
        # These used to pass parse_config and die mid-run with a raw traceback,
        # or in "the iterate is not finite" (NaN values). base_lr -0.1 ran
        # gradient ascent and exited 0.
        with pytest.raises(ConfigParseError, match=message):
            parse_config(mlp_config(training=training))

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"eig_range": [0.0, 1.0]}, "eig_range"),
            ({"eig_range": [-1.0, 1.0]}, "eig_range"),
            ({"eig_range": [2.0, 1.0]}, "eig_range"),
            ({"eig_range": [1.0]}, "eig_range"),
            ({"sigma_range": [-0.1, 0.5]}, "sigma_range"),
            ({"sigma_range": [0.5, 0.1]}, "sigma_range"),
            ({"dim": 0}, "dim"),
            ({"center_scale": -1.0}, "center_scale"),
            ({"kind": "mlp", "input_dim": 0}, "input_dim"),
            ({"kind": "mlp", "hidden_dim": 0}, "hidden_dim"),
            ({"kind": "mlp", "num_classes": 0}, "num_classes"),
            ({"eig_range": [1.0, float("inf")]}, "eig_range"),
            ({"sigma_range": [0.0, float("inf")]}, "sigma_range"),
            ({"center_scale": float("inf")}, "center_scale"),
            ({"kind": "mlp", "teacher_gain": 0.0}, "teacher_gain"),
            ({"kind": "mlp", "teacher_gain": float("nan")}, "teacher_gain"),
            ({"kind": "mlp", "teacher_gain": float("inf")}, "teacher_gain"),
        ],
    )
    def test_task_checked_at_parse_time(self, task, message):
        # eig_range [0, 1] used to end the run in a raw ZeroDivisionError, and
        # [-1, 1] in an error that blamed the training section. An infinite
        # range bound ended in a raw OverflowError, and an infinite
        # center_scale in "the iterate is not finite". A zero or NaN
        # teacher_gain labelled every sample class 0.
        raw = mlp_config() if task.get("kind") == "mlp" else quadratic_config()
        raw["task"] = dict(raw["task"], **task)
        with pytest.raises(ConfigParseError, match=f"^bad task section: {message}"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("training", "rounds"),
            ("training", "local_steps"),
            ("training", "batch_size"),
            (None, "seeds"),
            ("data", "total_samples"),
            ("data", "test_samples"),
            ("task", "input_dim"),
            ("task", "hidden_dim"),
            ("task", "num_classes"),
            ("quadratic task", "dim"),
        ],
    )
    def test_fractional_integer_rejected(self, section, key):
        # rounds: 1.5 used to pass and run one round without a word.
        raw = quadratic_config() if section == "quadratic task" else mlp_config()
        section = "task" if section == "quadratic task" else section

        def with_value(value):
            if section is None:
                return dict(raw, seeds=[1, value])
            return dict(raw, **{section: dict(raw[section], **{key: value})})

        with pytest.raises(ConfigParseError, match="must be an integer, got 1.5"):
            parse_config(with_value(1.5))
        parse_config(with_value(2.0))

    def test_negative_seed_rejected(self, tmp_path):
        # A negative seed used to end the run in a raw ValueError traceback.
        with pytest.raises(ConfigParseError, match="seeds must be >= 0"):
            parse_config(mlp_config(seeds=[1, -1]))
        path = write_config(tmp_path, mlp_config())
        with pytest.raises(ConfigParseError, match="seeds must be >= 0"):
            run_experiment(path, out_dir=tmp_path / "out", seed_override=-1)

    def test_mlp_theory_schedule_needs_mu_at_parse_time(self):
        training = {"rounds": 4, "local_steps": 2, "lr_schedule": "theory"}
        with pytest.raises(ConfigParseError, match="mu/smoothness"):
            parse_config(mlp_config(training=training))

    def test_quadratic_theory_schedule_takes_mu_from_task(self):
        raw = mlp_config(
            task={"kind": "quadratic", "dim": 3},
            training={"rounds": 4, "local_steps": 2, "lr_schedule": "theory"},
        )
        del raw["data"]
        parse_config(raw)

    def test_unknown_node_key_rejected(self):
        # "arrival_rte" used to give dev1 an arrival rate of 0 without a word.
        nodes = [dict(n) for n in SEVEN_NODES]
        nodes[3]["arrival_rte"] = nodes[3].pop("arrival_rate")
        raw = mlp_config(topology={"num_exits": 3, "nodes": nodes})
        with pytest.raises(InvalidTopologyError, match="'dev1'.*arrival_rte"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "node, message",
        [
            ({"exit": 1.7}, "node dev1: exit must be an integer, got 1.7"),
            ({"exit": True}, "node dev1: exit must be an integer, got True"),
            ({"dataset_size": 100.9}, "node dev1: dataset_size must be an integer, got 100.9"),
            ({"arrival_rate": float("nan")}, "node dev1: arrival_rate must be finite"),
            ({"arrival_rate": float("inf")}, "node dev1: arrival_rate must be finite"),
            ({"budget": float("nan")}, "node dev1: budget must be >= 0, got nan"),
        ],
        ids=["fractional-exit", "bool-exit", "fractional-size", "nan-arrival", "inf-arrival",
             "nan-budget"],
    )
    def test_node_values_checked_at_parse_time(self, node, message):
        # Fractional integers used to be cut by int(), a NaN arrival rate wrote
        # NaN into every rate plan, and an infinite one warned on inf - inf;
        # all three exited 0.
        nodes = [dict(n) for n in SEVEN_NODES]
        nodes[3].update(node)
        with pytest.raises((ConfigParseError, InvalidTopologyError), match=message):
            parse_config(quadratic_config(topology={"num_exits": 3, "nodes": nodes}))

    @pytest.mark.parametrize(
        "flops",
        [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0], [float("nan"), 1.0, 2.0], [float("inf"), 1.0, 2.0]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_flops_checked_at_parse_time(self, flops):
        # [0, 1, 2] used to end flops_prop in a raw ValueError, [-1, 1, 2] to
        # write nan into every gen_proxy cell, and NaN to raise a
        # DivergenceError that blamed training round 1.
        with pytest.raises(ConfigParseError, match="flops must be finite and > 0"):
            parse_config(mlp_config(flops=flops))

    def test_shipped_configs_load(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        for path in paths:
            load_config(path)


class TestRunExperiment:
    def test_row_count_and_columns(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) - 1 == 2 * 2 * 2  # seeds x splits x strategies

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        first = run_experiment(path, out_dir=tmp_path / "a").read_bytes()
        second = run_experiment(path, out_dir=tmp_path / "b").read_bytes()
        assert first == second
        reports = [
            {p.name: p.read_bytes() for p in (tmp_path / run / "reports").iterdir()}
            for run in ("a", "b")
        ]
        assert reports[0] and reports[0] == reports[1]

    def test_shared_weights_share_rows_on_even_split(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        rows = [r for r in csv_path.read_text().strip().split("\n")[1:]]
        from csv import DictReader

        parsed = list(DictReader(csv_path.open()))
        even = [r for r in parsed if r["split"] == "33-33-33"]
        by_seed: dict[str, list] = {}
        for r in even:
            by_seed.setdefault(r["seed"], []).append(r)
        for seed_rows in by_seed.values():
            accs = {r["strategy"]: r["weighted_acc"] for r in seed_rows}
            assert accs["equal"] == accs["serving_rate"]

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out", seed_override=5)
        from csv import DictReader

        seeds = {r["seed"] for r in DictReader(csv_path.open())}
        assert seeds == {"5"}

    def test_reports_written_and_parseable(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        reports = sorted((csv_path.parent / "reports").glob("*.json"))
        assert len(reports) == 8
        payload = json.loads(reports[0].read_text())
        assert "rate_plan" in payload and "exit_weights" in payload
        assert payload["error_report"]["sigma_source"] == "estimated"

    def test_quadratic_bound_columns(self, tmp_path):
        raw = mlp_config(
            task={"kind": "quadratic", "dim": 3, "sigma_range": [0.1, 0.3]},
            training={"rounds": 30, "local_steps": 4, "lr_schedule": "theory"},
            strategies=[{"name": "serving_rate", "k": 0.1}],
            seeds=[3],
        )
        del raw["data"]
        path = write_config(tmp_path, raw)
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        from csv import DictReader

        rows = list(DictReader(csv_path.open()))
        assert len(rows) == 2
        for row in rows:
            assert row["exit1_acc"] == ""
            bound = float(row["opt_bound"])
            empirical = float(row["empirical_opt_error"])
            assert 0.0 <= empirical <= bound

    def test_explicit_budgets_path(self, tmp_path):
        raw = mlp_config(
            serving={"budgets": {"dev1": 0.6, "dev2": 0.6, "dev3": 0.6, "dev4": 0.6,
                                 "edge1": 0.8, "edge2": 0.8}},
        )
        path = write_config(tmp_path, raw)
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        from csv import DictReader

        rows = list(DictReader(csv_path.open()))
        assert {r["split"] for r in rows} == {"budgets"}
        # Serving-rate weights follow the realized plan: (0.4, 0.2, 0.4).
        report = json.loads(
            next((tmp_path / "out" / "reports").glob("*serving_rate*.json")).read_text()
        )
        np.testing.assert_allclose(report["exit_weights"], [0.4, 0.2, 0.4], atol=1e-12)

    def test_sweep_cartesian_count(self, tmp_path):
        raw = mlp_config(
            serving={"splits": [[5, 15, 80], [10, 30, 60], [20, 35, 45], [33, 33, 33],
                                [45, 35, 20], [60, 30, 10], [80, 15, 5]]},
            data={"partitions": ["equal", "cloud_bias_plus", "devices_bias_plus"],
                  "total_samples": 105, "test_samples": 35},
            strategies=[{"name": "equal"}, {"name": "serving_rate"},
                        {"name": "gen_error_adj"}],
            training={"rounds": 1, "local_steps": 1, "batch_size": 8, "base_lr": 0.2},
            seeds=[1, 2, 3],
        )
        path = write_config(tmp_path, raw)
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) - 1 == 3 * 7 * 3 * 3  # partitions x splits x strategies x seeds


class TestRandomTreesThroughRunner:
    def test_budgets_mode_rate_plans(self, tmp_path):
        strategies = ["equal", "flops_prop", "serving_rate", "gen_error_adj"]
        rng = np.random.default_rng(11)
        for i in range(16):
            topo = random_tree(rng, max_nodes=9)
            nodes = [
                {"id": n.id, "parent": n.parent, "exit": n.exit,
                 "arrival_rate": n.arrival_rate, "dataset_size": n.dataset_size}
                for n in topo.nodes
            ]
            raw = mlp_config(
                topology={"num_exits": topo.num_exits, "nodes": nodes},
                serving={"budgets": {n.id: n.budget for n in topo.nodes}},
                task={"kind": "quadratic", "dim": 2},
                flops=[float(e) for e in range(1, topo.num_exits + 1)],
                strategies=[{"name": name} for name in strategies],
                training={"rounds": 2, "local_steps": 2, "lr_schedule": "theory"},
                seeds=[i],
            )
            del raw["data"]
            out = tmp_path / f"tree{i}"
            rows = (
                run_experiment(parse_config(raw), out_dir=out).read_text().strip().split("\n")
            )
            assert len(rows) - 1 == len(strategies)
            reports = sorted((out / "reports").glob("*.json"))
            assert len(reports) == len(strategies)
            expected = brute_force_rate_plan(topo)
            for path in reports:
                plan = json.loads(path.read_text())["rate_plan"]
                for field in ("transmit", "serve", "fraction"):
                    want = getattr(expected, field)
                    assert plan[field].keys() == want.keys()
                    for node, value in want.items():
                        assert plan[field][node] == pytest.approx(value, abs=1e-12)
                np.testing.assert_allclose(
                    plan["lambda_exit"], expected.lambda_exit, rtol=0, atol=1e-12
                )


def reuse_config() -> dict:
    """Two splits, two partitions, and strategies whose training repeats across splits."""
    return mlp_config(
        serving={"splits": [[80, 15, 5], [45, 35, 20]]},
        data={"partitions": ["equal", "cloud_bias_plus"], "total_samples": 210,
              "test_samples": 105},
        strategies=[{"name": "equal"}, {"name": "flops_prop"},
                    {"name": "serving_rate", "k": 0.0}, {"name": "serving_rate", "k": 0.1}],
        seeds=[3],
    )


class TestGroupReuse:
    def test_all_splits_match_one_run_per_split(self, tmp_path):
        raw = reuse_config()
        whole = run_experiment(parse_config(raw), out_dir=tmp_path / "whole")
        header, *rows = whole.read_bytes().splitlines(keepends=True)
        reports = {p.name: p.read_bytes() for p in (tmp_path / "whole" / "reports").iterdir()}

        split_rows = []
        split_reports = {}
        for i, split in enumerate(raw["serving"]["splits"]):
            one = dict(raw, serving={"splits": [split]})
            out = tmp_path / f"split{i}"
            part_header, *part_rows = (
                run_experiment(parse_config(one), out_dir=out).read_bytes().splitlines(keepends=True)
            )
            assert part_header == header
            split_rows.extend(part_rows)
            split_reports.update({p.name: p.read_bytes() for p in (out / "reports").iterdir()})

        assert len(rows) == 2 * 2 * 4  # splits x partitions x strategies
        assert sorted(rows) == sorted(split_rows)
        assert reports == split_reports

    def test_each_group_trains_and_probes_once(self, tmp_path, monkeypatch):
        import fedexit.experiment as experiment

        runs = []
        probes = []
        tasks = []  # keeps every task alive so id(task) stays unique
        real_stacked, real_sigma = experiment.run_stacked, experiment.estimate_sigma

        def counting_stacked(jobs):
            for job in jobs:
                tasks.append(job.task)
                runs.append((id(job.task), job.sampling.probs.tobytes(),
                             job.weights.weights.tobytes()))
            return real_stacked(jobs)

        def counting_sigma(task, client, exit, *args, **kwargs):
            tasks.append(task)
            probes.append((id(task), client, exit))
            return real_sigma(task, client, exit, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_stacked", counting_stacked)
        monkeypatch.setattr(experiment, "estimate_sigma", counting_sigma)
        run_experiment(parse_config(reuse_config()), out_dir=tmp_path / "out")

        # Per group: equal and flops_prop once, serving_rate once per split at
        # each k. Clients: 4 devices (exit 1), 2 edges (exit 2), the cloud
        # (exit 3); with k=0.1 every client also trains the exits below its own.
        assert len(runs) == len(set(runs)) == 2 * (1 + 1 + 2 + 2)
        assert len({task for task, _, _ in runs}) == 2
        pairs_per_group = 7 + 3 + 1
        assert len(probes) == len(set(probes)) == 2 * pairs_per_group


    def test_each_trained_iterate_is_scored_once(self, tmp_path, monkeypatch):
        import fedexit.experiment as experiment

        scored = []
        real_score = experiment.score_exits

        def counting_score(task, w, *args, **kwargs):
            scores = real_score(task, w, *args, **kwargs)
            scored.append((w.tobytes(), len(scores)))
            return scores

        monkeypatch.setattr(experiment, "score_exits", counting_score)
        run_experiment(parse_config(reuse_config()), out_dir=tmp_path / "out")
        # Six trained iterates per group (see above), each scored on all three
        # exits by one backbone pass.
        assert len(scored) == len(set(scored)) == 2 * 6
        assert all(exits == 3 for _, exits in scored)


class TestStackedTraining:
    def test_one_stream_table_per_stream_set(self, tmp_path, monkeypatch):
        import fedexit.experiment as experiment
        import fedexit.fedtrain as fedtrain

        stacks = []
        tables = []
        real_stacked, real_states = experiment.run_stacked, fedtrain._round_states

        def counting_stacked(jobs):
            stacks.append(len(jobs))
            return real_stacked(jobs)

        def counting_states(cfg, n):
            tables.append(cfg.seed)
            return real_states(cfg, n)

        monkeypatch.setattr(experiment, "run_stacked", counting_stacked)
        monkeypatch.setattr(fedtrain, "_round_states", counting_states)
        raw = quadratic_config(
            serving={"splits": [[80, 15, 5], [45, 35, 20]]},
            strategies=[{"name": "equal", "k": 0.1}, {"name": "serving_rate", "k": 0.1},
                        {"name": "serving_rate", "k": 0.0}],
            seeds=[3, 4],
        )
        run_experiment(parse_config(raw), out_dir=tmp_path / "out")
        # Per seed: equal once, serving_rate once per split at each k, all in
        # one stack; their sampling matrices are the k=0 and the k=0.1 one.
        assert stacks == [2 * (1 + 2 + 2)]
        assert sorted(tables) == [3, 3, 4, 4]


class TestCompare:
    def test_identical_strategy_zero_delta(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        rows = compare(csv_path, "equal", "equal")
        assert all(r["delta_mean"] == 0.0 for r in rows)

    def test_missing_strategy(self, tmp_path):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        with pytest.raises(MissingRowsError):
            compare(csv_path, "equal", "flops_prop")


class TestCli:
    def test_run_and_compare(self, tmp_path, capsys):
        path = write_config(tmp_path, mlp_config())
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        csv_path = capsys.readouterr().out.strip()
        assert Path(csv_path).exists()
        code = cli_main(
            ["compare", csv_path, "--baseline", "equal", "--candidate", "serving_rate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_mean" in out and "80-15-5" in out

    def test_unknown_partition_is_reported(self, tmp_path, capsys):
        # A misspelt partition used to end the run in a raw KeyError traceback.
        raw = mlp_config()
        raw["data"] = dict(raw["data"], partitions=["equl"])
        path = write_config(tmp_path, raw)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "training",
        [
            {"rounds": 4, "local_steps": 2, "lr_schedule": "theroy"},
            {"rounds": 4, "batch_size": 8},
        ],
    )
    def test_bad_training_is_reported(self, tmp_path, capsys, training):
        path = write_config(tmp_path, mlp_config(training=training))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "serving",
        [
            {"budgets": {"edgeX": 0.2}},
            {"budgets": {"edge1": -0.2}},
            {"budgets": {"edge1": float("nan")}},
            {"splits": [[45, 35]]},
            {"splits": []},
        ],
        ids=["unknown-node", "negative-budget", "nan-budget", "short-split", "no-splits"],
    )
    def test_bad_serving_is_reported(self, tmp_path, capsys, serving):
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        path = write_config(tmp_path, dict(raw, serving=serving))
        out = tmp_path / "out"
        code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
        assert code == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            {"node": {"exit": 1.7}},
            {"node": {"dataset_size": 100.9}},
            {"topology": {"num_exits": 3.5}},
            {"node": {"arrival_rate": float("nan")}},
            {"node": {"arrival_rate": float("inf")}},
            {"node": {"budget": float("nan")}},
            {"flops": [0.0, 1.0, 2.0], "strategies": [{"name": "flops_prop"}]},
            {"flops": [-1.0, 1.0, 2.0]},
            {"flops": [float("nan"), 1.0, 2.0], "strategies": [{"name": "gen_error_adj"}]},
            {"task": {"eig_range": [1.0, float("inf")]}},
            {"task": {"sigma_range": [0.0, float("inf")]}},
            {"task": {"center_scale": float("inf")}},
            {"training": {"server_lr": float("nan")}},
            {"training": {"lr_schedule": "constant", "base_lr": float("nan")}},
            {"training": {"lr_schedule": "constant", "base_lr": -0.1}},
            {"training": {"projection_radius": float("nan")}},
            {"strategies": [{"name": "serving_rate", "k": float("nan")}]},
            {"nodes": NO_ARRIVALS},
            {"nodes": NO_ARRIVALS, "serving": {"budgets": {"dev1": 0.5}}},
            {"node": {"parent": "dev1"}},
            {"node": {"exit": 3}},
            {"nodes": {"edge1": {"arrival_rate": 1.0}}},
            {"node": {"arrival_rate": 0.1}},
        ],
        ids=["fractional-exit", "fractional-size", "fractional-num-exits", "nan-arrival",
             "inf-arrival", "nan-node-budget", "zero-flops", "negative-flops", "nan-flops",
             "inf-eig", "inf-sigma", "inf-center", "nan-server-lr", "nan-base-lr",
             "negative-base-lr", "nan-radius", "nan-k", "no-arrivals", "no-arrivals-budgets",
             "cycle", "exit-order", "non-leaf-arrival", "infeasible-split"],
    )
    def test_bad_value_is_reported(self, tmp_path, capsys, edit):
        # Each of these used to exit 0 with truncated values or nan in the
        # outputs, or end in a raw traceback or an error that blamed training;
        # a NaN k reported "exit 1 has no contributing client". A tree with no
        # arrivals ended in a raw ValueError, and a tree the split cannot be
        # planned on was refused only after the output directory was made.
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        edit = dict(edit)
        raw["topology"]["nodes"][3].update(edit.pop("node", {}))
        by_id = edit.pop("nodes", {})
        for node in raw["topology"]["nodes"]:
            node.update(by_id.get(node["id"], {}))
        for section in ("topology", "task", "training"):
            raw[section].update(edit.pop(section, {}))
        raw.update(edit)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, line",
        [
            ({"node": {"arrival_rate": float("nan")}},
             "error: node dev1: arrival_rate must be finite and >= 0, got nan"),
            ({"drop": "strategies"}, "error: missing key 'strategies'"),
        ],
        ids=["nan-arrival", "missing-key"],
    )
    def test_refusal_is_one_plain_line(self, tmp_path, capsys, edit, line):
        # These used to print a repr, as in "error: malformed config:
        # ValueError('node dev1: ...')" or "KeyError('strategies')".
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["topology"]["nodes"][3].update(edit.get("node", {}))
        raw.pop(edit.get("drop"), None)
        path = write_config(tmp_path, raw)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line + "\n"

    def test_bad_task_is_reported(self, tmp_path, capsys):
        raw = quadratic_config()
        raw["task"]["eig_range"] = [0.0, 1.0]
        path = write_config(tmp_path, raw)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: bad task section: eig_range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_diverging_run_is_reported(self, tmp_path, capsys):
        # This used to exit 0 and write nan into weighted_loss and
        # empirical_opt_error.
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["training"].update(lr_schedule="constant", base_lr=1e200, rounds=20)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(
            r"error: seed 1, strategy \w+, k=0\.1, round \d+: the iterate is not finite", err
        )
        assert not (out / "results.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("stage", ["training", "evaluation"])
    def test_failed_run_makes_no_output_directory(self, tmp_path, capsys, monkeypatch, stage):
        # The output directory and its reports/ used to be made before
        # planning, so a run refused later left an empty reports/ behind.
        import fedexit.experiment as experiment

        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        if stage == "training":
            raw["training"].update(lr_schedule="constant", base_lr=1e200, rounds=20)
        else:
            def refuse(*args):
                raise SingularSystemError("refused in evaluation")

            monkeypatch.setattr(experiment, "quadratic_minimizers", refuse)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_config_is_reported(self, tmp_path, capsys):
        code = cli_main(["run", str(tmp_path / "missing.json")])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_compare_missing_rows_is_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, mlp_config())
        csv_path = run_experiment(path, out_dir=tmp_path / "out")
        code = cli_main(
            ["compare", str(csv_path), "--baseline", "equal", "--candidate", "flops_prop"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err
