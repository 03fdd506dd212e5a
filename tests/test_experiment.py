"""Config parsing, the experiment grid, CSV/report outputs, and the CLI."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from csv import DictReader
from pathlib import Path

import numpy as np
import pytest

import fedexit
from conftest import random_tree
import shipped_digests
from shipped_digests import CONFIG_DIR, SHIPPED_DIGESTS, digests, moved, toolchain
from fedexit.cli import main as cli_main
from fedexit.errors import (
    ConfigParseError,
    EmptyPoolError,
    InvalidTopologyError,
    MissingRowsError,
    MixedKError,
    SingularSystemError,
)
from fedexit.experiment import (
    CSV_COLUMNS,
    compare,
    load_config,
    parse_config,
    run_experiment,
)
from fedexit.fedtrain import TrainConfig
from fedexit.topology import brute_force_rate_plan


EMPTY_CLOUD = "exit 3 has no pooled data: dataset_size is 0 at cloud"

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


# The keys of a report's error_report, per task backend.
ERROR_REPORT_KEYS = {
    "mlp": {"tv", "gen_proxy"},
    "quadratic": {"tv", "gen_proxy", "heterogeneity", "grad_second_moment_max",
                  "grad_second_moment_per_pair", "B", "opt_bound", "empirical_opt_error",
                  "bias_bound", "loss_cap"},
}


# Every key each config section accepts, sorted.
ACCEPTED_KEYS = {
    "config": ["data", "flops", "output_dir", "seeds", "serving", "strategies", "task",
               "topology", "training"],
    "topology": ["nodes", "num_exits"],
    "node": ["arrival_rate", "dataset_size", "exit", "id", "parent"],
    "serving": ["budgets", "splits"],
    "data": ["partitions", "test_samples", "total_samples"],
    "mlp task": ["hidden_dim", "input_dim", "kind", "num_classes", "teacher_gain"],
    "quadratic task": ["center_scale", "dim", "eig_range", "kind", "sigma_range"],
    "training": ["base_lr", "batch_size", "local_steps", "lr_schedule", "rounds", "server_lr"],
    "strategy": ["k", "name"],
}


TRAINING, NODE = ACCEPTED_KEYS["training"], ACCEPTED_KEYS["node"]


def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def strict_json(text: str):
    """``json.loads`` that refuses ``NaN`` and ``Infinity`` tokens and numbers that overflow."""

    def refuse(token: str):
        raise ValueError(f"{token} is not JSON")

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"{token} is not a finite float")
        return value

    return json.loads(text, parse_constant=refuse, parse_float=finite)


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

    def test_integer_too_long_to_read(self, tmp_path):
        # json.loads refuses an integer literal of more than 4,300 digits with
        # a plain ValueError, which used to escape as a raw traceback.
        path = tmp_path / "config.json"
        text = json.dumps(mlp_config()).replace('"rounds": 4', '"rounds": 1' + "0" * 5000)
        path.write_text(text)
        with pytest.raises(ConfigParseError, match="invalid JSON in .*4300 digits"):
            load_config(path)

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_a_fault_in_parsing_surfaces_as_itself(self, monkeypatch, error):
        # parse_config used to catch every TypeError and ValueError and report
        # it as "malformed config: ..." or as a ConfigParseError, hiding the bug.
        import fedexit.config as config

        def broken(*args, **kwargs):
            raise error("a fault in the planner")

        monkeypatch.setattr(config, "compute_rate_plan", broken)
        with pytest.raises(error, match="^a fault in the planner$"):
            parse_config(mlp_config())

    def test_split_and_budgets_mutually_exclusive(self, tmp_path):
        raw = mlp_config()
        raw["serving"]["budgets"] = {"dev1": 0.5}
        with pytest.raises(ConfigParseError):
            parse_config(raw)

    @pytest.mark.parametrize(
        "serving, message",
        [
            ({"budgets": {"edgeX": 0.2}}, r"unknown serving budgets keys \['edgeX'\]"),
            ({"budgets": {"edge1": -0.2}}, "node edge1: budget must be >= 0, got -0.2"),
            ({"budgets": {"edge1": float("nan")}}, "node edge1: budget must be >= 0, got nan"),
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
            ("topology", "num_exit"),
            ("training", "momentum"),
            ("training", "mu"),
            ("training", "smoothness"),
            ("training", "projection_radius"),
            ("node", "budget"),
        ],
    )
    def test_unknown_key_rejected(self, section, key):
        # A misspelt key used to run silently on the default value. momentum
        # and the training mu, smoothness and projection_radius changed the
        # run while a quadratic report kept its task's bound, and a node's
        # budget was overwritten by every serving point.
        raw = mlp_config()
        if section is None:
            raw[key] = 1
        elif section == "node":
            nodes = [dict(SEVEN_NODES[0], **{key: 1e6}), *SEVEN_NODES[1:]]
            raw["topology"] = dict(raw["topology"], nodes=nodes)
        else:
            raw[section] = dict(raw[section], **{key: 1e6})
        with pytest.raises((ConfigParseError, InvalidTopologyError), match=f"unknown .*{key}"):
            parse_config(raw)

    @pytest.mark.parametrize("section", sorted(ACCEPTED_KEYS))
    def test_accepted_keys(self, section):
        # The refusal of one more key lists every key the section accepts,
        # so adding an option shows up here.
        raw = quadratic_config() if section == "quadratic task" else mlp_config()
        raw = json.loads(json.dumps(raw))  # a deep copy: SEVEN_NODES is shared
        target = {
            "config": raw,
            "topology": raw["topology"],
            "node": raw["topology"]["nodes"][0],
            "serving": raw["serving"],
            "data": raw.get("data"),
            "mlp task": raw["task"],
            "quadratic task": raw["task"],
            "training": raw["training"],
            "strategy": raw["strategies"][0],
        }[section]
        target["extra"] = 1
        with pytest.raises((ConfigParseError, InvalidTopologyError),
                           match=r"unknown .*\['extra'\]; known: ") as refused:
            parse_config(raw)
        assert str(refused.value).split("known: ")[1] == str(ACCEPTED_KEYS[section])

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
            ({"rounds": 4, "local_steps": 2, "batch_size": 0}, "batch_size must be >= 1"),
            ({"rounds": 4, "local_steps": 2, "server_lr": float("nan")}, "server_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": float("nan")}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": float("inf")}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "base_lr": -0.1}, "base_lr"),
            ({"rounds": 4, "local_steps": 2, "projection_radius": float("nan")},
             "projection_radius"),
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
        parse_config(with_value(20.0))  # 20 training samples leave none of 7 clients empty

    def test_training_is_read_once_into_typed_values(self):
        # The section used to be kept as raw JSON and read again per group, so
        # rounds stayed the float 4.0.
        training = {"rounds": 4.0, "local_steps": 2.0, "batch_size": 8.0}
        cfg = parse_config(mlp_config(training=training))
        assert cfg.training == {"rounds": 4, "local_steps": 2, "batch_size": 8}
        assert all(type(value) is int for value in cfg.training.values())

    def test_negative_seed_rejected(self, tmp_path):
        # A negative seed used to end the run in a raw ValueError traceback.
        with pytest.raises(ConfigParseError, match="^seed must be >= 0, got -1$"):
            parse_config(mlp_config(seeds=[1, -1]))
        path = write_config(tmp_path, mlp_config())
        with pytest.raises(ConfigParseError, match="^seed must be >= 0, got -1$"):
            load_config(path, seeds=[-1])

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
        with pytest.raises(ConfigParseError, match="'dev1'.*arrival_rte"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "node, message",
        [
            ({"exit": 1.7}, "node dev1: exit must be an integer, got 1.7"),
            ({"exit": True}, "node dev1: exit must be an integer, got True"),
            ({"dataset_size": 100.9}, "node dev1: dataset_size must be an integer, got 100.9"),
            ({"arrival_rate": float("nan")}, "node dev1: arrival_rate must be finite"),
            ({"arrival_rate": float("inf")}, "node dev1: arrival_rate must be finite"),
            ({"budget": float("nan")}, r"unknown node 'dev1' keys \['budget'\]"),
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
        csv_path = run_experiment(load_config(path, seeds=[5]), out_dir=tmp_path / "out")
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

    @pytest.mark.parametrize("kind", ["mlp", "quadratic"])
    def test_error_report_keys(self, tmp_path, kind):
        # MLP reports used to carry seven null or empty keys of the quadratic
        # bound machinery, and filed the estimated noise scale under
        # grad_second_moment_per_pair.
        raw = mlp_config(seeds=[1]) if kind == "mlp" else quadratic_config(seeds=[1])
        csv_path = run_experiment(parse_config(raw), out_dir=tmp_path / "out")
        reports = list((csv_path.parent / "reports").iterdir())
        assert len(reports) == 4
        for path in reports:
            assert set(json.loads(path.read_text())["error_report"]) == ERROR_REPORT_KEYS[kind]

    def test_exit_accuracies_are_the_reports_iid_accuracies(self, tmp_path):
        csv_path = run_experiment(parse_config(mlp_config()), out_dir=tmp_path / "out")
        for row in DictReader(csv_path.open()):
            name = (f"report_s{row['seed']}_{row['partition']}_{row['split']}_"
                    f"{row['strategy']}_k{float(row['k']):g}.json")
            payload = json.loads((csv_path.parent / "reports" / name).read_text())
            iid = payload["serving"]["iid_exit_accuracy"]
            assert [float(row[f"exit{e}_acc"]) for e in (1, 2, 3)] == iid

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

    def test_each_group_trains_once_and_never_probes(self, tmp_path, monkeypatch):
        # Each group used to probe the noise scale of every (client, exit)
        # pair with full-pool gradients, for a report entry nothing read.
        import fedexit.experiment as experiment
        import fedexit.fedtrain as fedtrain
        import fedexit.theory as theory

        runs = []
        probes = []
        tasks = []  # keeps every task alive so id(task) stays unique
        real_round = fedtrain._stacked_round

        def counting_round(sets, pools):
            for job in (job for members in sets for job in members):
                tasks.append(job.task)
                runs.append((id(job.task), job.sampling.probs.tobytes(),
                             job.weights.weights.tobytes()))
            return real_round(sets, pools)

        def counting_sigma(task, client, exit, *args, **kwargs):
            probes.append((id(task), client, exit))

        monkeypatch.setattr(fedtrain, "_stacked_round", counting_round)
        for module in (theory, experiment):
            monkeypatch.setattr(module, "estimate_sigma", counting_sigma)
        run_experiment(parse_config(reuse_config()), out_dir=tmp_path / "out")

        # Per group: equal and flops_prop once, serving_rate once per split at
        # each k. Clients: 4 devices (exit 1), 2 edges (exit 2), the cloud
        # (exit 3); with k=0.1 every client also trains the exits below its own.
        assert len(runs) == len(set(runs)) == 2 * (1 + 1 + 2 + 2)
        assert len({task for task, _, _ in runs}) == 2
        assert probes == []


    def test_each_cell_is_scored_once(self, tmp_path, monkeypatch):
        # Each trained iterate used to be scored once more, outside the serving
        # pass of its cells, for the CSV's i.i.d. accuracies and losses.
        import fedexit.experiment as experiment
        import fedexit.mlp as mlp
        import fedexit.serving as serving

        scored = []
        real_score = mlp.score_exits

        def counting_score(task, w, *args, **kwargs):
            scores = real_score(task, w, *args, **kwargs)
            scored.append(len(scores))
            return scores

        # Patched wherever it may be imported, so a second scorer is counted too.
        for module in (mlp, serving, experiment):
            monkeypatch.setattr(module, "score_exits", counting_score, raising=False)
        run_experiment(parse_config(reuse_config()), out_dir=tmp_path / "out")
        # 2 partitions x 2 splits x 4 strategies, each cell scored on all
        # three exits by the one backbone pass of its serving simulation.
        assert scored == [3] * (2 * 2 * 4)


class TestStackedTraining:
    def test_one_stream_table_per_stream_set(self, tmp_path, monkeypatch):
        # A stack opens one sample stream and one local stream per client for
        # each stream set, once for the whole run.
        import fedexit.fedtrain as fedtrain
        import fedexit.rng as rngmod

        stacks = []
        opened = []
        real_round, real_stream = fedtrain._stacked_round, rngmod.stream

        def counting_round(sets, pools):
            stacks.append(sum(map(len, sets)))
            return real_round(sets, pools)

        def counting_stream(seed, *key):
            if key[0] in (rngmod.ROUND_SAMPLE, rngmod.LOCAL):
                opened.append((seed, *key))
            return real_stream(seed, *key)

        monkeypatch.setattr(fedtrain, "_stacked_round", counting_round)
        monkeypatch.setattr(rngmod, "stream", counting_stream)
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
        n = len(parse_config(raw).topology.client_ids)
        want = [(seed, rngmod.ROUND_SAMPLE) for seed in (3, 3, 4, 4)]
        want += [(seed, rngmod.LOCAL, i) for seed in (3, 3, 4, 4) for i in range(n)]
        assert sorted(opened) == sorted(want)

    def test_one_stream_table_per_mlp_stream_set(self, tmp_path, monkeypatch):
        # The MLP twin of the test above, at the shipped grids' network size:
        # each stream set's jobs train as one stack, so the set opens its
        # streams once, not once per job.
        import fedexit.rng as rngmod

        opened = []
        real_stream = rngmod.stream

        def counting_stream(seed, *key):
            if key[0] in (rngmod.ROUND_SAMPLE, rngmod.LOCAL):
                opened.append((seed, *key))
            return real_stream(seed, *key)

        monkeypatch.setattr(rngmod, "stream", counting_stream)
        raw = reuse_config()
        raw.update(task={"kind": "mlp", "input_dim": 16, "hidden_dim": 32, "num_classes": 6},
                   seeds=[3, 4])
        run_experiment(parse_config(raw), out_dir=tmp_path / "out")
        # Per (seed, partition) group, two stream sets: the four k=0 jobs
        # (equal, flops_prop, serving_rate at each split) and the two k=0.1 ones.
        sets = [seed for seed in (3, 4) for _ in range(2 * 2)]
        n = len(parse_config(raw).topology.client_ids)
        want = [(seed, rngmod.ROUND_SAMPLE) for seed in sets]
        want += [(seed, rngmod.LOCAL, i) for seed in sets for i in range(n)]
        assert sorted(opened) == sorted(want)

    @pytest.mark.parametrize("schedule", ["theory", "constant"])
    def test_quadratic_jobs_carry_their_task_constants(self, tmp_path, monkeypatch, schedule):
        # opt_bound assumes the task's mu, smoothness and radius, which training
        # reads from the job's task; a constant schedule used to train with
        # mu = smoothness = 0.
        import fedexit.experiment as experiment

        jobs = []
        real_stacked = experiment.run_stacked

        def recording_stacked(stack):
            jobs.extend(stack)
            return real_stacked(stack)

        monkeypatch.setattr(experiment, "run_stacked", recording_stacked)
        training = {"rounds": 4, "local_steps": 2, "lr_schedule": schedule}
        raw = quadratic_config(training=training, seeds=[3, 4])
        config = parse_config(raw)
        run_experiment(config, out_dir=tmp_path / "out")
        assert len({id(job.task) for job in jobs}) == 2
        for job in jobs:
            cfg = job.cfg
            # Built from the parsed section, with no second read of the JSON.
            assert cfg.seed in (3, 4) and cfg == TrainConfig(**config.training, seed=cfg.seed)

    def test_bound_measures_init_dist_from_the_training_start(self, monkeypatch):
        # opt_bound's init_dist_sq is ||w_0 - w*||^2 for the w_0 that training
        # starts from, the seed's draw or a job's own w_init alike.
        import dataclasses

        import fedexit.experiment as experiment
        from fedexit import fedtrain
        from fedexit.quadratic import quadratic_minimizers

        dists = []
        real_bound = experiment.opt_error_bound

        def recording_bound(params, b_value, rounds, init_dist_sq):
            dists.append(init_dist_sq)
            return real_bound(params, b_value, rounds, init_dist_sq)

        monkeypatch.setattr(experiment, "opt_error_bound", recording_bound)
        config = parse_config(quadratic_config(seeds=[3]))
        group = experiment._build_group(config, 3, config.partitions[0])
        split = config.splits[0]
        cell = experiment._plan_cell(config, group, split, config.strategies[0])
        moved = dataclasses.replace(cell.job, w_init=np.full(group.task.dim, 0.5))
        dists.clear()
        want = []
        for job in (cell.job, moved):
            experiment._quadratic_bounds(group, split, cell.pools, job)
            _, start = fedtrain._start(job)
            w_star = quadratic_minimizers(job.task, job.weights, cell.pools).w_star
            want.append(float(np.sum((start - w_star) ** 2)))
        assert dists == want and want[0] != want[1]


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

    def test_strategy_with_several_k_is_refused(self, tmp_path, capsys):
        # Rows were keyed by strategy name alone, so the k=0.2 row of each
        # seed silently replaced the k=0 and k=0.1 rows.
        csv_path = tmp_path / "results.csv"
        rows = [",".join(CSV_COLUMNS)]
        for strategy, k, acc in [("equal", 0.0, 0.5), ("serving_rate", 0.0, 0.6),
                                 ("serving_rate", 0.1, 0.7), ("serving_rate", 0.2, 0.8)]:
            row = {"seed": 1, "partition": "equal", "split": "45-35-20", "strategy": strategy,
                   "k": k, "weighted_acc": acc}
            rows.append(",".join(str(row.get(col, "")) for col in CSV_COLUMNS))
        csv_path.write_text("\n".join(rows) + "\n")
        with pytest.raises(MixedKError, match=r"'serving_rate' has rows at k = 0.0, 0.1, 0.2"):
            compare(csv_path, "equal", "serving_rate")
        code = cli_main(["compare", str(csv_path), "--baseline", "serving_rate",
                         "--candidate", "equal"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: strategy 'serving_rate' has rows at k")
        assert compare(csv_path, "equal", "equal")[0]["delta_mean"] == 0.0


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

    def test_unserved_exit_reads_null(self, tmp_path):
        # A zero share at the cloud leaves exit 3 serving nothing; its served
        # accuracy, loss and gap were written as NaN, which no JSON reader takes.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["serving"]["splits"][2] = [20, 35, 0]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 0
        reports = sorted((out / "reports").iterdir())
        assert len(reports) == len(raw["serving"]["splits"]) * len(raw["strategies"])
        for report in reports:
            serving = strict_json(report.read_text())["serving"]
            unserved = [2] if "_20-35-0_" in report.name else []
            for key in ("exit_accuracy", "exit_mean_loss", "serving_gap"):
                nulls = [e for e, value in enumerate(serving[key]) if value is None]
                assert nulls == unserved, (report.name, key)

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The noise-scale probe took gradients over each client's whole pool,
        # a matmul OpenBLAS splits across threads, so at hidden_dim 128 the
        # reports' last digits differed between one and two threads.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["task"]["hidden_dim"] = 128
        raw["serving"]["splits"] = [[33, 33, 33]]
        raw["strategies"] = [{"name": "equal"}]
        raw["training"]["rounds"] = 2
        raw["seeds"] = [1]
        path = write_config(tmp_path, raw)
        src = str(Path(fedexit.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-m", "fedexit.cli", "run", str(path), "--out",
                            str(out)], env=env, check=True, capture_output=True)
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 2  # results.csv and one report
        assert outputs[0] == outputs[1]

    def test_empty_weighted_pool_names_its_nodes(self, tmp_path, capsys):
        # The cloud is exit 3's only client at k=0.1. With no data there, the
        # run was refused as "a bound does not fit in a float", naming task
        # and training keys that were not the cause.
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["topology"]["nodes"][0]["dataset_size"] = 0
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        assert capsys.readouterr().err == f"error: {EMPTY_CLOUD}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_empty_unweighted_pool_names_its_nodes(self, tmp_path, capsys, k):
        # Split [50, 50, 0] gives exit 3 weight 0 under serving_rate, so the
        # check of weighted pools let it through, and the bounds divided by
        # the empty pool: "a bound does not fit in a float".
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["topology"]["nodes"][0]["dataset_size"] = 0
        raw.update(serving={"splits": [[50, 50, 0]]}, strategies=[{"name": "serving_rate", "k": k}],
                   seeds=[1], training=dict(raw["training"], rounds=20))
        with pytest.raises(EmptyPoolError, match=f"^{EMPTY_CLOUD}$"):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {EMPTY_CLOUD}\n"
        assert not out.exists()

    def test_mlp_client_without_samples_names_total_samples(self, tmp_path, capsys):
        # Ten samples under devices_bias_plus leave the cloud none. The run
        # warned of an invalid divide, then stopped at "client cloud has no
        # samples", or named dataset_size, which an MLP config does not set.
        raw = json.loads((CONFIG_DIR / "offexit_sweep_cloud_bias.json").read_text())
        raw["data"].update(total_samples=10, partitions=["devices_bias_plus"])
        raw.update(serving={"splits": [[50, 50, 0]]}, strategies=[{"name": "serving_rate", "k": 0}])
        message = ("data total_samples 10 leaves cloud with no training samples under "
                   "partition 'devices_bias_plus'")
        with pytest.raises(ConfigParseError, match=f"^{message}$"):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_empty_edge_still_runs(self, tmp_path):
        # Exit 2 keeps the other edge and the cloud in its pool.
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["topology"]["nodes"][1]["dataset_size"] = 0
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 0
        rows = list(DictReader((out / "results.csv").open()))
        assert len(rows) == len(raw["strategies"])
        assert all(math.isfinite(float(row["empirical_opt_error"])) for row in rows)

    @pytest.mark.parametrize("topology", [{"nodes": []}, {"nodes": [], "num_exits": 3}],
                             ids=["no-num-exits", "num-exits"])
    def test_empty_node_list_is_reported(self, tmp_path, capsys, topology):
        # Used to read "max() arg is an empty sequence", or with num_exits
        # "no node has a positive arrival rate".
        path = write_config(tmp_path, mlp_config(topology=topology))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: topology nodes is empty\n"
        assert not out.exists()

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
        "config, edit, line",
        [
            ("quadratic_bounds", {"node": {"arrival_rate": float("nan")}},
             "error: node dev1: arrival_rate must be finite and >= 0, got nan"),
            ("quadratic_bounds", {"drop": "strategies"}, "error: missing key 'strategies'"),
            ("quadratic_bounds", {"training": {"momentum": 0.9}},
             f"error: unknown training keys ['momentum']; known: {TRAINING}"),
            ("quadratic_bounds", {"training": {"mu": 1e-3, "smoothness": 1e3}},
             f"error: unknown training keys ['mu', 'smoothness']; known: {TRAINING}"),
            ("quadratic_bounds", {"training": {"projection_radius": 5.0}},
             f"error: unknown training keys ['projection_radius']; known: {TRAINING}"),
            ("quadratic_bounds", {"node": {"budget": 0.3}},
             f"error: unknown node 'dev1' keys ['budget']; known: {NODE}"),
            ("strategy_grid_equal", {"training": {"lr_schedule": "theory"}},
             "error: the theory schedule needs a quadratic task's mu/smoothness"),
            ("quadratic_bounds", {"strategies": []}, "error: need at least one strategy"),
            ("strategy_grid_equal", {"data": {"partitions": []}},
             "error: need at least one partition"),
            ("quadratic_bounds", {"strategies": ["equal", "serving_rate"]},
             "error: strategy must be a JSON object, got 'equal'"),
            ("quadratic_bounds", {"serving": "splits"},
             "error: serving must be a JSON object, got 'splits'"),
            ("quadratic_bounds", {"topology": {"nodes": ["cloud"]}},
             "error: node must be a JSON object, got 'cloud'"),
            ("quadratic_bounds", {"task": "quadratic"},
             "error: task needs a kind in ['mlp', 'quadratic'], got 'quadratic'"),
            ("quadratic_bounds", {"topology": "tree"},
             "error: topology must be a JSON object, got 'tree'"),
            ("quadratic_bounds", {"serving": {"budgets": [0.5]}},
             "error: serving budgets must be a JSON object, got [0.5]"),
            ("offexit_sweep_cloud_bias", {"strategies": [{"name": "serving_rate", "k": "0.1"}]},
             "error: strategy k must be a number, got '0.1'"),
            ("strategy_grid_equal", {"training": {"base_lr": "0.2"}},
             "error: cannot build the training config: base_lr must be a number, got '0.2'"),
            ("quadratic_bounds", {"training": {"server_lr": True}},
             "error: cannot build the training config: server_lr must be a number, got True"),
            ("quadratic_bounds", {"training": {"server_lr": 10**401}},
             "error: cannot build the training config: server_lr must be within a float's range"),
            ("quadratic_bounds", {"node": {"arrival_rate": True}},
             "error: node dev1: arrival_rate must be a number, got True"),
            ("strategy_grid_equal", {"task": {"kind": "mlp", "teacher_gain": "2.5"}},
             "error: bad task section: teacher_gain must be a number, got '2.5'"),
            ("quadratic_bounds", {"task": {"kind": "quadratic", "center_scale": "1"}},
             "error: bad task section: center_scale must be a number, got '1'"),
            ("strategy_grid_equal", {"flops": ["1e8", "7e8", "2e9"]},
             "error: flops must be a number, got '1e8'"),
            ("quadratic_bounds", {"serving": {"splits": [[True, False, False]]}},
             "error: split must be a number, got True"),
            ("quadratic_bounds", {"serving": {"budgets": {"edge1": "0.5"}}},
             "error: node edge1: budget must be a number, got '0.5'"),
            ("strategy_grid_equal", {"data": {"partitions": "equal"}},
             "error: partitions must be a JSON array, got 'equal'"),
            ("quadratic_bounds", {"strategies": {"name": "equal"}},
             "error: strategies must be a JSON array, got {'name': 'equal'}"),
            ("quadratic_bounds", {"seeds": 5}, "error: seeds must be a JSON array, got 5"),
            ("quadratic_bounds", {"serving": {"splits": "45-35-20"}},
             "error: serving splits must be a JSON array, got '45-35-20'"),
            ("quadratic_bounds", {"serving": {"splits": ["45-35-20"]}},
             "error: split must be a JSON array, got '45-35-20'"),
            ("quadratic_bounds", {"task": {"kind": "quadratic", "eig_range": {"low": 1}}},
             "error: task eig_range must be a JSON array, got {'low': 1}"),
            ("quadratic_bounds", {"topology": {"nodes": "cloud"}},
             "error: topology nodes must be a JSON array, got 'cloud'"),
            ("quadratic_bounds", {"data": {"total_samples": 1200}},
             "error: a quadratic task reads no data section: its sizes come from the nodes"),
            ("quadratic_bounds", {"training": {"base_lr": 0.1}},
             "error: the theory schedule reads no base_lr; its steps follow mu"),
            ("quadratic_bounds", {"output_dir": ["a"]},
             "error: output_dir must be a string, got ['a']"),
            ("quadratic_bounds", {"node": {"id": 5}}, "error: node id must be a string, got 5"),
            ("quadratic_bounds", {"node": {"parent": ["edge1"]}},
             "error: node dev1: parent must be a string, got ['edge1']"),
            ("quadratic_bounds", {"task": {"kind": ["quadratic"]}},
             "error: task kind must be a string, got ['quadratic']"),
            ("quadratic_bounds", {"strategies": [{"name": ["equal"], "k": 0.1}]},
             "error: strategy name must be a string, got ['equal']"),
            ("quadratic_bounds", {"training": {"lr_schedule": ["theory"]}},
             "error: cannot build the training config: lr_schedule must be a string, "
             "got ['theory']"),
            ("strategy_grid_equal", {"data": {"partitions": [["equal"]]}},
             "error: partition must be a string, got ['equal']"),
        ],
        ids=["nan-arrival", "missing-key", "momentum", "mu-smoothness", "projection-radius",
             "node-budget", "mlp-theory", "no-strategies", "no-partitions", "string-strategy",
             "string-serving", "string-node", "string-task", "string-topology",
             "list-budgets", "string-k", "string-base-lr", "bool-server-lr", "huge-server-lr",
             "bool-arrival",
             "string-gain", "string-center", "string-flops", "bool-split", "string-budget",
             "string-partitions", "object-strategies", "scalar-seeds", "string-splits",
             "string-split", "object-eig-range", "string-nodes", "quadratic-data",
             "theory-base-lr", "list-output-dir", "int-node-id", "list-node-parent",
             "list-task-kind", "list-strategy-name", "list-lr-schedule", "list-partition"],
    )
    def test_refusal_is_one_plain_line(self, tmp_path, capsys, monkeypatch, config, edit,
                                       line):
        # These used to print a repr, as in "error: malformed config:
        # ValueError('node dev1: ...')" or "KeyError('strategies')", to run
        # (momentum, mu, projection_radius, a node budget, string or bool
        # numbers, a quadratic data section, base_lr under the theory
        # schedule), to end in a raw traceback (no strategies or partitions,
        # a string node, a server_lr of 402 digits), or to name the
        # characters of a string ("unknown strategy keys ['a', ...]",
        # "unknown partition 'e'"), or to take a list or a number where a
        # name belongs (an output directory named "['a']", a node named '5',
        # "unhashable type: 'list'").
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        edit = dict(edit)
        raw["topology"]["nodes"][3].update(edit.pop("node", {}))
        raw.pop(edit.pop("drop", None), None)
        for section in {"data", "training"} & set(edit):
            raw.setdefault(section, {}).update(edit.pop(section))
        raw.update(edit)
        path = write_config(tmp_path, raw)
        monkeypatch.chdir(tmp_path)  # where a config's output_dir would be made
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "section, key, value",
        [("task", "center_scale", 1e300), ("task", "eig_range", [1.0, 1e300]),
         ("training", "server_lr", 1e308), ("task", "sigma_range", [0.0, 1e300])],
        ids=["center-scale", "eig-range", "server-lr", "sigma-range"],
    )
    def test_bound_overflow_is_refused(self, tmp_path, capsys, monkeypatch, section, key,
                                       value):
        # The first two ended in a raw OverflowError from QuadraticTask.loss_cap
        # (exit 1); the last two wrote opt_bound as nan to results.csv (exit 0).
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: seed 1, strategy serving_rate, k=0.1: a bound does not fit in a float; "
            "lower the task's eig_range, center_scale or sigma_range, or server_lr\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("value", [None, -5, 0])
    @pytest.mark.parametrize("key", ["total_samples", "test_samples"])
    def test_mlp_sample_counts_are_required(self, tmp_path, capsys, key, value):
        # A missing count was refused only once training (total_samples) or
        # all training (test_samples) had run, and -5 ended in a raw
        # numpy ValueError.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["data"][key] = value
        if value is None:
            del raw["data"][key]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        expected = (f"missing key {key!r}" if value is None
                    else f"data {key} must be >= 1, got {value}")
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_bad_task_is_reported(self, tmp_path, capsys):
        raw = quadratic_config()
        raw["task"]["eig_range"] = [0.0, 1.0]
        path = write_config(tmp_path, raw)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: bad task section: eig_range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError("Unable to allocate 50.9 TiB for an array"),
          "error: out of memory: Unable to allocate 50.9 TiB for an array\n"),
         (MemoryError(), "error: out of memory\n")],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        # training.rounds: 1e12 on quadratic_bounds ended in a raw
        # _ArrayMemoryError traceback with exit status 1.
        import fedexit.experiment as experiment

        def refuse(jobs):
            raise error

        monkeypatch.setattr(experiment, "run_stacked", refuse)
        out = tmp_path / "out"
        path = CONFIG_DIR / "quadratic_bounds.json"
        code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
        assert code == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, edits, keys",
        [
            ("strategy_grid_equal", {"training": {"local_steps": 1e9}},
             "training batch_size and local_steps, and task input_dim:"),
            ("strategy_grid_equal", {"training": {"batch_size": 1e9}},
             "training batch_size and local_steps, and task input_dim:"),
            ("quadratic_bounds", {"task": {"dim": 10_000}, "training": {"local_steps": 2_000}},
             "training local_steps and task dim:"),
            ("strategy_grid_equal", {"task": {"hidden_dim": 5_000}},
             "task input_dim, hidden_dim and num_classes:"),
            # Uncounted, these hidden states peaked at 1,122.8 MiB in training.
            ("strategy_grid_equal", {"task": {"hidden_dim": 256},
                                     "training": {"batch_size": 80_000}},
             "training batch_size and task hidden_dim:"),
            # --seed-override 1 leaves one (seed, partition) group to count.
            ("strategy_grid_equal", {"data": {"total_samples": 1e12}},
             "data total_samples and test_samples, and task input_dim:"),
            ("strategy_grid_equal", {"data": {"test_samples": 1e12}},
             "data total_samples and test_samples, and task input_dim:"),
            ("quadratic_bounds", {"task": {"dim": 10_000}}, "task dim:"),
        ],
        ids=["local-steps", "batch-size", "quadratic-draw", "mlp-slab", "mlp-hidden-states",
             "total-samples", "test-samples", "quadratic-matrices"],
    )
    def test_oversized_training_table_is_refused_at_parse(
        self, tmp_path, capsys, monkeypatch, config, edits, keys
    ):
        # Each of these reached the allocator (or numpy's dimension check) in
        # training or in the task build; the parse-time estimate refuses them
        # before any work.
        import fedexit.experiment as experiment

        def refuse(jobs):
            raise AssertionError("training must not start")

        monkeypatch.setattr(experiment, "run_stacked", refuse)
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        for section, values in edits.items():
            raw[section].update(values)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {keys} ") and err.count("\n") == 1, err
        assert "over the 1 GiB one training table may use" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", ["strategy_grid_equal", "quadratic_bounds"])
    def test_rounds_size_no_table(self, config):
        # 1e12 rounds sized the whole run's exit draws and step sizes, which
        # were refused at parse; each block of rounds now makes its own.
        raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        raw["training"]["rounds"] = 1e12
        assert parse_config(raw).training["rounds"] == 10**12

    def test_rounds_past_the_step_counter_are_refused_at_parse(self, tmp_path, capsys):
        # The schedules count local steps in int64: 1e308 rounds were refused
        # only by the size of the whole run's exit draws.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["training"]["rounds"] = 1e308
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 2
        assert capsys.readouterr().err == ("error: cannot build the training config: "
                                           "rounds * local_steps must be below 2**63\n")
        assert not out.exists()

    def test_labelling_pass_is_accepted_at_parse(self):
        # The teacher labels one row tile at a time, so 7e6 samples, whose
        # whole-set hidden states once counted 3.6 GB, are refused by no
        # table: their features and labels take 0.95 GB at one seed.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["data"]["total_samples"] = 7e6
        raw["seeds"] = [1]
        assert parse_config(raw).total_samples == 7_000_000

    def test_every_group_data_is_counted_at_parse(self):
        # The runner builds every (seed, partition) group's task before
        # training, but only one group's data was counted. At 4e6 samples one
        # seed's data take 0.51 GiB; two seeds' take 1.01 GiB.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["data"]["total_samples"] = 4e6
        raw["seeds"] = [1]
        parse_config(raw)
        raw["seeds"] = [1, 2]
        with pytest.raises(ConfigParseError) as refused:
            parse_config(raw)
        assert str(refused.value) == (
            "seeds, partitions, data total_samples and test_samples, and task input_dim: the "
            "training and test data would take 1.01 GiB, over the 1 GiB one training table may use")

    def test_seed_override_is_counted_alone_at_parse(self, tmp_path):
        # The override replaced the seeds after the config was parsed, so
        # --seed-override 1 was refused for the data of all five seeds
        # (2.53 GiB), though one seed's take 0.51 GiB.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["data"]["total_samples"] = 4e6
        path = write_config(tmp_path, raw)
        with pytest.raises(ConfigParseError, match="data would take 2.53 GiB"):
            load_config(path)
        assert load_config(path, seeds=[1]).seeds == (1,)
        with pytest.raises(ConfigParseError, match="data would take 1.01 GiB"):
            load_config(path, seeds=[1, 2])

    def test_batches_of_one_stacked_gradient_are_refused_at_parse(self):
        # 7 clients and dim 3,250: an exit-1 call, 742 coordinates a row,
        # steps up to min(7, 22) = 7 clients in a stack of any number of
        # jobs. At 2 local steps and batch_size 1e6 the stack's one stream
        # set's batch indices and two copies of one client's batch take
        # 2e6 * (7 + 2 * 17) * 8 bytes = 0.61 GiB, within the budget; with the
        # batches of 7 clients they take 2e6 * (7 + 2 * 7 * 17) * 8 = 3.65 GiB.
        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["training"]["batch_size"] = 1e6
        with pytest.raises(ConfigParseError) as refused:
            parse_config(raw)
        assert str(refused.value) == (
            "training batch_size and local_steps, and task input_dim: the block of local "
            "draws would take 3.65 GiB, over the 1 GiB one training table may use")

    def test_stated_batches_cover_the_call_of_a_smaller_stack(self, tmp_path, monkeypatch):
        # Cloud, 2 edges and 10 devices at dim 3,250: a stack holds 3 jobs, and
        # 3 rows of exit 1's 742 coordinates take 22 // 3 = 7 clients a call.
        # A stream set's last part of fewer jobs takes more: its exit-1 call
        # steps all 10 devices. The stated batches must cover that call.
        from fedexit.fedtrain import stack_rows
        from fedexit.mlp import MlpTask

        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["topology"]["nodes"][3:] = [
            {"id": f"dev{i}", "parent": f"edge{1 + i % 2}", "exit": 1, "arrival_rate": 1.0}
            for i in range(10)]
        raw.update(seeds=[1], output_dir=str(tmp_path / "out"))
        raw["training"]["rounds"] = 2
        cfg = parse_config(raw)
        clients = {1: 0}  # exit: the most clients one call stepped
        gradient_on = MlpTask.gradient_on

        def recording(task, v, x, y, exit):
            clients[exit] = max(clients.get(exit, 0), int(np.prod(x.shape[:-2])))
            return gradient_on(task, v, x, y, exit)

        monkeypatch.setattr(MlpTask, "gradient_on", recording)
        run_experiment(cfg)
        args = {key: value for key, value in cfg.task.items() if key != "kind"}
        training = TrainConfig(**cfg.training, seed=1)
        rows = stack_rows(13, MlpTask.dim_of(**args, num_exits=3)[0])
        assert rows == 3 and clients[1] == 10
        (what, nbytes, _), _ = MlpTask.stack_tables(training, 13, rows, 1, **args, num_exits=3)
        assert what == "one stacked gradient's batches"
        b, steps = training.batch_size, training.local_steps
        assert nbytes >= 2 * steps * b * clients[1] * (args["input_dim"] + 1) * 8

    def test_draw_block_estimate_bounds_what_an_mlp_round_holds(self, monkeypatch):
        # One round of 64 local steps at batch_size 256 holds the 7 streams'
        # batch indices, and the largest stacked gradient's batches twice:
        # gathered per client, then stacked. It peaks near 20.2 MB under
        # tracemalloc. The estimate, 64 * 256 * (7 + 2 * 5 * 17) * 8 bytes =
        # 23.2 MB, must bound that peak; counting the indices of every job of
        # the stack and one copy of the batches, it said 12.1 MB.
        import tracemalloc

        import fedexit.config as config
        from fedexit.fedtrain import Job, run_stacked
        from fedexit.mlp import make_classification_task
        from fedexit.strategies import equal_weight

        raw = json.loads((CONFIG_DIR / "strategy_grid_equal.json").read_text())
        raw["training"].update(rounds=1, local_steps=64, batch_size=256)
        raw.update(seeds=[1], strategies=[{"name": "equal", "k": 0.1}])
        raw["serving"]["splits"] = raw["serving"]["splits"][:1]
        cfg = parse_config(raw)
        args = {key: value for key, value in cfg.task.items() if key != "kind"}
        task = make_classification_task(cfg.topology, partition="equal",
                                         total_samples=cfg.total_samples, **args, seed=1)
        job = Job(cfg.topology.with_dataset_sizes(task.sizes), task, equal_weight(3),
                  cfg.strategies[0].sampling, TrainConfig(**cfg.training, seed=1))
        tracemalloc.start()
        try:
            run_stacked([job])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(config, "TABLE_BYTES", peak - 1)
        with pytest.raises(ConfigParseError, match="^training batch_size and local_steps, and "
                                                   "task input_dim: the block of local draws"):
            parse_config(raw)

    def test_stacked_quadratic_matrices_are_refused_at_parse(self, monkeypatch):
        # One stack of 4 seeds' stream sets (8 jobs) copies the 7 clients' 3
        # matrices once per set, and gathers one matrix per job and client
        # every round. At dim 2,000 the task's own matrices take 0.63 GiB,
        # which passed, and the stack's copy of them 2.5 GiB; one seed fits.
        raw = json.loads((CONFIG_DIR / "quadratic_bounds.json").read_text())
        raw["task"]["dim"] = 2_000
        raw["seeds"] = [1]
        parse_config(raw)
        raw["seeds"] = [1, 2, 3, 4]
        with pytest.raises(ConfigParseError) as refused:
            parse_config(raw)
        assert str(refused.value) == (
            "task dim and seeds: every stream set's matrices would take 2.5 GiB, over the "
            "1 GiB one training table may use")
        # At dim 40 the copy is 4 * 21 * 40**2 * 8 = 1,075,200 bytes.
        import fedexit.config as config

        raw["task"]["dim"] = 40
        monkeypatch.setattr(config, "TABLE_BYTES", 1_000_000)
        with pytest.raises(ConfigParseError, match="^task dim and seeds: every stream set's"):
            parse_config(raw)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_runs(self, tmp_path, path):
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"]) == 0
        cfg = load_config(path)
        rows = list(DictReader((out / "results.csv").open()))
        cells = {(r["partition"], r["split"], r["strategy"], r["k"]) for r in rows}
        assert len(rows) == len(cells)
        assert len(cells) == len(cfg.partitions) * len(cfg.splits) * len(cfg.strategies)
        assert len(list((out / "reports").iterdir())) == len(rows)
        pinned = json.loads(SHIPPED_DIGESTS.read_text())
        changed = moved(pinned["outputs"][path.stem], digests(out))
        assert not changed, (
            f"{path.stem}: {changed[0]} ({len(changed)} file(s) in all) differs from "
            f"{SHIPPED_DIGESTS.name}, pinned with {pinned['made_with']}; this run has {toolchain()}")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shipped_mlp_configs_keep_their_digests_at_blas_threads(self, tmp_path, threads):
        # The suite runs at one BLAS thread count; a fresh interpreter pins
        # each. Several clients share a backprop and gradients cover only an
        # exit's coordinates, and neither may move a pinned byte.
        src = str(Path(fedexit.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        pinned = json.loads(SHIPPED_DIGESTS.read_text())["outputs"]
        for name in ("offexit_sweep_cloud_bias", "strategy_grid_equal"):
            out = tmp_path / name
            config = CONFIG_DIR / f"{name}.json"
            subprocess.run([sys.executable, "-m", "fedexit.cli", "run", str(config), "--out",
                            str(out), "--seed-override", "1"], env=env, check=True,
                           capture_output=True)
            changed = moved(pinned[name], digests(out))
            assert not changed, (name, changed)

    def test_digest_check_leaves_the_pin_file_alone(self, tmp_path, monkeypatch, capsys):
        # --check compares the configs it runs and never rewrites the pins.
        configs = tmp_path / "configs"
        configs.mkdir()
        name = "quadratic_bounds.json"
        (configs / name).write_bytes((CONFIG_DIR / name).read_bytes())
        monkeypatch.setattr(shipped_digests, "CONFIG_DIR", configs)
        before = SHIPPED_DIGESTS.read_bytes()
        assert shipped_digests.main(["--check"]) == 0
        assert SHIPPED_DIGESTS.read_bytes() == before
        assert capsys.readouterr().out == ""
        # A pin that no longer matches: the check names the file and fails.
        record = json.loads(before)
        first = sorted(record["outputs"]["quadratic_bounds"])[0]
        record["outputs"]["quadratic_bounds"][first] = "0" * 64
        stale = tmp_path / "shipped_digests.json"
        stale.write_text(json.dumps(record))
        monkeypatch.setattr(shipped_digests, "SHIPPED_DIGESTS", stale)
        assert shipped_digests.main(["--check"]) == 1
        assert capsys.readouterr().out == f"quadratic_bounds: {first}\n"
        assert json.loads(stale.read_text()) == record

    def test_used_output_directory_is_refused(self, tmp_path, capsys):
        # A second run into a used directory used to exit 0 and leave the
        # first run's reports next to its own results.csv.
        out = tmp_path / "out"
        mlp_path, quad_path = tmp_path / "mlp.json", tmp_path / "quadratic.json"
        mlp_path.write_text(json.dumps(mlp_config(seeds=[1])))
        quad_path.write_text(json.dumps(quadratic_config(seeds=[1])))
        assert cli_main(["run", str(mlp_path), "--out", str(out)]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli_main(["run", str(quad_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output path {out} exists and is not an empty directory\n"
        )
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["run", str(quad_path), "--out", str(empty)]) == 0

    def test_failed_write_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # Outputs used to be written file by file into out, so a write that
        # failed between results.csv and the last report left a partial run.
        path = write_config(tmp_path, mlp_config(seeds=[1]))
        real_write = Path.write_text
        writes = []

        def failing_write(self, *args, **kwargs):
            writes.append(self.name)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write)
        out = tmp_path / "runs" / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [name[:7] for name in writes] == ["report_"] * 2
        assert list((tmp_path / "runs").iterdir()) == []

    def test_empty_working_directory_takes_the_outputs(self, tmp_path, monkeypatch):
        # Renaming a finished directory onto "." fails, and onto the working
        # directory's own path would unlink it from under the caller.
        path = write_config(tmp_path, quadratic_config(seeds=[1]))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli_main(["run", str(path), "--out", "."]) == 0
        assert sorted(p.name for p in Path(".").iterdir()) == ["reports", "results.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "work"]

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
