"""Seeded fuzz over the shipped configs: refused with a typed error, or finite outputs.

Each mutant is a shipped config with one or two random edits: a key
deleted, a list entry duplicated, or a value replaced by one of ``VALUES``.
Every mutant must parse or raise a :class:`FedexitError`. A few accepted
mutants also run through the CLI, where each must exit 2 with no output
directory or write only finite numbers, in strict JSON.
"""

from __future__ import annotations

import copy
import csv
import functools
import json
import math
import operator
import random

import pytest

from fedexit.cli import main as cli_main
from fedexit.config import parse_config
from fedexit.errors import FedexitError
from fedexit.experiment import CSV_COLUMNS
from test_experiment import CONFIG_DIR, strict_json, write_config

SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
VALUES = (None, True, False, 0, 1, -1, 1.5, 1e308, math.nan, math.inf, "1", [], {})
MUTANTS = 1000


def _paths(node, prefix=()):
    """The path of every key and list entry below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _edit(raw: dict, rng: random.Random) -> tuple:
    """Apply one random edit to ``raw`` in place; return it as (action, path[, value])."""
    path = rng.choice(list(_paths(raw)))
    *parents, last = path
    container = functools.reduce(operator.getitem, parents, raw)
    if rng.random() < 0.25:
        if isinstance(container, dict):
            del container[last]
            return ("delete", path)
        container.insert(last, copy.deepcopy(container[last]))
        return ("duplicate", path)
    value = rng.choice(VALUES)
    container[last] = copy.deepcopy(value)
    return ("set", path, value)


def mutants():
    """``MUTANTS`` (config name, edits, raw config) triples, the same on every call."""
    rng = random.Random(20)
    for _ in range(MUTANTS):
        name = rng.choice(sorted(SHIPPED))
        raw = copy.deepcopy(SHIPPED[name])
        edits = [_edit(raw, rng) for _ in range(rng.choice((1, 2)))]
        yield name, edits, raw


def _accepted(raw: dict) -> bool:
    try:
        parse_config(raw)
    except FedexitError:
        return False
    return True


def test_every_mutant_parses_or_is_refused():
    accepted = 0
    for name, edits, raw in mutants():
        try:
            accepted += _accepted(raw)
        except Exception as exc:  # noqa: BLE001  any other exception is the finding
            raise AssertionError(f"{name} with {edits}: not a FedexitError") from exc
    # Both outcomes occur, so the edits reach past the parse layer's first check.
    assert 0 < accepted < MUTANTS


def _first_accepted(config: str) -> dict:
    """The stream's first accepted mutant of ``config`` that edits what a run reads.

    ``--seed-override`` replaces the seeds and ``--out`` the output directory.
    """
    for name, edits, raw in mutants():
        if name == config and all(e[1][0] not in ("seeds", "output_dir") for e in edits):
            if _accepted(raw):
                return raw
    raise AssertionError(f"no accepted mutant of {config}")


def _zero_share() -> dict:
    raw = copy.deepcopy(SHIPPED["strategy_grid_equal"])
    raw["serving"]["splits"][2][2] = 0
    return raw


RUNS = {**{name: functools.partial(_first_accepted, name) for name in SHIPPED},
        "zero-share": _zero_share}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_accepted_mutant_runs_to_finite_outputs_or_is_refused(tmp_path, capsys, case):
    path = write_config(tmp_path, RUNS[case]())
    out = tmp_path / "out"
    code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        return
    assert code == 0
    with (out / "results.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    numeric = CSV_COLUMNS[CSV_COLUMNS.index("k"):]
    for row in rows:
        for column in numeric:
            assert row[column] == "" or math.isfinite(float(row[column])), (column, row)
    reports = list((out / "reports").iterdir())
    assert len(reports) == len(rows)
    for report in reports:
        strict_json(report.read_text())


ZERO_SIZE_SPLITS = (SHIPPED["quadratic_bounds"]["serving"]["splits"], [[50, 50, 0]])
QUADRATIC_NODES = [n["id"] for n in SHIPPED["quadratic_bounds"]["topology"]["nodes"]]


@pytest.mark.parametrize("splits", ZERO_SIZE_SPLITS, ids=("shipped-split", "split-50-50-0"))
@pytest.mark.parametrize("node", QUADRATIC_NODES)
def test_a_node_without_data_runs_or_is_refused_by_name(tmp_path, capsys, node, splits):
    # The cloud alone pools exit 3. With split [50, 50, 0] that exit has
    # weight 0 under serving_rate, and the run was refused as "a bound does
    # not fit in a float", which names keys that are not the cause.
    raw = copy.deepcopy(SHIPPED["quadratic_bounds"])
    raw["serving"]["splits"] = splits
    next(n for n in raw["topology"]["nodes"] if n["id"] == node)["dataset_size"] = 0
    out = tmp_path / "out"
    path = write_config(tmp_path, raw)
    code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
    if code == 2:
        assert node in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
