"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload to a few seconds and keep outputs in tmp_path."""

    def shrink(cls, edit):
        original = cls.raw_config

        def raw_config(self):
            raw = original(self)
            edit(raw)
            return raw

        monkeypatch.setattr(cls, "raw_config", raw_config)

    def mlp(raw):
        raw["training"]["rounds"] = 3
        raw["serving"]["splits"] = raw["serving"]["splits"][:1]

    def quadratic(raw):
        raw["training"]["rounds"] = 20

    shrink(workloads.MlpGrid, mlp)
    shrink(workloads.QuadraticBounds, quadratic)
    monkeypatch.setattr(workloads.QuadraticBounds, "n_seeds", 2)
    monkeypatch.setattr(workloads.ServeTree, "train_rounds", 3)
    monkeypatch.setattr(workloads.ServeTree, "test_samples", 3000)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    affinity = os.sched_getaffinity(0)
    yield tmp_path
    os.sched_setaffinity(0, affinity)  # run.main pins the process to one CPU


def run_main(capsys, workload, seed=1, trace=0):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(small, capsys, workload, trace):
    lines, result = run_main(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        for name in ("setup_s", "throughput_adj", "peak_rss_mb", "error"):
            assert result["metrics"][name]["value"] > 0
    manifest = json.loads((small / "results" / f"{workload}-s1-trace{trace}.json").read_text())
    for key in ("git_commit", "python", "numpy", "blas", "nproc", "blas_threads", "seed", "src_lines", "tests_lines"):
        assert key in manifest
    assert manifest["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def delete_first_row(out_dir: Path) -> None:
    path = out_dir / "results.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + lines[2:]))


def accuracy_out_of_range(out_dir: Path) -> None:
    path = out_dir / "results.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[1].rstrip("\n").split(",")
    row[header.index("weighted_acc")] = "1.5"
    lines[1] = ",".join(row) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("tamper", [delete_first_row, accuracy_out_of_range])
def test_tampered_grid_output_is_counted(small, tmp_path, tamper):
    grid = workloads.MlpGrid(2)
    grid.setup()
    out = tmp_path / "out"
    result = grid.run_pass(out)
    assert grid.check(result, out).failed == set()
    tamper(out)
    failed = grid.check(result, out).failed
    assert len(failed) == 1


def test_changed_bytes_between_passes_are_counted(small, tmp_path):
    grid = workloads.QuadraticBounds(2)
    grid.setup()
    out = tmp_path / "out"
    result = grid.run_pass(out)
    assert grid.check(result, out).failed == set()
    report = sorted((out / "reports").iterdir())[0]
    report.write_text(report.read_text().replace('"strategy"', '"strategy" ', 1))
    assert len(grid.check(result, out).failed) == 1


def test_quadratic_error_above_bound_is_counted(small, tmp_path):
    grid = workloads.QuadraticBounds(2)
    grid.setup()
    row = {"empirical_opt_error": "2.0", "opt_bound": "1.0"}
    assert not grid.row_ok(row)
    assert grid.row_ok({"empirical_opt_error": "0.5", "opt_bound": "1.0"})
    assert not grid.row_ok({"empirical_opt_error": "nan", "opt_bound": "1.0"})


def test_serving_output_checks(small, tmp_path):
    tree = workloads.ServeTree(1)
    tree.setup()
    result = tree.run_pass(tmp_path)
    assert tree.check(result, tmp_path).failed == set()
    routed, plan, served = result[0]
    moved = next(iter(served.served_counts))
    served.served_counts[moved] += 1
    assert tree.check(result, tmp_path).failed == {0}
    served.served_counts[moved] -= 1
    plan.transmit[routed.root] += 1e-6
    assert tree.check(result, tmp_path).failed == {0}


def test_tampered_pass_fails_the_run(small, capsys, monkeypatch):
    original = workloads.MlpGrid.run_pass

    def run_pass(self, out_dir):
        result = original(self, out_dir)
        delete_first_row(out_dir)
        return result

    monkeypatch.setattr(workloads.MlpGrid, "run_pass", run_pass)
    _, result = run_main(capsys, "mlp_grid")
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_counts_repeat_at_one_seed(small, capsys):
    counts = ("fedtrain.local_steps", "theory.sigma_calls", "objective.evals", "rng.stream_calls")
    first = run_main(capsys, "mlp_grid", seed=3, trace=1)[1]["metrics"]
    second = run_main(capsys, "mlp_grid", seed=3, trace=1)[1]["metrics"]
    for name in counts:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"]


def test_missing_target_is_unmeasured_not_fatal(capsys):
    targets = tracing.TARGETS + (("theory.sigma", "fedexit.experiment", "no_such_function"),)
    tracer = tracing.Tracer(targets)
    tracer.install(0)
    tracer.uninstall()
    assert "fedexit.experiment.no_such_function" in tracer.missing
    assert "not found" in capsys.readouterr().err
    # Another call site of the same span name still exists, so nothing is lost.
    assert tracer.unmeasured() == []
    only_missing = tracing.Tracer((("theory.sigma", "fedexit.experiment", "no_such_function"),))
    only_missing.install(0)
    only_missing.uninstall()
    assert "theory.sigma_calls" in only_missing.unmeasured()


def test_uninstall_restores_originals():
    import fedexit.fedtrain
    import fedexit.mlp

    before = (fedexit.fedtrain.local_update, fedexit.mlp.MlpTask.__dict__["gradient_on"])
    tracer = tracing.Tracer()
    tracer.install(0)
    assert fedexit.fedtrain.local_update is not before[0]
    tracer.uninstall()
    assert (fedexit.fedtrain.local_update, fedexit.mlp.MlpTask.__dict__["gradient_on"]) == before


def test_reference_sampler_runs_apart_from_fedexit():
    source = ast.parse((HERE / "reference.py").read_text())
    modules = {alias.name for node in ast.walk(source) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(source) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "fedexit" for name in modules)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    sampler = run.Reference()
    assert sampler.proc.pid != os.getpid()
    time.sleep(4 * run.REF_PERIOD_S)
    samples = sampler.stop()
    assert sampler.proc.returncode == 0
    assert len(samples) >= 2
    assert all(start <= t <= time.clock_gettime(time.CLOCK_MONOTONIC) and d > 0 for t, d in samples)
    assert run.slowness(samples, (0.0, 0.0))[1] == [d for _, d in samples]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
