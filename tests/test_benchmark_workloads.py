"""The benchmark's workloads still run against the package, at smoke size.

``perfbench/workloads.py`` calls ``fedexit.run``, ``TrainConfig``,
``simulate_serving(ranking=...)``, ``parse_config`` and reads
``config.training["rounds"]`` and ``config.task[...]``, and
``perfbench/tracing.py`` wraps fedexit call sites by module and name. A change
that breaks one of those calls, or leaves a traced span with no call site,
fails here instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench is not a package, so its modules are imported by path; their
    dataclasses need the module registered in sys.modules before it runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


def shrink(monkeypatch) -> None:
    """The same sizes as the benchmark's own ``small`` test fixture."""

    def edited(cls, edit):
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

    edited(workloads.MlpGrid, mlp)
    edited(workloads.QuadraticBounds, quadratic)
    monkeypatch.setattr(workloads.QuadraticBounds, "n_seeds", 2)
    monkeypatch.setattr(workloads.ServeTree, "train_rounds", 3)
    monkeypatch.setattr(workloads.ServeTree, "test_samples", 3000)


@pytest.mark.parametrize("name", ["mlp_grid", "quadratic_bounds", "serve_tree"])
def test_workload_runs_a_clean_pass(tmp_path, monkeypatch, name):
    shrink(monkeypatch)
    workload = workloads.WORKLOADS[name](1)
    workload.setup()
    out = tmp_path / "out"
    outcome = workload.check(workload.run_pass(out), out)
    assert outcome.ops == workload.ops_per_pass >= 1
    assert outcome.failed == set()
    assert math.isfinite(outcome.error)


def test_every_traced_span_keeps_a_call_site():
    # Moving a function out of the module the tracer wraps it in leaves its
    # span unmeasured; only the non-tier-1 benchmark tests noticed.
    tracer = tracing.Tracer()
    try:
        tracer.install(0)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured() == []
