"""Spans around fedexit's layer boundaries, recorded from outside the package.

A traced pass rebinds module and class attributes at the call sites fedexit
itself resolves at call time (for example ``fedexit.fedtrain.local_update``
or ``fedexit.mlp.MlpTask.gradient_on``), records one span per outermost call
of each span name, and restores the originals afterwards. Spans stay in
memory until the run ends; :func:`layer_metrics` folds one pass's spans into
the per-layer metrics listed in ``BENCHMARK.json``.

A target that no longer exists (because a later refactor moved or removed a
call site) is reported as unmeasured with a warning instead of failing the
run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute path). Several call sites may share a name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiment.run_experiment", "fedexit.experiment", "run_experiment"),
    ("topology.plan", "fedexit.experiment", "budgets_for_split"),
    ("topology.plan", "fedexit.experiment", "compute_rate_plan"),
    ("topology.plan", "fedexit.topology", "budgets_for_split"),
    ("topology.plan", "fedexit.topology", "compute_rate_plan"),
    ("strategies", "fedexit.experiment", "build_sampling_matrix"),
    ("strategies", "fedexit.experiment", "exit_pools"),
    ("strategies", "fedexit.experiment", "equal_weight"),
    ("strategies", "fedexit.experiment", "flops_prop"),
    ("strategies", "fedexit.experiment", "gen_error_adjusted"),
    ("strategies", "fedexit.fedtrain", "exit_pools"),
    ("mlp.task_build", "fedexit.experiment", "make_classification_task"),
    ("mlp.task_build", "fedexit.experiment", "make_test_set"),
    ("quadratic.task_build", "fedexit.experiment", "make_quadratic_task"),
    ("mlp.grad", "fedexit.mlp", "MlpTask.gradient_on"),
    ("mlp.forward", "fedexit.mlp", "MlpTask.logits"),
    ("mlp.forward", "fedexit.mlp", "MlpTask.probs"),
    ("mlp.forward", "fedexit.mlp", "MlpTask.predict"),
    ("mlp.forward", "fedexit.mlp", "MlpTask.loss_on"),
    ("quadratic.grad", "fedexit.quadratic", "QuadraticTask.stochastic_gradient"),
    ("fedtrain.run", "fedexit.experiment", "run"),
    ("fedtrain.sample", "fedexit.fedtrain", "sample_round"),
    ("fedtrain.local_update", "fedexit.fedtrain", "local_update"),
    ("fedtrain.aggregate", "fedexit.fedtrain", "aggregate"),
    ("rng.stream", "fedexit.rng", "stream"),
    ("objective.eval", "fedexit.fedtrain", "weighted_objective"),
    ("objective.eval", "fedexit.experiment", "weighted_objective"),
    ("theory.sigma", "fedexit.experiment", "estimate_sigma"),
    ("theory.bounds", "fedexit.experiment", "theory_params"),
    ("theory.bounds", "fedexit.experiment", "statistical_heterogeneity"),
    ("theory.bounds", "fedexit.experiment", "bound_B"),
    ("theory.bounds", "fedexit.experiment", "opt_error_bound"),
    ("theory.bounds", "fedexit.experiment", "quadratic_minimizers"),
    ("serving", "fedexit.experiment", "simulate_serving"),
    ("serving", "fedexit.serving", "simulate_serving"),
)

# Per-layer metrics (name, unit) in the order they are printed, and the span
# names each one is computed from.
LAYER_METRICS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("experiment.self_s", "s", ("experiment.run_experiment",)),
    ("experiment.bytes_written", "bytes", ()),
    ("topology.plan_s", "s", ("topology.plan",)),
    ("topology.plan_calls", "count", ("topology.plan",)),
    ("strategies.s", "s", ("strategies",)),
    ("mlp.task_build_s", "s", ("mlp.task_build",)),
    ("quadratic.task_build_s", "s", ("quadratic.task_build",)),
    ("mlp.grad_s", "s", ("mlp.grad",)),
    ("mlp.grad_calls", "count", ("mlp.grad",)),
    ("mlp.grad_samples", "samples", ("mlp.grad",)),
    ("mlp.forward_s", "s", ("mlp.forward",)),
    ("mlp.forward_samples", "samples", ("mlp.forward",)),
    ("quadratic.grad_s", "s", ("quadratic.grad",)),
    ("quadratic.grad_calls", "count", ("quadratic.grad",)),
    ("fedtrain.run_self_s", "s", ("fedtrain.run",)),
    ("fedtrain.rounds", "count", ("fedtrain.run",)),
    ("fedtrain.sample_s", "s", ("fedtrain.sample",)),
    ("fedtrain.local_update_s", "s", ("fedtrain.local_update",)),
    ("fedtrain.local_steps", "count", ("fedtrain.local_update",)),
    ("fedtrain.us_per_local_step", "us", ("fedtrain.local_update",)),
    ("fedtrain.aggregate_s", "s", ("fedtrain.aggregate",)),
    ("fedtrain.aggregate_calls", "count", ("fedtrain.aggregate",)),
    ("rng.stream_s", "s", ("rng.stream", "fedtrain.run")),
    ("rng.stream_calls", "count", ("rng.stream", "fedtrain.run")),
    ("objective.eval_s", "s", ("objective.eval",)),
    ("objective.evals", "count", ("objective.eval",)),
    ("objective.evals_per_run", "count", ("objective.eval", "fedtrain.run")),
    ("theory.sigma_s", "s", ("theory.sigma",)),
    ("theory.sigma_calls", "count", ("theory.sigma",)),
    ("theory.sigma_repeat_ratio", "ratio", ("theory.sigma",)),
    ("theory.bounds_s", "s", ("theory.bounds",)),
    ("serving.self_s", "s", ("serving",)),
    ("serving.calls", "count", ("serving",)),
    ("serving.routed", "samples", ("serving",)),
    ("trace.coverage", "ratio", ()),
    ("trace.overhead_frac", "ratio", ()),
)


def _sigma_key(task, client, exit, batch_size, seed):
    return (id(task), client, exit, batch_size, seed), task


# Span names whose calls carry a quantity read from the call's arguments:
# (parameter names, function of their values).
INFO = {
    "mlp.grad": (("y",), len),
    "mlp.forward": (("x",), len),
    "fedtrain.run": (("cfg",), lambda cfg: cfg.rounds),
    "fedtrain.local_update": (("cfg",), lambda cfg: cfg.local_steps),
    "theory.sigma": (("task", "client", "exit", "batch_size", "seed"), _sigma_key),
    "serving": (("y",), len),
}


def _argument_getter(function, name: str):
    """Read one argument by name from (args, kwargs) without binding the signature."""
    params = list(inspect.signature(function).parameters.values())
    for position, param in enumerate(params):
        if param.name == name:
            default = param.default
            if param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
                position = len(params) + 1_000_000  # never passed positionally

            def get(args, kwargs):
                if position < len(args):
                    return args[position]
                value = kwargs.get(name, default)
                if value is inspect.Parameter.empty:
                    raise KeyError(name)
                return value

            return get
    raise KeyError(name)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    pass_id: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original, owned) or None if it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    if inspect.isclass(owner):
        owned = attr in owner.__dict__
        original = inspect.getattr_static(owner, attr)
    else:
        owned = True
        original = getattr(owner, attr)
    if not callable(original):
        return None
    return owner, attr, original, owned


class Tracer:
    """Records spans for the calls it wraps while a pass is installed."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.info_errors: set[str] = set()
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object, bool]] = []
        self._pass_id = -1
        self._keepalive: list[object] = []
        self._warned: set[str] = set()

    def unmeasured(self) -> list[str]:
        """Metrics whose span names lost every call site."""
        found = {name for name, mod, path in self.targets if f"{mod}.{path}" not in self.missing}
        return [
            metric
            for metric, _, needs in LAYER_METRICS
            if any(name not in found for name in needs)
        ]

    def install(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self.missing = []
        for name, module_name, path in self.targets:
            resolved = _resolve(module_name, path)
            if resolved is None:
                target = f"{module_name}.{path}"
                self.missing.append(target)
                if target not in self._warned:
                    self._warned.add(target)
                    print(f"perfbench: warning: {target} not found; {name} calls there are unmeasured", file=sys.stderr)
                continue
            owner, attr, original, owned = resolved
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original, owned))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._keepalive.clear()

    def _wrap(self, name: str, original):
        spans, stack, open_count = self.spans, self._stack, self._open
        info_of = None
        if name in INFO:
            names, function = INFO[name]
            try:
                getters = [_argument_getter(original, n) for n in names]
                info_of = (getters, function)
            except (KeyError, TypeError, ValueError) as exc:
                self._info_failed(name, exc)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # Outermost calls only: a nested call of the same name is part of
            # the enclosing span.
            if open_count[name]:
                return original(*args, **kwargs)
            info = None
            if info_of is not None:
                info = self._info(name, info_of, args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(Span(name, 0.0, 0.0, parent, self._pass_id, info))
            stack.append(index)
            open_count[name] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                open_count[name] -= 1
                stack.pop()
                span = spans[index]
                span.start, span.end = start, end

        wrapper.__wrapped__ = original
        return wrapper

    def _info_failed(self, name: str, exc: Exception) -> None:
        if name not in self.info_errors:
            self.info_errors.add(name)
            print(f"perfbench: warning: cannot read {name} arguments: {exc!r}", file=sys.stderr)

    def _info(self, name, info_of, args, kwargs):
        getters, function = info_of
        try:
            value = function(*(get(args, kwargs) for get in getters))
        except (KeyError, TypeError, AttributeError) as exc:
            self._info_failed(name, exc)
            return None
        if name == "theory.sigma":
            key, task = value
            self._keepalive.append(task)  # keeps id(task) unique within the pass
            return key
        return value


def layer_metrics(spans: list[Span], pass_id: int, pass_wall: float, bytes_written: int) -> dict[str, float]:
    """Fold one pass's spans into per-layer values (trace.overhead_frac excluded)."""
    child_time: dict[int, float] = defaultdict(float)
    mine = []
    for index, span in enumerate(spans):
        if span.pass_id != pass_id:
            continue
        mine.append((index, span))
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    incl: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    amount: dict[str, float] = defaultdict(float)
    under_run: dict[str, list[float]] = defaultdict(list)
    top_level = 0.0
    sigma_keys: set = set()
    sigma_repeats = 0
    for index, span in mine:
        incl[span.name] += span.duration
        self_time[span.name] += span.duration - child_time[index]
        calls[span.name] += 1
        if isinstance(span.info, (int, float)):
            amount[span.name] += span.info
        if span.parent < 0:
            top_level += span.duration
        elif spans[span.parent].name == "fedtrain.run":
            under_run[span.name].append(span.duration)
        if span.name == "theory.sigma" and span.info is not None:
            sigma_repeats += span.info in sigma_keys
            sigma_keys.add(span.info)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = amount["fedtrain.local_update"]
    return {
        "experiment.self_s": self_time["experiment.run_experiment"],
        "experiment.bytes_written": bytes_written,
        "topology.plan_s": incl["topology.plan"],
        "topology.plan_calls": calls["topology.plan"],
        "strategies.s": incl["strategies"],
        "mlp.task_build_s": incl["mlp.task_build"],
        "quadratic.task_build_s": incl["quadratic.task_build"],
        "mlp.grad_s": incl["mlp.grad"],
        "mlp.grad_calls": calls["mlp.grad"],
        "mlp.grad_samples": amount["mlp.grad"],
        "mlp.forward_s": incl["mlp.forward"],
        "mlp.forward_samples": amount["mlp.forward"],
        "quadratic.grad_s": incl["quadratic.grad"],
        "quadratic.grad_calls": calls["quadratic.grad"],
        "fedtrain.run_self_s": self_time["fedtrain.run"],
        "fedtrain.rounds": amount["fedtrain.run"],
        "fedtrain.sample_s": incl["fedtrain.sample"],
        "fedtrain.local_update_s": incl["fedtrain.local_update"],
        "fedtrain.local_steps": steps,
        "fedtrain.us_per_local_step": ratio(incl["fedtrain.local_update"] * 1e6, steps),
        "fedtrain.aggregate_s": incl["fedtrain.aggregate"],
        "fedtrain.aggregate_calls": calls["fedtrain.aggregate"],
        "rng.stream_s": sum(under_run["rng.stream"]),
        "rng.stream_calls": len(under_run["rng.stream"]),
        "objective.eval_s": incl["objective.eval"],
        "objective.evals": calls["objective.eval"],
        "objective.evals_per_run": ratio(len(under_run["objective.eval"]), calls["fedtrain.run"]),
        "theory.sigma_s": incl["theory.sigma"],
        "theory.sigma_calls": calls["theory.sigma"],
        "theory.sigma_repeat_ratio": ratio(sigma_repeats, calls["theory.sigma"]),
        "theory.bounds_s": incl["theory.bounds"],
        "serving.self_s": self_time["serving"],
        "serving.calls": calls["serving"],
        "serving.routed": amount["serving"],
        "trace.coverage": ratio(top_level, pass_wall),
    }


def write_spans(spans: list[Span], path) -> None:
    """One tab-separated line per span: index, name, start, end, parent, pass."""
    with open(path, "w") as handle:
        handle.write("index\tname\tstart_s\tend_s\tparent\tpass\n")
        for index, s in enumerate(spans):
            handle.write(f"{index}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.pass_id}\n")
