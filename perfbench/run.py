"""fedexit benchmark: one workload, closed loop, metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mlp_grid --seed 1 --seconds 30 --trace 0

One process and one caller: each pass starts when the previous one has
finished and been checked. With ``--trace 0`` the run prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. A manifest with
the run's environment and raw pass times is written to
``perfbench/results/``, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

# The work is many small numpy calls on 2 cores; BLAS threads only contend.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_REPEATS = 9

END_TO_END_UNITS = {"setup_s": "s", "throughput_adj": "items/s", "peak_rss_mb": "MiB", "error": "fraction"}

# A shared machine runs the same code up to 2x slower, in phases from a
# fraction of a second to minutes, and each CPU has phases of its own. The run
# pins itself to one CPU and a second interpreter (reference.py, which never
# imports fedexit) on the same CPU times a fixed kernel of about 3 ms every
# REF_PERIOD_S. The kernel's mean time during a phase of the run over
# REF_NOMINAL_S, its time on a quiet 2-vCPU Xeon VM, is the slowness of that
# phase; throughput_adj and setup_s are scaled by it to that nominal speed.
REF_PERIOD_S = 0.1
REF_NOMINAL_S = 0.003


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Reference:
    """The reference kernel, sampled in its own interpreter for the whole run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), repr(REF_PERIOD_S)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # Nothing else is written until standard input closes, so stop() can
        # read the rest of the pipe past this file object's buffer.
        if self.proc.stdout.readline() != "ready\n":
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("reference sampler did not start")

    def stop(self) -> list[tuple[float, float]]:
        """End the sampler and return its (start, duration) samples."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"reference sampler exited with code {self.proc.returncode}")
        return [tuple(sample) for sample in json.loads(out)]


def slowness(samples, window) -> tuple[float, list[float]]:
    """Mean kernel time in ``window`` over its nominal time, and those times.

    A window too short to hold a sample falls back to every sample of the run.
    """
    inside = [d for t, d in samples if window[0] <= t <= window[1]] or [d for _, d in samples]
    return statistics.mean(inside) / REF_NOMINAL_S, inside


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the package, as it reports it.

    The child times itself: waiting on it with a timeout polls in steps of up
    to 50 ms, which would quantize a parent-side measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import time; start = time.perf_counter(); "
        "import fedexit.experiment, fedexit.serving; "
        "print(time.perf_counter() - start)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return float(proc.stdout)


def measure_setup(workload) -> dict:
    """Median import time plus median input build, each repeated."""
    imports, builds, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        start = time.perf_counter()
        digests.add(workload.setup())
        builds.append(time.perf_counter() - start)
    if len(digests) != 1:
        raise RuntimeError(f"{workload.name}: inputs differ between builds at one seed")
    return {
        "import_s": imports,
        "build_s": builds,
        "raw_setup_s": statistics.median(imports) + statistics.median(builds),
    }


def run_one(workload, out_dir: Path, tracer=None, pass_id: int = 0):
    """Time one pass (traced if a tracer is given), then check its outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.install(pass_id)
    start = time.perf_counter()
    try:
        result = workload.run_pass(out_dir)
    except Exception as exc:  # a failed pass is counted, not fatal
        traceback.print_exc()
        result = exc
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return wall, workload.check(result, out_dir)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def line_count(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in directory.rglob("*.py"))


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def manifest(args, extra: dict) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_lines": line_count(SRC),
        "tests_lines": line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
        **extra,
    }


def timed_loop(workload, out_dir: Path, seconds: float, tracer=None):
    """Closed loop for ``seconds``; with a tracer, untraced and traced passes alternate."""
    walls = {False: [], True: []}
    traced_ids = []
    outcomes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        pass_id = len(outcomes)
        wall, outcome = run_one(workload, out_dir, tracer if traced else None, pass_id)
        walls[traced].append(wall)
        outcomes.append(outcome)
        if traced:
            traced_ids.append((pass_id, wall, outcome.bytes_written))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or walls[True]):
            return walls, traced_ids, outcomes


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "fedexit" / "__init__.py").is_file():
        print(f"perfbench: no fedexit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The reference sampler and the import timings inherit this pin, so they
    # see the same CPU as the passes. The passes use one core (threads=1, one
    # BLAS thread), so the pin takes nothing from them.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy as np

    import reference
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import fedexit

    if Path(fedexit.__file__).resolve().parent != SRC / "fedexit":
        print(f"perfbench: imported fedexit from {fedexit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    sampler = Reference()
    try:
        setup_start = reference.clock()
        setup = measure_setup(workload)
        loop_start = reference.clock()
        walls, traced_ids, outcomes = timed_loop(workload, out_dir, args.seconds, tracer)
        loop_end = reference.clock()
    finally:
        samples = sampler.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's outputs are still there

    attempted = sum(o.ops for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    errors = [o.error for o in outcomes if np.isfinite(o.error)]
    raw_throughput = workload.items_per_pass * len(walls[False]) / sum(walls[False])
    setup_slowness, setup_samples = slowness(samples, (setup_start, loop_start))
    loop_slowness, loop_samples = slowness(samples, (loop_start, loop_end))
    if args.trace:
        per_pass = [
            tracing.layer_metrics(tracer.spans, pass_id, wall, written)
            for pass_id, wall, written in traced_ids
        ]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = {
            "setup_s": setup["raw_setup_s"] / setup_slowness,
            # Work over the whole timed loop, scaled by the kernel's mean over
            # the same span: both average the same phases of the CPU.
            "throughput_adj": raw_throughput * loop_slowness,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Nothing solved when every operation failed.
            "error": float(np.mean(errors)) if errors else 1.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = manifest(
        args,
        {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "setup": setup,
            "untraced_pass_s": walls[False],
            "traced_pass_s": walls[True],
            "items_per_pass": workload.items_per_pass,
            "raw_throughput": raw_throughput,
            "reference": {
                "pinned_cpu": cpu,
                "setup_slowness": setup_slowness,
                "loop_slowness": loop_slowness,
                "setup_sample_s": setup_samples,
                "loop_sample_s": loop_samples,
            },
            "ops_per_pass": workload.ops_per_pass,
            "unmeasured": tracer.unmeasured() if tracer else [],
            "missing_targets": tracer.missing if tracer else [],
            "run_wall_s": time.perf_counter() - process_start,
            "metrics": metrics,
        },
    )
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracing.write_spans(tracer.spans, stem.with_suffix(".spans.tsv"))

    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
