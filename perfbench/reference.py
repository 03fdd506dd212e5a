"""Samples the machine's speed from an interpreter of its own.

``run.py`` pins itself to one CPU and starts this script, which inherits the
pin, once per run. Every ``PERIOD_S`` seconds it wakes, times a fixed kernel
of about 3 ms, and records the start and the duration. The wake-up preempts
the benchmark on the shared CPU, so the samples are spread through the
benchmark's passes and see the same slow and fast phases of that CPU. The
script imports numpy and never fedexit, so nothing the program leaves behind
in the benchmark's process (a grown heap, caches) can slow the kernel.

Usage: ``python3 reference.py PERIOD_S``. The script prints ``ready`` once it
has imported numpy, so that its start-up does not slow the benchmark's
set-up. When standard input closes, it prints one JSON list of
``[start, duration]`` pairs, starts on ``CLOCK_MONOTONIC``, and exits.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np


def clock() -> float:
    """System-wide monotonic time, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_sample() -> float:
    """Wall time of a fixed mix of the kinds of work fedexit does.

    Thirds of the sample: 64x32 matrix products with tanh (MLP batches), a
    4-dimensional gradient loop in Python (quadratic steps), and keyed
    generator construction with a small draw (``rng.stream``).
    """
    w = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
    x = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
    a = np.eye(4) * 1.5
    center = np.full(4, 0.25)
    start = time.thread_time()
    for _ in range(75):
        np.tanh(x @ w).sum()
    v = np.zeros(4)
    for _ in range(500):
        v = v - 0.01 * (a @ (v - center))
    for i in range(38):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i, 3)))
        gen.standard_normal(4)
    return time.thread_time() - start


def main(argv: list[str]) -> int:
    period = float(argv[1])
    reference_sample()  # the first call is cold; it is not a sample
    print("ready", flush=True)
    samples = []
    while True:
        samples.append((clock(), reference_sample()))
        if select.select([sys.stdin], [], [], period)[0]:
            break  # standard input closed: the run is over
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
