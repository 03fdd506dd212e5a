"""Command-line entry points: run an experiment grid, compare strategies."""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import FedexitError
from .experiment import compare, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedexit",
        description="Federated early-exit training and serving simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run every cell of an experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed-override", type=int, default=None,
                      help="run only this seed; the size checks count only this seed")

    cmp = sub.add_parser("compare", help="per-split accuracy deltas between strategies")
    cmp.add_argument("results", help="path to a results.csv")
    cmp.add_argument("--baseline", required=True)
    cmp.add_argument("--candidate", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            seeds = None if args.seed_override is None else [args.seed_override]
            csv_path = run_experiment(load_config(args.config, seeds), out_dir=args.out)
            print(csv_path)
            return 0
        rows = compare(args.results, args.baseline, args.candidate)
        print("partition,split,n_seeds,baseline_mean,candidate_mean,delta_mean,delta_se")
        for row in rows:
            print(
                f"{row['partition']},{row['split']},{row['n_seeds']},"
                f"{row['baseline_mean']:.6f},{row['candidate_mean']:.6f},"
                f"{row['delta_mean']:+.6f},{row['delta_se']:.6f}"
            )
        return 0
    except (FedexitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the allocation ("Unable to allocate 50.9 TiB ..."); a bare one is empty.
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
