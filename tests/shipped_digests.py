"""Pin the digests of what the shipped configs write, and say which moved.

Runs every config in ``configs/`` at ``--seed-override 1`` in a temporary
directory, rewrites ``tests/shipped_digests.json`` with the toolchain it ran on
(``made_with``), and prints every output file whose digest moved. From the root
of a checkout::

    PYTHONPATH=src python tests/shipped_digests.py

``TestCli::test_shipped_config_runs`` hashes a run's outputs with :func:`digests`
and compares them with the pinned file, so the two cannot disagree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_DIGESTS = Path(__file__).resolve().parent / "shipped_digests.json"


def toolchain() -> dict[str, str]:
    """The versions that a run's output bytes can depend on, keyed as in ``made_with``."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}", "numpy": np.__version__,
            "python": platform.python_version()}


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file under ``out``, keyed by its path relative to ``out``."""
    return {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}


def moved(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The files whose digest differs, or which only one side has."""
    return sorted(name for name in expected.keys() | got.keys()
                  if expected.get(name) != got.get(name))


def main() -> int:
    from fedexit.cli import main as cli_main

    record = json.loads(SHIPPED_DIGESTS.read_text())
    pinned = record["outputs"]
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(CONFIG_DIR.glob("*.json")):
            out = Path(tmp) / path.stem
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["run", str(path), "--out", str(out), "--seed-override", "1"])
            if code != 0:
                return code
            outputs[path.stem] = digests(out)
    record.update(made_with=toolchain(), outputs=outputs)
    SHIPPED_DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for config in sorted(pinned.keys() | outputs.keys()):
        for name in moved(pinned.get(config, {}), outputs.get(config, {})):
            print(f"{config}: {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
