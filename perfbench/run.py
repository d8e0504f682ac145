"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline_revise --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric
``BENCHMARK.json`` names with ``--trace 0``, every per-layer metric with
``--trace 1``, each with the unit given there); the lines above it print
the same metrics as a table.  ``perfbench/NOTES.md`` says what each metric
means and which end-to-end metric a per-layer metric should move.  The run
reads the committed coach from ``.artifacts/`` and writes only under
``.perfbench_tmp/`` (removed afterwards) and ``.perfbench_out/`` (span dumps
of traced runs).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("offline_revise", "online_mixed", "http_fleet")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            f"error: {root} holds no src/repro; run from the repository root",
            file=sys.stderr,
        )
        return 2
    # One BLAS thread per process: on a small box the BLAS helper threads
    # contend with the server, client and fleet threads for the same
    # cores and make tails swing between runs, while the model's 64-wide
    # matrices gain nothing from them.  Must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root)]

    from perfbench.coach import MissingArtifactError, check_artifacts
    from perfbench.common import RunContext

    try:
        check_artifacts(root)
    except MissingArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    ctx = RunContext(
        root=root, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tmp=tmp, out=root / ".perfbench_out",
    )
    try:
        result = importlib.import_module(f"perfbench.{args.workload}").run(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if ctx.trace:
        # A layer the workload bypasses reports 0, its predicted change.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = dict.fromkeys(units, 0.0) | result.metrics
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = result.metrics
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    for note in result.mismatches:
        print(f"mismatch: {note}")
    if result.failures:
        print(f"failed requests: {dict(result.failures)}")
    print(f"{args.workload} seed={args.seed} correct={result.correct} "
          f"attempted={result.attempted} failed={result.failed}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:>13.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
