"""Benchmark entry point: run one named workload and print its metrics.

    python3 bench/run.py --workload synth_default --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. It imports the program from ``src/`` of the
checkout it sits in, works in ``.bench_work/`` (removed afterwards) and
leaves a run record in ``.bench_runs/``. Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# One BLAS thread: on a small shared host a second BLAS thread bought no wall
# time here and made run-to-run wall time twice as noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth_default", "analyze_default", "synth_train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "smoothgen" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    # One CPU for the whole run (set-up children inherit it), so the reference
    # computation samples the speed of the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import bench_workloads

    result, record, spans = bench_workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=2) + "\n")
    if spans:
        with open(runs / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")

    for message in record["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    print(" ".join(f"{k}={record[k]}" for k in
                   ("workload", "seed", "iterations", "nproc", "python", "numpy", "src_lines",
                    "tree_sha256")))
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        raw = statistics.median(record["iteration_wall_s"])
        print(f"{'raw wall_s':<28} {raw:>16.6f} s (unscaled; reference_work "
              f"{statistics.median(record['reference_s']):.4f} s, scaled to "
              f"{bench_workloads.REFERENCE_S} s)")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<28} {failed_frac:>16.6f} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
