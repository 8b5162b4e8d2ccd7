"""Run one parloop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode_short --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports the package from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is the full record (machine, sample counts, failures,
``ops_failed_share``). The exit code is 0 only when every operation passed
the correctness gate. See README.md in this directory.

``setup_s`` is the time from process start to the end of the first build
and warm-up, i.e. to just before the first timed operation. A single
process gives one such cold sample, so between rounds the run also starts
a fresh process with ``--setup-only`` now and then (see
``harness.measure``); it sets up the same workload and seed and prints its
own cold time. ``setup_s`` is the median over all of them.
"""

import time

STARTED = time.perf_counter()   # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1   # 1 and 2 threads measured alike on 2 cores; 1 leaves a core free


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("decode_short", "decode_long"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the cold set-up seconds and exit")
    return ap.parse_args(argv)


def result_line(record: dict) -> str:
    finite = all(math.isfinite(m["value"]) for m in record["metrics"].values())
    return json.dumps({"correct": record["failed"] == 0 and finite,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def finish(record: dict) -> int:
    """Print the metric table, the full record and the result line."""
    for name, m in record["metrics"].items():
        print(f"{record['workload']:12s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{record['workload']:12s} {'ops_failed_share':44s} "
          f"{record['ops_failed_share']:14.6g} share")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(result_line(record))
    return 0 if record["failed"] == 0 else 1


def cold_setup_s(args) -> float:
    """Cold set-up time of a fresh process on the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:   # must precede the first numpy import
        os.environ[var] = str(threads)
    sys.path.insert(0, str(HERE.parent / "src"))
    import harness

    wl = harness.WORKLOADS[args.workload]
    models = harness.setup(wl, args.seed)
    cold = time.perf_counter() - STARTED
    if args.setup_only:
        print(repr(cold))
        return 0
    trace_path = None
    if args.trace:
        trace_path = HERE / "out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    record = harness.run_workload(
        wl, args.seed, args.seconds, bool(args.trace), models, cold,
        cold_setup=lambda: cold_setup_s(args), blas_threads=threads,
        trace_path=trace_path)
    return finish(record)


if __name__ == "__main__":
    sys.exit(main())
