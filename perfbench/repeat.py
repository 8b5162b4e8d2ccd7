"""Run the benchmark several times and summarise each metric across runs.

    python3 perfbench/repeat.py --workloads decode_short decode_long --runs 10 --first-seed 1

Each run is a separate ``run.py`` process, measuring for BENCHMARK.json's
``run_seconds``, with its own seed (``first-seed``,
``first-seed + 1``, ...), run one after another. For every metric the
summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound in BENCHMARK.json; a spread above a third of
the bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def summarise(results: list, bounds: dict) -> list:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        rows.append((name, results[0]["metrics"][name]["unit"], med, q1, q3,
                     spread, bounds.get(name)))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["decode_short", "decode_long"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for wl in args.workloads:
        results = [run_once(wl, args.first_seed + i, seconds)
                   for i in range(max(2, args.runs))]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if failed or any(r["exit_code"] for r in results):
            status = 1
        print(f"\n{wl}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(results) - 1}, ops_failed_share "
              f"{failed / attempted:.3g} ({failed} of {attempted})")
        print(f"{'metric':44s} {'unit':12s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, unit, med, q1, q3, spread, bound in summarise(results, bounds):
            flag = " !" if bound is not None and spread > bound / 3 else ""
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"{name:44s} {unit:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {b}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
