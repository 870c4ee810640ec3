"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload synth-m1 --seeds 1 2 3 4 5 \
        [--out summary.json]

Each run lasts BENCHMARK.json's ``run_seconds``.  For every metric this
prints the median over the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of that
median, the figure the benchmark's bounds are compared with.  Runs are
made one after another, each in a fresh process.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    seconds = load_benchmark()["run_seconds"]

    results = [run_once(args.workload, s, seconds, 0) for s in args.seeds]
    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "all_correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summarise(results),
        "logs": {seed: r["log"] for seed, r in zip(args.seeds, results)},
    }
    for name, m in summary["metrics"].items():
        print(f"{args.workload:14s} {name:40s} median={m['median']:.6g} {m['unit']:6s} "
              f"iqr/median={m['iqr_share']:.4f}")
    print(f"{args.workload:14s} attempted={summary['attempted']} failed={summary['failed']} "
          f"all_correct={summary['all_correct']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
