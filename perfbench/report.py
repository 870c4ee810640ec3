"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py

Runs each workload of BENCHMARK.json for its ``run_seconds`` on seed 1,
once untraced (end-to-end metrics) and once traced (per-layer metrics),
and prints one ``workload metric value unit`` row per metric, plus
``failed_share`` from the result's attempted and failed counts.  Exits 1
when any run's outputs fail their checks.
"""

import sys

from spread import load_benchmark, run_once

SEED = 1


def main():
    bench = load_benchmark()
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run_once(workload, SEED, bench["run_seconds"], trace)
            ok = ok and result["correct"]
            rows = dict(result["metrics"])
            if trace == 0:
                share = result["failed"] / result["attempted"]
                rows["failed_share"] = {"value": share, "unit": "share"}
            for name, m in rows.items():
                print(f"{workload}\t{name}\t{m['value']!r}\t{m['unit']}")
            print(f"{workload}\ttrace={trace}\tattempted={result['attempted']}"
                  f"\tfailed={result['failed']}\tcorrect={result['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
