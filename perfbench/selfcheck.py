"""The benchmark's own test.

    python3 perfbench/selfcheck.py

For each workload of BENCHMARK.json, on seed 1, it checks that

- two traced runs on one seed give identical values for every count
  metric (calls, subsets, items, pairs, points, bands, constructions);
- the traced run reports exactly the ``per_layer`` metrics of
  BENCHMARK.json and the untraced run exactly its ``end_to_end`` metrics,
  each with the unit declared there;
- every run's outputs pass their checks.

Each run is as short as the benchmark allows (one pass, or one pair of
passes when traced).  Exits 1 when any check fails.
"""

import sys

from spread import load_benchmark, run_once

SEED = 1


def declared_units(section):
    return {m["name"]: m["unit"] for m in section}


def main():
    bench = load_benchmark()
    expected = {0: declared_units(bench["end_to_end"]), 1: declared_units(bench["per_layer"])}

    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {0: [run_once(workload, SEED, 1, 0)],
                1: [run_once(workload, SEED, 1, 1) for _ in range(2)]}
        for trace, results in runs.items():
            for r in results:
                units = {k: v["unit"] for k, v in r["metrics"].items()}
                if units != expected[trace]:
                    errors.append(f"{workload} trace={trace}: metrics/units differ from "
                                  f"BENCHMARK.json: {sorted(set(units.items()) ^ set(expected[trace].items()))}")
                if not r["correct"] or r["failed"]:
                    errors.append(f"{workload} trace={trace}: outputs failed their checks")
        first, second = (r["metrics"] for r in runs[1])
        counts = [k for k, v in first.items() if v["unit"] == "count"]
        for k in counts:
            if first[k]["value"] != second[k]["value"]:
                errors.append(f"{workload}: {k} differs: {first[k]['value']} vs {second[k]['value']}")
        print(f"{workload}: {len(counts)} count metrics compared across two traced runs")
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
