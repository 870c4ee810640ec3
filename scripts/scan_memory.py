"""Peak memory and wall time of the large scans, one fresh process per call.

Usage, from the root of a checkout:

    python3 scripts/scan_memory.py --out after.json
    python3 scripts/scan_memory.py --out before.json --src path/to/other/src

Every call runs in its own interpreter, which imports heiswhit from
``--src`` (default: this checkout's ``src``) and builds its samples with
``perfbench/inputs.make_rows(1, "s", "circle", n)``.  It reports the
call's wall time, the process's peak resident set once the samples are
built, and the peak after the call.  The peak is ``VmHWM`` from
``/proc/self/status`` (Linux): ``ru_maxrss`` survives ``execve``, so an
interpreter spawned from a larger process, such as a test run, would
report that process's peak as its own.  The calls: ``check_cm``
at m=3 with ``--window`` (40) on ``--window-nodes`` (64) nodes, and
``check_c1`` and ``check_cm_via_w`` (m=2) for every n of ``--sizes``
(2048 and 4096).  ``--out`` writes the rows as JSON; they are also printed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, time
def peak_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
src, perfbench, check, m, n, window = json.loads(sys.argv[1])
sys.path[:0] = [src, perfbench]
import inputs
from heiswhit import SampledCurve, horizontal
curve = SampledCurve.from_rows(inputs.make_rows(1, "s", "circle", n))
calls = {
    "check_c1": lambda: horizontal.check_c1(curve),
    "check_cm": lambda: horizontal.check_cm(curve, m, window=window),
    "check_cm_via_w": lambda: horizontal.check_cm_via_w(curve, m, window=window),
}
base = peak_mb()
start = time.perf_counter()
status = calls[check]().status
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "base_mb": base, "peak_mb": peak_mb(), "status": status}))
"""


def measure(check, m, n, window=None, src=ROOT / "src"):
    """One call in a fresh interpreter: its row of check, m, n, window and the measurements."""
    args = json.dumps([str(src), str(ROOT / "perfbench"), check, m, n, window])
    out = subprocess.run(
        [sys.executable, "-c", CHILD, args], capture_output=True, text=True, check=True
    ).stdout
    return {"check": check, "m": m, "n": n, "window": window, **json.loads(out)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--sizes", type=int, nargs="+", default=[2048, 4096])
    parser.add_argument("--window", type=int, default=40)
    parser.add_argument("--window-nodes", type=int, default=64)
    args = parser.parse_args(argv)

    calls = [("check_cm", 3, args.window_nodes, args.window)]
    calls += [(check, m, n, None) for check, m in (("check_c1", 1), ("check_cm_via_w", 2))
              for n in args.sizes]
    rows = []
    print(f"{'check':>15} {'m':>2} {'n':>6} {'window':>6} {'wall_s':>8} {'base_mb':>8} "
          f"{'peak_mb':>8}  status")
    for check, m, n, window in calls:
        row = measure(check, m, n, window, args.src)
        rows.append(row)
        print(f"{check:>15} {m:>2} {n:>6} {window or '-':>6} {row['wall_s']:>8.3f} "
              f"{row['base_mb']:>8.1f} {row['peak_mb']:>8.1f}  {row['status']}")
    Path(args.out).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
