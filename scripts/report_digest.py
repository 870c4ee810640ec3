"""Digest of heiswhit CLI outputs on a fixed call set, and the diff of two digests.

Usage, from the root of a checkout:

    python3 scripts/report_digest.py --out before.json --src path/to/other/src
    python3 scripts/report_digest.py --out after.json
    python3 scripts/report_digest.py --diff before.json after.json

``--out`` runs every call of the set in this process through
``heiswhit.cli.main``, imported from ``--src`` (default: this checkout's
``src``), and stores per call its group (mode, order and input family),
the exit code, the JSON report without its ``timings``, and the plot and
grid CSVs.  It prints the verdict scoreboard: per group and in total, how
many calls exit with the code their family expects
(``perfbench/inputs.EXPECTED_EXIT``).  ``--diff`` prints, for every call
whose outputs differ, any change of exit code or status; the largest
absolute and relative difference over the values (profile points,
constants, grid cells by position, plot cells by series and delta) and,
apart, over the fitted slopes and over the synthesis ``defect`` (a bound
of rounding size, which one operand swap can move far), the relative one
also over numbers of magnitude at least 1e-6 only; whether the finiteness witnesses or the synthesis audit's
``defect_piece`` moved; the fields found on one side only, or holding
different strings; and each profile whose status changed with its largest
point on either side.  Then it prints both scoreboards side by side.

The call set, every call writing ``--plot-out``: check-c1; check-cm and
check-cm-w with the default window and with ``--window 9``; synthesize with
``--grid-out``; finiteness, and on the n = 13 files at m = 1 and 2 also
finiteness with ``--omega power:2:0.5``.  The modes with an order run at
m = 1, 2, 3 and 4; m = 4 gives the AV kernel cubic p' rows, the root
isolation's deepest recursion.  Inputs are circle, poly and drift CSV
files from ``perfbench/inputs.make_rows(7, "cmp", family, n)`` for n in
N_VALUES, plus the files of every benchmark workload at seed 1 with the
workload's own arguments.
"""

import argparse
import csv
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

N_VALUES = (9, 13, 17, 21, 25, 31)
ORDERS = (1, 2, 3, 4)
# A modulus with c != 1 and s < 1, so its finiteness calls cover both factors
# of the ratios and the seminorm's diam ** (1 - s).
OMEGA, OMEGA_N, OMEGA_ORDERS = "power:2:0.5", 13, (1, 2)
SIGNIFICANT = 1e-6
# Report fields that locate a value (a subset, a pair, a piece) rather than measure one.
WITNESSES = ("worst_subset", "worst_pair", "audit/defect_piece")


def cmp_calls(work):
    """(name, group, argv) for the circle, poly and drift files of every size."""
    for family in inputs.FAMILIES:
        for n in N_VALUES:
            path = str(work / f"{family}-{n}.csv")
            inputs.write_samples(path, inputs.make_rows(7, "cmp", family, n))
            yield (f"check-c1 {family} n={n}", f"check-c1 m=1 {family}",
                   ["--mode", "check-c1", "--input", path])
            for m in ORDERS:
                base = ["--input", path, "--m", str(m)]
                for mode in ("check-cm", "check-cm-w"):
                    group = f"{mode} m={m} {family}"
                    yield f"{mode} m={m} {family} n={n}", group, ["--mode", mode, *base]
                    yield (f"{mode} m={m} window=9 {family} n={n}", group,
                           ["--mode", mode, "--window", "9", *base])
                yield (f"synthesize m={m} {family} n={n}", f"synthesize m={m} {family}",
                       ["--mode", "synthesize", "--grid-out", str(work / "grid.csv"), *base])
                group = f"finiteness m={m} {family}"
                yield f"finiteness m={m} {family} n={n}", group, ["--mode", "finiteness", *base]
                if n == OMEGA_N and m in OMEGA_ORDERS:
                    yield (f"finiteness m={m} omega={OMEGA} {family} n={n}", group,
                           ["--mode", "finiteness", "--omega", OMEGA, *base])


def workload_calls(work):
    """(name, group, argv) for every call of the benchmark workloads at seed 1."""
    import run

    for workload in run.WORKLOADS:
        for call in run.make_batch(workload, 1, work):
            group = f"{call.mode} m={call.m} {call.family}"
            yield f"{workload} {group} n={call.n}", group, call.argv


def read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def collect(src):
    sys.path.insert(0, str(Path(src).resolve()))
    from heiswhit import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, group, argv in [*cmp_calls(work), *workload_calls(work)]:
            files = {key: work / f"{key}.out" for key in ("report", "plot")}
            grid = argv[argv.index("--grid-out") + 1] if "--grid-out" in argv else None
            for path in [*files.values(), grid]:
                if path:
                    Path(path).unlink(missing_ok=True)
            if "--report" not in argv:
                argv += ["--report", str(files["report"])]
            report_path = argv[argv.index("--report") + 1]
            code = cli.main([*argv, "--plot-out", str(files["plot"])])
            text = read(report_path)
            report = json.loads(text) if text else None
            if report:
                report.pop("timings", None)
            out[name] = {"group": group, "exit": code, "report": report,
                         "plot": read(files["plot"]), "grid": read(grid) if grid else None}
            print(f"{code} {name}", file=sys.stderr)
    return out


def scoreboard(digest):
    """{group: (calls exiting with their family's expected code, calls)}, and "total"."""
    board = {}
    for call in digest.values():
        family = call["group"].split()[-1]
        for key in (call["group"], "total"):
            hits, calls = board.get(key, (0, 0))
            board[key] = (hits + (call["exit"] == inputs.EXPECTED_EXIT[family]), calls + 1)
    return board


def print_scoreboard(before, after=None):
    """One line per group and the total: hits of calls, before -> after when both are given."""
    boards = [scoreboard(d) for d in (before, after) if d is not None]
    print("calls exiting as their family expects "
          f"({', '.join(f'{k} {v}' for k, v in inputs.EXPECTED_EXIT.items())}):")
    for key in sorted(set().union(*boards) - {"total"}) + ["total"]:
        cells = [" of ".join(map(str, b.get(key, (0, 0)))) for b in boards]
        print(f"  {key}: {' -> '.join(cells)}")


def leaves(value, path=""):
    """Flatten reports and CSV texts to {path: number or string}.

    A plot CSV (delta,value,series) flattens to series, then delta, so a
    series is compared with the same series wherever it sorts; a grid CSV
    flattens to row, then column.
    """
    if isinstance(value, dict):
        return {k: v for key in value for k, v in leaves(value[key], f"{path}/{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in leaves(item, f"{path}/{i}").items()}
    if isinstance(value, str) and "\n" in value:
        header, *rows = value.splitlines()
        if header == "delta,value,series":
            plot = {}
            for delta, v, series in csv.reader(rows):
                plot.setdefault(series, {})[delta] = v
            return leaves(plot, path)
        return leaves([line.split(",") for line in value.splitlines()], path)
    if isinstance(value, str):
        try:
            return {path: float(value)}
        except ValueError:
            return {path: value}
    return {path: value}


def profile_changes(a, b):
    """Lines for each profile whose status differs between reports a and b."""
    pa, pb = (r.get("profiles", {}) if r else {} for r in (a, b))
    lines = []
    for name in sorted(set(pa) | set(pb)):
        sa, sb = (p.get(name, {}).get("status") for p in (pa, pb))
        if sa != sb:
            tops = [max((v for _, v in p.get(name, {}).get("points", [])), default=None)
                    for p in (pa, pb)]
            lines.append(f"    {name}: {sa} -> {sb}, largest point {tops[0]!r} -> {tops[1]!r}")
    return lines


class Spread:
    """Largest absolute and relative difference over pairs of numbers."""

    def __init__(self):
        self.abs = self.rel = self.rel_sig = 0.0

    def add(self, x, y):
        if x == y or (x != x and y != y):
            return
        d = abs(x - y)
        size = max(abs(x), abs(y))
        self.abs = max(self.abs, d)
        self.rel = max(self.rel, d / size)
        if size >= SIGNIFICANT:
            self.rel_sig = max(self.rel_sig, d / size)

    def __str__(self):
        return (f"{self.abs:.3g} absolute, {self.rel:.3g} relative, "
                f"{self.rel_sig:.3g} relative at magnitude >= {SIGNIFICANT:g}")


def diff(before, after):
    names = list(dict.fromkeys([*before, *after]))
    same = changed_codes = 0
    for name in names:
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            print(f"{name}: only in {'after' if a is None else 'before'}")
            continue
        if a == b:
            same += 1
            continue
        status = [(x["report"] or {}).get("status") for x in (a, b)]
        head = f"{name}: exit {a['exit']} -> {b['exit']}, status {status[0]} -> {status[1]}"
        if a["exit"] != b["exit"]:
            changed_codes += 1
        la, lb = (leaves({k: x[k] for k in ("report", "plot", "grid")}) for x in (a, b))
        values, slopes, defect = Spread(), Spread(), Spread()
        moved, other = set(), set(la) ^ set(lb)
        for key in set(la) & set(lb):
            if key == "/report/exit_code":
                continue
            x, y = la[key], lb[key]
            witness = next((w for w in WITNESSES if key.startswith(f"/report/{w}/")), None)
            if witness:
                if x != y:
                    moved.add(witness.split("/")[-1])
            elif not (isinstance(x, (int, float)) and isinstance(y, (int, float))):
                if x != y:
                    other.add(key)
            elif key == "/report/defect":
                defect.add(x, y)
            else:
                (slopes if key.endswith("/slope") else values).add(x, y)
        # A list that grew or shrank, or a plot series that gained or lost a
        # delta or is found on one side only, counts once, by its path.
        other = sorted({re.sub(r"(/\d[^/]*)+$", "", key) for key in other})
        print(f"{head}; values {values}; slopes {slopes}"
              + (f"; defect {defect}" if defect.abs else "")
              + (f"; {' and '.join(sorted(moved))} moved" if moved else "")
              + (f"; other fields differ: {', '.join(other)}" if other else ""))
        for line in profile_changes(a["report"], b["report"]):
            print(line)
    print_scoreboard(before, after)
    print(f"{len(names)} calls: {same} identical, {len(names) - same} differ, "
          f"{changed_codes} change their exit code")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="run the call set and write its digest here")
    group.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                       help="compare two digests")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the heiswhit package to run")
    args = parser.parse_args(argv)
    if args.out:
        digest = collect(args.src)
        print_scoreboard(digest)
        Path(args.out).write_text(json.dumps(digest, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
    diff(before, after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
