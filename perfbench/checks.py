"""Output checks for one CLI call of a benchmark workload.

A call fails when it exits 3, when its JSON report is missing or does not
parse, or when a mode-specific check below fails.  Verdicts are judged
separately: an exit code other than the family's expected one is a
verdict mismatch, not a failure.
"""

import csv
import json
import math

CHECK_CM_PROFILES = ("dd_f", "dd_g", "dd_h", "av_discrete")
MAX_GRID_DEFECT = 1e-9


def problems(call, code):
    """List of reasons the call's outputs are wrong; empty when they pass."""
    if code == 3:
        return ["exit code 3"]
    try:
        with open(call.report, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    out = []
    if report.get("exit_code") != code:
        out.append(f"report exit_code {report.get('exit_code')} != {code}")
    if call.mode == "check-cm":
        missing = [p for p in CHECK_CM_PROFILES if p not in report.get("profiles", {})]
        if missing:
            out.append(f"profiles missing {missing}")
    elif call.mode == "synthesize":
        if report.get("status") != "synthesized":
            out.append(f"status {report.get('status')!r}")
        else:
            out.extend(_grid_problems(call))
    elif call.mode == "finiteness":
        consts = report.get("constants", {})
        want = math.comb(call.n, call.m + 2)
        if consts.get("subsets_scanned") != want:
            out.append(f"subsets_scanned {consts.get('subsets_scanned')} != {want}")
        for key in ("M_hat", "C2_hat"):
            value = consts.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                out.append(f"{key} {value!r} not finite")
    return out


def _grid_problems(call):
    try:
        with open(call.grid, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"grid unreadable: {exc}"]
    if not rows or rows[0] != ["t", "x", "y", "z", "defect"]:
        return ["grid header is not t,x,y,z,defect"]
    body = rows[1:]
    if len(body) != call.grid_rows:
        return [f"grid has {len(body)} rows, want {call.grid_rows}"]
    try:
        worst = max(float(r[4]) for r in body)
    except (IndexError, ValueError) as exc:
        return [f"grid defect column unreadable: {exc}"]
    if not worst <= MAX_GRID_DEFECT:
        return [f"grid defect {worst!r} > {MAX_GRID_DEFECT}"]
    return []
