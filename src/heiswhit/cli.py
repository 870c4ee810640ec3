"""Command-line front end: parse samples, run a check, write a report.

Exit codes: 0 consistent (or successful synthesis), 1 inconsistent (or a
failed synthesis audit), 2 inconclusive, 3 any error: bad input, usage,
configuration or environment value, or too little memory for the scan.
Every flag can also be set through an environment variable with the
HEISWHIT_ prefix (flag --grid-samples becomes HEISWHIT_GRID_SAMPLES); the
flag wins when both are present, and a HEISWHIT_ variable that names no
flag is an error.
"""

import argparse
import csv
import gc
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields

from . import horizontal
from .divdiff import SampledCurve, _full_window
from .errors import HeisWhitError, ParseError, SynthesisDefectError
from .heis import _horizontality_residual
from .profiles import ThresholdPolicy
from .whitney import ModulusFn

MODES = ("check-c1", "check-cm", "check-cm-w", "synthesize", "finiteness")
EXIT_BY_STATUS = {"consistent": 0, "inconsistent": 1, "inconclusive": 2}
ENV_PREFIX = "HEISWHIT_"
# What a switch's HEISWHIT_ variable may hold, stripped and lowercased.
SWITCH_VALUES = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off"), False)}
# The verdict modes, each called as checker(curve, m, window=).  Every check
# is looked up on horizontal when it runs, so a wrapper put on that module
# later (a tracer, a test) is the one called.
CHECKERS = {
    "check-c1": lambda curve, m, window: horizontal.check_c1(curve),
    "check-cm": lambda *args, **kw: horizontal.check_cm(*args, **kw),
    "check-cm-w": lambda *args, **kw: horizontal.check_cm_via_w(*args, **kw),
}


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrors the CLI flags."""

    mode: str
    input_path: str
    m: int = 1
    window: int = None
    omega: str = "power:1:1"
    report_path: str = None
    grid_out: str = None
    plot_out: str = None
    grid_samples: int = 1000
    full_enum: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParseError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.m < 1:
            raise ParseError("m must be at least 1")
        if self.grid_samples < 2:
            raise ParseError("grid-samples must be at least 2")


def parse_omega(spec):
    """Parse a modulus spec of the form power:<c>:<s>."""
    parts = spec.split(":")
    if parts[0] != "power" or len(parts) != 3:
        raise ParseError(f"unsupported omega spec {spec!r}; use power:<c>:<s>")
    try:
        coeff, exponent = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad omega numbers in {spec!r}") from exc
    try:
        return ModulusFn(coeff, exponent)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_input(path):
    """Samples from a .csv (header t,x,y,z) or .json file, and the file's order hint.

    Only a JSON file can carry the hint ("m"); it is None otherwise.
    """
    if path.endswith(".csv"):
        return _load_csv(path), None
    if path.endswith(".json"):
        return _load_json(path)
    raise ParseError(f"cannot tell the format of {path!r}; use .csv or .json")


def _load_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [c.strip().lower() for c in header] != ["t", "x", "y", "z"]:
            raise ParseError(f"{path}: header must be t,x,y,z")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields")
            try:
                rows.append(tuple(map(float, row)))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad number") from None
    return SampledCurve.from_rows(rows)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise ParseError(f"{path}: expected an object with a 'samples' array")
    rows = []
    for i, rec in enumerate(doc["samples"]):
        if not isinstance(rec, dict) or any(k not in rec for k in "txyz"):
            raise ParseError(f"{path}: samples[{i}] needs keys t, x, y, z")
        values = [rec[k] for k in "txyz"]
        if any(isinstance(v, bool) for v in values):
            raise ParseError(f"{path}: samples[{i}] holds a boolean, not a number")
        try:
            rows.append(tuple(map(float, values)))
        except (TypeError, ValueError):
            raise ParseError(f"{path}: samples[{i}] holds a bad number") from None
    m_hint = doc.get("m")
    # JSON's true and false load as bool, a subclass of int.
    if m_hint is not None and (type(m_hint) is not int or m_hint < 1):
        raise ParseError(f"{path}: 'm' must be a positive integer")
    return SampledCurve.from_rows(rows), m_hint


def emit_plot_data(profiles, path):
    """Write profiles as CSV rows delta,value,series.

    Ordering is deterministic: series name, then delta descending.  An
    empty profile collection is an error and writes nothing.
    """
    rows = []
    for name in sorted(profiles):
        prof = profiles[name]
        series = prof.name or name
        for d, v in prof.points:
            rows.append((d, v, series))
    if not rows:
        raise ValueError("no profile points to emit")
    rows.sort(key=lambda r: (r[2], -r[0]))
    _write_csv(path, "delta,value,series", (f"{d!r},{v!r},{_csv_field(s)}" for d, v, s in rows))


def _csv_field(text):
    """text as csv.writer writes it: quoted, quotes doubled, if it holds , " or a newline."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text


def _write_csv(path, header, lines):
    """Write the header and the lines, each ended by a newline.  Lines of comma-joined
    float reprs and _csv_field strings are the text csv.writer writes."""
    text = "".join([line + "\n" for line in lines])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write(text)


def _profile_entry(prof, status, slope):
    return {
        "points": [[d, v] for d, v in prof.points],
        "slope": slope,
        "status": status,
        "terminal": prof.terminal,
    }


def _verdict_report(verdict):
    return {
        "status": verdict.status,
        "profiles": {
            name: _profile_entry(prof, verdict.statuses[name], verdict.slopes[name])
            for name, prof in verdict.profiles.items()
        },
        "thresholds": {
            name: getattr(ThresholdPolicy, name)
            for name in ("slope_consistent", "slope_flat", "rel_tol", "zero_tol", "deadband")
        },
    }


def _strict(value):
    """value with each non-finite float as the string "inf", "-inf" or "nan": strict JSON."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return str(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def _write_grid(curve_obj, config):
    import numpy as np

    lo, hi = curve_obj.nodes[0], curve_obj.nodes[-1]
    ts = np.linspace(lo, hi, config.grid_samples)
    fv, gv = curve_obj.f(ts), curve_obj.g(ts)
    dfv, dgv = curve_obj.f(ts, 1), curve_obj.g(ts, 1)
    hv, dhv = curve_obj.h(ts), curve_obj.h(ts, 1)
    defect = np.abs(_horizontality_residual(fv, dfv, gv, dgv, dhv))
    rows = np.column_stack((ts, fv, gv, hv, defect)).tolist()
    _write_csv(config.grid_out, "t,x,y,z,defect", (",".join(map(repr, row)) for row in rows))


def run(config):
    """Execute one configured run; returns the process exit code."""
    timings = {}
    report = {"mode": config.mode, "m": config.m}
    try:
        t0 = time.perf_counter()
        curve, m_hint = load_input(config.input_path)
        timings["parse_s"] = time.perf_counter() - t0
        m = m_hint if m_hint is not None else config.m
        report["m"] = m
        policy = ThresholdPolicy()
        window = _full_window(len(curve._t), m, config.window, config.full_enum)

        t0 = time.perf_counter()
        plot_profiles = None
        if config.mode in CHECKERS:
            verdict = CHECKERS[config.mode](curve, m, window=window)
            report.update(_verdict_report(verdict))
            code = EXIT_BY_STATUS[verdict.status]
            plot_profiles = verdict.profiles
        elif config.mode == "finiteness":
            rep = horizontal.finiteness_check(curve, m, parse_omega(config.omega), window=window)
            report["status"] = rep.status
            report["constants"] = {
                "M_hat": rep.m_hat,
                "C2_hat": rep.c2_hat,
                "subsets_scanned": rep.subsets_scanned,
            }
            report["worst_subset"] = list(rep.worst_subset)
            report["worst_pair"] = list(rep.worst_pair)
            report["profiles"] = {
                "finiteness_ratio": _profile_entry(rep.profile, rep.status, rep.slope)
            }
            code = EXIT_BY_STATUS[rep.status]
            plot_profiles = {"finiteness_ratio": rep.profile}
        else:  # synthesize
            try:
                curve_obj = horizontal.synthesize(curve, m, window=window)
            except SynthesisDefectError as exc:
                report["status"] = "defect"
                report["error"] = str(exc)
                code = 1
            else:
                report["status"] = "synthesized"
                report["defect"] = curve_obj.defect
                report["bump_amplitudes"] = list(curve_obj.bump_amplitudes)
                report["audit"] = curve_obj.audit
                report["profiles"] = {
                    f"modulus_{k}": _profile_entry(p, *policy.classify(p))
                    for k, p in curve_obj.modulus.items()
                }
                plot_profiles = curve_obj.modulus
                code = 0
                if config.grid_out:
                    _write_grid(curve_obj, config)
        timings["compute_s"] = time.perf_counter() - t0

        if config.plot_out and plot_profiles:
            emit_plot_data(plot_profiles, config.plot_out)

        report["timings"] = timings
        report["exit_code"] = code
        text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
        if config.report_path:
            with open(config.report_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (HeisWhitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


# Every flag once, as (flag, RunConfig field, add_argument keywords).
FLAGS = (
    ("--mode", "mode", {"choices": MODES}),
    ("--input", "input_path", {"help": "sample file (.csv with header t,x,y,z, or .json)"}),
    ("--m", "m", {"type": int}),
    ("--window", "window", {"type": int}),
    ("--omega", "omega", {"help": "modulus spec power:<c>:<s>"}),
    ("--report", "report_path", {"help": "JSON report path (default: stdout)"}),
    ("--grid-out", "grid_out", {"help": "CSV grid export for synthesize mode"}),
    ("--plot-out", "plot_out", {"help": "CSV profile export (delta,value,series)"}),
    ("--grid-samples", "grid_samples", {"type": int}),
    ("--full-enum", "full_enum", {"action": "store_true"}),
)


def env_name(flag):
    """The variable a flag falls back on: --grid-samples reads HEISWHIT_GRID_SAMPLES."""
    return ENV_PREFIX + flag[2:].upper().replace("-", "_")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


_PARSER = _Parser(
    prog="heiswhit",
    description="Check sampled curves for horizontal C^m interpolants, "
    "synthesize the interpolant, or scan finiteness constants.",
    argument_default=argparse.SUPPRESS,  # a flag set nowhere leaves RunConfig's default
)
_REQUIRED = {f.name for f in fields(RunConfig) if f.default is MISSING}
for _flag, _dest, _kw in FLAGS:
    _PARSER.add_argument(_flag, dest=_dest, required=_dest in _REQUIRED, **_kw)


def config_from_args(argv=None):
    """The RunConfig of argv, each set HEISWHIT_ variable read as its flag ahead of argv."""
    names = [env_name(flag) for flag, _, _ in FLAGS]
    stale = sorted(k for k in os.environ if k.startswith(ENV_PREFIX) and k not in names)
    if stale:
        raise ParseError(f"no flag reads {', '.join(stale)}")
    args = []
    for name, (flag, _, kw) in zip(names, FLAGS):
        env = os.environ.get(name)
        if env is None:
            continue
        if kw.get("action") != "store_true":
            args.append(f"{flag}={env}")  # "=" keeps a value that starts with "-" a value
        elif env.strip().lower() not in SWITCH_VALUES:
            raise ParseError(f"{name}={env!r}: use 1/true/yes/on or 0/false/no/off")
        elif SWITCH_VALUES[env.strip().lower()]:  # the switch goes in bare when on
            args.append(flag)
    argv = sys.argv[1:] if argv is None else argv
    return RunConfig(**vars(_PARSER.parse_args([*args, *argv])))


def main(argv=None):
    # argparse and the indenting JSON encoder leave reference cycles on every
    # call, which pin allocator arenas in a process that calls main repeatedly
    # (about 0.7 MB of RSS per four calls) unless collected here.  A heap frozen
    # on entry keeps that collection to this call's objects; a caller's stays frozen.
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        return run(config_from_args(argv))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.collect()
        if thaw:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
