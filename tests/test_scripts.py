"""The experiment scripts and the benchmark tracer run end to end on tiny sizes.

Each script's main(argv) is called in-process, so a library change that
breaks one of them fails here rather than on the next manual run.  The
tracer is loaded from perfbench/ as it is, so a renamed method in its
tables fails here rather than only under perfbench/run.py --trace 1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import circle_rows
from heiswhit import SampledCurve, cli, horizontal, synthesize

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# Each run's id is its script's name, or the name and a "-" suffix.
RUNS = {
    "bump_scaling": ["--mismatches", "1e-2", "1e-4", "--m", "1"],
    "bump_scaling-m2": ["--mismatches", "1e-2", "1e-4", "--m", "2"],
    "decay_tables": ["--sizes", "8", "--m", "1"],
    "finiteness_refinement": ["--sizes", "6", "8", "--m", "1"],
}


def load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", RUNS)
def test_script_main_exits_0(name, capsys):
    assert load(name.split("-")[0]).main(RUNS[name]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("m", [2, 3])
def test_bump_amplitude_over_sqrt_mismatch_is_flat_at_higher_order(m, capsys):
    script = load("bump_scaling")
    mismatches = ["1e-1", "1e-2", "1e-3", "1e-4", "1e-5", "1e-6"]
    assert script.main(["--mismatches", *mismatches, "--m", str(m)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(mismatches)
    assert len({row[2] for row in rows}) == 1  # amp/sqrt, six significant digits
    # Only the last gap holds a height mismatch, so only it carries a bump.
    curve = synthesize(SampledCurve.from_rows(script.mismatch_rows(m, 1e-3)), m, force=True)
    assert len(curve.bump_amplitudes) == m
    assert curve.bump_amplitudes[-1] > 0.0 and not any(curve.bump_amplitudes[:-1])


def test_scan_memory_writes_one_row_per_call(tmp_path, capsys):
    out = tmp_path / "scan.json"
    argv = ["--out", str(out), "--sizes", "16", "--window", "6", "--window-nodes", "12"]
    assert load("scan_memory").main(argv) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["check"], r["n"], r["window"]) for r in rows] == [
        ("check_cm", 12, 6), ("check_c1", 16, None), ("check_cm_via_w", 16, None)
    ]
    assert all(r["peak_mb"] >= r["base_mb"] > 0 and r["wall_s"] > 0 for r in rows)
    assert len(capsys.readouterr().out.splitlines()) == 4


def digest_call(code, value, slope=-1.0, group="check-cm m=1 circle"):
    report = {"status": {0: "consistent", 1: "inconsistent"}[code], "exit_code": code,
              "profiles": {"dd_f": {"points": [[1.0, value], [0.5, 0.25]], "slope": slope,
                                    "status": "consistent", "terminal": 0.25}}}
    return {"group": group, "exit": code, "report": report,
            "plot": f"delta,value,series\n1.0,{value!r},dd_f\n", "grid": None}


def test_report_digest_diff_reports_exit_and_rounding_changes(tmp_path, capsys):
    drift = "check-cm m=1 drift"  # a drift call is expected to exit 1
    before = {"same": digest_call(0, 0.5), "exit": digest_call(0, 0.5),
              "rounding": digest_call(0, 0.5), "drift": digest_call(0, 0.5, group=drift)}
    after = {"same": digest_call(0, 0.5), "exit": digest_call(1, 0.5),
             "rounding": digest_call(0, 0.5 * (1.0 + 2.0**-52)),
             "drift": digest_call(1, 0.5, group=drift)}
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, digest in zip(paths, (before, after)):
        path.write_text(json.dumps(digest), encoding="utf-8")
    assert load("report_digest").main(["--diff", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("exit: exit 0 -> 1, status consistent -> inconsistent")
    assert lines[1].startswith("rounding: exit 0 -> 0, status consistent -> consistent; "
                               "values 1.11e-16 absolute, 2.22e-16 relative")
    assert lines[-5:] == [
        "calls exiting as their family expects (circle 0, poly 0, drift 1):",
        "  check-cm m=1 circle: 3 of 3 -> 2 of 3",
        "  check-cm m=1 drift: 0 of 1 -> 1 of 1",
        "  total: 3 of 4 -> 3 of 4",
        "4 calls: 1 identical, 3 differ, 2 change their exit code",
    ]


def test_report_digest_diff_matches_plot_rows_by_series_and_delta(tmp_path, capsys):
    # Renaming series c to a moves its rows ahead of b's; the values stay.
    rows = {"b": ["1.0,0.5", "0.5,0.125"], "c": ["1.0,0.25", "0.5,0.0625"]}
    before, after = digest_call(0, 0.5), digest_call(0, 0.5)
    before["plot"] = "delta,value,series\n" + "".join(
        f"{row},{s}\n" for s in ("b", "c") for row in rows[s]
    )
    after["plot"] = "delta,value,series\n" + "".join(
        f"{row},{s}\n" for s, old in (("a", "c"), ("b", "b")) for row in rows[old]
    )
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, digest in zip(paths, ({"renamed": before}, {"renamed": after})):
        path.write_text(json.dumps(digest), encoding="utf-8")
    assert load("report_digest").main(["--diff", *map(str, paths)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (
        "renamed: exit 0 -> 0, status consistent -> consistent; "
        "values 0 absolute, 0 relative, 0 relative at magnitude >= 1e-06; "
        "slopes 0 absolute, 0 relative, 0 relative at magnitude >= 1e-06; "
        "other fields differ: /plot/a, /plot/c"
    )


def test_report_digest_diff_reports_the_defect_apart(tmp_path, capsys):
    def synthesized(defect, piece, bump, audit_key="defect_piece"):
        report = {"status": "synthesized", "exit_code": 0, "bump_amplitudes": [bump],
                  "defect": defect, "audit": {audit_key: piece, "max_bump": bump}}
        return {"group": "synthesize m=1 circle", "exit": 0, "report": report, "plot": None,
                "grid": None}

    before = {"synth": synthesized(3e-14, [4, 0.25, 0.5], 0.5),
              "renamed": synthesized(3e-14, 0.375, 0.5, audit_key="defect_t")}
    after = {"synth": synthesized(1e-14, [7, 0.5, 0.75], 0.5 + 2.0**-53),
             "renamed": synthesized(3e-14, [4, 0.25, 0.5], 0.5)}
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, digest in zip(paths, (before, after)):
        path.write_text(json.dumps(digest), encoding="utf-8")
    assert load("report_digest").main(["--diff", *map(str, paths)]) == 0
    synth, renamed = capsys.readouterr().out.splitlines()[:2]
    values, slopes, defect, moved = synth.split("; ")[1:]
    assert values.startswith("values 1.11e-16 absolute, 2.22e-16 relative")
    assert slopes.startswith("slopes 0 absolute")
    assert defect.startswith("defect 2e-14 absolute, 0.667 relative")
    assert moved == "defect_piece moved"
    assert renamed.endswith(
        "; other fields differ: /report/audit/defect_piece, /report/audit/defect_t"
    )


def test_benchmark_tracer_sees_the_checkers_and_uninstalls(tmp_path):
    path = tmp_path / "circle.csv"
    path.write_text("t,x,y,z\n" + "".join(f"{t!r},{x!r},{y!r},{z!r}\n"
                                          for t, x, y, z in circle_rows(9)))
    report = str(tmp_path / "report.json")
    original = horizontal.check_cm
    tracer = load("tracer", ROOT / "perfbench").Tracer()
    tracer.install()
    try:
        for mode in ("check-cm", "finiteness"):
            assert cli.main(["--mode", mode, "--input", str(path), "--report", report]) < 3
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"horizontal.check_cm", "horizontal.finiteness_check"} <= names
    assert tracer.counts["divdiff.subsets"] > 0
    assert horizontal.check_cm is original
