"""Input parsing, report emission, exit codes, and configuration."""

import csv
import gc
import importlib.util
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bounded_horizontal_triple, circle_rows, dump_samples_json, line_curve
from heiswhit import cli, divdiff, horizontal
from heiswhit.cli import (
    RunConfig,
    config_from_args,
    emit_plot_data,
    load_input,
    main,
    parse_omega,
    run,
)
from heiswhit.errors import (
    DuplicateNodeError,
    NonFiniteError,
    ParseError,
    TooFewNodesError,
)
from heiswhit.profiles import Profile, ThresholdPolicy


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return str(path)


def drift_csv(path, n=64):
    curve = line_curve(n)
    rows = [(t, p.x, p.y, p.z) for t, p in zip(curve.nodes, curve.points)]
    return write_csv(path, rows)


def poly_csv(path, m=1, n=8, seed=89):
    rng = np.random.default_rng(seed)
    pf, pg, ph = bounded_horizontal_triple(rng, m)
    nodes = [i / (n - 1.0) for i in range(n)]
    return write_csv(path, [(t, pf(t), pg(t), ph(t)) for t in nodes])


# -- load_input --------------------------------------------------------------


def test_csv_two_rows(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n")
    curve = load_input(str(path))[0]
    assert curve.nodes == (0.0, 1.0)
    assert tuple(curve.points[1]) == (1.0, 0.0, 0.0)


def test_csv_rows_sorted_and_crlf_ok(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("t,x,y,z\r\n1,1,0,0\r\n0,0,0,0\r\n0.5,2,0,0\r\n")
    curve = load_input(str(path))[0]
    assert curve.nodes == (0.0, 0.5, 1.0)
    assert curve.points[1].x == 2.0
    # Blank and whitespace-only lines between rows are skipped.
    path.write_text("t,x,y,z\n1,1,0,0\n\n0,0,0,0\n  \n0.5,2,0,0\n")
    assert load_input(str(path))[0].nodes == (0.0, 0.5, 1.0)


def test_csv_rejects_duplicates_nonfinite_and_garbage(tmp_path):
    cases = (
        ("t,x,y,z\n0,0,0,0\n0,1,0,0\n", DuplicateNodeError),
        ("t,x,y,z\n0,0,0,0\n1,nan,0,0\n", NonFiniteError),
        ("t,x,y,z\n0,0,0,0\n1,inf,0,0\n", NonFiniteError),
        ("t,x,y,z\n0,0,0\n", ParseError),
        ("t,x,y,z\n0,zero,0,0\n", ParseError),
        ("time,x,y,z\n0,0,0,0\n", ParseError),
        ("", ParseError),
    )
    for i, (text, err) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(text)
        with pytest.raises(err):
            load_input(str(path))[0]


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n")
    with pytest.raises(ParseError):
        load_input(str(path))[0]


def test_json_single_sample_surfaces_too_few_nodes(tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"m": 1, "samples": [{"t": 0, "x": 0, "y": 0, "z": 0}]}')
    with pytest.raises(TooFewNodesError):
        load_input(str(path))[0]


def test_json_shape_errors(tmp_path):
    cases = (
        "[1, 2]",
        '{"samples": [{"t": 0, "x": 0, "y": 0}]}',
        '{"samples": [{"t": 0, "x": "wat", "y": 0, "z": 0}]}',
        '{"m": 0, "samples": []}',
        "{not json",
        # A non-list samples raised a TypeError, and a boolean was read as 1 or 0.
        '{"samples": 5}',
        '{"samples": null}',
        '{"m": true, "samples": [{"t": 0, "x": 0, "y": 0, "z": 0}, {"t": 1, "x": 1, "y": 0, "z": 0}]}',
        '{"samples": [{"t": 0, "x": 0, "y": 0, "z": 0}, {"t": 1, "x": true, "y": 0, "z": 0}]}',
        '{"samples": [{"t": false, "x": 0, "y": 0, "z": 0}, {"t": 1, "x": 1, "y": 0, "z": 0}]}',
    )
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_input(str(path))[0]


def test_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(97)
    rows = sorted(
        (float(t), float(x), float(y), float(z))
        for t, x, y, z in rng.standard_normal((17, 4))
    )
    path = tmp_path / "dump.json"
    from heiswhit import SampledCurve

    curve = SampledCurve.from_rows(rows)
    dump_samples_json(curve, str(path), m=2)
    back = load_input(str(path))[0]
    assert back.nodes == curve.nodes
    assert back.points == curve.points


# -- emit_plot_data ----------------------------------------------------------


def test_plot_single_profile_is_two_lines(tmp_path):
    path = tmp_path / "plot.csv"
    emit_plot_data({"p": Profile(((1.0, 0.5),))}, str(path))
    assert path.read_text() == "delta,value,series\n1.0,0.5,p\n"


def test_plot_empty_set_writes_nothing(tmp_path):
    path = tmp_path / "plot.csv"
    with pytest.raises(ValueError):
        emit_plot_data({}, str(path))
    assert not path.exists()


def test_plot_two_series_grouped_deltas_descending(tmp_path):
    profiles = {
        "b_series": Profile(((0.5, 1.0), (0.25, 2.0))),
        "a_series": Profile(((1.0, 3.0), (0.5, 4.0))),
    }
    path = tmp_path / "plot.csv"
    emit_plot_data(profiles, str(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "delta,value,series"
    series = [r.split(",")[2] for r in rows[1:]]
    assert series == ["a_series", "a_series", "b_series", "b_series"]
    deltas = [float(r.split(",")[0]) for r in rows[1:]]
    assert deltas == [1.0, 0.5, 0.5, 0.25]


# -- run ---------------------------------------------------------------------


def test_run_drift_check_c1_exits_1(tmp_path):
    report_path = tmp_path / "report.json"
    config = RunConfig(
        mode="check-c1",
        input_path=drift_csv(tmp_path / "drift.csv"),
        report_path=str(report_path),
    )
    assert run(config) == 1
    report = json.loads(report_path.read_text())
    assert report["status"] == "inconsistent"
    prof = report["profiles"]["pansu_z"]
    assert prof["status"] == "inconsistent"
    assert prof["points"][-1][1] > prof["points"][0][1]
    assert report["exit_code"] == 1


def test_run_synthesize_polynomial_exits_0_with_small_grid_defect(tmp_path):
    report_path = tmp_path / "report.json"
    grid_path = tmp_path / "grid.csv"
    config = RunConfig(
        mode="synthesize",
        input_path=poly_csv(tmp_path / "poly.csv"),
        report_path=str(report_path),
        grid_out=str(grid_path),
        grid_samples=400,
    )
    assert run(config) == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "synthesized"
    assert set(report["profiles"]) == {"modulus_f", "modulus_g", "modulus_h"}
    with open(grid_path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["t", "x", "y", "z", "defect"]
        grid = list(reader)
    assert len(grid) == 400
    assert max(float(row[4]) for row in grid) <= 1e-9


def planted_defect_csv(tmp_path, monkeypatch, at=(1, 1)):
    """Samples whose synthesis fails its audit.

    The plant of test_defect_bound_catches_a_defect_the_grid_steps_over: a
    1e-3 change of one gap's h rows, at index `at`, after horizontalization.
    """
    nodes = sorted([i / 8.0 for i in range(9)] + [0.50003])
    rows = [(t, math.cos(t), math.sin(t), -2.0 * t) for t in nodes]
    gap = nodes.index(0.5)
    horizontalize = horizontal._horizontalize_gaps

    def planted(*args):
        f, g, h, *rest = horizontalize(*args)
        h = h.copy()
        h[(gap, *at)] += 1e-3
        return (f, g, h, *rest)

    monkeypatch.setattr(horizontal, "_horizontalize_gaps", planted)
    return write_csv(tmp_path / "in.csv", rows)


@pytest.mark.parametrize("at,error", [
    ((1, 1), "horizontality defect"),  # h' off on the gap's middle third
    ((slice(None), 0), "node reproduction failed at t=0.5:"),  # h off on the whole gap
])
def test_run_synthesize_failed_audit_exits_1_without_grid(tmp_path, monkeypatch, at, error):
    report_path, grid_path = tmp_path / "report.json", tmp_path / "grid.csv"
    config = RunConfig(mode="synthesize", input_path=planted_defect_csv(tmp_path, monkeypatch, at),
                       report_path=str(report_path), grid_out=str(grid_path))
    assert run(config) == 1
    report = json.loads(report_path.read_text())
    assert report["status"] == "defect"
    assert report["error"].startswith(error)
    assert report["exit_code"] == 1
    assert not grid_path.exists()


@pytest.mark.parametrize("case,fields", [
    ("check-c1", {"thresholds", "profiles"}),
    ("check-cm", {"thresholds", "profiles"}),
    ("check-cm-w", {"thresholds", "profiles"}),
    ("finiteness", {"constants", "worst_subset", "worst_pair", "profiles"}),
    ("synthesize", {"defect", "audit", "bump_amplitudes", "profiles"}),
    ("defect", {"error"}),
])
def test_each_mode_writes_its_report_fields_and_plots_its_profiles(
    tmp_path, monkeypatch, case, fields
):
    # The README's table of report fields lists these sets.
    if case == "defect":
        mode, path = "synthesize", planted_defect_csv(tmp_path, monkeypatch)
    else:
        mode, path = case, write_csv(tmp_path / "circle.csv", circle_rows(12))
    report_path, plot_path = tmp_path / "report.json", tmp_path / "plot.csv"
    argv = ["--mode", mode, "--input", path, "--report", str(report_path),
            "--plot-out", str(plot_path)]
    assert main(argv) == (1 if case == "defect" else 0)
    report = json.loads(report_path.read_text())
    assert set(report) == {"mode", "m", "status", "timings", "exit_code", *fields}
    if case == "defect":
        assert not plot_path.exists()
        return
    assert report["profiles"]
    for entry in report["profiles"].values():
        assert set(entry) == {"points", "slope", "status", "terminal"}
    # A series is named by its report key.
    plotted = {}
    for row in plot_path.read_text().splitlines()[1:]:
        delta, value, series = row.split(",")
        plotted.setdefault(series, []).append([float(delta), float(value)])
    assert plotted == {name: sorted(entry["points"], reverse=True)
                       for name, entry in report["profiles"].items()}


class _SpecialValues:
    """A curve stand-in whose components cycle through floats with odd reprs."""

    nodes = (0.0, 1.0)

    @staticmethod
    def f(t, deriv=0):
        return np.resize([-0.0, 5e-324, 1e22, 1.0 / 3.0, -2.5e-7], t.shape) * (deriv + 1)

    g = h = f


def test_grid_writer_writes_what_csv_writer_would(tmp_path):
    from heiswhit import synthesize

    def check(path, floats):
        # The file's bytes against csv.writer's on the rows read back, with
        # the first `floats` fields of each row parsed as floats.
        text = path.read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[float(c) for c in row[:floats]] + row[floats:] for row in rows])
        assert text == want.getvalue()
        return header, rows

    samples = load_input(write_csv(tmp_path / "circle.csv", circle_rows(12)))[0]
    grid_path = tmp_path / "grid.csv"
    config = RunConfig(mode="synthesize", input_path="unused.csv", grid_out=str(grid_path),
                       grid_samples=101)
    synthesized = synthesize(samples, 2)
    for curve in (synthesized, _SpecialValues()):
        cli._write_grid(curve, config)
        header, rows = check(grid_path, 5)
        assert header == ["t", "x", "y", "z", "defect"]
        assert len(rows) == 101

    plot_path = tmp_path / "plot.csv"
    odd = Profile(((1e22, 5e-324), (1.0 / 3.0, 1e22), (2.5e-7, 1.0 / 3.0), (5e-324, -0.0)))
    emit_plot_data({**synthesized.modulus, 'odd, "quoted"\nname': odd}, str(plot_path))
    header, rows = check(plot_path, 2)
    assert header == ["delta", "value", "series"]
    assert len(rows) == 4 + sum(len(p) for p in synthesized.modulus.values())
    assert 'odd, "quoted"\nname' in {row[2] for row in rows}


def test_synthesize_report_audit_matches_direct_evaluation(tmp_path):
    from heiswhit import synthesize

    input_path = write_csv(tmp_path / "circle.csv", circle_rows(24))
    docs = []
    for name in ("a.json", "b.json"):
        report_path = tmp_path / name
        config = RunConfig(mode="synthesize", input_path=input_path, m=2,
                           report_path=str(report_path))
        assert run(config) == 0
        docs.append(json.loads(report_path.read_text()))
    audit = docs[0]["audit"]
    assert audit == docs[1]["audit"]

    samples = load_input(input_path)[0]
    curve = synthesize(samples, 2)
    nodes = samples.nodes
    repro = max(
        abs(got - want)
        for t, point in zip(nodes, samples.points)
        for got, want in zip(curve(t), point)
    )
    assert audit["node_error"] == repro
    assert audit["node_error"] <= 1e-10
    for name, ext in zip("fgh", (curve.f, curve.g, curve.h)):
        assert audit["breakpoint_jumps"][name] == ext.breakpoint_jumps(2)
        assert len(audit["breakpoint_jumps"][name]) == 3
    # The defect bound of every piece, in scalar arithmetic: D = h' - 2(f'g - fg')
    # from the stored coefficients, every row read as sum_k |c_k| r^k by Horner,
    # and |D| + gamma (|h'| + 2(|f'||g| + |f||g'|)) times 1 + 3 gamma.
    width = max(c._table(0).shape[1] for c in (curve.f, curve.g, curve.h))
    gamma = (curve.h._table(1).shape[1] + 4) * np.finfo(float).eps / 2.0
    spans = [curve.f.breakpoints[0], *curve.f.breakpoints, curve.f.breakpoints[-1]]
    bounds = []
    for i, center in enumerate(curve.f.centers):
        f, g, h = ((c._table(0)[i].tolist() + [0.0] * 2 * width)[: 2 * width]
                   for c in (curve.f, curve.g, curve.h))
        df, dg, dh = ([k * c[k] for k in range(1, len(c))] for c in (f, g, h))
        d = []
        for k in range(2 * width - 2):
            dfg = fdg = 0.0
            for j in range(k + 1):
                dfg += df[j] * g[k - j]
                fdg += f[j] * dg[k - j]
            d.append(dh[k] - 2.0 * (dfg - fdg))
        r = max(abs(spans[i] - center), abs(spans[i + 1] - center))

        def at(row):
            out = 0.0
            for c in reversed(row):
                out = out * r + abs(c)
            return out

        size = at(dh) + 2.0 * (at(df) * at(g) + at(f) * at(dg))
        bounds.append((at(d) + gamma * size) * (1.0 + 3.0 * gamma))
    top = bounds.index(max(bounds))
    assert audit["defect_piece"] == [top, spans[top], spans[top + 1]]
    assert docs[0]["defect"] == bounds[top] <= 1e-12
    amps = docs[0]["bump_amplitudes"]
    top = amps.index(max(amps))
    assert audit["max_bump"] == max(amps) > 0.0
    assert audit["max_bump_gap"] == [nodes[top], nodes[top + 1]]


def test_run_missing_input_exits_3(tmp_path, capsys):
    config = RunConfig(mode="check-c1", input_path=str(tmp_path / "nope.csv"))
    assert run(config) == 3
    assert "error:" in capsys.readouterr().err


def test_run_single_sample_json_exits_3(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"samples": [{"t": 0, "x": 0, "y": 0, "z": 0}]}')
    config = RunConfig(mode="check-cm", input_path=str(path), m=1)
    assert run(config) == 3
    assert "error:" in capsys.readouterr().err


def test_run_maps_memory_error_to_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 695. GiB")

    monkeypatch.setitem(cli.CHECKERS, "check-cm", exhausted)
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    assert run(RunConfig(mode="check-cm", input_path=path)) == 3
    assert "error: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, name", [("check-c1", "check_c1"), ("check-cm", "check_cm"), ("check-cm-w", "check_cm_via_w")]
)
def test_main_calls_the_checker_bound_on_horizontal_now(tmp_path, monkeypatch, mode, name):
    # A wrapper put on heiswhit.horizontal after import (a tracer's, say)
    # is the one main calls.
    seen, checker = [], getattr(horizontal, name)

    def patched(curve, *args, **kwargs):
        seen.append(len(curve.nodes))
        return checker(curve, *args, **kwargs)

    monkeypatch.setattr(horizontal, name, patched)
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    assert main(["--mode", mode, "--input", path, "--report", str(tmp_path / "r.json")]) == 0
    assert seen == [12]


def test_main_refuses_a_subset_table_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    # 64 nodes, m = 3, windows of 40: the table is checked against the
    # memory figure before dd_windows lists a single subset.
    def unlisted(*args, **kwargs):
        raise AssertionError("the subset list was built")

    monkeypatch.setattr(divdiff, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(divdiff, "dd_windows", unlisted)
    path = write_csv(tmp_path / "circle.csv", circle_rows(64))
    argv = ["--mode", "check-cm", "--m", "3", "--window", "40", "--input", path]
    assert main(argv) == 3
    count = sum(math.comb(min(40, 64 - first) - 1, 3) for first in range(64))
    assert f"error: {count} subsets of 4 nodes" in capsys.readouterr().err


def test_run_finiteness_inconclusive_exits_2(tmp_path):
    report_path = tmp_path / "report.json"
    config = RunConfig(
        mode="finiteness",
        input_path=write_csv(tmp_path / "circle.csv", circle_rows(12)),
        m=2,
        omega="power:1:0.5",
        report_path=str(report_path),
    )
    assert run(config) == 2
    report = json.loads(report_path.read_text())
    assert report["status"] == "inconclusive"
    assert set(report["constants"]) == {"M_hat", "C2_hat", "subsets_scanned"}
    assert len(report["worst_pair"]) == 2


def benchmark_inputs():
    """perfbench/inputs.py, the benchmark's sample generator, as a module."""
    spec = importlib.util.spec_from_file_location(
        "inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_finiteness_on_a_subnormal_modulus_exits_2_quietly(tmp_path, capsys):
    # At c = 1e-320, velocity * omega underflows to 0 and every ratio is inf;
    # an inf profile once read as collapsed (exit 0), with numpy warnings on stderr.
    inputs = benchmark_inputs()
    paths = {family: str(tmp_path / f"{family}.csv") for family in ("drift", "circle")}
    for family, path in paths.items():
        inputs.write_samples(path, inputs.make_rows(1, "x", family, 13))
    argv = ["--mode", "finiteness", "--m", "2", "--input"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths.values():  # the circle's C2_hat overflows too
            assert main([*argv, path, "--omega", "power:1e-320:1"]) == 2
        assert capsys.readouterr().err == ""
        assert main([*argv, paths["drift"], "--omega", "power:1:1"]) == 1


def test_reports_are_strict_json_with_non_finite_values_as_strings(tmp_path):
    # The subnormal modulus's report once held the tokens Infinity and NaN,
    # which are not JSON (RFC 8259).
    path = str(tmp_path / "drift.csv")
    inputs = benchmark_inputs()
    inputs.write_samples(path, inputs.make_rows(1, "x", "drift", 13))
    report_path = tmp_path / "report.json"
    argv = ["--mode", "finiteness", "--m", "2", "--omega", "power:1e-320:1", "--input", path,
            "--report", str(report_path)]
    assert main(argv) == 2

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    assert report["constants"]["M_hat"] == "inf"
    assert report["profiles"]["finiteness_ratio"]["slope"] == "nan"
    assert cli._strict({"a": (-math.inf, 1.5, np.float64(math.nan)), "b": [True, None]}) == {
        "a": ["-inf", 1.5, "nan"], "b": [True, None]}


def test_finiteness_window_applies_on_twenty_nodes_or_fewer(tmp_path):
    # Full enumeration up to 20 nodes is only the default when no window is set.
    report_path = tmp_path / "report.json"
    path = write_csv(tmp_path / "circle.csv", circle_rows(13))
    argv = ["--mode", "finiteness", "--m", "2", "--window", "6", "--input", path,
            "--report", str(report_path)]
    assert main(argv) != 3
    scanned = json.loads(report_path.read_text())["constants"]["subsets_scanned"]
    assert scanned == divdiff._subset_count(13, 3, 6) < math.comb(13, 4)


@pytest.mark.parametrize("mode", ["check-cm", "check-cm-w", "synthesize", "finiteness"])
def test_full_enum_reports_equal_a_window_of_every_node(tmp_path, mode):
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    reports = {}
    for name, flags in (("full", ["--full-enum"]), ("window", ["--window", "12"]),
                        ("both", ["--full-enum", "--window", "5"]), ("default", [])):
        report_path = tmp_path / f"{name}.json"
        argv = ["--mode", mode, "--m", "1", "--input", path, "--report", str(report_path)]
        assert main([*argv, *flags]) != 3
        reports[name] = json.loads(report_path.read_text())
        del reports[name]["timings"]
    # --full-enum wins over a valid --window.
    assert reports["full"] == reports["window"] == reports["both"]
    if mode in ("check-cm", "check-cm-w"):  # the default window of 6 nodes scans fewer
        assert reports["default"] != reports["full"]


@pytest.mark.parametrize("rows,status", [
    (circle_rows(9), "consistent"),
    ([(t, p.x, p.y, p.z) for t, p in zip(line_curve(5).nodes, line_curve(5).points)],
     "inconclusive"),
])
def test_finiteness_profile_carries_the_report_status(tmp_path, rows, status):
    # The decay rule of classify would call these profiles inconclusive and
    # inconsistent; the finiteness verdict is the boundedness rule.
    report_path = tmp_path / "report.json"
    config = RunConfig(mode="finiteness", input_path=write_csv(tmp_path / "in.csv", rows),
                       m=1, report_path=str(report_path))
    assert run(config) == {"consistent": 0, "inconclusive": 2}[status]
    report = json.loads(report_path.read_text())
    entry = report["profiles"]["finiteness_ratio"]
    assert report["status"] == entry["status"] == status
    assert entry["slope"] == Profile(tuple(map(tuple, entry["points"]))).slope()


def test_run_json_m_hint_overrides_flag(tmp_path):
    rows = circle_rows(12)
    doc = {
        "m": 2,
        "samples": [
            {"t": t, "x": x, "y": y, "z": z} for t, x, y, z in rows
        ],
    }
    path = tmp_path / "hinted.json"
    path.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    config = RunConfig(
        mode="check-cm", input_path=str(path), m=1,
        report_path=str(report_path),
    )
    run(config)
    assert json.loads(report_path.read_text())["m"] == 2


def first_order_report(tmp_path, path, argv=()):
    """check-c1's report on the samples at path, without its timings."""
    report_path = tmp_path / "report.json"
    argv = ["--mode", "check-c1", "--input", str(path), "--report", str(report_path), *argv]
    assert main(argv) == 0
    report = json.loads(report_path.read_text())
    del report["timings"]
    return report


def test_check_c1_reports_first_order_whatever_the_m_flag(tmp_path):
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    report = first_order_report(tmp_path, path, ["--m", "3", "--window", "5"])
    assert report["m"] == 1
    assert report == first_order_report(tmp_path, path)


def test_check_c1_reports_first_order_whatever_the_file_hint(tmp_path):
    samples = [{"t": t, "x": x, "y": y, "z": z} for t, x, y, z in circle_rows(12)]
    hinted, plain = tmp_path / "hinted.json", tmp_path / "plain.json"
    hinted.write_text(json.dumps({"m": 3, "samples": samples}))
    plain.write_text(json.dumps({"samples": samples}))
    report = first_order_report(tmp_path, hinted)
    assert report["m"] == 1
    assert report == first_order_report(tmp_path, plain)


def test_run_plot_out_writes_checker_profiles(tmp_path):
    plot_path = tmp_path / "plot.csv"
    config = RunConfig(
        mode="check-c1",
        input_path=drift_csv(tmp_path / "drift.csv", n=16),
        report_path=str(tmp_path / "report.json"),
        plot_out=str(plot_path),
    )
    run(config)
    rows = plot_path.read_text().splitlines()
    assert rows[0] == "delta,value,series"
    assert {r.split(",")[2] for r in rows[1:]} == {"pansu_xy_osc", "pansu_z"}


def test_reports_are_deterministic_modulo_timings(tmp_path):
    input_path = poly_csv(tmp_path / "poly.csv")
    reports = []
    for name in ("a.json", "b.json"):
        report_path = tmp_path / name
        config = RunConfig(
            mode="check-cm", input_path=input_path, m=1,
            report_path=str(report_path),
        )
        run(config)
        doc = json.loads(report_path.read_text())
        del doc["timings"]
        reports.append(json.dumps(doc, sort_keys=True))
    assert reports[0] == reports[1]


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ParseError):
        RunConfig(mode="paint", input_path="x.csv")
    with pytest.raises(ParseError):
        RunConfig(mode="check-cm", input_path="x.csv", m=0)
    with pytest.raises(ParseError):
        RunConfig(mode="synthesize", input_path="x.csv", grid_samples=1)


def test_parse_omega():
    omega = parse_omega("power:2:0.5")
    assert omega(4.0) == pytest.approx(4.0)
    for bad in ("power:2", "exp:1:1", "power:a:b", "power:inf:1", "power:nan:1"):
        with pytest.raises(ParseError):
            parse_omega(bad)


def test_check_report_thresholds_are_the_policy_constants(tmp_path):
    report_path = tmp_path / "report.json"
    config = RunConfig(mode="check-cm", input_path=write_csv(tmp_path / "c.csv", circle_rows(16)),
                       report_path=str(report_path))
    assert run(config) == 0
    report = json.loads(report_path.read_text())
    assert "constants" not in report
    assert report["thresholds"] == {
        "slope_consistent": ThresholdPolicy.slope_consistent,
        "slope_flat": ThresholdPolicy.slope_flat,
        "rel_tol": ThresholdPolicy.rel_tol,
        "zero_tol": ThresholdPolicy.zero_tol,
        "deadband": ThresholdPolicy.deadband,
    }


def test_env_defaults_and_flag_priority(tmp_path, monkeypatch):
    monkeypatch.setenv("HEISWHIT_MODE", "check-c1")
    monkeypatch.setenv("HEISWHIT_INPUT", "from_env.csv")
    monkeypatch.setenv("HEISWHIT_M", "3")
    monkeypatch.setenv("HEISWHIT_GRID_SAMPLES", "7")
    monkeypatch.setenv("HEISWHIT_FULL_ENUM", "yes")
    config = config_from_args([])
    assert config.mode == "check-c1"
    assert config.input_path == "from_env.csv"
    assert config.m == 3
    assert config.grid_samples == 7
    assert config.full_enum is True
    config = config_from_args(["--m", "2", "--input", "flag.csv"])
    assert config.m == 2
    assert config.input_path == "flag.csv"


@pytest.mark.parametrize("value,want", [
    ("1", True), (" TRUE ", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), (" off", False),
])
def test_full_enum_env_reads_switch_values(monkeypatch, value, want):
    monkeypatch.setenv("HEISWHIT_FULL_ENUM", value)
    argv = ["--mode", "check-cm", "--input", "in.csv"]
    assert config_from_args(argv).full_enum is want
    assert config_from_args([*argv, "--full-enum"]).full_enum is True


def test_main_maps_bad_input_to_exit_3(tmp_path, capsys):
    code = main(["--mode", "check-c1", "--input", str(tmp_path / "nope.csv")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def refused(path):
    """main's exit code and stderr on check-c1 of path, and whether it wrote a report."""
    report = Path(path).with_suffix(".report")
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["--mode", "check-c1", "--input", str(path), "--report", str(report)])
    return code, err.getvalue(), report.exists()


@pytest.mark.parametrize("value", [
    '"0.5"',  # loaded as the number 0.5
    "1" + "0" * 399,  # an uncaught OverflowError: a traceback and exit 1
], ids=["string", "400-digit integer"])
def test_main_refuses_a_json_string_or_an_integer_beyond_float_range(tmp_path, value):
    path = tmp_path / "junk.json"
    samples = [f'{{"t": {t}, "x": 0, "y": 0, "z": 0}}' for t in range(4)]
    samples[2] = samples[2].replace('"x": 0', f'"x": {value}')
    path.write_text('{"samples": [' + ", ".join(samples) + "]}")
    code, err, wrote = refused(path)
    assert (code, wrote) == (3, False)
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1


# One junk sample value as JSON text and as CSV text; None drops the key or field.
JUNK = {
    "string": ('"0.5"', "zero"),
    "boolean": ("true", "true"),
    "null": ("null", ""),
    "list": ("[0.5]", '"[0.5, 1]"'),
    "huge integer": ("9" * 400, "9" * 400),
    "nan": ("NaN", "nan"),
    "missing": (None, None),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(JUNK)), st.sampled_from(["json", "csv"]),
       st.integers(0, 4), st.integers(0, 3),
       st.lists(st.floats(-10.0, 10.0), min_size=15, max_size=15))
@example("string", "json", 2, 1, [0.5] * 15)
@example("huge integer", "json", 2, 1, [0.5] * 15)
def test_one_junk_sample_value_exits_3_with_one_error_line_and_no_report(
    junk, fmt, row, col, values
):
    """Exit codes 0, 1 and 2 are only ever verdicts: a broken sample is an error."""
    rows = [[repr(float(t)), *map(repr, values[3 * t:3 * t + 3])] for t in range(5)]
    rows[row][col] = JUNK[junk][fmt == "csv"]
    if fmt == "csv":
        body = "t,x,y,z\n" + "".join(",".join(v for v in r if v is not None) + "\n" for r in rows)
    else:
        records = ("{" + ", ".join(f'"{k}": {v}' for k, v in zip("txyz", r) if v is not None) + "}"
                   for r in rows)
        body = '{"samples": [' + ", ".join(records) + "]}"
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / f"junk.{fmt}"
        path.write_text(body, encoding="utf-8")
        code, err, wrote = refused(path)
    assert (code, wrote) == (3, False)
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # The report was written after the error handling: a traceback and exit 1.
    ["--mode", "finiteness", "--report", "OUT"],
    # Already exit 3; the same error path.
    ["--mode", "check-c1", "--plot-out", "OUT"],
])
def test_main_maps_an_unwritable_output_to_exit_3(tmp_path, capsys, argv):
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    out = str(tmp_path / "no" / "such" / "dir" / "out.json")
    assert main(["--input", path, *(out if a == "OUT" else a for a in argv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


CHECK_CM = ["--mode", "check-cm", "--input", "IN"]


@pytest.mark.parametrize("argv,env,message", [
    (["--mode", "paint", "--input", "IN"], {}, "argument --mode: invalid choice"),
    (["--mode", "check-c1"], {}, "the following arguments are required: --input"),
    ([*CHECK_CM, "--m", "abc"], {}, "argument --m: invalid int value"),
    (CHECK_CM, {"HEISWHIT_M": "abc"}, "argument --m: invalid int value"),
    (CHECK_CM, {"HEISWHIT_GRID_SAMPLES": "x"}, "argument --grid-samples: invalid int value"),
    ([*CHECK_CM, "--tol", "0.1"], {}, "unrecognized arguments: --tol 0.1"),
    ([*CHECK_CM, "--window", "0"], {}, "window must be at least 3"),
    ([*CHECK_CM, "--window", "2"], {}, "window must be at least 3"),
    (["--mode", "check-cm-w", "--input", "IN", "--m", "2", "--window", "3"], {},
     "window must be at least 4"),
    (["--mode", "synthesize", "--input", "IN", "--window", "2"], {},
     "window must be at least 3"),
    (CHECK_CM, {"HEISWHIT_FULL_ENUM": "ture"}, "HEISWHIT_FULL_ENUM='ture': use 1/true/yes/on"),
    ([*CHECK_CM, "--m", "1", "--full-enum", "--window", "2"], {},
     "window must be at least 3"),
    (["--mode", "finiteness", "--input", "IN", "--full-enum", "--window", "2"], {},
     "window must be at least 3"),
    ([*CHECK_CM, "--delta-ratio", "0.5"], {}, "unrecognized arguments: --delta-ratio 0.5"),
    (CHECK_CM, {"HEISWHIT_TOL": "0.1"}, "no flag reads HEISWHIT_TOL"),
    (CHECK_CM, {"HEISWHIT_DELTA_RATIO": "0.5"}, "no flag reads HEISWHIT_DELTA_RATIO"),
    (["--input", "IN"], {"HEISWHIT_MODE": "paint"}, "argument --mode: invalid choice"),
    (CHECK_CM, {"HEISWHIT_WINDOW": "-1"}, "window must be at least 3"),
    # Only finiteness mode read --omega: both exited 0.
    ([*CHECK_CM, "--m", "1", "--omega", "bogus"], {}, "unsupported omega spec 'bogus'"),
    (["--mode", "synthesize", "--input", "IN"], {"HEISWHIT_OMEGA": "power:0:1"},
     "power modulus needs a positive finite coefficient"),
])
def test_main_maps_usage_and_setting_errors_to_exit_3(
    tmp_path, capsys, monkeypatch, argv, env, message
):
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    monkeypatch.delenv("HEISWHIT_INPUT", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([path if a == "IN" else a for a in argv]) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    path = write_csv(tmp_path / "circle.csv", circle_rows(12))
    argv = ["--mode", "check-c1", "--input", path, "--report", str(tmp_path / "r.json")]
    for _ in range(3):
        assert main(argv) == 0
    assert built == []


def test_main_collects_the_cycles_each_call_leaves(tmp_path):
    path = write_csv(tmp_path / "circle.csv", circle_rows(16))
    argv = ["--mode", "check-cm", "--input", path, "--report", str(tmp_path / "r.json")]
    for _ in range(3):  # fill import-time and first-call caches
        main(argv)
    gc.collect()
    objects = len(gc.get_objects())
    for _ in range(5):
        assert main(argv) == 0
        assert gc.collect() == 0
    assert len(gc.get_objects()) <= objects
    assert gc.get_freeze_count() == 0


def test_main_leaves_a_frozen_heap_frozen(tmp_path):
    path = write_csv(tmp_path / "circle.csv", circle_rows(16))
    argv = ["--mode", "check-c1", "--input", path, "--report", str(tmp_path / "r.json")]
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() >= frozen
    finally:
        gc.unfreeze()
