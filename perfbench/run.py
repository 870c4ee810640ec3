"""Closed-loop benchmark of the heiswhit CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-m2 --seed 1 --seconds 40 --trace 0

One process is one closed-loop caller: it writes the workload's seeded
sample files, then calls ``heiswhit.cli.main`` in-process on each file in
turn (one pass), and repeats whole passes until the next one would end
after ``--seconds``.  Every call's outputs are checked (see checks.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters that import heiswhit.cli), ``wall_s`` (median
seconds of one pass), ``invocation_s_p50`` (median over the pass's files
of each file's median seconds per call) and ``peak_rss_mb`` (this
process).  The three times are read at reference speed: each launch's
or call's seconds are scaled by REF_S over the time a fixed reference
loop takes just before and just after it (see reference_s).
``--trace 1`` alternates untraced passes with passes under the outside-in
tracer (tracer.py) and reports the per-layer metrics.  The last line of
stdout is the JSON result.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import MODULES, Tracer, span_stats, write_spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_LAUNCHES = 11
GRID_ROWS = 1000
# Median seconds of reference_s() on the machine the baseline was measured
# on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7).
REF_S = 0.12

# (mode, m, family, n, file format) per call of one pass.
WORKLOADS = {
    # Root isolation, the AV hull pass and dd_profile carry the weight;
    # the only workload that reaches pansu_dq (check-c1).
    "check-m2": (
        ("check-cm", 2, "circle", 128, "json"),
        ("check-cm", 2, "poly", 128, "json"),
        ("check-cm", 2, "drift", 128, "json"),
        ("check-c1", 1, "circle", 256, "json"),
    ),
    # The check_cm gate at large n, the discarded O(n^2) validate_field,
    # the PiecewiseCm audit and the grid writer; m=1 bypasses root isolation.
    "synth-m1": (
        ("synthesize", 1, "circle", 512, "csv"),
        ("synthesize", 1, "poly", 512, "csv"),
    ),
    # av_pair and real_roots on every pair of all C(13, 4) subsets; no
    # dd_profile, one banded_sup; drift skips root isolation.
    "finiteness-m2": (
        ("finiteness", 2, "circle", 13, "csv"),
        ("finiteness", 2, "poly", 13, "csv"),
        ("finiteness", 2, "drift", 13, "csv"),
    ),
}

COUNT_SUFFIXES = (".calls", ".subsets", ".items", ".pairs", ".points", ".bands",
                  ".constructed", ".component_reads")


@dataclass(frozen=True)
class Call:
    mode: str
    m: int
    family: str
    n: int
    input: str
    report: str
    grid: str
    grid_rows: int
    expected: int

    @property
    def argv(self):
        argv = ["--mode", self.mode, "--input", self.input, "--report", self.report]
        if self.mode != "check-c1":
            argv += ["--m", str(self.m)]
        if self.mode == "synthesize":
            argv += ["--grid-out", self.grid, "--grid-samples", str(self.grid_rows)]
        if self.mode == "finiteness":
            argv.append("--full-enum")
        return argv


def make_batch(workload, seed, work):
    batch = []
    for i, (mode, m, family, n, fmt) in enumerate(WORKLOADS[workload]):
        stem = work / f"{i}-{mode}-{family}"
        path = f"{stem}.{fmt}"
        inputs.write_samples(path, inputs.make_rows(seed, workload, family, n))
        batch.append(Call(mode, m, family, n, path, f"{stem}.report.json",
                          f"{stem}.grid.csv", GRID_ROWS, inputs.EXPECTED_EXIT[family]))
    return batch


class _Term:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def at(self, x):
        return self.a + x * self.b


def reference_s():
    """Seconds taken by a fixed pure-Python loop that never calls heiswhit.

    A VM's CPU speed can drift by up to a third over minutes, far more
    than one run can average out.  The loop does the same kind of
    interpreter work as the heiswhit calls (small objects, float
    arithmetic, sorting, dicts, float formatting), so its time tracks the
    drift, and dividing a call's time by it cancels most of the drift while
    a change to heiswhit shows in full.
    """
    t0 = perf_counter()
    rng = random.Random(7)
    acc = 0.0
    for k in range(400):
        terms = [_Term(rng.random(), rng.random()) for _ in range(300)]
        vals = sorted(t.at(0.5 + k) for t in terms)
        roots = {i: math.sqrt(v) for i, v in enumerate(vals)}
        acc += sum(roots.values()) + max(vals) - min(vals)
        acc += len(",".join(repr(v) for v in vals[:100]))
    if not acc > 0.0:
        raise RuntimeError("reference loop computed nothing")
    return perf_counter() - t0


def at_ref(seconds, ref_before, ref_after):
    """Seconds scaled to reference speed by the reference times around them."""
    return seconds * REF_S / ((ref_before + ref_after) / 2.0)


def measure_setup():
    """Median seconds, measured and at reference speed, of a fresh
    interpreter importing heiswhit.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times, scaled = [], []
    ref = reference_s()
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        # No timeout: wait() with one polls in steps of up to 50 ms, which
        # would quantise a 0.2 s measurement.
        code = subprocess.Popen([sys.executable, "-c", "import heiswhit.cli"], env=env,
                                cwd=ROOT, stdout=subprocess.DEVNULL).wait()
        dt = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"importing heiswhit.cli exited {code}")
        after = reference_s()
        times.append(dt)
        scaled.append(at_ref(dt, ref, after))
        ref = after
    return statistics.median(times), statistics.median(scaled)


class Loop:
    """Closed-loop caller over one batch, with per-call outcomes."""

    def __init__(self, cli, batch):
        self.cli = cli
        self.batch = batch
        self.passes = 0
        self.ref = reference_s()
        self.refs = [self.ref]
        self.durations = {i: [] for i in range(len(batch))}
        self.scaled = {i: [] for i in range(len(batch))}
        self.codes = {i: [] for i in range(len(batch))}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def one_pass(self):
        """Run every call of the batch once.

        Returns the pass's summed call seconds, as measured and at reference
        speed.
        """
        total = scaled = 0.0
        for i, call in enumerate(self.batch):
            for path in (call.report, call.grid):
                if os.path.exists(path):
                    os.remove(path)
            t0 = perf_counter()
            try:
                code = self.cli.main(call.argv)
            except Exception:  # a raising call is a failed call, not a crash
                code = None
                traceback.print_exc()
            dt = perf_counter() - t0
            ref = reference_s()
            dt_ref = at_ref(dt, self.ref, ref)
            self.ref = ref
            self.refs.append(ref)
            total += dt
            scaled += dt_ref
            self.attempted += 1
            self.durations[i].append(dt)
            self.scaled[i].append(dt_ref)
            self.codes[i].append(code)
            bad = ["raised"] if code is None else checks.problems(call, code)
            if bad:
                self.failed += 1
                print(f"# FAILED {call.mode} {call.family}: {'; '.join(bad)}",
                      file=sys.stderr)
            if code != call.expected:
                self.mismatched += 1
        self.passes += 1
        return total, scaled

    def summary(self):
        for i, call in enumerate(self.batch):
            durs = self.durations[i]
            print(f"# {call.mode} m={call.m} {call.family} n={call.n}: "
                  f"calls={len(durs)} exit={sorted(set(self.codes[i]), key=str)} "
                  f"expected={call.expected} median_s={statistics.median(durs):.4f} "
                  f"durations_s={[round(d, 4) for d in durs]} "
                  f"at_ref_s={[round(d, 4) for d in self.scaled[i]]}")
        print(f"# attempted={self.attempted} failed={self.failed} "
              f"failed_share={self.failed / self.attempted:.4f} "
              f"verdict_mismatch_share={self.mismatched / self.attempted:.4f} "
              f"reference_s_median={statistics.median(self.refs):.4f}")


def run_untraced(loop, seconds):
    walls, elapsed = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        walls.append(loop.one_pass())
        elapsed.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(elapsed) > seconds:
            return walls


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    stats = span_stats(spans)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def self_s(name):
        return stats[name]["self_s"] if name in stats else 0.0

    out = {}
    for name in ("cli.load_input", "divdiff.dd_profile", "divdiff.dd_windows",
                 "divdiff.newton_interp", "divdiff.divided_difference",
                 "av.discrete_av_profile", "av.av_pair", "av.av_profile",
                 "poly.real_roots", "poly.abs_integral_between", "profiles.banded_sup",
                 "profiles.classify", "whitney.PiecewiseCm.eval", "heis.pansu_dq",
                 "heis.CurveJets.from_polys"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("cli.run", "horizontal.check_cm", "horizontal.check_c1",
                 "horizontal.synthesize", "horizontal.finiteness_check",
                 "horizontal.gap_horizontalize", "whitney.jets_from_samples",
                 "whitney.extend", "whitney.validate_field"):
        out[f"{name}.self_s"] = self_s(name)
    out["horizontal.gap_horizontalize.calls"] = calls("horizontal.gap_horizontalize")
    out["heis.leibniz_stack.calls"] = calls("heis.leibniz_stack")

    discarded = sum(
        end - start for name, start, end, parent, _ in spans
        if name in ("whitney.extend", "horizontal.horizontal_jet_completion")
        and parent >= 0 and spans[parent][0] == "horizontal.synthesize"
    ) + 0.0
    synth_total = stats["horizontal.synthesize"]["total_s"] if "horizontal.synthesize" in stats else 0.0
    out["horizontal.discarded_s"] = discarded
    out["horizontal.discarded_share"] = discarded / synth_total if synth_total else 0.0

    reads = [f"divdiff.SampledCurve.{c}" for c in ("fs", "gs", "hs")]
    out["divdiff.subsets"] = tracer.counts["divdiff.subsets"]
    out["divdiff.component_reads"] = sum(calls(r) for r in reads)
    out["divdiff.component_read_s"] = sum(stats[r]["total_s"] for r in reads if r in stats)
    out["av.pairs"] = tracer.counts["av.pairs"]
    roots = calls("poly.real_roots")
    out["poly.real_roots.hit_share"] = tracer.counts["poly.real_roots.hits"] / roots if roots else 0.0
    out["poly.Poly.constructed"] = tracer.counts["poly.Poly.constructed"]
    out["profiles.banded_sup.items"] = tracer.counts["profiles.banded_sup.items"]
    out["profiles.bands"] = tracer.counts["profiles.bands"]
    out["whitney.validate_field.pairs"] = tracer.counts["whitney.validate_field.pairs"]
    out["whitney.PiecewiseCm.eval.points"] = tracer.counts["whitney.PiecewiseCm.eval.points"]
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum((s["self_s"] for name, s in stats.items()
                                      if name.startswith(layer + ".")), 0.0)
    return out


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)


def run_traced(loop, seconds, spans_path):
    """Pairs of one untraced and one traced pass, the order alternating.

    Returns (metrics, repeat); repeat is false when a count metric differs
    between traced passes.
    """
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if len(per_pass) % 2:
            plain.append(loop.one_pass())
        tracer.install()
        try:
            traced.append(loop.one_pass())
        finally:
            tracer.uninstall()
        if len(per_pass) % 2 == 0:
            plain.append(loop.one_pass())
        write_spans(tracer.spans, spans_path, pass_no=len(per_pass))
        per_pass.append(layer_metrics(tracer))
        tracer.reset()
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    first = per_pass[0]
    repeat = all(p[k] == first[k] for p in per_pass for k in first if is_count(k))
    metrics = {
        k: first[k] if is_count(k) else statistics.median(p[k] for p in per_pass)
        for k in first
    }
    # Passes at reference speed, so that drift between passes cancels.
    metrics["trace.overhead_ratio"] = (statistics.median(t[1] for t in traced)
                                       / statistics.median(p[1] for p in plain))
    metrics["verdict_mismatch_share"] = loop.mismatched / loop.attempted
    return metrics, repeat


def unit_of(name):
    if is_count(name):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace.overhead_ratio" else "share"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heiswhit" / "cli.py").is_file():
        print(f"error: heiswhit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        batch = make_batch(args.workload, args.seed, work)
        if args.trace:
            from heiswhit import cli

            loop = Loop(cli, batch)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, repeat = run_traced(loop, args.seconds, spans_path)
            correct = loop.failed == 0 and repeat
            if not repeat:
                print("# count metrics differ between traced passes", file=sys.stderr)
            print(f"# spans written to {spans_path.relative_to(ROOT)}")
        else:
            setup_measured, setup = measure_setup()
            from heiswhit import cli

            loop = Loop(cli, batch)
            walls = run_untraced(loop, args.seconds)
            all_calls = [d for durs in loop.durations.values() for d in durs]
            # Each file's median first, so every input weighs the same however
            # many passes ran, and one outlying call cannot tip a median that
            # falls between a cheap file and a costly one.
            metrics = {
                "wall_s": statistics.median(w[1] for w in walls),
                "invocation_s_p50": statistics.median(
                    statistics.median(durs) for durs in loop.scaled.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup,
            }
            print(f"# passes={len(walls)} calls={len(all_calls)} setup_launches={SETUP_LAUNCHES} "
                  f"measured_setup_s={setup_measured:.4f} "
                  f"measured_wall_s={statistics.median(w[0] for w in walls):.4f} "
                  f"pass_walls_s={[round(w[0], 4) for w in walls]} "
                  f"pass_walls_at_ref_s={[round(w[1], 4) for w in walls]}")
            correct = loop.failed == 0
        loop.summary()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {"wall_s": "s", "invocation_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
