"""Measure bump amplitude against height mismatch on a gap with nothing else to close.

Synthesis closes a pure height mismatch c across a gap with an oscillating
pair of bumps whose amplitude must scale like sqrt(c): the enclosed signed
area is quadratic in the amplitude.  At order m the samples are m + 1
unit-spaced nodes, every one at the origin except the last, at height c
(two nodes at m = 1), so the fitted jets are flat, only the last gap has a
deficit, and every other gap's amplitude is 0.  The script sweeps c over
several decades and prints the last gap's amplitude, amplitude/sqrt(c), and
the audited horizontality defect; the middle column should be flat.
"""

import argparse
import math
import sys

from heiswhit import SampledCurve, synthesize


def mismatch_rows(m, c):
    """m + 1 unit-spaced samples at the origin, the last lifted to height c."""
    return [(float(i), 0.0, 0.0, 0.0) for i in range(m)] + [(float(m), 0.0, 0.0, c)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mismatches", type=float, nargs="+",
        default=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
    )
    parser.add_argument("--m", type=int, default=1)
    args = parser.parse_args(argv)

    print(f"{'mismatch':>12} {'amplitude':>14} {'amp/sqrt':>12} {'defect':>10}")
    for c in args.mismatches:
        curve = synthesize(SampledCurve.from_rows(mismatch_rows(args.m, c)), args.m, force=True)
        amp = curve.bump_amplitudes[-1]
        print(
            f"{c:>12.3g} {amp:>14.8g} {amp / math.sqrt(abs(c)):>12.6g} "
            f"{curve.defect:>10.2e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
