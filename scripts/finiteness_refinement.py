"""Track the finiteness constants M-hat and C2-hat under grid refinement.

For the circle fixture the ratio bound certified by interpolants over
(m+2)-point subsets should stabilize as nodes are added; for the vertical
drift M-hat must blow up (no horizontal curve matches it at any scale).
The script prints both constants, the verdict, the scanned subset count,
and the witnessing subset at each grid size.
"""

import argparse
import math
import sys

from heiswhit import ModulusFn, SampledCurve, finiteness_check


def circle(n):
    ts = [i / (n - 1) for i in range(n)]
    return SampledCurve.from_rows(
        [(t, math.cos(t), math.sin(t), -2.0 * t) for t in ts]
    )


def drift(n):
    ts = [i / (n - 1) for i in range(n)]
    return SampledCurve.from_rows([(t, t, 0.0, t) for t in ts])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 12, 16])
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--omega-coeff", type=float, default=1.0)
    parser.add_argument("--omega-exponent", type=float, default=1.0)
    args = parser.parse_args(argv)

    omega = ModulusFn(args.omega_coeff, args.omega_exponent)
    for label, make in (("circle", circle), ("drift", drift)):
        print(f"=== {label} (m={args.m}) ===")
        header = (
            f"{'n':>4} {'M_hat':>12} {'C2_hat':>12} {'status':>14} "
            f"{'subsets':>8}  worst pair"
        )
        print(header)
        for n in args.sizes:
            report = finiteness_check(make(n), args.m, omega)
            a, b = report.worst_pair
            print(
                f"{n:>4} {report.m_hat:>12.6g} {report.c2_hat:>12.6g} "
                f"{report.status:>14} {report.subsets_scanned:>8}  "
                f"({a:.4g}, {b:.4g})"
            )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
