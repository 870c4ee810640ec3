"""Seeded sample files for the benchmark workloads.

Three curve families on nodes in [0, 1] whose interior nodes are jittered
by at most a quarter of the uniform spacing:

- circle: (r cos(wt + p), r sin(wt + p), -2 r^2 w t), horizontal;
- poly:   f a random cubic, g = alpha f + beta, h = 2 beta f + c,
          horizontal because h' = 2 beta f' = 2 (f' g - f g');
- drift:  (t, 0, s t), not horizontal (h' = s while f' g - f g' = 0).

Each family records the exit code a correct verdict gives.  Only the
written files reach the program under test.
"""

import json
import math
import random

EXPECTED_EXIT = {"circle": 0, "poly": 0, "drift": 1}


def jittered_nodes(rng, n):
    step = 1.0 / (n - 1)
    ts = [i * step for i in range(n)]
    for i in range(1, n - 1):
        ts[i] += rng.uniform(-0.25, 0.25) * step
    return ts


def circle(rng, ts):
    r = rng.uniform(0.5, 2.0)
    w = rng.uniform(1.0, 3.0)
    p = rng.uniform(0.0, 2.0 * math.pi)
    return [
        (t, r * math.cos(w * t + p), r * math.sin(w * t + p), -2.0 * r * r * w * t)
        for t in ts
    ]


def poly(rng, ts):
    a = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    alpha, beta, c = (rng.uniform(-1.0, 1.0) for _ in range(3))
    rows = []
    for t in ts:
        f = a[0] + t * (a[1] + t * (a[2] + t * a[3]))
        rows.append((t, f, alpha * f + beta, 2.0 * beta * f + c))
    return rows


def drift(rng, ts):
    s = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    return [(t, t, 0.0, s * t) for t in ts]


FAMILIES = {"circle": circle, "poly": poly, "drift": drift}


def make_rows(seed, tag, family, n):
    """Rows (t, x, y, z) for one file; the same arguments give the same rows."""
    rng = random.Random(f"{seed}:{tag}:{family}:{n}")
    return FAMILIES[family](rng, jittered_nodes(rng, n))


def write_samples(path, rows):
    """Write rows as CSV (header t,x,y,z) or JSON, chosen by the suffix."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            doc = {"samples": [dict(zip("txyz", r)) for r in rows]}
            json.dump(doc, fh)
        else:
            fh.write("t,x,y,z\n")
            for r in rows:
                fh.write(",".join(repr(v) for v in r) + "\n")
