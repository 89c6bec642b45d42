#!/usr/bin/env python3
"""Regenerate the baseline rows of the ROADMAP table (n = 6, 8, 10).

    python3 bench/baseline.py

Run from the root of a checkout.  Inputs follow the ROADMAP table: one
random skew matrix per n with entries a/b + (c/e)*sqrt 2, |a|, |c| <= 12,
denominators <= 12, an irrational part with probability 1/2, drawn from a
fresh ``random.Random(5)`` for each n.  Each stage is timed REPEATS times
and the median reported.  The table goes to stdout, the numbers to
``bench/out/baseline.json``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from run import N12_NOTE, OUT, ROOT, source_identity

SIZES = (6, 8, 10)
REPEATS = 3


def random_fraction(rng, denom_max=12, num_max=12):
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, denom_max))


def random_skew(nctori, rng, n, denom_max=12, quad_prob=0.5):
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            rat = random_fraction(rng, denom_max)
            quad = random_fraction(rng, denom_max) if rng.random() < quad_prob else Fraction(0)
            entries[(i, j)] = nctori.Scalar(rat, quad, 2 if quad else None)
    return nctori.SkewMatrix.from_upper(n, entries)


def timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import nctori

    rows = {}
    for n in SIZES:
        theta = random_skew(nctori, random.Random(5), n)
        rows[n] = {
            "degeneracy_subgroup": timed(lambda: nctori.degeneracy_subgroup(theta)),
            "trace_range": timed(lambda: nctori.trace_range(theta)),
            "canonical_form": timed(lambda: nctori.canonical_form(theta)),
            "decide_theta_neg_theta": timed(lambda: nctori.morita_equivalent(theta, theta.neg())),
        }
    print("| n  | degeneracy | trace_range | canonical_form | decide(θ, −θ) |")
    print("|----|-----------:|------------:|---------------:|--------------:|")
    for n, r in rows.items():
        cells = " | ".join(f"{v * 1e3:.1f} ms" for v in r.values())
        print(f"| {n:<2} | {cells} |")
    print(N12_NOTE)
    OUT.mkdir(exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps(
        {**source_identity(), "repeats": REPEATS, "seconds": rows, "note": N12_NOTE}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
