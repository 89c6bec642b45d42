"""Byte-exact stdout of `invariants` against a committed fixture.

The fixture holds the output on every sample problem (tori and twisted
group algebras), on 36 seeded tori (rational and Q(sqrt 2), n = 0..8) and
on 18 seeded twisted group algebras (free rank 0..2, torsion none, 2,4 and
3,6; rational or Q(sqrt 2) on the free block).  Regenerate it only when a
change of the printed invariants is intended:

    PYTHONPATH=src:tests python tests/test_invariants_golden.py
"""

import contextlib
import io
import math
import pathlib
import random
import tempfile
from fractions import Fraction

from conftest import random_fraction, random_skew
from nctori.cli import format_torus, main
from nctori.exactlin import Scalar
from nctori.reduction import SkewMatrix

HERE = pathlib.Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDEN = HERE / "data" / "invariants_golden.txt"


def _tga(rng, free, torsion, quad_prob):
    """A problem file for a random bicharacter on Z^free x torsion: a pair
    involving a torsion generator pairs by roots of unity of the gcd of the
    orders involved; free pairs take any entry."""
    orders = (0,) * free + torsion
    n = len(orders)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = math.gcd(orders[i], orders[j])
            if m:
                upper[(i, j)] = Fraction(rng.randrange(m), m)
            else:
                quad = random_fraction(rng) if rng.random() < quad_prob else 0
                upper[(i, j)] = Scalar(random_fraction(rng), quad, 2 if quad else None)
    head, _, body = format_torus(SkewMatrix.from_upper(n, upper)).partition(f"dim {n}\n")
    head = head.replace("kind torus", "kind tga")
    return f"{head}group free {free} torsion {','.join(map(str, torsion)) or '-'}\n{body}"


def cases():
    for p in sorted(PROBLEMS.glob("*.txt")):
        yield p.name, p.read_text()
    rng = random.Random(20261020)
    for n in range(9):
        for quad_prob in (0.0, 0.5):
            for k in range(2):
                yield f"torus-{k} n={n} quad_prob={quad_prob}", format_torus(
                    random_skew(rng, n, quad_prob=quad_prob)
                )
    for free in range(3):
        for torsion in ((), (2, 4), (3, 6)):
            for quad_prob in (0.0, 0.5):
                label = f"tga free={free} torsion={torsion} quad_prob={quad_prob}"
                yield label, _tga(rng, free, torsion, quad_prob)


def render() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "problem.txt"
        for label, text in cases():
            path.write_text(text)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["invariants", str(path)])
            out.append(f"== {label}\n{buf.getvalue()}exit {code}\n")
    return "".join(out)


def test_invariants_stdout_matches_fixture():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
