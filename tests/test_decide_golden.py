"""Byte-exact stdout of `decide`, the printed mu included, against a
committed fixture.

The fixture holds the verdict on every ordered pair of the sample problems
and on 48 seeded pairs: GL2(Z) Moebius images Z + tau Z of Z + omega Z over
Q(sqrt d), d in {2, 3, 5, 6, 7, 13}, whose mu is found by the search; sqrt10
pairs that end UNKNOWN; multiplier-order mismatches; twisted algebras on
(Z/m)^2, and on Z^2 x (Z/m)^2 against a Moebius image torus.  Regenerate it
only when a change of the printed verdict is intended:

    PYTHONPATH=src:tests python tests/test_decide_golden.py
"""

import contextlib
import io
import itertools
import math
import pathlib
import random
import tempfile
from fractions import Fraction

from nctori.cli import format_torus, main
from nctori.exactlin import Scalar
from nctori.reduction import SkewMatrix

HERE = pathlib.Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDEN = HERE / "data" / "decide_golden.txt"


def _gl2(rng):
    """A GL2(Z) matrix with c != 0, so the Moebius image is no translate."""
    while True:
        m = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 4)):
            t = rng.choice((-2, -1, 1, 2))
            step = rng.choice(([[1, t], [0, 1]], [[1, 0], [t, 1]], [[0, 1], [1, 0]]))
            m = [[sum(m[i][k] * step[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        if m[1][0]:
            return m


def _mobius(m, omega):
    (a, b), (c, e) = m
    return (a * omega + b) / (c * omega + e)


def _quad(rng, d):
    rat = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    quad = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    return Scalar(rat, quad, d)


def _torus(upper, n):
    return format_torus(SkewMatrix.from_upper(n, upper))


def _tga(free, torsion, upper):
    n = free + len(torsion)
    head, _, body = _torus(upper, n).partition(f"dim {n}\n")
    head = head.replace("kind torus", "kind tga")
    return f"{head}group free {free} torsion {','.join(map(str, torsion))}\n{body}"


def _seeded():
    rng = random.Random(20261019)
    for d in (2, 3, 5, 6, 7, 13):
        rt = Scalar.sqrt(d)
        for omega in (_quad(rng, d), _quad(rng, d), (1 + rt) / 2):
            tau = _mobius(_gl2(rng), omega)
            yield f"mobius d={d}", _torus({(0, 1): omega}, 2), _torus({(0, 1): tau}, 2)
    rt10 = Scalar.sqrt(10)
    for _ in range(6):
        yield (
            "sqrt10",
            _torus({(0, 1): _mobius(_gl2(rng), rt10)}, 2),
            _torus({(0, 1): _mobius(_gl2(rng), rt10 / 2)}, 2),
        )
    for d in (2, 3, 5, 6, 7, 13):
        rt = Scalar.sqrt(d)
        yield (
            f"multiplier-order d={d}",
            _torus({(0, 1): _mobius(_gl2(rng), rt)}, 2),
            _torus({(0, 1): _mobius(_gl2(rng), rng.choice((2, 3)) * rt)}, 2),
        )
    for _ in range(8):
        m1, m2 = rng.randint(2, 7), rng.randint(2, 7)
        j1, j2 = rng.randrange(1, m1), rng.randrange(1, m2)
        yield (
            "tga (Z/m)^2",
            _tga(0, (m1, m1), {(0, 1): Fraction(j1, m1)}),
            _tga(0, (m2, m2), {(0, 1): Fraction(j2, m2)}),
        )
    for _ in range(10):
        d = rng.choice((2, 3, 5))
        m = rng.choice((2, 3, 4, 6))
        j = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
        omega = _quad(rng, d)
        upper = {(0, 1): omega, (2, 3): Fraction(j, m)}
        upper[(rng.randrange(2), rng.randrange(2, 4))] = Fraction(rng.randrange(m), m)
        other = _mobius(_gl2(rng), omega) if rng.random() < 0.7 else rng.choice((2, 3)) * omega
        yield f"tga Z^2 x (Z/{m})^2 d={d}", _tga(2, (m, m), upper), _torus({(0, 1): other}, 2)


def cases():
    paths = sorted(PROBLEMS.glob("*.txt"))
    for p1, p2 in itertools.product(paths, repeat=2):
        yield f"{p1.name} {p2.name}", p1.read_text(), p2.read_text()
    yield from _seeded()


def render() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        left = pathlib.Path(tmp) / "left.txt"
        right = pathlib.Path(tmp) / "right.txt"
        for label, text1, text2 in cases():
            left.write_text(text1)
            right.write_text(text2)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["decide", str(left), str(right)])
            out.append(f"== {label}\n{buf.getvalue()}exit {code}\n")
    return "".join(out)


def test_decide_stdout_matches_fixture(monkeypatch):
    monkeypatch.delenv("SEARCH_HEIGHT", raising=False)
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
