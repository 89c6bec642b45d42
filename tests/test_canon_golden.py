"""Byte-exact stdout of `canon`, g included, against a committed fixture.

The fixture holds the output on the torus sample problems and on 20 seeded
tori (rational and Q(sqrt 2), n = 1..8).  Regenerate it only when a change
of the printed g is intended:

    PYTHONPATH=src:tests python tests/test_canon_golden.py
"""

import contextlib
import io
import pathlib
import random
import tempfile

from conftest import random_skew
from nctori.cli import format_torus, main

HERE = pathlib.Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDEN = HERE / "data" / "canon_golden.txt"

TORUS_PROBLEMS = (
    "four_torus_center0.txt",
    "four_torus_center2.txt",
    "rational_3x3.txt",
    "three_torus_m5.txt",
    "three_torus_sqrt2.txt",
)


def cases():
    for name in TORUS_PROBLEMS:
        yield name, (PROBLEMS / name).read_text()
    rng = random.Random(20261018)
    for i in range(20):
        n = 1 + (i // 2) % 8
        quad_prob = 0.5 if i % 2 else 0.0
        yield f"seeded-{i} n={n} quad_prob={quad_prob}", format_torus(
            random_skew(rng, n, quad_prob=quad_prob)
        )


def render() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "problem.txt"
        for label, text in cases():
            path.write_text(text)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["canon", str(path)])
            out.append(f"== {label}\n{buf.getvalue()}exit {code}\n")
    return "".join(out)


def test_canon_stdout_matches_fixture():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
