"""The README's library quick tour runs as written: its ```python blocks are
executed in order, in one namespace, so the public API it shows stays real."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_quick_tour_runs():
    blocks = tour_blocks()
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    # the values the tour's comments state
    assert ns["trace_range"](ns["theta"]).basis == (1, ns["rt2"])
    assert ns["hsigma"](ns["sigma"]) == (0, ())
    assert ns["trace_range_tga"](ns["sigma"]).basis == (Fraction(1, 3),)
