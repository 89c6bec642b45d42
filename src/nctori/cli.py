"""Command line front end.

Problem files are line oriented:

    kind torus                 |  kind tga
    field sqrt 2               |  field rational
    dim 3                      |  group free 1 torsion 2,4
    row 0 1*rt 0               |  row ...
    ...                        |  ...

Entries are exact: `a/b`, `c/d*rt`, or `a/b+c/d*rt` (also with `-`), where
`rt` stands for sqrt(D) from the field header; D must be a squarefree
integer in [2, 10^18].  Numbers are written in ASCII digits 0-9 only, at
most 4300 of them; that bounds the input alone, and outputs are printed
whole.
Commands:

    canon <file>              reduction g, k and the reduced matrices
    invariants <file>         center data, K-ranks, trace-range basis
    decide <file1> <file2>    the equivalence verdict
    verify-paper-examples     replay the built-in reference inputs

Exit codes: 0 success (Unknown verdicts included), 1 parse error,
2 invariant violation or out of memory, 3 verification failure, 141 stdout
closed by its reader.  The environment variable
SEARCH_HEIGHT (an integer in [0, 1000]) overrides the bounded mu-search
height (default 20).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

from .exactlin import Scalar
from .invariants import (
    DEFAULT_SEARCH_HEIGHT,
    Verdict,
    k_group_ranks,
    morita_equivalent,
    trace_range,
)
from .reduction import SkewMatrix, canonical_form, degeneracy_subgroup
from .twisted import (
    Bicharacter,
    FgGroup,
    hsigma,
    k_group_ranks_tga,
    morita_equivalent_tga,
    trace_range_tga,
)
from . import worked_examples

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_VERIFY = 3
# what a shell reports for a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141

# Squarefreeness is tested by trial division up to the cube root of D,
# about 0.2 s at this bound.
MAX_FIELD_D = 10**18
# The mu-search costs about h^2: 1.1 s at this height on the sqrt10 pair.
MAX_SEARCH_HEIGHT = 1000
# int()'s default string limit; the parser enforces it itself, so a longer
# number is a parse error whatever the Python version or PYTHONINTMAXSTRDIGITS
MAX_DIGITS = 4300


class ProblemSyntaxError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ASCII digits only: \d, int() and Fraction() also read every Unicode
# decimal digit, and int() reads underscores and surrounding blanks
_INT = re.compile(r"[+-]?[0-9]+")
# a part of an entry: named numerator digits with their sign, and denominator
_NUM = r"(?P<{0}>[+-]{1}[0-9]+)(?:/(?P<{0}_den>[0-9]+))?"
_PURE_RAT = re.compile("^" + _NUM.format("rat", "?") + "$")
_PURE_QUAD = re.compile("^" + _NUM.format("quad", "?") + r"\*rt$")
_BOTH = re.compile("^" + _NUM.format("rat", "?") + _NUM.format("quad", "") + r"\*rt$")


def _ascii_int(text: str) -> int | None:
    """int() of an optionally signed run of ASCII digits, else None."""
    return int(text) if _INT.fullmatch(text) else None


def _too_long(text: str) -> bool:
    """A run of more than MAX_DIGITS ASCII digits somewhere in text."""
    return len(text) > MAX_DIGITS and re.search(f"[0-9]{{{MAX_DIGITS + 1}}}", text) is not None


def parse_entry(text: str, d: int | None, line: int) -> tuple[int, int, int, int]:
    """(p, q, r, s) for the entry p/q + (r/s) rt, each part in lowest terms
    with q, s > 0, read straight from the digits the pattern matched."""
    m = _PURE_RAT.match(text) or _PURE_QUAD.match(text) or _BOTH.match(text)
    if m is None:
        raise ProblemSyntaxError(line, f"cannot parse entry {text!r}")
    part = m.groupdict()
    out = []
    for k in ("rat", "quad"):
        num, den = int(part.get(k) or 0), int(part.get(k + "_den") or 1)
        if not den:
            raise ProblemSyntaxError(line, f"zero denominator in entry {text!r}")
        g = math.gcd(num, den)
        out += (num // g, den // g)
    if out[2] and d is None:
        raise ProblemSyntaxError(line, "entry uses rt but the field is rational")
    return tuple(out)


def _pack_entries(entries, d: int | None) -> tuple:
    """The packed matrix (d, den, A, B) of parsed entries over their least
    common denominator, d = B = None when no entry uses rt."""
    den = math.lcm(*(x for r in entries for e in r for x in e[1::2]))
    a = [[p * (den // q) for p, q, _, _ in r] for r in entries]
    if not any(e[2] for r in entries for e in r):
        return None, den, a, None
    return d, den, a, [[x * (den // y) for _, _, x, y in r] for r in entries]


def _words(raw: str):
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if _too_long(stripped):
            raise ProblemSyntaxError(lineno, f"a number has more than {MAX_DIGITS} digits")
        if stripped:
            yield lineno, stripped.split()


def parse_problem(raw: str):
    """Parse a problem file into a SkewMatrix or a Bicharacter."""
    group, packed = _read_problem(raw)
    return SkewMatrix._of_packed(packed) if group is None else Bicharacter._of_packed(group, packed)


def _read_problem(raw: str):
    """(group, packed exponent matrix) of a problem file; group is None for
    a torus."""
    lines = list(_words(raw))
    if not lines:
        raise ProblemSyntaxError(1, "empty problem file")
    pos = 0

    def expect(keyword):
        nonlocal pos
        if pos >= len(lines):
            raise ProblemSyntaxError(lines[-1][0], f"missing {keyword!r} line")
        lineno, words = lines[pos]
        if words[0] != keyword:
            raise ProblemSyntaxError(lineno, f"expected {keyword!r}, got {words[0]!r}")
        pos += 1
        return lineno, words[1:]

    lineno, rest = expect("kind")
    if rest not in (["torus"], ["tga"]):
        raise ProblemSyntaxError(lineno, "kind must be 'torus' or 'tga'")
    kind = rest[0]

    lineno, rest = expect("field")
    if rest == ["rational"]:
        d = None
    elif len(rest) == 2 and rest[0] == "sqrt":
        d = _ascii_int(rest[1])
        if d is None:
            raise ProblemSyntaxError(lineno, f"bad field discriminant {rest[1]!r}")
        if not 2 <= d <= MAX_FIELD_D:
            raise ProblemSyntaxError(
                lineno, f"field discriminant must lie in [2, 10^18], got {rest[1]!r}"
            )
        try:
            Scalar.sqrt(d)
        except ValueError:
            raise ProblemSyntaxError(lineno, f"field discriminant {d} is not squarefree")
    else:
        raise ProblemSyntaxError(lineno, "field must be 'rational' or 'sqrt D'")

    if kind == "torus":
        lineno, rest = expect("dim")
        n = _ascii_int(rest[0]) if len(rest) == 1 else None
        if n is None or n < 0:
            raise ProblemSyntaxError(lineno, "dim needs one nonnegative integer")
        group = None
    else:
        lineno, rest = expect("group")
        free = _ascii_int(rest[1]) if len(rest) == 4 else None
        if free is None or rest[0] != "free" or rest[2] != "torsion":
            raise ProblemSyntaxError(
                lineno, "group line must read 'group free R torsion m1,..,ms' ('-' for none)"
            )
        torsion = () if rest[3] == "-" else tuple(map(_ascii_int, rest[3].split(",")))
        if None in torsion:
            raise ProblemSyntaxError(lineno, f"bad torsion list {rest[3]!r}")
        try:
            group = FgGroup(free, torsion)
        except ValueError as exc:
            raise ProblemSyntaxError(lineno, str(exc))
        n = group.ngens

    rows = []
    while pos < len(lines):
        lineno, words = lines[pos]
        pos += 1
        if words[0] != "row":
            raise ProblemSyntaxError(lineno, f"expected 'row', got {words[0]!r}")
        if len(words) - 1 != n:
            raise ProblemSyntaxError(
                lineno, f"row has {len(words) - 1} entries, expected {n}"
            )
        rows.append([parse_entry(w, d, lineno) for w in words[1:]])
    if len(rows) != n:
        raise ProblemSyntaxError(
            lines[-1][0], f"got {len(rows)} rows, expected {n}"
        )

    return group, _pack_entries(rows, d)


def format_torus(theta: SkewMatrix) -> str:
    d = theta._packed[0]
    out = ["kind torus", "field rational" if d is None else f"field sqrt {d}", f"dim {theta.n}"]
    for r in theta.rows:
        out.append("row " + " ".join(str(x) for x in r))
    return "\n".join(out) + "\n"


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProblemSyntaxError(0, f"cannot read {path}: {exc}")
    return parse_problem(raw)


def _search_height() -> int:
    raw = os.environ.get("SEARCH_HEIGHT")
    if raw is None:
        return DEFAULT_SEARCH_HEIGHT
    if _too_long(raw):
        raise ProblemSyntaxError(0, f"SEARCH_HEIGHT has more than {MAX_DIGITS} digits")
    height = _ascii_int(raw)
    if height is None:
        raise ProblemSyntaxError(0, f"bad SEARCH_HEIGHT value {raw!r}")
    if not 0 <= height <= MAX_SEARCH_HEIGHT:
        raise ProblemSyntaxError(0, f"SEARCH_HEIGHT must lie in [0, {MAX_SEARCH_HEIGHT}], got {raw!r}")
    return height


def cmd_canon(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, SkewMatrix):
        print("invariant violation: canon needs a torus problem", file=sys.stderr)
        return EXIT_INVARIANT
    form = canonical_form(obj)
    print(f"n {obj.n}")
    print(f"k {form.k}")
    for row in form.g.matrix:
        print("g row " + " ".join(str(x) for x in row))
    for row in form.theta_prime.rows:
        print("theta-prime row " + " ".join(str(x) for x in row))
    for row in form.theta_tilde.rows:
        print("theta-tilde row " + " ".join(str(x) for x in row))
    return EXIT_OK


def cmd_invariants(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, SkewMatrix):
        lat = degeneracy_subgroup(obj)
        k0, k1 = k_group_ranks(obj)
        rng = trace_range(obj)
        print("kind torus")
        print(f"dim {obj.n}")
        print(f"center-rank {lat.rank}")
        print("center-torsion 1")
    else:
        rank, torsion = hsigma(obj)
        k0, k1 = k_group_ranks_tga(obj)
        rng = trace_range_tga(obj)
        print("kind tga")
        print(f"group free {obj.group.free_rank} torsion "
              + (",".join(map(str, obj.group.torsion_orders)) or "-"))
        print(f"center-rank {rank}")
        print(f"center-torsion {math.prod(torsion)}")
    print(f"k0-rank {k0}")
    print(f"k1-rank {k1}")
    print(f"trace-range-rank {rng.rank}")
    print("trace-range-basis " + "; ".join(str(b) for b in rng.basis))
    return EXIT_OK


def _print_verdict(v: Verdict) -> None:
    if v.is_equivalent:
        print(f"EQUIVALENT mu={v.mu}")
    elif v.is_unknown:
        print(f"UNKNOWN search-height={v.bound}")
    else:
        print(f"NOT_EQUIVALENT {v.detail}")


def cmd_decide(args) -> int:
    left = _load(args.file1)
    right = _load(args.file2)
    height = _search_height()
    if isinstance(left, SkewMatrix) and isinstance(right, SkewMatrix):
        verdict = morita_equivalent(left, right, height)
    else:
        if isinstance(left, SkewMatrix):
            left = Bicharacter.from_skew(left)
        if isinstance(right, SkewMatrix):
            right = Bicharacter.from_skew(right)
        verdict = morita_equivalent_tga(left, right, height)
    _print_verdict(verdict)
    return EXIT_OK


def cmd_verify(_args) -> int:
    from .invariants import REASON_CENTER
    from .reduction import ONN_SO, act, is_in_onn

    failures = 0

    def check(label, ok):
        nonlocal failures
        print(("ok " if ok else "FAIL ") + label)
        if not ok:
            failures += 1

    g5 = worked_examples.three_torus_transform(5)
    check("dim3 transform special", is_in_onn(g5.matrix) == ONN_SO)
    check(
        "dim3 reduction rational",
        act(g5, worked_examples.three_torus(5, Fraction(1, 7)))
        == worked_examples.three_torus_reduced(5, Fraction(1, 7)),
    )
    g1 = worked_examples.three_torus_transform(1)
    rt2 = Scalar.sqrt(2)
    check(
        "dim3 reduction quadratic",
        act(g1, worked_examples.three_torus(1, rt2))
        == worked_examples.three_torus_reduced(1, rt2),
    )
    check(
        "dim3 trace-range factor",
        morita_equivalent(
            worked_examples.three_torus(5, Fraction(1, 7)),
            worked_examples.three_torus_reduced(5, Fraction(1, 7)),
        ).mu
        == Scalar(5),
    )

    t1, t2 = worked_examples.four_torus_pair(rt2)
    check("dim4 trace ranges equal", trace_range(t1) == trace_range(t2))
    check(
        "dim4 trace range basis",
        trace_range(t1) == trace_range(SkewMatrix([[0, rt2], [-rt2, 0]])),
    )
    check("dim4 center ranks", (degeneracy_subgroup(t1).rank, degeneracy_subgroup(t2).rank) == (2, 0))
    verdict = morita_equivalent(t1, t2)
    check(
        "dim4 verdict center mismatch",
        verdict.kind == "not-equivalent" and verdict.reason == REASON_CENTER,
    )
    return EXIT_VERIFY if failures else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctori",
        description="exact Morita-equivalence invariants of noncommutative tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="reduce a torus matrix to diag(0, nondegenerate)")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("invariants", help="print the Morita invariants of one problem")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("decide", help="decide strong Morita equivalence of two problems")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser(
        "verify-paper-examples",
        help="replay the built-in reference inputs and verify their outputs",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # MAX_DIGITS bounds what is read; what is printed may be longer, so
    # int()'s string limit is lifted while a command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop without a traceback, and
        # send the interpreter's last flush to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ProblemSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ArithmeticError, AssertionError) as exc:
        # an undefined operation or a failed self-check: one line, no traceback
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"invariant violation: {detail}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
