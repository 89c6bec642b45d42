import argparse
import functools
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from nctori import cli, exactlin, invariants, twisted
from nctori.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    ProblemSyntaxError,
    format_torus,
    main,
    parse_entry,
    parse_problem,
)
from nctori.exactlin import Scalar
from nctori.reduction import ActionUndefined, SkewMatrix
from nctori.twisted import Bicharacter, FgGroup
from nctori.worked_examples import three_torus

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def fraction_route(text, d):
    """The entry parse before it built Fractions from the matched digits:
    Fraction(str) of each part, the sign of a two-part entry applied after."""
    num = r"[+-]?[0-9]+(?:/[0-9]+)?"
    rat = quad = Fraction(0)
    if m := re.match(rf"^({num})$", text):
        rat = Fraction(m[1])
    elif m := re.match(rf"^({num})\*rt$", text):
        quad = Fraction(m[1])
    elif m := re.match(rf"^({num})([+-])([0-9]+(?:/[0-9]+)?)\*rt$", text):
        rat, quad = Fraction(m[1]), Fraction(m[3]) * (-1 if m[2] == "-" else 1)
    else:
        raise ValueError(text)
    return Scalar(rat, quad, d if quad else None)


def parts(x):
    """(p, q, r, s) of a Scalar p/q + (r/s) rt, each part in lowest terms."""
    return (x.rat.numerator, x.rat.denominator, x.quad.numerator, x.quad.denominator)


def fraction_route_matrix(raw):
    """The rows of a problem file, each entry by :func:`fraction_route`."""
    field = re.search(r"^field sqrt ([0-9]+)$", raw, re.M)
    d = int(field[1]) if field else None
    return [
        [fraction_route(w, d) for w in line.split()[1:]]
        for line in raw.splitlines()
        if line.startswith("row ")
    ]


class TestEntryParsing:
    @pytest.mark.parametrize(
        "text",
        ["+3", "-0/5", "007/010", "1" * 60, "-" + "9" * 60 + "/7", "1/2+3/4*rt",
         "-1/2-3/4*rt", "5*rt", "+0*rt", "-6/4+0/9*rt", "0-2/6*rt", "+7/1-010/4*rt"],
    )
    def test_matches_fraction_route(self, text):
        # each part in lowest terms, as a Fraction holds it
        want = fraction_route(text, 2)
        assert parse_entry(text, 2, 1) == parts(want)

    @pytest.mark.parametrize("text", ["1/0", "-0/0", "1/00", "1+1/0*rt", "1/0-1*rt", "3/0*rt"])
    def test_zero_denominator(self, text):
        with pytest.raises(ZeroDivisionError):
            fraction_route(text, 2)
        with pytest.raises(ProblemSyntaxError, match="zero denominator"):
            parse_entry(text, 2, 1)

    def test_forms(self):
        assert parse_entry("0", 2, 1) == (0, 1, 0, 1)
        assert parse_entry("-3/5", None, 1) == (-3, 5, 0, 1)
        assert parse_entry("1*rt", 2, 1) == (0, 1, 1, 1)
        assert parse_entry("-1*rt", 2, 1) == (0, 1, -1, 1)
        assert parse_entry("1/2+3/4*rt", 2, 1) == (1, 2, 3, 4)
        assert parse_entry("1/2-3/4*rt", 2, 1) == (1, 2, -3, 4)
        assert parse_entry("2/4-0/3*rt", None, 1) == (1, 2, 0, 1)

    def test_rejects(self):
        for bad in ("rt", "1.5", "1/", "1++2*rt", "*rt", "1 / 2", "\u0663", "1/\u0663", "1_0"):
            with pytest.raises(ProblemSyntaxError):
                parse_entry(bad, 2, 1)
        with pytest.raises(ProblemSyntaxError):
            parse_entry("1*rt", None, 1)  # rt without a quadratic field


class TestProblemParsing:
    def test_torus_file(self):
        text = "kind torus\nfield sqrt 2\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n"
        theta = parse_problem(text)
        assert isinstance(theta, SkewMatrix)
        assert theta.entry(0, 1) == Scalar(0, 1, 2)

    def test_skewness_violation(self):
        text = "kind torus\nfield rational\ndim 2\nrow 0 1\nrow 1 0\n"
        with pytest.raises(ValueError):
            parse_problem(text)

    def test_shipped_reference_file(self):
        raw = (PROBLEMS / "three_torus_m5.txt").read_text()
        assert parse_problem(raw) == three_torus(5, Fraction(1, 7))

    def test_tga_file(self):
        raw = (PROBLEMS / "tga_z3_squared.txt").read_text()
        sigma = parse_problem(raw)
        assert isinstance(sigma, Bicharacter)
        assert sigma.group == FgGroup(0, (3, 3))

    def test_row_count_checked(self):
        text = "kind torus\nfield rational\ndim 2\nrow 0 1\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_roundtrip(self):
        theta = three_torus(1, Scalar.sqrt(2))
        assert parse_problem(format_torus(theta)) == theta
        theta = three_torus(5, Fraction(1, 7))
        assert parse_problem(format_torus(theta)) == theta

    def test_roundtrip_random(self):
        import random

        from conftest import random_skew

        rng = random.Random(113)
        for _ in range(40):
            theta = random_skew(rng, rng.randint(1, 5), quad_prob=0.5)
            assert parse_problem(format_torus(theta)) == theta


class TestCommands:
    def test_decide_center_pair(self, capsys):
        code = main(
            [
                "decide",
                str(PROBLEMS / "four_torus_center2.txt"),
                str(PROBLEMS / "four_torus_center0.txt"),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == "NOT_EQUIVALENT center-rank 2 vs 0\n"

    def test_module_entry_point(self):
        # `python -m nctori` runs __main__.py in a fresh interpreter
        root = PROBLEMS.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("SEARCH_HEIGHT", None)
        proc = subprocess.run(
            [
                sys.executable, "-m", "nctori", "decide",
                str(PROBLEMS / "four_torus_center2.txt"),
                str(PROBLEMS / "four_torus_center0.txt"),
            ],
            capture_output=True, text=True, env=env, cwd=root, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "NOT_EQUIVALENT center-rank 2 vs 0\n"

    def test_decide_self(self, capsys):
        f = str(PROBLEMS / "three_torus_m5.txt")
        assert main(["decide", f, f]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"

    def test_decide_equal_ranges_skip_orders(self, capsys, monkeypatch):
        calls = []
        real = invariants._transporter_basis
        monkeypatch.setattr(
            invariants, "_transporter_basis", lambda *a: calls.append(a) or real(*a)
        )
        f = str(PROBLEMS / "three_torus_sqrt2.txt")
        assert main(["decide", f, f]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"
        assert calls == []

    def test_decide_tga_builds_each_kernel_lattice_once(self, capsys, monkeypatch):
        # per side: the input's pairing kernel, shared by the center rung and
        # the simple quotient, and the nondegeneracy checks of the quotient
        # and of the one splitting step
        calls = []
        real = exactlin._integral_lattice
        monkeypatch.setattr(twisted, "_integral_lattice", lambda *a: calls.append(a) or real(*a))
        f = str(PROBLEMS / "tga_z3_squared.txt")
        assert main(["decide", f, f]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"
        assert len(calls) == 6

    @pytest.mark.parametrize("name, count", [("tga_z3_squared.txt", 3), ("tga_z6_trivial.txt", 2)])
    def test_invariants_tga_builds_each_kernel_lattice_once(self, capsys, monkeypatch, name, count):
        # one per Bicharacter: the input, its simple quotient, and the
        # result of each splitting step
        calls = []
        real = exactlin._integral_lattice
        monkeypatch.setattr(twisted, "_integral_lattice", lambda *a: calls.append(a) or real(*a))
        assert main(["invariants", str(PROBLEMS / name)]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == count

    def test_decide_mixed_kinds(self, capsys):
        code = main(
            [
                "decide",
                str(PROBLEMS / "tga_z6_trivial.txt"),
                str(PROBLEMS / "tga_z3_squared.txt"),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == "NOT_EQUIVALENT center-torsion 6 vs 1\n"

    def test_canon_rational(self, capsys):
        assert main(["canon", str(PROBLEMS / "rational_3x3.txt")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "k 0" in lines
        assert sum(1 for l in lines if l.startswith("g row")) == 6

    def test_canon_rejects_tga(self, capsys):
        assert main(["canon", str(PROBLEMS / "tga_z6_trivial.txt")]) == EXIT_INVARIANT

    def test_invariants_output(self, capsys):
        assert main(["invariants", str(PROBLEMS / "three_torus_sqrt2.txt")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (
            "kind torus\n"
            "dim 3\n"
            "center-rank 1\n"
            "center-torsion 1\n"
            "k0-rank 4\n"
            "k1-rank 4\n"
            "trace-range-rank 2\n"
            "trace-range-basis 1; 1*rt\n"
        )

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind torus\nfield rational\ndim 1\nrow x\n")
        assert main(["decide", str(bad), str(bad)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "header",
        [
            "kind torus\nfield rational\ndim \u00b2\n",
            "kind tga\nfield rational\ngroup free \u00b2 torsion -\n",
        ],
    )
    def test_non_ascii_count_exit(self, capsys, tmp_path, header):
        # a superscript digit passes str.isdigit() but not int()
        bad = tmp_path / "bad.txt"
        bad.write_text(header, encoding="utf-8")
        assert main(["invariants", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: line 3: ")

    @pytest.mark.parametrize(
        "text, line",
        [
            # Arabic-Indic three, and int()'s underscore separator
            ("kind torus\nfield sqrt \u0663\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n", 2),
            ("kind torus\nfield sqrt 1_0\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n", 2),
            ("kind tga\nfield rational\ngroup free 0 torsion \u0663,\u0663\nrow 0 1/3\nrow -1/3 0\n", 3),
            ("kind tga\nfield rational\ngroup free 0 torsion 3,3_0\nrow 0 1/3\nrow -1/3 0\n", 3),
            ("kind torus\nfield rational\ndim 2\nrow 0 1/\u0663\nrow -1/3 0\n", 4),
            ("kind torus\nfield sqrt 2\ndim 2\nrow 0 \u0661*rt\nrow -1*rt 0\n", 4),
            ("kind torus\nfield sqrt 2\ndim 2\nrow 0 1+\u0661*rt\nrow -1-1*rt 0\n", 4),
            ("kind torus\nfield rational\ndim 2\nrow 0 1_0\nrow -10 0\n", 4),
        ],
    )
    def test_non_ascii_digits_exit(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        assert main(["invariants", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: line {line}: ")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "empty problem file"),
            ("# only a comment\n\n", 1, "empty problem file"),
            ("field rational\ndim 0\n", 1, "expected 'kind', got 'field'"),
            ("kind foo\nfield rational\ndim 0\n", 1, "kind must be 'torus' or 'tga'"),
            ("kind torus\nfield foo\ndim 0\n", 2, "field must be 'rational' or 'sqrt D'"),
            ("kind torus\nfield rational\n", 2, "missing 'dim' line"),
            ("kind tga\nfield rational\n# no group line\n", 2, "missing 'group' line"),
            ("kind tga\nfield rational\ngroup free 0 torsion 2,3\n", 3, "divisor chain"),
            ("kind torus\nfield rational\ndim 1\nrow 0\ncol 0\n", 5, "expected 'row', got 'col'"),
            ("kind torus\nfield rational\ndim 2\nrow 0 1 2\nrow -1 0\n", 4, "row has 3 entries, expected 2"),
        ],
    )
    def test_grammar_errors_exit(self, capsys, tmp_path, text, line, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["invariants", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: line {line}: ")
        assert message in captured.err

    def test_group_without_torsion(self, capsys, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("kind tga\nfield rational\ngroup free 2 torsion -\nrow 0 1/2\nrow -1/2 0\n")
        assert main(["invariants", str(good)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "kind tga\n"
            "group free 2 torsion -\n"
            "center-rank 2\n"
            "center-torsion 1\n"
            "k0-rank 2\n"
            "k1-rank 2\n"
            "trace-range-rank 1\n"
            "trace-range-basis 1/2\n"
        )

    @pytest.mark.parametrize("raw", ["\u0663", "1_0", " 3", "3 ", "+\u0663", ""])
    def test_non_ascii_search_height_exit(self, capsys, monkeypatch, raw):
        f = str(PROBLEMS / "three_torus_m5.txt")
        monkeypatch.setenv("SEARCH_HEIGHT", raw)
        assert main(["decide", f, f]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: line 0: bad SEARCH_HEIGHT value ")

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("kind torus\nfield rational\ndim 2\nrow 0 {}\nrow 0 0\n", 4, id="numerator"),
            pytest.param("kind torus\nfield rational\ndim 2\nrow 0 1/{}\nrow 0 0\n", 4, id="denominator"),
            pytest.param("kind torus\nfield sqrt 2\ndim 2\nrow 0 1+{}*rt\nrow 0 0\n", 4, id="sqrt part"),
            pytest.param("kind torus\nfield rational\ndim {}\n", 3, id="dim"),
            pytest.param("kind tga\nfield rational\ngroup free {} torsion -\n", 3, id="free"),
            pytest.param("kind tga\nfield rational\ngroup free 0 torsion 3,{}\n", 3, id="torsion"),
            pytest.param("kind torus\nfield sqrt {}\ndim 0\n", 2, id="field D"),
            pytest.param(None, 0, id="SEARCH_HEIGHT"),
        ],
    )
    def test_over_long_number_exit(self, capsys, tmp_path, monkeypatch, text, line):
        # one digit past int()'s default string limit, whatever limit is set
        digits = "3" * 4301
        monkeypatch.setenv("SEARCH_HEIGHT", digits if text is None else "20")
        f = tmp_path / "long.txt"
        f.write_text("kind torus\nfield rational\ndim 0\n" if text is None else text.format(digits))
        assert main(["decide", str(f), str(f)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: line {line}: ")
        assert "more than 4300 digits" in captured.err
        assert "int_max_str_digits" not in captured.err

    def test_numbers_of_4300_digits_parse(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEARCH_HEIGHT", "0" * 4299 + "3")
        f = tmp_path / "long.txt"
        f.write_text(f"kind torus\nfield rational\ndim {'0' * 4299}2\nrow 0 {'0' * 4299}1/2\nrow -1/2 0\n")
        assert main(["decide", str(f), str(f)]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"

    def test_zero_denominator_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind torus\nfield rational\ndim 2\nrow 0 1/0\nrow -1/0 0\n")
        assert main(["invariants", str(bad)]) == EXIT_PARSE == 1
        assert capsys.readouterr().err.startswith("parse error: line 4: zero denominator")

    def test_canon_where_m_plus_w_is_not_a_summand(self, capsys, tmp_path, monkeypatch):
        # stdout recorded before saturate skipped summands; the spy shows
        # this torus takes saturate's kernel branch
        seen = []
        is_summand = exactlin._is_summand

        def spy(rows):
            seen.append(is_summand(rows))
            return seen[-1]

        monkeypatch.setattr(exactlin, "_is_summand", spy)
        path = tmp_path / "t3.txt"
        path.write_text(
            "kind torus\nfield sqrt 2\ndim 3\nrow 0 6+1/2*rt 2*rt\n"
            "row -6-1/2*rt 0 2+1*rt\nrow -2*rt -2-1*rt 0\n"
        )
        assert main(["canon", str(path)]) == EXIT_OK
        assert seen == [False]
        assert capsys.readouterr().out == (
            "n 3\nk 2\n"
            "g row -2 4 -1 24 10 -8\n"
            "g row 1 0 3 0 0 0\n"
            "g row 0 1 1 6 2 -2\n"
            "g row 0 0 0 -3 -1 1\n"
            "g row 0 0 0 -5 -2 2\n"
            "g row 0 0 0 12 5 -4\n"
            "theta-prime row 0 0 0\n"
            "theta-prime row 0 0 -1/2*rt\n"
            "theta-prime row 0 1/2*rt 0\n"
            "theta-tilde row 0 -1/2*rt\n"
            "theta-tilde row 1/2*rt 0\n"
        )

    def test_large_squarefree_field(self, capsys, tmp_path):
        # d = (10^9 + 7) * 998244353: squarefree, too large for trial
        # division up to sqrt(d)
        big = tmp_path / "big.txt"
        big.write_text(
            "kind torus\nfield sqrt 998244359987710471\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n"
        )
        assert main(["invariants", str(big)]) == EXIT_OK
        assert "trace-range-basis 1; 1*rt\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "d",
        [
            # past 10^18 the squarefree test by trial division does not finish
            "1000000000000000005490000000000000001989",
            "1000000000000000001",
            # no field sqrt(D): not squarefree, or below 2
            "4",
            "12",
            "1",
            "0",
            "-2",
        ],
    )
    def test_field_discriminant_rejected(self, capsys, tmp_path, d):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"kind torus\nfield sqrt {d}\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n")
        assert main(["invariants", str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: line 2: field discriminant ")

    @pytest.mark.parametrize(
        "exc",
        [
            ActionUndefined("C @ theta + D is singular"),
            ZeroDivisionError("division by zero"),
            AssertionError("reduced block is nondegenerate"),
            AssertionError(),
        ],
    )
    def test_arithmetic_and_assertion_errors_exit(self, capsys, monkeypatch, exc):
        def fail(theta):
            raise exc

        monkeypatch.setattr(cli, "canonical_form", fail)
        assert main(["canon", str(PROBLEMS / "rational_3x3.txt")]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"invariant violation: {type(exc).__name__}")

    def test_invariant_violation_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind torus\nfield rational\ndim 2\nrow 0 1\nrow 1 0\n")
        assert main(["decide", str(bad), str(bad)]) == EXIT_INVARIANT

    def test_missing_file_exit(self, capsys, tmp_path):
        assert main(["canon", str(tmp_path / "nope.txt")]) == EXIT_PARSE

    def test_verify_command(self, capsys):
        assert main(["verify-paper-examples"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok ") == 8 and "FAIL" not in out

    def test_search_height_env(self, capsys, tmp_path, monkeypatch):
        # the nonprincipal-class probe: Unknown at any height, and the
        # reported bound tracks SEARCH_HEIGHT
        a = tmp_path / "a.txt"
        a.write_text("kind torus\nfield sqrt 10\ndim 2\nrow 0 1*rt\nrow -1*rt 0\n")
        b = tmp_path / "b.txt"
        b.write_text("kind torus\nfield sqrt 10\ndim 2\nrow 0 1/2*rt\nrow -1/2*rt 0\n")
        monkeypatch.setenv("SEARCH_HEIGHT", "3")
        assert main(["decide", str(a), str(b)]) == EXIT_OK
        assert capsys.readouterr().out == "UNKNOWN search-height=3\n"

    def test_negative_search_height_exit(self, capsys, monkeypatch):
        f = str(PROBLEMS / "three_torus_m5.txt")
        monkeypatch.setenv("SEARCH_HEIGHT", "-5")
        assert main(["decide", f, f]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")

    def test_search_height_bound(self, capsys, monkeypatch):
        f = str(PROBLEMS / "three_torus_m5.txt")
        monkeypatch.setenv("SEARCH_HEIGHT", "1001")
        assert main(["decide", f, f]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: ")
        # equal ranges end before the search, so the largest height is quick
        monkeypatch.setenv("SEARCH_HEIGHT", "1000")
        assert main(["decide", f, f]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"

    def test_outputs_deterministic(self, capsys):
        f1 = str(PROBLEMS / "three_torus_m5.txt")
        runs = []
        for _ in range(2):
            main(["invariants", f1])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestPackedParse:
    """The parser's one packed matrix against _pack of the Fraction route."""

    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.txt")))
    def test_problem_files(self, name):
        raw = (PROBLEMS / name).read_text()
        assert cli._read_problem(raw)[1] == exactlin._pack(fraction_route_matrix(raw))

    def test_seeded_entries(self):
        rng = random.Random(127)
        fixed = ["2/4", "-0/3", "+3*rt", "1/2-3/4*rt", "0", "-6/4+0/9*rt", "0*rt"]
        long_num = ["7" * 4300, "-" + "1" * 4300 + "/3", "1/2+" + "9" * 4300 + "*rt"]

        def part():
            num = rng.choice(["0", "-0", "+1", "-12", str(rng.randint(-99, 99)), "0" * 3 + "8"])
            return num + rng.choice(["", f"/{rng.randint(1, 60)}", "/1", "/0012"])

        def entry(quad):
            roll = rng.random()
            if roll < 0.1:
                return rng.choice(long_num if quad else long_num[:2])
            if roll < 0.3:
                return rng.choice(fixed if quad else ["2/4", "-0/3", "0", "-6/4"])
            if not quad or roll < 0.5:
                return part()
            quad_part = rng.choice(["+", "-"]) + part().lstrip("+-") + "*rt"
            return quad_part.lstrip("+") if rng.random() < 0.3 else part() + quad_part

        for case in range(200):
            n = rng.randint(0, 5)
            quad = case % 2 == 0
            header = "field sqrt 2" if quad else "field rational"
            body = "".join(
                "row " + " ".join(entry(quad) for _ in range(n)) + "\n" for _ in range(n)
            )
            raw = f"kind torus\n{header}\ndim {n}\n{body}"
            assert cli._read_problem(raw) == (None, exactlin._pack(fraction_route_matrix(raw))), raw

    @pytest.mark.parametrize(
        "text, code, err",
        [
            # the stderr and exit code of each, pinned before the parser
            # built packed integers
            ("kind tga\nfield rational\ngroup free 0 torsion 3,3\nrow 0 1/3x\nrow -1/3 0\n",
             1, "parse error: line 4: cannot parse entry '1/3x'\n"),
            ("kind tga\nfield rational\ngroup free 0 torsion 3,3\nrow 0 1/0\nrow -1/3 0\n",
             1, "parse error: line 4: zero denominator in entry '1/0'\n"),
            ("kind tga\nfield rational\ngroup free 2 torsion -\nrow 0 1*rt\nrow -1*rt 0\n",
             1, "parse error: line 4: entry uses rt but the field is rational\n"),
            ("kind tga\nfield rational\ngroup free 0 torsion 3,3\nrow 0 1/3\nrow 1/3 0\n",
             2, "invariant violation: matrix must be skew-symmetric modulo Z\n"),
            ("kind tga\nfield sqrt 2\ngroup free 2 torsion -\nrow 1/2 1*rt\nrow -1*rt 0\n",
             2, "invariant violation: diagonal exponents must be integers\n"),
            ("kind tga\nfield rational\ngroup free 1 torsion 2\nrow 0 1/3\nrow -1/3 0\n",
             2, "invariant violation: order-2 generator 1 pairs by a non m-th root\n"),
            ("kind tga\nfield sqrt 2\ngroup free 1 torsion 2\nrow 0 1/2+1*rt\nrow -1/2-1*rt 0\n",
             2, "invariant violation: order-2 generator 1 pairs by a non m-th root\n"),
        ],
        ids=["entry", "zero-denominator", "rt-in-rational", "non-skew", "diagonal", "root", "sqrt-root"],
    )
    def test_malformed_tga_exit(self, capsys, tmp_path, text, code, err):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["invariants", str(bad)]) == code
        assert capsys.readouterr() == ("", err)


class TestOutputs:
    def test_prints_integers_past_int_string_limit(self, capsys, tmp_path):
        # g carries 2 * (4300 sevens), a number of 4301 digits
        s = "7" * 4300
        f = tmp_path / "big.txt"
        f.write_text(
            f"kind torus\nfield rational\ndim 4\nrow 0 {s} 1 0\nrow -{s} 0 0 0\n"
            f"row -1 0 0 {s}\nrow 0 0 -{s} 0\n"
        )
        assert main(["canon", str(f)]) == EXIT_OK
        out = capsys.readouterr().out
        assert max(len(w.lstrip("-")) for w in out.split()) > 4300

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="int() has no string limit"
    )
    def test_reads_under_a_lower_int_string_limit(self, capsys, tmp_path, request):
        # a 1000-digit entry is within MAX_DIGITS, whatever int()'s own limit
        request.addfinalizer(functools.partial(sys.set_int_max_str_digits, sys.get_int_max_str_digits()))
        sys.set_int_max_str_digits(640)
        s = "3" * 1000
        f = tmp_path / "big.txt"
        f.write_text(f"kind torus\nfield rational\ndim 2\nrow 0 {s}/7\nrow -{s}/7 0\n")
        assert main(["invariants", str(f)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(f"trace-range-basis 1/7\n")
        assert main(["decide", str(f), str(f)]) == EXIT_OK
        assert capsys.readouterr().out == "EQUIVALENT mu=1\n"
        # the caller's limit is back
        assert sys.get_int_max_str_digits() == 640

    def test_closed_stdout_exits_quietly(self):
        root = PROBLEMS.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "nctori", "canon", str(PROBLEMS / "four_torus_center0.txt")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
        )
        # no reader is left before the interpreter has started
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
        assert cli.EXIT_BROKEN_PIPE == 141


class TestParserReuse:
    def test_parser_built_once(self, capsys, monkeypatch, request):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["canon", str(PROBLEMS / "rational_3x3.txt")]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr()
        after_first = len(built)
        assert main(argv) == EXIT_OK
        assert main(["verify-paper-examples"]) == EXIT_OK
        # the root parser and its subparsers come from the first call only
        assert built.count("nctori") == 1
        assert len(built) == after_first
        capsys.readouterr()

        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == first
        assert len(built) == after_first
