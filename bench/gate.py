"""Correctness gate: checks every CLI output against an oracle.

The gate runs outside the timed region.  A given output of a given item is
checked once and the verdict reused, so repeated passes cost nothing here.

- ``canon``: g is in SO(n,n|Z) (g J g^T = J and det g = 1, in integers),
  act(g, theta) equals the printed theta', theta' vanishes on the first
  n - k rows and columns, theta~ is the rest of theta' and is nondegenerate,
  and k = n - (rank of the degeneracy lattice).  That rank is computed here
  as n - rank_Q(irrational part of theta), independently of the program.
- ``invariants``: every line for a torus; the trace-range basis against
  TraceRange built from pfaffian_from_matchings generators (the
  matching-sum oracle).  The two sample twisted algebras have hand-derived
  outputs: (Z/3)^2 at 1/3 is M_3(C), and Z/6 paired trivially is C^6.
- ``decide``: the verdict against the truth known from how the pair was
  built; every EQUIVALENT mu is positive and passes scaled_equals between
  the two trace ranges; UNKNOWN only on a pair that is truly not equivalent.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from workloads import EQUIVALENT, NOT_EQUIVALENT, Torus, fmt_entry, parse_entry, parse_problem_text

TGA_SAMPLES = {
    "tga_z3_squared": [
        "kind tga", "group free 0 torsion 3,3", "center-rank 0", "center-torsion 1",
        "k0-rank 1", "k1-rank 0", "trace-range-rank 1", "trace-range-basis 1/3",
    ],
    "tga_z6_trivial": [
        "kind tga", "group free 0 torsion 6", "center-rank 0", "center-torsion 6",
        "k0-rank 6", "k1-rank 0", "trace-range-rank 1", "trace-range-basis 1",
    ],
}


def rational_rank(rows) -> int:
    """Rank over Q of a matrix of Fractions (Gaussian elimination)."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def center_rank(obj: Torus) -> int:
    """Rank of {x in Z^n : x theta in Z^n}: x must kill the irrational part,
    and then a common denominator of the rational part clears the rest."""
    return obj.n - rational_rank([[x[1] for x in r] for r in obj.rows])


def int_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def preserves_form(g) -> bool:
    """g J g^T = J for J = [[0, I], [I, 0]]."""
    n = len(g) // 2
    for i in range(2 * n):
        for j in range(2 * n):
            val = sum(g[i][t] * g[j][t + n] + g[i][t + n] * g[j][t] for t in range(n))
            if val != (1 if abs(i - j) == n else 0):
                return False
    return True


class Gate:
    def __init__(self, nctori):
        self.nc = nctori
        self._objects: dict = {}
        self._ranges: dict = {}
        self._checked: dict = {}

    # --- inputs -----------------------------------------------------------

    def obj(self, f):
        if isinstance(f, Path):
            if f not in self._objects:
                self._objects[f] = parse_problem_text(f.read_text(encoding="utf-8"))
            return self._objects[f]
        return f

    def scalar(self, x, d):
        return self.nc.Scalar(x[0], x[1], d if x[1] else None)

    def skew(self, obj):
        return self.nc.SkewMatrix([[self.scalar(x, obj.d) for x in r] for r in obj.rows])

    def trace_range(self, obj):
        """Oracle trace range: matching-sum Pfaffians of every even principal
        submatrix for a torus; the program's own route for a twisted algebra."""
        if obj not in self._ranges:
            nc = self.nc
            if isinstance(obj, Torus):
                theta = self.skew(obj)
                gens = [nc.Scalar(1)]
                for size in range(2, obj.n + 1, 2):
                    for idx in itertools.combinations(range(obj.n), size):
                        gens.append(nc.pfaffian_from_matchings(theta.submatrix(idx)))
                self._ranges[obj] = nc.TraceRange(gens)
            else:
                rows = [[self.scalar(x, obj.d) for x in r] for r in obj.rows]
                sigma = nc.Bicharacter(nc.FgGroup(obj.free, obj.torsion), rows)
                self._ranges[obj] = nc.trace_range_tga(sigma)
        return self._ranges[obj]

    # --- checks -----------------------------------------------------------

    def check(self, item, out: str) -> list[str]:
        """Problems found in one output; an empty list means it is correct."""
        key = (id(item), out)
        if key not in self._checked:
            check = getattr(self, "_check_" + item.command)
            try:
                self._checked[key] = check(item, out)
            except (ValueError, ArithmeticError, IndexError, AssertionError) as exc:
                self._checked[key] = [f"unreadable output ({type(exc).__name__}: {exc})"]
        return self._checked[key]

    def _check_canon(self, item, out):
        obj = self.obj(item.files[0])
        n = obj.n
        lines = out.splitlines()
        if lines[0] != f"n {n}" or not lines[1].startswith("k "):
            return ["header lines wrong"]
        k = int(lines[1][2:])
        body = lines[2:]
        if len(body) != 2 * n + n + k:
            return [f"expected {3 * n + k} matrix lines, got {len(body)}"]
        g = [[int(w) for w in ln.split()[2:]] for ln in body[: 2 * n]]
        prime = [[parse_entry(w) for w in ln.split()[2:]] for ln in body[2 * n: 3 * n]]
        tilde = [[parse_entry(w) for w in ln.split()[2:]] for ln in body[3 * n:]]
        if not all(ln.startswith("g row ") for ln in body[: 2 * n]):
            return ["g rows mislabelled"]
        problems = []
        if k != n - center_rank(obj):
            problems.append("k disagrees with the degeneracy rank")
        if any(len(r) != 2 * n for r in g) or not preserves_form(g) or int_det(g) != 1:
            problems.append("g is not in SO(n,n|Z)")
        zero = (Fraction(0), Fraction(0))
        r = n - k
        if any(prime[i][j] != zero for i in range(n) for j in range(n) if i < r or j < r):
            problems.append("theta' does not vanish on the first n - k rows and columns")
        if tilde != [row[r:] for row in prime[r:]]:
            problems.append("theta~ is not the lower block of theta'")
        if center_rank(Torus(obj.d, tuple(map(tuple, tilde)))) != 0:
            problems.append("theta~ is degenerate")
        if not problems:
            nc = self.nc
            theta_prime = self.skew(Torus(obj.d, tuple(map(tuple, prime))))
            try:
                image = nc.act(nc.ONNElement.from_matrix(g), self.skew(obj))
            except nc.ActionUndefined:
                image = None
            if image != theta_prime:
                problems.append("act(g, theta) != theta'")
        return problems

    def _check_invariants(self, item, out):
        f = item.files[0]
        obj = self.obj(f)
        lines = out.splitlines()
        if not isinstance(obj, Torus):
            expected = TGA_SAMPLES.get(Path(f).stem)
            if expected is None:
                return ["no oracle for this twisted algebra"]
            return [] if lines == expected else ["output differs from the hand-derived one"]
        n = obj.n
        k = 2 ** (n - 1) if n else 1
        want = [
            "kind torus", f"dim {n}", f"center-rank {center_rank(obj)}", "center-torsion 1",
            f"k0-rank {k}", f"k1-rank {k if n else 0}",
        ]
        problems = [f"line {i + 1} is not {w!r}" for i, w in enumerate(want) if lines[i] != w]
        rng = self.trace_range(obj)
        basis = tuple(sorted(parse_entry(w) for w in lines[7].removeprefix("trace-range-basis ").split("; ")))
        oracle = tuple(sorted((b.rat, b.quad) for b in rng.basis))
        if lines[6] != f"trace-range-rank {rng.rank}":
            problems.append("trace-range rank differs from the oracle")
        if not lines[7].startswith("trace-range-basis ") or basis != oracle:
            problems.append("trace-range basis differs from the oracle")
        if len(lines) != 8:
            problems.append("unexpected extra lines")
        return problems

    def _check_decide(self, item, out):
        left, right = (self.obj(f) for f in item.files)
        line = out.rstrip("\n")
        if "\n" in line:
            return ["more than one output line"]
        if line.startswith("EQUIVALENT mu="):
            if item.truth != EQUIVALENT:
                return ["EQUIVALENT on a pair that is not equivalent"]
            d = next((o.d for o in (left, right) if o.d is not None), None)
            mu = self.scalar(parse_entry(line.removeprefix("EQUIVALENT mu=")), d)
            if mu.sign() <= 0:
                return ["mu is not positive"]
            if not self.trace_range(left).scaled_equals(mu, self.trace_range(right)):
                return ["mu * L1 != L2"]
            return []
        if line.startswith("NOT_EQUIVALENT "):
            return [] if item.truth == NOT_EQUIVALENT else ["NOT_EQUIVALENT on an equivalent pair"]
        if line == f"UNKNOWN search-height={self.nc.DEFAULT_SEARCH_HEIGHT}":
            return [] if item.truth == NOT_EQUIVALENT else ["UNKNOWN on an equivalent pair"]
        return ["unreadable verdict"]


# ---------------------------------------------------------------------------
# self-test: corrupted outputs must fail the gate


def flip_theta_prime(out: str) -> str | None:
    """Add 1 to theta'[n-2][n-1] and subtract it from theta'[n-1][n-2], and
    the same in theta~ when the entry lies in it: the corrupted output is
    still skew and self-consistent, so only act(g, theta) can expose it."""
    lines = out.splitlines()
    for prefix in ("theta-prime row ", "theta-tilde row "):
        rows = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
        if len(rows) < 2:
            if prefix == "theta-prime row ":
                return None
            continue
        for row, col, delta in ((rows[-2], -1, 1), (rows[-1], -2, -1)):
            words = lines[row].split()
            rat, quad = parse_entry(words[col])
            words[col] = fmt_entry((rat + delta, quad))
            lines[row] = " ".join(words)
    return "\n".join(lines) + "\n"


def drop_generator(out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 8 or not lines[7].startswith("trace-range-basis "):
        return None
    gens = lines[7].removeprefix("trace-range-basis ").split("; ")
    lines[7] = "trace-range-basis " + "; ".join(gens[:-1])
    return "\n".join(lines) + "\n"


def double_mu(out: str) -> str | None:
    if not out.startswith("EQUIVALENT mu="):
        return None
    rat, quad = parse_entry(out.strip().removeprefix("EQUIVALENT mu="))
    return f"EQUIVALENT mu={fmt_entry((2 * rat, 2 * quad))}\n"


CORRUPTIONS = {
    "canon": ("one flipped entry of theta'", flip_theta_prime),
    "invariants": ("a dropped trace-range generator", drop_generator),
    "decide": ("a wrong mu", double_mu),
}


def self_test(gate: Gate, checked: list) -> dict:
    """Corrupt the first correct output that admits the corruption and show
    that the gate fails it.  ``checked`` holds (item, output) pairs."""
    for item, out in checked:
        name, corrupt = CORRUPTIONS[item.command]
        bad = corrupt(out)
        if bad is None or gate.check(item, out):
            continue
        problems = gate.check(item, bad)
        return {"corruption": name, "item": item.label, "detected": bool(problems), "problems": problems}
    return {"corruption": None, "detected": False, "problems": ["no output admitted a corruption"]}
