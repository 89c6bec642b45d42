"""Seeded inputs for the benchmark workloads.

Every input is drawn from a ``random.Random`` seeded with the workload name
and ``--seed``, and written as a problem file; the program under test only
ever sees those files.  Inputs are never
filtered by how long they take or by what the program answers: the
composition of a pass (how many items of each kind and size) is fixed, and
the seed only draws the entries.  A run draws that composition several
times over (``build(..., draws)``), one draw per pass, so that its numbers
average over many draws rather than repeat one.

An item is one CLI call.  It keeps the input objects for the correctness
gate, and for ``decide`` the truth known from how the pair was built.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("invariants-quad", "canon-mixed", "decide-ladder")

# Draws of the composition per run, one per untraced pass, taken in turn.
# canon-mixed's rational tori vary most from draw to draw; a 40-s run makes
# six to nine passes of it, so no draw is repeated and the spare ones cost
# only their set-up.  The gate's oracle for invariants-quad (every principal
# Pfaffian by matchings, then a trace-range hnf) costs as much as the call
# itself, so that workload keeps one draw; its numbers hardly move from seed
# to seed.
DRAWS = {"invariants-quad": 1, "canon-mixed": 10, "decide-ladder": 8}

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"

# ---------------------------------------------------------------------------
# inputs: entries are (rat, quad) pairs of Fractions meaning rat + quad*sqrt(d)


@dataclass(frozen=True)
class Torus:
    d: int | None
    rows: tuple

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Tga:
    d: int | None
    free: int
    torsion: tuple
    rows: tuple

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass
class Item:
    command: str
    files: tuple            # problem objects (Torus or Tga), one or two
    n: int                  # size used for the per-n breakdown
    label: str              # kind of item, e.g. "quad" or "pair:mobius"
    truth: str | None = None
    paths: tuple = field(default=(), repr=False)

    def argv(self) -> list[str]:
        return [self.command, *self.paths]


ZERO = (Fraction(0), Fraction(0))


def fmt_entry(x) -> str:
    rat, quad = x
    if not quad:
        return str(rat)
    q = f"{abs(quad)}*rt"
    if not rat:
        return q if quad > 0 else "-" + q
    return f"{rat}{'+' if quad > 0 else '-'}{q}"


def problem_text(obj) -> str:
    out = ["kind torus" if isinstance(obj, Torus) else "kind tga"]
    out.append("field rational" if obj.d is None else f"field sqrt {obj.d}")
    if isinstance(obj, Torus):
        out.append(f"dim {obj.n}")
    else:
        tors = ",".join(map(str, obj.torsion)) or "-"
        out.append(f"group free {obj.free} torsion {tors}")
    for r in obj.rows:
        out.append("row " + " ".join(fmt_entry(x) for x in r))
    return "\n".join(out) + "\n"


_NUM = r"[+-]?\d+(?:/\d+)?"
_ENTRY = re.compile(rf"^(?:(?P<rat>{_NUM})|(?P<quad>{_NUM})\*rt|(?P<r>{_NUM})(?P<sign>[+-])(?P<q>\d+(?:/\d+)?)\*rt)$")


def parse_entry(text: str) -> tuple:
    """Inverse of fmt_entry; also reads the CLI's printed scalars."""
    m = _ENTRY.match(text)
    if not m:
        raise ValueError(f"bad entry {text!r}")
    if m["rat"]:
        return (Fraction(m["rat"]), Fraction(0))
    if m["quad"]:
        return (Fraction(0), Fraction(m["quad"]))
    quad = Fraction(m["q"])
    return (Fraction(m["r"]), -quad if m["sign"] == "-" else quad)


def parse_problem_text(text: str):
    """Inverse of problem_text, for the sample problems of the repository."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    kind, field_words, shape = lines[0][1], lines[1][1:], lines[2]
    d = None if field_words == ["rational"] else int(field_words[1])
    rows = [[parse_entry(w) for w in ln[1:]] for ln in lines[3:]]
    if kind == "torus":
        return torus(rows, d)
    torsion = () if shape[4] == "-" else tuple(int(x) for x in shape[4].split(","))
    return tga(int(shape[2]), torsion, rows, d)


def _field(rows) -> bool:
    return any(x[1] for r in rows for x in r)


def torus(rows, d) -> Torus:
    rows = tuple(tuple(r) for r in rows)
    return Torus(d if _field(rows) else None, rows)


def tga(free, torsion, rows, d=None) -> Tga:
    rows = tuple(tuple(r) for r in rows)
    return Tga(d if _field(rows) else None, free, tuple(torsion), rows)


def skew_from_upper(n, upper) -> list[list]:
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), x in upper.items():
        rows[i][j] = x
        rows[j][i] = (-x[0], -x[1])
    return rows


def negate(obj):
    rows = [[(-a, -b) for a, b in r] for r in obj.rows]
    if isinstance(obj, Torus):
        return torus(rows, obj.d)
    return tga(obj.free, obj.torsion, rows, obj.d)


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt d), only what the generators need


def qmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def qinv(x, d):
    norm = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def mobius(m, t, d):
    """(a t + b) / (c t + e) for m = ((a, b), (c, e)) in GL2(Z)."""
    (a, b), (c, e) = m
    num = (a * t[0] + b, a * t[1])
    den = (c * t[0] + e, c * t[1])
    return qmul(num, qinv(den, d), d)


# ---------------------------------------------------------------------------
# random draws


def frac(rng, num=12, den=12) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def nonzero_frac(rng, num=12, den=12) -> Fraction:
    while True:
        x = frac(rng, num, den)
        if x:
            return x


def random_quad_torus(rng, n, d=2, quad_prob=1.0) -> Torus:
    """Entries a + b sqrt(d); b != 0 with probability quad_prob."""
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            quad = nonzero_frac(rng) if rng.random() < quad_prob else Fraction(0)
            upper[(i, j)] = (frac(rng), quad)
    return torus(skew_from_upper(n, upper), d)


def random_rational_torus(rng, n) -> Torus:
    upper = {(i, j): (frac(rng), Fraction(0)) for i in range(n) for j in range(i + 1, n)}
    return torus(skew_from_upper(n, upper), None)


def random_unimodular(rng, n, steps) -> list[list[int]]:
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def conjugate(rows, a):
    """a @ rows @ a^T over (rat, quad) entries; keeps exact skewness.
    Works in integers over a common denominator."""
    n = len(rows)
    den = math.lcm(1, *(x[p].denominator for r in rows for x in r for p in (0, 1)))
    out = [[[Fraction(0)] * 2 for _ in range(n)] for _ in range(n)]
    for p in (0, 1):
        m = [[x[p].numerator * (den // x[p].denominator) for x in r] for r in rows]
        left = [[sum(a[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                out[i][j][p] = Fraction(sum(left[i][k] * a[j][k] for k in range(n)), den)
    return [[tuple(x) for x in r] for r in out]


def mixed_torus(rng, n, r) -> Torus:
    """Q(sqrt 2) entries with center rank r: a rational r-block beside a
    generic irrational (n - r)-block (n - r even), then a A^T mixing them
    by a random unimodular a."""
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if j < r:
                upper[(i, j)] = (frac(rng), Fraction(0))
            elif i >= r:
                upper[(i, j)] = (frac(rng), nonzero_frac(rng))
    rows = skew_from_upper(n, upper)
    return torus(conjugate(rows, random_unimodular(rng, n, n)), 2)


def random_gl2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            m = [m[1], m[0]]
        else:
            i = rng.randrange(2)
            c = rng.choice((-1, 1))
            m[i] = [x + c * y for x, y in zip(m[i], m[1 - i])]
    return tuple(map(tuple, m))


def two_torus(t, d) -> Torus:
    return torus(skew_from_upper(2, {(0, 1): t}), d)


def small_quad(rng) -> tuple:
    return (frac(rng, 4, 3), nonzero_frac(rng, 3, 2))


def random_tga(rng, free, torsion, d=2) -> Tga:
    """Exactly skew exponents: irrational on the free block, and on each
    torsion generator of order m only multiples of 1/m."""
    orders = (0,) * free + tuple(torsion)
    n = len(orders)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            mi, mj = orders[i], orders[j]
            if not mi and not mj:
                upper[(i, j)] = (frac(rng, 6, 6), nonzero_frac(rng, 6, 6))
            else:
                m = math.gcd(mi, mj) if mi and mj else (mi or mj)
                upper[(i, j)] = (Fraction(rng.randrange(m), m), Fraction(0))
    return tga(free, torsion, skew_from_upper(n, upper), d)


def with_trivial_factor(sigma: Tga, m: int) -> Tga:
    """sigma on G x Z/m, the new generator pairing trivially; m divides
    every torsion order after it so the divisor chain stays valid."""
    n = sigma.n
    rows = [list(r) for r in sigma.rows]
    # the new generator goes first among the torsion generators
    pos = sigma.free
    for r in rows:
        r.insert(pos, ZERO)
    rows.insert(pos, [ZERO] * (n + 1))
    return tga(sigma.free, (m, *sigma.torsion), rows, sigma.d)


# ---------------------------------------------------------------------------
# workloads


def _from_scalar_rows(rows, d):
    return torus([[(x.rat, x.quad) for x in r] for r in rows], d)


def problem_items(problems_dir: Path, command: str) -> list[Item]:
    """The sample problems shipped with the repository, for the command."""
    out = []
    for path in sorted(problems_dir.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        is_torus = text.startswith("kind torus")
        if command == "canon" and not is_torus:
            continue
        out.append(Item(command, (path,), 0, "problem:" + path.stem))
    return out


def invariants_quad(rng) -> list[Item]:
    counts = {6: 2, 7: 8, 8: 4, 9: 6, 10: 1}
    items = []
    for n, count in counts.items():
        for _ in range(count):
            items.append(Item("invariants", (random_quad_torus(rng, n, quad_prob=0.9),), n, "quad"))
    return items


def canon_mixed(rng) -> list[Item]:
    rational = {4: 1, 5: 6, 6: 1, 7: 6, 8: 1}
    mixed = {4: 3, 5: 3, 6: 3, 7: 3, 8: 2, 9: 1}
    items = []
    for n, count in rational.items():
        for _ in range(count):
            items.append(Item("canon", (random_rational_torus(rng, n),), n, "rational"))
    for n, count in mixed.items():
        for _ in range(count):
            r = 1 if n % 2 else rng.choice((0, 2))
            items.append(Item("canon", (mixed_torus(rng, n, r),), n, f"mixed-center{r}"))
    return items


def decide_ladder(rng, nctori) -> list[Item]:
    examples = nctori.worked_examples
    items = []

    def pair(label, left, right, truth):
        items.append(Item("decide", (left, right), max(left.n, right.n), "pair:" + label, truth))

    # theta vs -theta: equal trace ranges, mu = 1
    for n in (2, 3, 4, 5, 6, 7):
        theta = random_quad_torus(rng, n)
        pair("negation", theta, negate(theta), EQUIVALENT)
    # GL2(Z) Moebius images: mu != 1 found by the transporter search
    for _ in range(4):
        d = rng.choice((2, 3, 5))
        t = small_quad(rng)
        pair("mobius", two_torus(t, d), two_torus(mobius(random_gl2(rng), t, d), d), EQUIVALENT)
    # the dimension-3 reduction pair, with a quadratic and a rational gamma
    for gamma in ((frac(rng, 4, 5), nonzero_frac(rng, 3, 3)), (nonzero_frac(rng, 5, 9), Fraction(0))):
        m = rng.randint(2, 7)
        g = nctori.Scalar(gamma[0], gamma[1], 2 if gamma[1] else None)
        pair(
            "three-torus",
            _from_scalar_rows(examples.three_torus(m, g).rows, 2),
            _from_scalar_rows(examples.three_torus_reduced(m, g).rows, 2),
            EQUIVALENT,
        )
    # early-exit rungs
    g = nctori.Scalar(frac(rng, 4, 3), nonzero_frac(rng, 3, 2), 2)
    t1, t2 = examples.four_torus_pair(g)
    pair("center", _from_scalar_rows(t1.rows, 2), _from_scalar_rows(t2.rows, 2), NOT_EQUIVALENT)
    n = rng.choice((2, 3))
    pair("dimension", random_quad_torus(rng, n), random_quad_torus(rng, n + 2), NOT_EQUIVALENT)
    for n in (2, 4):
        pair(
            "ratio-field",
            random_quad_torus(rng, n, d=2),
            random_quad_torus(rng, n, d=3),
            NOT_EQUIVALENT,
        )
    one = Fraction(1)
    for _ in range(2):
        pair(
            "multiplier-order",
            two_torus(mobius(random_gl2(rng), (Fraction(0), one), 2), 2),
            two_torus(mobius(random_gl2(rng), (Fraction(0), 2 * one), 2), 2),
            NOT_EQUIVALENT,
        )
    # Z + sqrt10 Z vs Z + (sqrt10/2) Z: not equivalent, and no implemented
    # certificate shows it, so the bounded search ends in UNKNOWN
    for _ in range(6):
        pair(
            "sqrt10",
            two_torus(mobius(random_gl2(rng), (Fraction(0), one), 10), 10),
            two_torus(mobius(random_gl2(rng), (Fraction(0), one / 2), 10), 10),
            NOT_EQUIVALENT,
        )
    # twisted group algebras
    for m in (rng.randint(2, 7), rng.randint(2, 7)):
        std = tga(0, (m, m), skew_from_upper(2, {(0, 1): (Fraction(1, m), Fraction(0))}))
        pair("tga-matrix-algebra", std, torus([], None), EQUIVALENT)
    m = rng.choice((2, 3, 4, 6))
    t = small_quad(rng)
    j = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
    upper = {(0, 1): t, (2, 3): (Fraction(j, m), Fraction(0))}
    pair("tga-torus", tga(2, (m, m), skew_from_upper(4, upper), 2), two_torus(t, 2), EQUIVALENT)
    sigma = random_tga(rng, 0, (6,) * 8)
    a = random_unimodular(rng, 8, 8)
    pair("tga-automorphism", sigma, tga(0, sigma.torsion, conjugate(sigma.rows, a)), EQUIVALENT)
    pair("tga-negation", sigma, negate(sigma), EQUIVALENT)
    pair("tga-center", sigma, with_trivial_factor(sigma, 6), NOT_EQUIVALENT)
    for free, chain in ((rng.randint(1, 3), (2, 4)), (rng.randint(1, 3), (3, 6))):
        sigma = random_tga(rng, free, chain)
        pair("tga-chain-negation", sigma, negate(sigma), EQUIVALENT)
    return items


def problem_pairs(problems_dir: Path) -> list[Item]:
    """Each sample problem against itself, and the README's center pair."""
    paths = sorted(problems_dir.glob("*.txt"))
    items = [Item("decide", (p, p), 0, "problem:" + p.stem, EQUIVALENT) for p in paths]
    c0 = problems_dir / "four_torus_center0.txt"
    c2 = problems_dir / "four_torus_center2.txt"
    items.append(Item("decide", (c0, c2), 0, "problem:center-pair", NOT_EQUIVALENT))
    return items


def interleave(items: list[Item]) -> list[Item]:
    """Spread each label evenly over the pass, so that a pass cut short by
    the deadline still holds every kind of item in proportion."""
    groups: dict[tuple, list[Item]] = {}
    for it in items:
        groups.setdefault((it.label, it.n), []).append(it)
    keyed = []
    for group in groups.values():
        k = len(group)
        for pos, it in enumerate(group):
            keyed.append(((pos + 0.5) / k, it.n, it.label, it))
    keyed.sort(key=lambda x: x[:3])
    return [x[3] for x in keyed]


def build(workload: str, seed: int, problems_dir: Path, nctori, draws: int) -> list[list[Item]]:
    """``draws`` passes, each a fresh draw of the workload's composition
    from one ``random.Random`` (so draw 0 does not depend on ``draws``)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    passes = []
    for _ in range(draws):
        if workload == "invariants-quad":
            items = invariants_quad(rng) + problem_items(problems_dir, "invariants")
        elif workload == "canon-mixed":
            items = canon_mixed(rng) + problem_items(problems_dir, "canon")
        else:
            items = decide_ladder(rng, nctori) + problem_pairs(problems_dir)
        passes.append(interleave(items))
    return passes


def write_files(items: list[Item], workdir: Path) -> str:
    """Write every generated problem once; set Item.paths; return a digest
    of the argv lists and file contents, so runs can be compared."""
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    written: dict[str, Path] = {}
    for it in items:
        paths = []
        for obj in it.files:
            if isinstance(obj, Path):
                text = obj.read_text(encoding="utf-8")
                path = obj
            else:
                text = problem_text(obj)
                path = written.get(text)
                if path is None:
                    path = workdir / f"p{len(written):04d}.txt"
                    path.write_text(text, encoding="utf-8")
                    written[text] = path
            digest.update(text.encode())
            paths.append(path)
        it.paths = tuple(str(p) for p in paths)
        digest.update(" ".join([it.command, it.label]).encode())
    return digest.hexdigest()[:16]
