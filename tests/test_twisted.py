import itertools
import math
import random
from fractions import Fraction

import pytest

from nctori import twisted
from nctori.exactlin import (
    IntLattice,
    Scalar,
    _mod_kernel,
    _pack,
    hnf,
    int_inverse_unimodular,
    integral_solution_lattice,
    mat_identity,
    mat_mul,
    mat_transpose,
    snf,
    solve_rows,
)
from nctori.invariants import TraceRange, morita_equivalent, trace_range
from nctori.reduction import SkewMatrix
from nctori.twisted import (
    Bicharacter,
    FgGroup,
    InvalidBicharacter,
    _skew_from_exponents,
    _split_top_torsion,
    hsigma,
    k_group_ranks_tga,
    morita_equivalent_tga,
    normalize_cocycle,
    simple_quotient,
    trace_range_tga,
)
from nctori.worked_examples import four_torus_pair

from conftest import random_skew

RT2 = Scalar.sqrt(2)


def standard_pair(m):
    """(Z/m)^2 with the standard nondegenerate pairing."""
    return Bicharacter(
        FgGroup(0, (m, m)),
        [[0, Fraction(1, m)], [Fraction(-1, m), 0]],
    )


class TestFgGroup:
    def test_divisor_chain_enforced(self):
        FgGroup(1, (2, 4, 8))
        with pytest.raises(ValueError):
            FgGroup(0, (2, 3))
        with pytest.raises(ValueError):
            FgGroup(0, (1,))

    def test_from_relations(self):
        g = FgGroup.from_relations(3, [[2, 0, 0], [0, 3, 0]])
        assert g == FgGroup(1, (6,))
        assert FgGroup.from_relations(2, []) == FgGroup(2)

    def test_relation_rows(self):
        g = FgGroup(1, (2, 4))
        assert g.relation_rows() == [[0, 2, 0], [0, 0, 4]]


class TestBicharacter:
    def test_skew_mod_z_enforced(self):
        with pytest.raises(InvalidBicharacter):
            Bicharacter(FgGroup(2), [[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
        # exponents summing to an integer are fine
        Bicharacter(FgGroup(2), [[0, Fraction(2, 3)], [Fraction(1, 3), 0]])

    def test_torsion_integrality(self):
        with pytest.raises(InvalidBicharacter):
            Bicharacter(FgGroup(0, (2,)), [[Fraction(1, 3)]])
        with pytest.raises(InvalidBicharacter):
            Bicharacter(FgGroup(1, (2,)), [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
        with pytest.raises(InvalidBicharacter):
            Bicharacter(FgGroup(1, (2,)), [[0, RT2 / 2], [-RT2 / 2, 0]])

    def test_diagonal_integral(self):
        with pytest.raises(InvalidBicharacter):
            Bicharacter(FgGroup(1), [[Fraction(1, 2)]])


class TestNormalizeCocycle:
    def test_upper_triangular(self):
        t = Fraction(3, 7)
        out = normalize_cocycle([[0, t], [0, 0]])
        assert out.entry(0, 1) == t and out.entry(1, 0) == -t

    def test_symmetric_vanishes(self):
        out = normalize_cocycle([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
        assert out == SkewMatrix.zero(2)

    def test_quarter(self):
        out = normalize_cocycle([[0, Fraction(1, 4)], [Fraction(-1, 4), 0]])
        assert out.entry(0, 1) == Fraction(1, 2)


def brute_force_kernel(sigma):
    """Kernel elements of an all-torsion bicharacter, by enumeration."""
    orders = sigma.group.torsion_orders
    assert sigma.group.free_rank == 0
    members = []
    for g in itertools.product(*(range(m) for m in orders)):
        ok = True
        for j in range(len(orders)):
            h = [1 if i == j else 0 for i in range(len(orders))]
            val = sigma.pairing_exponent(list(g), h)
            if val.quad or val.rat.denominator != 1:
                ok = False
                break
        if ok:
            members.append(g)
    return members


def element_orders(members, orders):
    """Multiset of element orders of a subgroup given by coordinate tuples."""
    counts = {}
    for g in members:
        o = 1
        for x, m in zip(g, orders):
            if x:
                o = math.lcm(o, m // math.gcd(x, m))
        counts[o] = counts.get(o, 0) + 1
    return counts


def abstract_element_orders(torsion):
    counts = {}
    for g in itertools.product(*(range(m) for m in torsion)):
        o = 1
        for x, m in zip(g, torsion):
            if x:
                o = math.lcm(o, m // math.gcd(x, m))
        counts[o] = counts.get(o, 0) + 1
    return counts if torsion else {1: 1}


class TestHsigma:
    def test_trivial_pairing_free(self):
        assert hsigma(Bicharacter(FgGroup(2), [[0, 0], [0, 0]])) == (2, ())

    def test_standard_pair_trivial(self):
        for m in (2, 3, 4, 5, 6):
            assert hsigma(standard_pair(m)) == (0, ())

    def test_trivial_pairing_torsion(self):
        assert hsigma(Bicharacter(FgGroup(0, (6,)), [[0]])) == (0, (6,))

    def test_brute_force_small_groups(self):
        rng = random.Random(67)
        cases = 0
        while cases < 30:
            n = rng.randint(1, 3)
            orders = sorted(rng.choice([2, 2, 3, 4]) for _ in range(n))
            # force a divisor chain by lifting each entry to a multiple
            chain = []
            for o in orders:
                if chain and o % chain[-1]:
                    o = chain[-1] * o // math.gcd(chain[-1], o)
                chain.append(o)
            if math.prod(chain) > 64:
                continue
            group = FgGroup(0, tuple(chain))
            k = group.ngens
            rows = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    denom = math.gcd(chain[i], chain[j])
                    num = rng.randint(0, denom - 1)
                    rows[i][j] = Fraction(num, denom)
                    rows[j][i] = -Fraction(num, denom)
            sigma = Bicharacter(group, rows)
            rank, torsion = hsigma(sigma)
            assert rank == 0
            brute = brute_force_kernel(sigma)
            assert len(brute) == math.prod(torsion)
            assert element_orders(brute, chain) == abstract_element_orders(torsion)
            cases += 1

    def test_invariant_under_representation(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(1, 4)
            th = random_skew(rng, n, denom_max=6, quad_prob=0.4)
            sigma = Bicharacter.from_skew(th)
            base = hsigma(sigma)
            # random unimodular change of generators of Z^n
            u = mat_identity(n)
            for _ in range(4):
                if n > 1:
                    i, j = rng.sample(range(n), 2)
                    u[i] = [a + rng.randint(-2, 2) * b for a, b in zip(u[i], u[j])]
            exps = mat_mul(mat_mul(u, [list(r) for r in th.rows]), mat_transpose(u))
            assert hsigma(Bicharacter(FgGroup(n), exps)) == base


class TestKGroupRanksTga:
    def test_cyclic_trivial(self):
        for m in range(2, 13):
            sigma = Bicharacter(FgGroup(0, (m,)), [[0]])
            assert k_group_ranks_tga(sigma) == (m, 0)

    def test_standard_pairs(self):
        for m in range(2, 7):
            assert k_group_ranks_tga(standard_pair(m)) == (1, 0)

    def test_free_reduces_to_torus(self):
        th = SkewMatrix([[0, 0, 0], [0, 0, RT2], [0, -RT2, 0]])
        assert k_group_ranks_tga(Bicharacter.from_skew(th)) == (4, 4)


class TestSimpleQuotient:
    def test_trivial_pairing_collapses(self):
        out = simple_quotient(Bicharacter(FgGroup(1, (4,)), [[0, 0], [0, 0]]))
        assert out.group == FgGroup(0)

    def test_nondegenerate_unchanged(self):
        out = simple_quotient(standard_pair(3))
        assert out.group == FgGroup(0, (3, 3))
        assert hsigma(out) == (0, ())

    def test_free_rank_one_kernel(self):
        th = SkewMatrix(
            [
                [0, -3, -2],
                [3, 0, RT2],
                [2, -RT2, 0],
            ]
        )
        out = simple_quotient(Bicharacter.from_skew(th))
        assert out.group == FgGroup(2)
        assert hsigma(out) == (0, ())

    def test_always_nondegenerate(self):
        rng = random.Random(73)
        for _ in range(25):
            th = random_skew(rng, rng.randint(1, 4), denom_max=6, quad_prob=0.3)
            out = simple_quotient(Bicharacter.from_skew(th))
            assert hsigma(out) == (0, ())


# exact cyclotomic arithmetic for the representation oracle ------------------


def _cyclo_poly(m):
    # minimal polynomial coefficients of a primitive m-th root, m <= 4
    return {1: [1], 2: [1], 3: [1, 1, 1], 4: [1, 0, 1]}[m]


class Cyclotomic:
    """Elements of Z[x]/Phi_m(x) for m <= 4, used only by the tests."""

    def __init__(self, m, coeffs):
        self.m = m
        deg = len(_cyclo_poly(m)) - 1
        # reduce powers >= deg with the minimal polynomial
        poly = _cyclo_poly(m)
        c = list(coeffs)
        while len(c) > max(deg, 1):
            top = c.pop()
            if top:
                for i, a in enumerate(poly[:-1]):
                    c[len(c) - len(poly) + 1 + i] -= top * a
        c += [0] * (max(deg, 1) - len(c))
        self.coeffs = tuple(c)

    @classmethod
    def root_power(cls, m, k):
        k %= m
        if m <= 2:
            return cls(m, [(-1) ** k if m == 2 else 1])
        return cls(m, [0] * k + [1])

    def __add__(self, other):
        return Cyclotomic(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Cyclotomic(self.m, out)

    def __eq__(self, other):
        return self.m == other.m and self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)


def clock_shift_matrices(m):
    zero = Cyclotomic(m, [0])
    clock = [[Cyclotomic.root_power(m, i) if i == j else zero for j in range(m)] for i in range(m)]
    shift = [
        [Cyclotomic.root_power(m, 0) if i == (j + 1) % m else zero for j in range(m)]
        for i in range(m)
    ]
    return clock, shift


def cyclo_mat_mul(a, b, m):
    n = len(a)
    zero = Cyclotomic(m, [0])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


class TestTraceRangeTga:
    def test_free_quadratic(self):
        sigma = Bicharacter.from_skew(SkewMatrix([[0, RT2], [-RT2, 0]]))
        assert trace_range_tga(sigma) == TraceRange([1, RT2])

    def test_cyclic_trivial(self):
        sigma = Bicharacter(FgGroup(0, (6,)), [[0]])
        assert trace_range_tga(sigma) == TraceRange([1])

    def test_standard_pair_matches_matrix_algebra(self):
        # the clock and shift matrices over exact cyclotomics realize the
        # standard pair inside M_m(C): they satisfy the commutation relation,
        # their m^2 words are linearly independent (so the image is all of
        # M_m), and the minimal projection (1/m) sum clock^a has trace 1/m;
        # hence the trace range must be (1/m) Z
        for m in (1, 2, 3, 4):
            if m > 1:
                clock, shift = clock_shift_matrices(m)
                cs = cyclo_mat_mul(clock, shift, m)
                sc = cyclo_mat_mul(shift, clock, m)
                omega = Cyclotomic.root_power(m, 1)
                for i in range(m):
                    for j in range(m):
                        assert cs[i][j] == omega * sc[i][j]
                # linear independence of the m^2 words clock^a shift^b over Q:
                # flatten integer coordinates and row-reduce
                words = []
                mats = {}
                power = [[Cyclotomic.root_power(m, 0) if i == j else Cyclotomic(m, [0]) for j in range(m)] for i in range(m)]
                for a in range(m):
                    acc = power
                    for b in range(m):
                        mats[(a, b)] = acc
                        acc = cyclo_mat_mul(acc, shift, m)
                    power = cyclo_mat_mul(power, clock, m)
                for a in range(m):
                    for b in range(m):
                        flat = []
                        for row in mats[(a, b)]:
                            for entry in row:
                                flat.extend(entry.coeffs)
                        words.append(flat)
                h, _ = hnf(words)
                assert sum(1 for r in h if any(r)) == m * m
                # (1/m) sum_a clock^a is diag(1, 0, .., 0): normalized trace 1/m
                total = mats[(0, 0)]
                if m > 1:
                    for a in range(1, m):
                        total = [
                            [x + y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(total, mats[(a, 0)])
                        ]
                for i in range(m):
                    for j in range(m):
                        expect = m if i == j == 0 else 0
                        assert total[i][j] == Cyclotomic(m, [expect])
            sigma = standard_pair(m) if m > 1 else Bicharacter(FgGroup(0), [])
            assert trace_range_tga(sigma) == TraceRange([Fraction(1, m)])

    def test_no_single_primitive_partner(self):
        # on (Z/6)^4 the top generator pairs only by 2/6 and 3/6, so no one
        # generator pairs with it primitively; the splitting still goes
        # through (a combination does) and the algebra is M_36(C)
        rows = [[Fraction(0)] * 4 for _ in range(4)]

        def setpair(i, j, v):
            rows[i][j] = v
            rows[j][i] = -v

        setpair(3, 0, Fraction(2, 6))
        setpair(3, 1, Fraction(3, 6))
        setpair(2, 0, Fraction(3, 6))
        setpair(2, 1, Fraction(2, 6))
        sigma = Bicharacter(FgGroup(0, (6, 6, 6, 6)), rows)
        assert hsigma(sigma) == (0, ())
        assert trace_range_tga(sigma) == TraceRange([Fraction(1, 36)])
        assert k_group_ranks_tga(sigma) == (1, 0)

    def test_mixed_free_and_torsion(self):
        th = SkewMatrix(
            [
                [0, Fraction(1, 2), RT2],
                [Fraction(-1, 2), 0, RT2],
                [-RT2, -RT2, 0],
            ]
        )
        assert trace_range_tga(Bicharacter.from_skew(th)) == trace_range(th)

    def test_rational_torus_consistency(self):
        th = SkewMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        assert trace_range_tga(Bicharacter.from_skew(th)) == trace_range(th)

    def test_splitting_always_succeeds(self):
        # every nondegenerate pairing splits down to a torsion-free group;
        # a finite one has order the square of the matrix size it splits off
        rng = random.Random(31)
        chains = [(), (2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6),
                  (2, 4, 8), (6, 6, 6), (2, 2, 2, 2)]
        for _ in range(300):
            group = FgGroup(rng.randint(0, 2), rng.choice(chains))
            orders = group.generator_orders()
            n = group.ngens
            rows = [[Scalar(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    oi, oj = orders[i], orders[j]
                    q = math.gcd(oi, oj) if oi and oj else oi or oj
                    v = Scalar(Fraction(rng.randint(-5, 5), q or rng.randint(1, 6)))
                    if not q and rng.random() < 0.4:
                        v = v + rng.randint(1, 3) * RT2
                    rows[i][j], rows[j][i] = v, -v
            current = simple_quotient(Bicharacter(group, rows))
            size = current.group.torsion_size if not current.group.free_rank else None
            multiplier = 1
            while current.group.torsion_orders:
                current, m = _split_top_torsion(current)
                multiplier *= m
            assert hsigma(current) == (0, ())
            if size is not None:
                assert size == multiplier * multiplier


class TestMoritaTga:
    def test_equal_inputs(self):
        sigma = Bicharacter.from_skew(SkewMatrix([[0, RT2], [-RT2, 0]]))
        v = morita_equivalent_tga(sigma, sigma)
        assert v.is_equivalent and v.mu == 1

    def test_cyclic_sizes_differ(self):
        v = morita_equivalent_tga(
            Bicharacter(FgGroup(0, (2,)), [[0]]),
            Bicharacter(FgGroup(0, (3,)), [[0]]),
        )
        assert v.kind == "not-equivalent" and "center-torsion 2 vs 3" == v.detail

    def test_worked_pair_as_bicharacters(self):
        t1, t2 = four_torus_pair(RT2)
        v = morita_equivalent_tga(Bicharacter.from_skew(t1), Bicharacter.from_skew(t2))
        assert v.kind == "not-equivalent" and v.detail == "center-rank 2 vs 0"

    def test_matrix_algebra_sizes(self):
        # M_2(C) and M_3(C): same center, same K-ranks, ranges (1/2)Z vs (1/3)Z
        v = morita_equivalent_tga(standard_pair(2), standard_pair(3))
        assert v.is_equivalent  # mu = 2/3 scales (1/2)Z onto (1/3)Z
        assert v.mu == Fraction(2, 3)

    def test_torsion_free_agrees_with_torus_pipeline(self):
        rng = random.Random(79)
        for _ in range(25):
            n1 = rng.randint(1, 4)
            n2 = rng.randint(1, 4)
            th1 = random_skew(rng, n1, denom_max=6, quad_prob=0.4)
            th2 = random_skew(rng, n2, denom_max=6, quad_prob=0.4)
            v_torus = morita_equivalent(th1, th2)
            v_tga = morita_equivalent_tga(
                Bicharacter.from_skew(th1), Bicharacter.from_skew(th2)
            )
            assert v_torus.kind == v_tga.kind
            if v_torus.is_equivalent:
                assert v_torus.mu == v_tga.mu


# The Scalar-by-Scalar bicharacter code that the packed products replaced,
# kept as oracles ------------------------------------------------------------


def oracle_invalid(group, rows):
    """The InvalidBicharacter message of the Scalar checks, or None."""
    n = group.ngens
    rows = tuple(tuple(Scalar.of(x) for x in r) for r in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        return f"exponent matrix must be {n}x{n}"
    for i in range(n):
        if not rows[i][i].is_integer():
            return "diagonal exponents must be integers"
        for j in range(i + 1, n):
            if not (rows[i][j] + rows[j][i]).is_integer():
                return "matrix must be skew-symmetric modulo Z"
    for i, m in enumerate(group.generator_orders()):
        if not m:
            continue
        for j in range(n):
            for val in (rows[i][j], rows[j][i]):
                if not (m * val).is_integer():
                    return f"order-{m} generator {i} pairs by a non m-th root"
    return None


def oracle_pairing(exponents, x, y):
    acc = Scalar(0)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj:
                acc = acc + xi * exponents[i][j] * yj
    return acc


def oracle_present_quotient(sigma, carrier_rows, relation_rows):
    """twisted._present_quotient with the induced matrix built entry by entry."""
    ell = len(carrier_rows)
    if ell == 0:
        return Bicharacter(FgGroup(0), [])
    coords = solve_rows(carrier_rows, relation_rows)
    if coords:
        s, _, v = snf(coords)
        orders = [s[i][i] if i < min(len(coords), ell) else 0 for i in range(ell)]
        lifts_w = int_inverse_unimodular(v)
    else:
        orders = [0] * ell
        lifts_w = mat_identity(ell)
    lift_rows = mat_mul(lifts_w, carrier_rows)
    perm = [i for i in range(ell) if orders[i] == 0] + [i for i in range(ell) if orders[i] >= 2]
    group = FgGroup(
        sum(1 for o in orders if o == 0), tuple(o for o in orders if o >= 2)
    )

    def induced(a, b):
        val = oracle_pairing(sigma.exponents, lift_rows[a], lift_rows[b])
        return Scalar(val.rat - math.floor(val.rat), val.quad, val.d)

    return Bicharacter(group, [[induced(a, b) for b in perm] for a in perm])


CHAINS = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 4), (6, 6, 6)]
BREAKS = ("diagonal", "skew", "root", "sqrt-torsion")


def random_exponents(rng, group, quad):
    """A valid exponent matrix on the group: skew mod Z, integer diagonal,
    m-th roots on torsion rows; sqrt 2 parts only between free generators."""
    orders = group.generator_orders()
    n = group.ngens
    rows = [[Scalar(rng.randint(-2, 2)) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = math.gcd(orders[i], orders[j]) or rng.randint(1, 6)
            v = Scalar(Fraction(rng.randint(-7, 7), q))
            if quad and not (orders[i] or orders[j]) and rng.random() < 0.6:
                v = v + Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * RT2
            rows[i][j], rows[j][i] = v, rng.randint(-1, 1) - v
    return rows


def break_exponents(rng, group, rows, kind):
    """Violate one bicharacter constraint in place; False when the group is
    too small for the kind."""
    orders = group.generator_orders()
    n = group.ngens
    if kind == "diagonal":
        i = rng.randrange(n)
        rows[i][i] = rows[i][i] + rng.choice([Fraction(1, 2), Fraction(2, 3), RT2])
        return True
    if n < 2:
        return False
    if kind == "skew":
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[i][j] + rng.choice([Fraction(1, 5), Fraction(-1, 7), RT2 / 3])
        return True
    tors = [i for i, m in enumerate(orders) if m]
    if not tors:
        return False
    i = rng.choice(tors)
    j = rng.choice([k for k in range(n) if k != i])
    if kind == "root":
        # a 1/(m p) step keeps the pair skew but is no m-th root
        v = Scalar(Fraction(1, orders[i] * rng.choice([5, 7])))
    else:
        # an m-th root plus a sqrt 2 part, still skew
        v = Scalar(Fraction(rng.randint(0, 1), orders[i])) + rng.choice([1, -2]) * RT2
    # either orientation: the torsion generator's row or its column
    if rng.random() < 0.5:
        i, j = j, i
    rows[i][j] = rows[i][j] + v
    rows[j][i] = rows[j][i] - v
    return True


class TestPackedAgainstScalarOracle:
    def test_differential(self, monkeypatch):
        rng = random.Random(89)
        valid, rejected = [], {}
        while len(valid) + sum(rejected.values()) < 240:
            group = FgGroup(rng.randint(0, 3), rng.choice(CHAINS))
            if group.ngens == 0:
                continue
            rows = random_exponents(rng, group, quad=rng.random() < 0.5)
            kind = rng.choice(BREAKS) if rng.random() < 0.5 else None
            if kind and not break_exponents(rng, group, rows, kind):
                continue
            expect = oracle_invalid(group, rows)
            try:
                sigma = Bicharacter(group, rows)
                got = None
            except InvalidBicharacter as exc:
                got = str(exc)
            assert got == expect, (group, rows)
            if expect is None:
                valid.append(sigma)
            else:
                key = (kind, "root" if expect.startswith("order-") else expect)
                rejected[key] = rejected.get(key, 0) + 1
        # every check is hit, the root check by a rational and by a sqrt 2 part
        for key in [
            ("diagonal", "diagonal exponents must be integers"),
            ("skew", "matrix must be skew-symmetric modulo Z"),
            ("root", "root"),
            ("sqrt-torsion", "root"),
        ]:
            assert rejected.get(key, 0) >= 10, key
        assert len(valid) >= 80

        for sigma in valid:
            n = sigma.group.ngens
            for _ in range(3):
                x = [rng.randint(-3, 3) for _ in range(n)]
                y = [rng.randint(-3, 3) for _ in range(n)]
                assert sigma.pairing_exponent(x, y) == oracle_pairing(sigma.exponents, x, y)
        assert standard_pair(2).pairing_exponent([], []) == 0
        assert Bicharacter(FgGroup(0), []).pairing_exponent([], []) == 0

        def results():
            out = []
            for sigma in valid:
                q = simple_quotient(sigma)
                out.append((q.group, q.exponents, trace_range_tga(sigma)))
            return out

        packed = results()
        monkeypatch.setattr(twisted, "_present_quotient", oracle_present_quotient)
        assert results() == packed


# The Scalar route of the twisted pipeline: every quotient is built by
# oracle_present_quotient, each rational part taken mod 1 as a Scalar and the
# result rebuilt through the public Bicharacter(group, rows) ------------------


def scalar_route_simple_quotient(sigma):
    n = sigma.group.ngens
    kernel = integral_solution_lattice(sigma.exponents)
    return oracle_present_quotient(sigma, mat_identity(n), [list(b) for b in kernel.basis])


def scalar_route_split(sigma):
    group = sigma.group
    n = group.ngens
    t = n - 1
    m = group.torsion_orders[-1]
    d, den, (top,), _ = _pack([sigma.exponents[t]])
    assert d is None
    jvals = [m * x // den % m for x in top]
    kernel = IntLattice(n, _mod_kernel([[j] for j in jvals], m, 1))
    relations = group.relation_rows()
    relations.append([1 if i == t else 0 for i in range(n)])
    return oracle_present_quotient(sigma, [list(b) for b in kernel.basis], relations), m


def scalar_route_skew(sigma):
    e = sigma.exponents
    n = len(e)
    return SkewMatrix(
        [[e[i][j] if i < j else (-e[j][i] if i > j else Scalar(0)) for j in range(n)] for i in range(n)]
    )


DIFF_CHAINS = [(), (2,), (3,), (6,), (2, 4), (3, 6), (2, 2), (2, 2, 4), (6, 6, 6), (6,) * 8]


class TestPackedRouteAgainstScalarRoute:
    def assert_same(self, got, want):
        assert got.group == want.group
        assert got._packed == _pack(want.exponents)
        assert got.exponents == want.exponents
        assert got.kernel == want.kernel == integral_solution_lattice(want.exponents)
        assert hsigma(got) == hsigma(want)

    def test_differential(self):
        rng = random.Random(131)
        seen = {"quad": 0, "z6^8": 0, "steps": 0, "from_skew": 0}
        for case in range(300):
            quad = case % 2 == 1
            if case % 10 == 0:
                # a torus read as a bicharacter, through the packed from_skew
                theta = random_skew(rng, rng.randint(0, 5), denom_max=8, quad_prob=0.5 if quad else 0)
                rows = [list(r) for r in theta.rows]
                sigma = Bicharacter.from_skew(theta)
                seen["from_skew"] += 1
            else:
                group = FgGroup(rng.randint(0, 3), DIFF_CHAINS[case // 2 % len(DIFF_CHAINS)])
                rows = random_exponents(rng, group, quad)
                sigma = Bicharacter(group, rows)
            seen["quad"] += sigma._packed[0] is not None
            seen["z6^8"] += sigma.group.torsion_orders == (6,) * 8
            want = Bicharacter(sigma.group, rows)
            assert sigma.exponents == tuple(tuple(map(Scalar.of, r)) for r in rows)
            self.assert_same(sigma, want)

            got, want = simple_quotient(sigma), scalar_route_simple_quotient(want)
            self.assert_same(got, want)
            multiplier = 1
            while want.group.torsion_orders:
                (got, m1), (want, m2) = _split_top_torsion(got), scalar_route_split(want)
                assert m1 == m2
                self.assert_same(got, want)
                multiplier *= m1
                seen["steps"] += 1
            assert not got.group.torsion_orders
            skew = scalar_route_skew(want)
            assert _skew_from_exponents(got) == skew
            base = trace_range(skew)
            assert trace_range_tga(sigma) == TraceRange._from_coords(
                base.d, base.denom * multiplier, base.lattice.basis
            )
        assert seen["quad"] >= 40 and seen["z6^8"] >= 20 and seen["steps"] >= 300, seen
        assert seen["from_skew"] == 30
