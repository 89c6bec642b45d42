import itertools
import math
import random
from fractions import Fraction

import pytest

from nctori.exactlin import (
    IncompatibleField,
    IntLattice,
    Scalar,
    _mod_kernel,
    int_det,
    integral_solution_lattice,
    smat_det,
)
from nctori.invariants import (
    REASON_CENTER,
    REASON_DIMENSION,
    REASON_ORDER,
    REASON_RANK,
    REASON_RATIO_FIELD,
    TraceRange,
    Verdict,
    _multiplier_order,
    _scaling_search,
    degeneracy_subgroup,
    k_group_ranks,
    morita_equivalent,
    ordered_k0_isomorphic,
    pfaffian,
    pfaffian_from_matchings,
    range_equal_up_to_scaling,
    trace_range,
)
from nctori import invariants
from nctori.reduction import SkewMatrix, act, canonical_form
from nctori.worked_examples import (
    four_torus_pair,
    three_torus,
    three_torus_reduced,
)

from conftest import random_skew

RT2 = Scalar.sqrt(2)
RT3 = Scalar.sqrt(3)


class TestDegeneracySubgroup:
    def test_zero_matrix(self):
        assert degeneracy_subgroup(SkewMatrix.zero(2)) == IntLattice(2, [[1, 0], [0, 1]])

    def test_worked_pair(self):
        t1, t2 = four_torus_pair(RT2)
        assert degeneracy_subgroup(t1).rank == 2
        assert degeneracy_subgroup(t2).rank == 0

    def test_rank_invariant_under_negation(self, corpus):
        for th in corpus[:60]:
            assert degeneracy_subgroup(th).rank == degeneracy_subgroup(th.neg()).rank


class TestPfaffian:
    def test_2x2(self):
        a = Scalar(Fraction(5, 3))
        assert pfaffian(SkewMatrix([[0, a], [-a, 0]])) == a

    def test_4x4_worked(self):
        _, t2 = four_torus_pair(RT2)
        assert pfaffian(t2) == 2

    def test_zero(self):
        assert pfaffian(SkewMatrix.zero(4)) == 0

    def test_odd_dimension(self):
        with pytest.raises(ValueError):
            pfaffian(SkewMatrix.zero(3))

    def test_both_routes_and_square(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.choice([2, 4, 6])
            th = random_skew(rng, n, denom_max=6, quad_prob=0.3)
            p1 = pfaffian(th)
            p2 = pfaffian_from_matchings(th)
            assert p1 == p2
            assert p1 * p1 == smat_det([list(r) for r in th.rows])


# entries from Q(sqrt 2) and Q(sqrt 3) at once; each skew pair stays in one field
_TWO_FIELDS = SkewMatrix(
    [[0, RT2, RT3, 0], [-RT2, 0, 0, 1], [-RT3, 0, 0, 1], [0, -1, -1, 0]]
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: integral_solution_lattice([[RT2, 1], [0, RT3]]),
        lambda: TraceRange([1, RT2, RT3]),
        lambda: trace_range(_TWO_FIELDS),
        lambda: pfaffian(_TWO_FIELDS),
    ],
    ids=["integral_solution_lattice", "TraceRange", "trace_range", "pfaffian"],
)
def test_mixed_fields_raise(build):
    with pytest.raises(IncompatibleField):
        build()


class TestTraceRange:
    def test_sqrt2_plane(self):
        rng = trace_range(SkewMatrix([[0, RT2], [-RT2, 0]]))
        assert rng.basis == (Scalar(1), RT2)

    def test_worked_pair_equal(self):
        t1, t2 = four_torus_pair(RT2)
        assert trace_range(t1) == trace_range(t2)
        assert trace_range(t1).basis == (Scalar(1), RT2)

    def test_three_torus_values(self):
        assert trace_range(three_torus(5, Fraction(1, 7))).basis == (Scalar(Fraction(1, 35)),)
        assert trace_range(three_torus_reduced(5, Fraction(1, 7))).basis == (
            Scalar(Fraction(1, 7)),
        )

    def test_negation_invariance(self, corpus):
        for th in corpus[:60]:
            assert trace_range(th) == trace_range(th.neg())

    def test_contains_one(self, corpus):
        for th in corpus[:40]:
            assert trace_range(th).contains(1)

    def test_must_contain_one(self):
        with pytest.raises(ValueError):
            TraceRange([RT2])

    def test_rank_one_iff_rational(self, corpus):
        for th in corpus[:80]:
            assert (trace_range(th).rank == 1) == th.is_rational()

    def test_matches_matching_oracle(self):
        # generators from the independent matching-sum route, subset by subset
        rng = random.Random(31)
        for n in range(9):
            for quad_prob in (0.0, 0.5):
                for zero_rows in (False, True):
                    rows = [list(r) for r in random_skew(rng, n, quad_prob=quad_prob).rows]
                    for i in range(0, n, 3) if zero_rows else ():
                        for j in range(n):
                            rows[i][j] = rows[j][i] = Scalar(0)
                    th = SkewMatrix(rows)
                    gens = [Scalar(1)] + [
                        pfaffian_from_matchings(th.submatrix(idx))
                        for size in range(2, n + 1, 2)
                        for idx in itertools.combinations(range(n), size)
                    ]
                    assert trace_range(th) == TraceRange(gens)
                    if n % 2 == 0:
                        assert pfaffian(th) == pfaffian_from_matchings(th)

    def test_sqrt2_n14(self):
        # 2^13 subset Pfaffians: fast only through the subset recursion
        th = random_skew(random.Random(5), 14, quad_prob=0.5)
        rng = trace_range(th)
        assert rng.rank == 2
        assert rng.contains(1)
        assert rng == trace_range(th.neg())


class TestScalingLadder:
    def test_rank_one_ratio(self):
        v = range_equal_up_to_scaling(
            TraceRange([Fraction(1, 35)]), TraceRange([Fraction(1, 7)])
        )
        assert v.is_equivalent and v.mu == 5

    def test_identity(self):
        l = trace_range(three_torus(1, RT2))
        v = range_equal_up_to_scaling(l, l)
        assert v.is_equivalent and v.mu == 1

    def test_rank_mismatch(self):
        v = range_equal_up_to_scaling(
            TraceRange([1, RT2]), TraceRange([Fraction(1, 3)])
        )
        assert v.reason == REASON_RANK

    def test_ratio_field_mismatch(self):
        v = range_equal_up_to_scaling(
            TraceRange([1, RT2]), TraceRange([1, Scalar.sqrt(3)])
        )
        assert v.reason == REASON_RATIO_FIELD

    def test_multiplier_order_mismatch(self):
        # Z + sqrt2 Z has multiplier ring Z[sqrt2]; Z + 2 sqrt2 Z only Z[2 sqrt2]
        v = range_equal_up_to_scaling(
            TraceRange([1, RT2]), TraceRange([1, 2 * RT2])
        )
        assert v.reason == REASON_ORDER

    def test_search_finds_unit_multiple(self):
        l1 = TraceRange([1, RT2])
        mu = Scalar(3, 2, 2)  # 3 + 2 sqrt2, norm 1, positive
        l2 = TraceRange([b * mu for b in l1.basis])
        v = range_equal_up_to_scaling(l1, l2)
        assert v.is_equivalent
        assert l1.scaled_equals(v.mu, l2)

    def test_search_finds_half_sqrt2(self):
        l1 = TraceRange([1, RT2])
        l2 = TraceRange([1, RT2 / 2])
        v = range_equal_up_to_scaling(l1, l2)
        assert v.is_equivalent
        assert l1.scaled_equals(v.mu, l2)

    def test_unknown_for_nonprincipal_class(self):
        # Z + sqrt10 Z versus Z + (sqrt10/2) Z: same multiplier order (the
        # maximal one), covolume ratio 1/2, but x^2 - 10 y^2 = +-2 has no
        # rational solution (squares mod 5 are 0, 1, 4), so no scaling factor
        # exists; the certificates implemented cannot see this, and the
        # bounded search honestly reports Unknown
        rt10 = Scalar.sqrt(10)
        v = range_equal_up_to_scaling(
            TraceRange([1, rt10]), TraceRange([1, rt10 / 2]), height=6
        )
        assert v.is_unknown and v.bound == 6

    def test_verdict_mu_positive(self):
        with pytest.raises(AssertionError):
            Verdict.equivalent(Scalar(-1))


# The transporter over Scalars and 2x2 Fraction matrices: the reference for
# the integer modular kernel of invariants._transporter_basis.


def _mult_matrix(b, d):
    # row (p, q) * M(b) = coordinates of (p + q sqrt d) * b over {1, sqrt d}
    return [[b.rat, b.quad], [b.quad * d, b.rat]]


def _lattice_conditions(l1, l2):
    """Rational 2x4 condition matrix N with x in the transporter
    {x : x * L1 <= L2} iff coord(x) @ N is integral."""
    d = l1.d
    h2 = [[Fraction(x, l2.denom) for x in row] for row in l2.lattice.basis]
    det = h2[0][0] * h2[1][1] - h2[0][1] * h2[1][0]
    h2_inv = [
        [h2[1][1] / det, -h2[0][1] / det],
        [-h2[1][0] / det, h2[0][0] / det],
    ]
    cols = []
    for b in l1.basis:
        mb = _mult_matrix(b, d)
        prod = [
            [sum(mb[i][k] * h2_inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        cols.append(prod)
    return [[cols[0][i][0], cols[0][i][1], cols[1][i][0], cols[1][i][1]] for i in range(2)]


def _embedding_norm(x):
    q = x.rat * x.rat
    if x.quad:
        q += x.quad * x.quad * x.d
    return q


def _lagrange_reduce(t1, t2):
    """Gauss-Lagrange reduction of a rank-2 scalar lattice basis under the
    positive embedding norm."""
    d = t1.d if t1.d is not None else t2.d

    def bil(x, y):
        b = x.rat * y.rat
        if x.quad and y.quad:
            b += x.quad * y.quad * d
        return b

    while True:
        if _embedding_norm(t1) > _embedding_norm(t2):
            t1, t2 = t2, t1
        denom = _embedding_norm(t1)
        m = (2 * bil(t1, t2) + denom) // (2 * denom)
        if m == 0:
            return t1, t2
        t2 = t2 - m * t1


def _transporter_basis(l1, l2):
    """Z-basis of {x in Q(sqrt d) : x * L1 <= L2} as scalars (reduced)."""
    n_cond = _lattice_conditions(l1, l2)
    det1 = n_cond[0][0] * n_cond[1][1] - n_cond[0][1] * n_cond[1][0]
    # x @ first condition block integral bounds the denominators of x
    inv1 = [
        [n_cond[1][1] / det1, -n_cond[0][1] / det1],
        [-n_cond[1][0] / det1, n_cond[0][0] / det1],
    ]
    dx = math.lcm(*(f.denominator for row in inv1 for f in row))
    lat = integral_solution_lattice([[f / dx for f in row] for row in n_cond])
    assert lat.rank == 2
    d = l1.d
    t1, t2 = (
        Scalar(Fraction(row[0], dx), Fraction(row[1], dx), d if row[1] else None)
        for row in lat.basis
    )
    return list(_lagrange_reduce(t1, t2))


def _oracle_scaling_search(l1, l2, height):
    """The mu-search over the full square of heights, every candidate a
    Scalar with its norm taken in Fractions: the reference for the integer
    norm form of _scaling_search."""
    t1, t2 = _transporter_basis(l1, l2)
    ratio = l2.covolume() / l1.covolume()
    for h in range(1, height + 1):
        for a in range(-h, h + 1):
            for b in range(-h, h + 1):
                if max(abs(a), abs(b)) != h:
                    continue
                mu = a * t1 + b * t2
                if not mu:
                    continue
                if abs(mu.norm()) != ratio:
                    continue
                mu = abs(mu)
                if l1.scaled_equals(mu, l2):
                    return mu
    return None


def _random_gl2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        t = rng.choice((-2, -1, 1, 2))
        step = rng.choice(([[1, t], [0, 1]], [[1, 0], [t, 1]], [[0, 1], [1, 0]]))
        m = [[sum(m[i][k] * step[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return m


def _mobius(m, omega):
    (a, b), (c, e) = m
    return (a * omega + b) / (c * omega + e)


class TestScalingSearch:
    def test_matches_scalar_oracle(self):
        # Z + omega Z against a GL2(Z) Moebius image Z + tau Z (equivalent,
        # through mu = 1 / (c omega + e) up to units), and sqrt10 pairs with
        # no mu at all; the same mu, or None, at every height
        rng = random.Random(37)
        pairs = []
        for d in (2, 3, 5, 6, 7, 10, 13):
            rt = Scalar.sqrt(d)
            for omega in (rt, rt / 2, (1 + rt) / 2, 3 * rt):
                tau = _mobius(_random_gl2(rng), omega)
                pairs.append((TraceRange([1, omega]), TraceRange([1, tau])))
        # images whose first mu lies on ring 2 or 3 rather than 1
        for omega, m in (
            (3 * RT2, [[0, 1], [1, -4]]),
            (7 * (1 + Scalar.sqrt(6)) / 2, [[0, 1], [1, 5]]),
            (5 * (1 + RT2) / 2, [[1, 0], [1, 1]]),
        ):
            pairs.append((TraceRange([1, omega]), TraceRange([1, _mobius(m, omega)])))
        rt10 = Scalar.sqrt(10)
        for omega in (rt10 / 2, rt10 / 3, _mobius(_random_gl2(rng), rt10 / 2)):
            pairs.append((TraceRange([1, rt10]), TraceRange([1, omega])))
        outcomes = set()
        for l1, l2 in pairs:
            for height in (*range(9), 20):
                want = _oracle_scaling_search(l1, l2, height)
                got = _scaling_search(l1, l2, height)
                assert got == want and str(got) == str(want)
                outcomes.add(got is None)
        assert outcomes == {False, True}

    def test_search_builds_few_scalars(self, monkeypatch):
        # the sqrt10 pair of test_unknown_for_nonprincipal_class: no candidate
        # has the right norm, so none becomes a Scalar (8,412 in the Scalar
        # loop of the oracle)
        rt10 = Scalar.sqrt(10)
        l1, l2 = TraceRange([1, rt10]), TraceRange([1, rt10 / 2])
        built = 0
        init = Scalar.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        assert _scaling_search(l1, l2, 20) is None
        assert built < 100


def _random_rank2_range(rng, d):
    rt = Scalar.sqrt(d)

    def element(quad):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6)) + Fraction(
            rng.choice((-3, -2, -1, 1, 2, 3)) if quad else 0, rng.randint(1, 4)
        ) * rt

    gens = [1, element(True)]
    if rng.random() < 0.5:
        gens.append(element(rng.random() < 0.5))
    return TraceRange(gens)


class TestTransporter:
    def test_matches_fraction_oracle(self):
        # random pairs, (l, l) pairs and GL2(Z) Moebius images over eight
        # fields: the same reduced basis, str included, and the same
        # multiplier order as the Scalar/Fraction route
        rng = random.Random(4111)
        checked = 0
        for d in (2, 3, 5, 6, 7, 10, 13, 79):
            for i in range(130):
                l1 = _random_rank2_range(rng, d)
                if i % 3 == 0:
                    l2 = l1
                elif i % 3 == 1:
                    l2 = _random_rank2_range(rng, d)
                else:
                    omega = l1.basis[1] / l1.basis[0]
                    l2 = TraceRange([1, _mobius(_random_gl2(rng), omega)])
                D, *pairs = invariants._transporter_basis(l1, l2)
                got = [Scalar(Fraction(p, D), Fraction(q, D), d) for p, q in pairs]
                want = _transporter_basis(l1, l2)
                assert got == want and list(map(str, got)) == list(map(str, want))
                assert _multiplier_order(l1) == TraceRange(_transporter_basis(l1, l1))
                checked += 1
        assert checked >= 1000

    def test_mod_kernel_matches_solution_lattice(self):
        # y @ N = 0 mod q against the Fraction route of
        # integral_solution_lattice, and against a count of the solutions
        # mod q: the index of the lattice in Z^t is q^t over that count
        rng = random.Random(4127)
        for i in range(300):
            t, k = rng.randint(1, 3), rng.randint(1, 3)
            q = 1 if i % 5 == 0 else rng.randint(2, 9)
            nmat = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(t)]
            if i % 4 == 0:
                nmat[rng.randrange(t)] = [0] * k
            rows = _mod_kernel(nmat, q, k)
            lat = IntLattice(t, rows)
            assert lat == integral_solution_lattice(
                [[Fraction(x, q) for x in r] for r in nmat]
            )
            for y in rows:
                assert all(sum(a * r[j] for a, r in zip(y, nmat)) % q == 0 for j in range(k))
            count = sum(
                all(sum(a * r[j] for a, r in zip(y, nmat)) % q == 0 for j in range(k))
                for y in itertools.product(range(q), repeat=t)
            )
            assert lat.rank == t and int_det(lat.basis) * count == q**t

    def test_multiplier_order_builds_no_scalar(self, monkeypatch):
        omega = 3 * (1 + Scalar.sqrt(5)) / 2
        l = TraceRange([Fraction(1, 2), omega / 2])
        want = TraceRange([1, omega])  # Z[omega] is an order
        built = 0
        init, over = Scalar.__init__, Scalar._over.__func__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        def counting_over(cls, *args):
            nonlocal built
            built += 1
            return over(cls, *args)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        monkeypatch.setattr(Scalar, "_over", classmethod(counting_over))
        order = _multiplier_order(l)
        assert built == 0
        monkeypatch.undo()
        assert order == want


class TestDecision:
    def test_dimension_clause(self):
        v = ordered_k0_isomorphic(SkewMatrix.zero(2), SkewMatrix.zero(3))
        assert v.reason == REASON_DIMENSION

    def test_point_and_circle(self):
        v = ordered_k0_isomorphic(SkewMatrix([]), SkewMatrix.zero(1))
        assert v.is_equivalent
        v = morita_equivalent(SkewMatrix([]), SkewMatrix.zero(1))
        assert v.reason == REASON_CENTER

    def test_worked_pair_k0_equivalent(self):
        t1, t2 = four_torus_pair(RT2)
        assert ordered_k0_isomorphic(t1, t2).is_equivalent

    def test_worked_pair_not_morita(self):
        t1, t2 = four_torus_pair(RT2)
        v = morita_equivalent(t1, t2)
        assert v.reason == REASON_CENTER and v.detail == "center-rank 2 vs 0"

    def test_opposite_algebra(self, corpus):
        for th in corpus[:50]:
            assert morita_equivalent(th, th.neg()).is_equivalent

    def test_reflexive_symmetric(self, corpus):
        rng = random.Random(59)
        sample = rng.sample(corpus, 12)
        for th in sample:
            assert morita_equivalent(th, th).is_equivalent
        for a in sample[:6]:
            for b in sample[:6]:
                va = morita_equivalent(a, b)
                vb = morita_equivalent(b, a)
                assert va.kind == vb.kind

    def test_k_group_ranks(self):
        assert k_group_ranks(SkewMatrix.zero(3)) == (4, 4)
        assert k_group_ranks(SkewMatrix([])) == (1, 0)
        assert k_group_ranks(SkewMatrix.zero(1)) == (1, 1)


class TestRoundTrip:
    def test_canonical_form_is_equivalence(self):
        rng = random.Random(61)
        for _ in range(10):
            th = random_skew(rng, rng.randint(1, 4), denom_max=8, quad_prob=0.4)
            form = canonical_form(th)
            moved = act(form.g, th)
            v = morita_equivalent(th, moved)
            assert v.is_equivalent
            assert trace_range(th).scaled_equals(v.mu, trace_range(moved))

    def test_random_orbit_moves_are_equivalences(self):
        from nctori.reduction import ActionUndefined
        from test_hyperlattice import random_so_element

        rng = random.Random(127)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            th = random_skew(rng, n, denom_max=6, quad_prob=0.4)
            g = random_so_element(rng, n)
            try:
                moved = act(g, th)
            except ActionUndefined:
                continue
            v = morita_equivalent(th, moved)
            assert v.is_equivalent
            assert trace_range(th).scaled_equals(v.mu, trace_range(moved))
            checked += 1
