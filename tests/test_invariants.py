import itertools
import random
from fractions import Fraction

import pytest

from nctori.exactlin import IntLattice, Scalar, smat_det
from nctori.invariants import (
    REASON_CENTER,
    REASON_DIMENSION,
    REASON_ORDER,
    REASON_RANK,
    REASON_RATIO_FIELD,
    TraceRange,
    Verdict,
    degeneracy_subgroup,
    k_group_ranks,
    morita_equivalent,
    ordered_k0_isomorphic,
    pfaffian,
    pfaffian_from_matchings,
    range_equal_up_to_scaling,
    trace_range,
)
from nctori.reduction import SkewMatrix, act, canonical_form
from nctori.worked_examples import (
    four_torus_pair,
    three_torus,
    three_torus_reduced,
)

from conftest import random_skew

RT2 = Scalar.sqrt(2)


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
