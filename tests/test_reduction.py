import math
import random
from fractions import Fraction

import pytest

from nctori import exactlin, hyperlattice, invariants, reduction, twisted
from nctori.exactlin import IncompatibleField, Scalar, _pack, int_det, mat_identity, mat_mul, mat_transpose
from nctori.hyperlattice import CompatibleBasis
from nctori.invariants import degeneracy_subgroup
from nctori.reduction import (
    ONN_MINUS,
    ONN_NO,
    ONN_SO,
    ActionUndefined,
    ONNElement,
    SkewMatrix,
    act,
    canonical_form,
    compose,
    inverse,
    is_in_onn,
)
from nctori.worked_examples import (
    three_torus,
    three_torus_reduced,
    three_torus_transform,
)

from conftest import random_skew
from test_hyperlattice import random_so_element, seeded_sign_inputs


_NOT_SKEW = (ValueError, "not skew-symmetric")


class TestSkewMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SkewMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            SkewMatrix([[1]])

    def test_field_of_a_pair(self):
        # the matrix is packed when it is built, so entries of two fields
        # raise there, in one skew pair (sqrt 2 / -sqrt 3) or in two
        rt2, rt3 = Scalar.sqrt(2), Scalar.sqrt(3)
        for rows in ([[0, rt2], [-rt3, 0]], [[0, rt2, 0], [-rt2, 0, rt3], [0, -rt3, 0]]):
            with pytest.raises(IncompatibleField, match=r"cannot mix sqrt\(2\) with sqrt\(3\)"):
                SkewMatrix(rows)

    @pytest.mark.parametrize(
        "x, y, error",
        [
            # each pair fails x = -y in one place only; a second field is
            # rejected when the matrix is packed, before the skew check
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(1, 2), -3, 2), _NOT_SKEW),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 3), -3, 2), _NOT_SKEW),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 2), 3, 2), _NOT_SKEW),
            (Scalar(1, Fraction(3, 4), 2), Scalar(-1, Fraction(-3, 5), 2), _NOT_SKEW),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 2), -3, 3),
             (IncompatibleField, r"cannot mix sqrt\(2\) with sqrt\(3\)")),
        ],
        ids=["rational sign", "rational denominator", "sqrt sign", "sqrt denominator", "field"],
    )
    def test_rejects_one_part_off(self, x, y, error):
        other = Scalar(Fraction(2, 3), Fraction(-1, 5), 2)
        rows = [[0, other, x], [-other, 0, 1], [y, -1, 0]]
        with pytest.raises(error[0], match=error[1]):
            SkewMatrix(rows)
        rows[2][0] = -x
        assert SkewMatrix(rows).entry(2, 0) == -x

    def test_neg_and_submatrix(self):
        th = three_torus(5, Fraction(1, 7))
        assert th.neg().neg() == th
        sub = th.submatrix([1, 2])
        assert sub.entry(0, 1) == Fraction(1, 7)


class TestIsInOnn:
    def test_identity(self):
        assert is_in_onn(mat_identity(6)) == ONN_SO

    def test_coordinate_swap(self):
        n = 2
        h = mat_identity(2 * n)
        h[0], h[n] = h[n], h[0]
        assert is_in_onn(h) == ONN_MINUS

    def test_worked_transform(self):
        assert is_in_onn(three_torus_transform(5).matrix) == ONN_SO

    def test_garbage(self):
        assert is_in_onn([[1, 1], [0, 1]]) == ONN_NO

    def test_against_block_relations(self):
        def blocks_hold(mat):
            n = len(mat) // 2
            a, b = [r[:n] for r in mat[:n]], [r[n:] for r in mat[:n]]
            c, d = [r[:n] for r in mat[n:]], [r[n:] for r in mat[n:]]

            def sym(x, y):
                return [
                    [p + q for p, q in zip(r, s)]
                    for r, s in zip(mat_mul(mat_transpose(x), y), mat_mul(mat_transpose(y), x))
                ]

            zero = [[0] * n for _ in range(n)]
            cross = [
                [p + q for p, q in zip(r, s)]
                for r, s in zip(mat_mul(mat_transpose(a), d), mat_mul(mat_transpose(c), b))
            ]
            return sym(a, c) == zero and sym(b, d) == zero and cross == mat_identity(n)

        rng = random.Random(17)
        kinds = {ONN_NO: 0, ONN_SO: 0, ONN_MINUS: 0}
        for _ in range(200):
            n = rng.randint(1, 4)
            mat = random_so_element(rng, n).matrix
            if rng.random() < 0.3:
                i = rng.randrange(n)
                mat[i], mat[n + i] = mat[n + i], mat[i]
            if rng.random() < 0.4:
                mat[rng.randrange(2 * n)][rng.randrange(2 * n)] += rng.choice((-1, 1))
            kind = is_in_onn(mat)
            assert (kind != ONN_NO) == blocks_hold(mat)
            kinds[kind] += 1
        assert min(kinds.values()) >= 20

    def test_odd_dimension(self):
        with pytest.raises(ValueError):
            is_in_onn([[1]])

    def test_non_integral(self):
        # int() would truncate these to the identity
        assert is_in_onn([[Fraction(3, 2), 0], [0, 1.9]]) == ONN_NO
        assert is_in_onn([[1.5, 0], [0, 1]]) == ONN_NO
        assert is_in_onn([[Fraction(1), 0], [0, 1.0]]) == ONN_SO
        with pytest.raises(ValueError, match="integers"):
            ONNElement([[Fraction(3, 2)]], [[0]], [[0]], [[Fraction(5, 4)]])
        with pytest.raises(ValueError, match="integers"):
            ONNElement.from_matrix([[1, 0], [0, 1.9]])
        assert ONNElement([[Fraction(1)]], [[0.0]], [[0]], [[1]]) == ONNElement.identity(1)


class TestAction:
    def test_identity_action(self):
        th = three_torus(5, Fraction(1, 7))
        assert act(ONNElement.identity(3), th) == th

    def test_worked_example_rational(self):
        got = act(three_torus_transform(5), three_torus(5, Fraction(1, 7)))
        assert got == three_torus_reduced(5, Fraction(1, 7))

    def test_worked_example_quadratic(self):
        rt2 = Scalar.sqrt(2)
        got = act(three_torus_transform(1), three_torus(1, rt2))
        assert got == three_torus_reduced(1, rt2)

    def test_undefined(self):
        # C theta + D singular for theta = 0 and the pair-flip element
        n = 2
        a = [[0] * n for _ in range(n)]
        b = mat_identity(n)
        g = ONNElement(a, b, b, a)
        with pytest.raises(ActionUndefined):
            act(g, SkewMatrix.zero(n))

    def test_composition_where_defined(self):
        rng = random.Random(43)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 3)
            g1 = random_so_element(rng, n)
            g2 = random_so_element(rng, n)
            th = random_skew(rng, n, denom_max=4)
            try:
                lhs = act(compose(g1, g2), th)
                rhs = act(g1, act(g2, th))
            except ActionUndefined:
                continue
            assert lhs == rhs
            checked += 1

    def test_inverse_undoes(self):
        rng = random.Random(47)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 3)
            g = random_so_element(rng, n)
            th = random_skew(rng, n, denom_max=4, quad_prob=0.3)
            try:
                out = act(g, th)
            except ActionUndefined:
                continue
            assert act(inverse(g), out) == th
            checked += 1


def flip1(n):
    """Exchange e_1 and f_1: an element of O(n,n|Z) with det -1."""
    a = [[int(i == j > 0) for j in range(n)] for i in range(n)]
    b = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    return ONNElement(a, b, b, a)


def count_calls(monkeypatch, mod, name):
    calls = []
    orig = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *args: calls.append(args) or orig(*args))
    return calls


class TestCertificates:
    """The checks canonical_form certifies mod q, each against the exact route
    it replaced, with forced fallbacks: a value equal to the first table
    prime (zero mod q only) and d = 59 (a square mod no table prime)."""

    def test_det_sign_against_int_det(self, corpus_forms):
        for _, form in corpus_forms:
            assert form.g.det_sign == int_det(form.g.matrix) == 1
        # the rows of any h in O(n,n|Z) form a compatible basis B, and J B J has det h
        rng = random.Random(53)
        signs = []
        for _ in range(200):
            n = rng.randint(1, 5)
            h = random_so_element(rng, n)
            if rng.random() < 0.5:
                h = compose(h, flip1(n))
            rows = h.matrix
            g = ONNElement._of_basis(CompatibleBasis(n, tuple(map(tuple, rows[:n])), tuple(map(tuple, rows[n:]))))
            assert g == ONNElement.from_matrix([r[n:] + r[:n] for r in rows[n:] + rows[:n]])
            assert g.det_sign == int_det(g.matrix) == h.det_sign
            signs.append(g.det_sign)
        assert signs.count(-1) >= 50 and signs.count(1) >= 50

    def test_action_identity_against_act(self, corpus_forms):
        acts_as = reduction._acts_as
        for theta, form in corpus_forms:
            assert acts_as(form.g, _pack(theta.rows), _pack(form.theta_prime.rows))
            off = SkewMatrix.from_upper(theta.n, {(0, 1): 1}) if theta.n > 1 else None
            if off is not None:
                assert act(form.g, theta) != off
                assert not acts_as(form.g, _pack(theta.rows), _pack(off.rows))
        rng = random.Random(59)
        undefined = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            g = random_so_element(rng, n)
            if rng.random() < 0.5:  # C theta + D = theta, singular for odd n
                eye, zero = mat_identity(n), [[0] * n for _ in range(n)]
                g = compose(g, ONNElement(zero, eye, eye, zero))
            theta, other = (random_skew(rng, n, denom_max=4, quad_prob=0.3) for _ in range(2))
            try:
                moved = act(g, theta)
            except ActionUndefined:
                moved = None
                undefined += 1
            else:
                assert acts_as(g, _pack(theta.rows), _pack(moved.rows))
            assert acts_as(g, _pack(theta.rows), _pack(other.rows)) == (moved == other)
        assert undefined >= 30

    def test_action_identity_where_c_theta_d_vanishes_mod_q(self):
        # g = [[I, 0], [N, I]] on theta = t N with N N = -I: C theta + D = (1 - t) I,
        # q I for t = 1 - q; the identity needs no invertibility check
        q = hyperlattice._PRIMES[0]
        n = 2
        skew = [[0, 1], [-1, 0]]
        g = ONNElement(mat_identity(n), [[0] * n for _ in range(n)], skew, mat_identity(n))
        for t in (1 - q, Scalar(0, 1, 59), 1):
            theta = SkewMatrix.from_upper(n, {(0, 1): t})
            try:
                moved = act(g, theta)
            except ActionUndefined:
                assert t == 1
                moved = SkewMatrix.zero(n)
            assert reduction._acts_as(g, _pack(theta.rows), _pack(moved.rows)) == (t != 1)

    def test_nondegenerate_against_degeneracy_subgroup(self, corpus_forms):
        cases = [t for theta, form in corpus_forms for t in (theta, form.theta_tilde)]
        for mat in seeded_sign_inputs():
            n = len(mat)
            cases.append(SkewMatrix([[mat[i][j] - mat[j][i] for j in range(n)] for i in range(n)]))
        verdicts = [reduction._nondegenerate(_pack(t.rows)) for t in cases]
        assert verdicts == [degeneracy_subgroup(t).rank == 0 for t in cases]
        assert 300 <= verdicts.count(True) and 300 <= verdicts.count(False)

    def test_nondegenerate_fallback(self, monkeypatch):
        calls = count_calls(monkeypatch, reduction, "_integral_lattice")
        q = hyperlattice._PRIMES[0]
        for x in (Scalar(0, 1, 59), Scalar(Fraction(1, 3), q, 2)):
            assert reduction._nondegenerate(_pack(SkewMatrix.from_upper(2, {(0, 1): x}).rows))
        # the sqrt 59 part is an integer matrix, so only B = q J falls back
        assert len(calls) == 1


class TestGroupOps:
    def test_inverse_identity(self):
        assert inverse(ONNElement.identity(3)) == ONNElement.identity(3)

    def test_compose_inverse(self):
        g = three_torus_transform(5)
        assert compose(g, inverse(g)) == ONNElement.identity(3)


class TestCanonicalForm:
    def test_rational_theta_gives_zero(self):
        th = SkewMatrix(
            [
                [0, Fraction(1, 2), Fraction(1, 3)],
                [Fraction(-1, 2), 0, Fraction(1, 4)],
                [Fraction(-1, 3), Fraction(-1, 4), 0],
            ]
        )
        form = canonical_form(th)
        assert form.k == 0
        assert form.theta_prime == SkewMatrix.zero(3)

    def test_rational_scale_n12(self):
        # n = 12 is past the size where Smith-form transforms run to 10^5 bits
        th = random_skew(random.Random(5), 12)
        n = th.n
        lat = degeneracy_subgroup(th)
        for x in lat.basis:
            assert all(sum(x[i] * th.rows[i][j] for i in range(n)).is_integer() for j in range(n))
        q = math.lcm(*(e.rat.denominator for r in th.rows for e in r))
        for i in range(n):
            assert lat.contains([q * (i == j) for j in range(n)])
        form = canonical_form(th)  # runs its own self-checks
        assert form.k == 0
        assert act(form.g, th) == form.theta_prime

    def test_irrational_full_block(self):
        rt2 = Scalar.sqrt(2)
        form = canonical_form(SkewMatrix([[0, rt2], [-rt2, 0]]))
        assert form.k == 2
        assert degeneracy_subgroup(form.theta_tilde).rank == 0

    def test_worked_mixed(self):
        rt2 = Scalar.sqrt(2)
        th = three_torus(1, rt2)
        form = canonical_form(th)
        assert form.k == 2
        assert act(form.g, th) == form.theta_prime

    def test_idempotent_on_reduced(self):
        rt2 = Scalar.sqrt(2)
        form = canonical_form(three_torus(1, rt2))
        again = canonical_form(form.theta_prime)
        assert again.k == form.k
        assert degeneracy_subgroup(again.theta_tilde).rank == 0

    def test_zero_matrix(self):
        form = canonical_form(SkewMatrix.zero(3))
        assert form.k == 0
        assert form.g == ONNElement.identity(3)

    def test_stays_packed(self, monkeypatch):
        # theta is packed once here, once by act and once per degeneracy
        # lattice; Scalars are built only for theta' and act's result
        theta = random_skew(random.Random(5), 8, quad_prob=0.5)
        counts = {"pack": 0, "over": 0}
        pack, over = exactlin._pack, exactlin.Scalar._over.__func__

        def counting_pack(rows):
            counts["pack"] += 1
            return pack(rows)

        def counting_over(cls, *args):
            counts["over"] += 1
            return over(cls, *args)

        for mod in (exactlin, hyperlattice, invariants, reduction, twisted):
            if hasattr(mod, "_pack"):
                monkeypatch.setattr(mod, "_pack", counting_pack)
        monkeypatch.setattr(exactlin.Scalar, "_over", classmethod(counting_over))
        canonical_form(theta)
        assert counts["pack"] <= 6
        assert counts["over"] <= 3 * theta.n**2

    def test_empty_matrix(self):
        form = canonical_form(SkewMatrix([]))
        assert form.k == 0
