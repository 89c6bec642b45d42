import math
import random
from fractions import Fraction

import pytest

from nctori import exactlin, hyperlattice, invariants, reduction, twisted
from nctori.exactlin import Scalar, mat_identity, mat_mul, mat_transpose
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
from test_hyperlattice import random_so_element


class TestSkewMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SkewMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            SkewMatrix([[1]])

    def test_field_of_a_pair(self):
        # a pair sqrt 2 / -sqrt 3 is not skew; entries of two fields in
        # different pairs pass here and fail later, in the field arithmetic
        rt2, rt3 = Scalar.sqrt(2), Scalar.sqrt(3)
        with pytest.raises(ValueError, match="not skew-symmetric"):
            SkewMatrix([[0, rt2], [-rt3, 0]])
        mixed = SkewMatrix([[0, rt2, 0], [-rt2, 0, rt3], [0, -rt3, 0]])
        assert mixed.entry(1, 2) == rt3

    @pytest.mark.parametrize(
        "x, y",
        [
            # each pair fails x = -y in one place only
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(1, 2), -3, 2)),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 3), -3, 2)),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 2), 3, 2)),
            (Scalar(1, Fraction(3, 4), 2), Scalar(-1, Fraction(-3, 5), 2)),
            (Scalar(Fraction(1, 2), 3, 2), Scalar(Fraction(-1, 2), -3, 3)),
        ],
        ids=["rational sign", "rational denominator", "sqrt sign", "sqrt denominator", "field"],
    )
    def test_rejects_one_part_off(self, x, y):
        other = Scalar(Fraction(2, 3), Fraction(-1, 5), 2)
        rows = [[0, other, x], [-other, 0, 1], [y, -1, 0]]
        with pytest.raises(ValueError, match="not skew-symmetric"):
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
