import math
import random
from fractions import Fraction

import pytest

from nctori import exactlin
from nctori.exactlin import (
    IncompatibleField,
    IntLattice,
    NotADirectSummand,
    Scalar,
    complete_to_basis,
    extend_summand_basis,
    hnf,
    int_det,
    int_inverse_unimodular,
    integral_solution_lattice,
    left_kernel,
    mat_identity,
    mat_mul,
    saturate,
    scalar_sign,
    smat_det,
    smat_inv,
    smat_mul,
    smat_rank,
    snf,
    solve_row_system,
    solve_rows,
)


def rand_scalar(rng, quad=True):
    rat = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
    q = Fraction(rng.randint(-20, 20), rng.randint(1, 10)) if quad else Fraction(0)
    return Scalar(rat, q, 2 if q else None)


class TestScalar:
    def test_conjugate_product(self):
        a = Scalar(1, 1, 2)
        b = Scalar(1, -1, 2)
        assert a * b == Scalar(-1)

    def test_conjugate_inverse(self):
        assert Scalar(1, 1, 2).inverse() == Scalar(-1, 1, 2)
        assert Scalar(1, 1, 2) / Scalar(1, 1, 2) == 1

    def test_rational_arithmetic(self):
        assert Scalar(Fraction(3, 5)) + Fraction(1, 7) == Scalar(Fraction(26, 35))

    def test_signs(self):
        assert Scalar(3, -2, 2).sign() == 1    # 9 > 8
        assert Scalar(0).sign() == 0
        assert Scalar(1, -1, 2).sign() == -1   # 1 < 2
        assert scalar_sign(Fraction(-2, 7)) == -1
        assert Scalar(0, 1, 2).sign() == 1
        assert Scalar(-1, 1, 3).sign() == 1    # sqrt3 > 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / Scalar(0)

    def test_incompatible_fields(self):
        with pytest.raises(IncompatibleField):
            Scalar(0, 1, 2) + Scalar(0, 1, 3)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            Scalar(0, 1, 12)
        with pytest.raises(ValueError):
            Scalar(0, 1, 1)

    def test_field_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c = (rand_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            if a:
                assert a * a.inverse() == 1
            assert a - a == 0

    def test_rational_normalizes_field_marker(self):
        x = Scalar(Fraction(1, 2), 0, 2)
        assert x.d is None
        assert x == Scalar(Fraction(1, 2))
        assert hash(x) == hash(Scalar(Fraction(1, 2)))

    def test_ordering(self):
        assert Scalar(1, 1, 2) > Scalar(2)
        assert Scalar(1, 1, 2) < Scalar(Fraction(5, 2))

    def test_str_roundtrip_forms(self):
        assert str(Scalar(0)) == "0"
        assert str(Scalar(0, -1, 2)) == "-1*rt"
        assert str(Scalar(Fraction(1, 2), Fraction(-3, 4), 2)) == "1/2-3/4*rt"


class TestHnf:
    def test_single_row(self):
        h, u = hnf([[2, 2]])
        assert h == [[2, 2]] and u == [[1]]

    def test_permutation(self):
        h, _ = hnf([[0, 1], [1, 0]])
        assert h == [[1, 0], [0, 1]]

    def test_gcd_column(self):
        h, _ = hnf([[2, 0], [3, 0]])
        assert h == [[1, 0], [0, 0]]

    def test_transform_identity_random(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            h, u = hnf(mat)
            assert mat_mul(u, mat) == h
            assert abs(int_det(u)) == 1
            # pivots strictly move right, pivot positive, entries above reduced
            last = -1
            for row in h:
                if not any(row):
                    continue
                p = next(j for j, x in enumerate(row) if x)
                assert p > last
                last = p
                assert row[p] > 0

    def test_canonical_for_equal_lattices(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            lat = IntLattice(n, mat)
            shuffled = list(mat)
            rng.shuffle(shuffled)
            shuffled = [[3 * a + b for a, b in zip(shuffled[0], r)] if i == 1 and len(shuffled) > 1 else r
                        for i, r in enumerate(shuffled)]
            assert IntLattice(n, shuffled) == lat


class TestSnf:
    def test_diag_2_3(self):
        s, _, _ = snf([[2, 0], [0, 3]])
        assert s == [[1, 0], [0, 6]]

    def test_identity(self):
        s, u, v = snf(mat_identity(3))
        assert s == mat_identity(3)

    def test_rank_one(self):
        s, _, _ = snf([[2, 4], [4, 8]])
        assert s == [[2, 0], [0, 0]]

    def test_transforms_random(self):
        rng = random.Random(17)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            s, u, v = snf(mat)
            assert mat_mul(mat_mul(u, mat), v) == s
            assert abs(int_det(u)) == 1
            assert abs(int_det(v)) == 1
            diag = [s[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a != 0 and b % a == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert s[i][j] == 0


class TestSolvers:
    def test_left_kernel_random(self):
        rng = random.Random(19)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            ker = left_kernel(mat)
            for row in ker:
                assert all(x == 0 for x in row) is False
                assert all(v == 0 for v in (sum(row[i] * mat[i][j] for i in range(m)) for j in range(n)))

    def test_solve_row_system(self):
        a = [[2, 0], [0, 3]]
        assert solve_row_system(a, [4, 9]) == [2, 3]
        assert solve_row_system(a, [1, 0]) is None

    def test_int_inverse_unimodular(self):
        u = [[1, 2], [0, 1]]
        assert mat_mul(int_inverse_unimodular(u), u) == mat_identity(2)
        with pytest.raises(ValueError):
            int_inverse_unimodular([[2, 0], [0, 1]])


class TestIntegralSolutionLattice:
    def test_half_integer_matrix(self):
        lat = integral_solution_lattice(
            [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
        )
        assert lat.basis == ((2, 0), (0, 2))

    def test_zero_matrix(self):
        lat = integral_solution_lattice([[0, 0], [0, 0]])
        assert lat == IntLattice(2, mat_identity(2))

    def test_sqrt2_entry(self):
        lat = integral_solution_lattice([[Scalar(0, 1, 2)]])
        assert lat.rank == 0

    def test_brute_force_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            mat = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
                for _ in range(m)
            ]
            q = math.lcm(*(x.denominator for row in mat for x in row))
            got = integral_solution_lattice(mat)
            rows = []
            span = range(-q, q + 1)
            import itertools

            for x in itertools.product(span, repeat=m):
                img = [sum(x[i] * mat[i][j] for i in range(m)) for j in range(k)]
                if all(v.denominator == 1 for v in img):
                    rows.append(list(x))
            assert IntLattice(m, rows) == got


class TestSaturation:
    def test_content(self):
        assert saturate(IntLattice(2, [[2, 2]])).basis == ((1, 1),)

    def test_idempotent_random(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 5)
            r = rng.randint(0, n)
            lat = IntLattice(n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)])
            sat = saturate(lat)
            assert saturate(sat) == sat
            assert sat.rank == lat.rank
            for row in lat.basis:
                assert sat.contains(row)

    def test_full_sublattice(self):
        assert saturate(IntLattice(2, [[2, 0], [0, 3]])) == IntLattice(2, mat_identity(2))

    def test_skip_matches_two_kernels(self, monkeypatch):
        # a summand comes back as it is, anything else takes the two kernels;
        # the spy counts both branches
        seen = []
        is_summand = exactlin._is_summand

        def spy(rows):
            seen.append(is_summand(rows))
            return seen[-1]

        monkeypatch.setattr(exactlin, "_is_summand", spy)
        rng = random.Random(73)
        for case in range(400):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
            if rows and case % 3 == 1:
                rows[0] = [rng.choice((2, 3, 6)) * x for x in rows[0]]
            elif case % 3 == 2:
                rows = unimodular(rng, n)[: len(rows)]
            lat = IntLattice(n, rows)
            got = saturate(lat)
            assert got == two_kernel_saturation(lat)
            assert (got is lat) == seen[-1] == (got == lat)
        assert seen.count(True) >= 100 and seen.count(False) >= 100


class TestBasisCompletion:
    def test_simple(self):
        out = extend_summand_basis(IntLattice(3, [[1, 0, 0]]))
        assert out == mat_identity(3)

    def test_diagonal_line(self):
        out = extend_summand_basis(IntLattice(2, [[1, 1]]))
        assert out[0] == [1, 1]
        assert abs(int_det(out)) == 1

    def test_not_summand(self):
        with pytest.raises(NotADirectSummand):
            extend_summand_basis(IntLattice(2, [[2, 2]]))

    def test_random_saturated(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            r = rng.randint(0, n)
            lat = saturate(
                IntLattice(n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)])
            )
            out = complete_to_basis([list(b) for b in lat.basis], n)
            assert out[: lat.rank] == [list(b) for b in lat.basis]
            assert abs(int_det(out)) == 1


class TestScalarMatrices:
    def test_inverse_random(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            n = rng.randint(1, 4)
            mat = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            if not smat_det(mat):
                continue
            inv = smat_inv(mat)
            prod = smat_mul(mat, inv)
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (1 if i == j else 0)
            done += 1

    def test_det_multiplicative(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            a = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            b = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            assert smat_det(smat_mul(a, b)) == smat_det(a) * smat_det(b)


# ---------------------------------------------------------------------------
# differential test of the smat_* core against a textbook oracle


def _qmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qinv(x, d):
    n = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_gauss_jordan(mat, d, ncols):
    """Rank, determinant and reduced row echelon form on the first ncols
    columns, by textbook Gauss-Jordan elimination on pairs of Fractions
    (a, b) = a + b sqrt d.  The determinant is meaningful for square input."""
    zero = (Fraction(0), Fraction(0))
    a = [list(r) for r in mat]
    m = len(a)
    rank, det = 0, (Fraction(1), Fraction(0))
    for col in range(ncols):
        piv = next((i for i in range(rank, m) if a[i][col] != zero), None)
        if piv is None:
            det = zero
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = (-det[0], -det[1])
        det = _qmul(det, a[rank][col], d)
        inv = _qinv(a[rank][col], d)
        a[rank] = [_qmul(x, inv, d) for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != zero:
                f = a[i][col]
                a[i] = [_qsub(x, _qmul(f, y, d)) for x, y in zip(a[i], a[rank])]
        rank += 1
    if rank < m:
        det = zero
    return rank, det, a


def _pairs(mat):
    return [[(Scalar.of(x).rat, Scalar.of(x).quad) for x in r] for r in mat]


def _scalar(pair, d):
    return Scalar(pair[0], pair[1], d if pair[1] else None)


def _random_entry(rng, d):
    rat = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if d is None or rng.random() < 0.4:
        return Scalar(rat)
    return Scalar(rat, Fraction(rng.randint(-9, 9), rng.randint(1, 6)), d)


def _random_matrix(rng, m, n, d):
    return [[_random_entry(rng, d) for _ in range(n)] for _ in range(m)]


def _make_singular(rng, mat, d):
    """Overwrite one row with a combination of two others (or with zeros)."""
    m = len(mat)
    i = rng.randrange(m)
    if m < 3:
        mat[i] = [Scalar(0)] * len(mat[i])
        return
    j, k = rng.sample([x for x in range(m) if x != i], 2)
    c = _random_entry(rng, d)
    mat[i] = [c * x + y for x, y in zip(mat[j], mat[k])]


class TestSmatAgainstOracle:
    FIELDS = (None, 2, 3, 5, 10)

    def _check_square(self, mat, d):
        n = len(mat)
        dd = d or 0
        rank, det, _ = ref_gauss_jordan(_pairs(mat), dd, n)
        assert smat_rank(mat) == rank
        assert smat_det(mat) == _scalar(det, d)
        aug = [r + [(Fraction(int(i == j)), Fraction(0)) for j in range(n)]
               for i, r in enumerate(_pairs(mat))]
        if rank < n:
            with pytest.raises(ValueError):
                smat_inv(mat)
        else:
            _, _, red = ref_gauss_jordan(aug, dd, n)
            want = [[_scalar(x, d) for x in row[n:]] for row in red]
            assert smat_inv(mat) == want

    def test_random_square(self):
        rng = random.Random(43)
        singular = 0
        for case in range(300):
            d = self.FIELDS[case % len(self.FIELDS)]
            n = case % 9
            mat = _random_matrix(rng, n, n, d)
            if n and rng.random() < 0.3:
                _make_singular(rng, mat, d)
                singular += 1
            self._check_square(mat, d)
        assert singular > 50

    def test_random_wide_rank(self):
        rng = random.Random(47)
        for case in range(150):
            d = self.FIELDS[case % len(self.FIELDS)]
            n = case % 9
            mat = _random_matrix(rng, n, 2 * n, d)
            if n and rng.random() < 0.4:
                _make_singular(rng, mat, d)
            assert smat_rank(mat) == ref_gauss_jordan(_pairs(mat), d or 0, 2 * n)[0]

    def test_random_products(self):
        rng = random.Random(53)
        for case in range(150):
            d = self.FIELDS[case % len(self.FIELDS)]
            # k >= 1: a 0-row right factor carries no column count
            m, k, n = rng.randint(0, 8), rng.randint(1, 8), rng.randint(0, 8)
            a = _random_matrix(rng, m, k, d)
            b = _random_matrix(rng, k, n, d if rng.random() < 0.7 else None)
            pa, pb = _pairs(a), _pairs(b)
            want = []
            for i in range(m):
                row = []
                for j in range(n):
                    acc = (Fraction(0), Fraction(0))
                    for t in range(k):
                        x = _qmul(pa[i][t], pb[t][j], d or 0)
                        acc = (acc[0] + x[0], acc[1] + x[1])
                    row.append(_scalar(acc, d))
                want.append(row)
            assert smat_mul(a, b) == want

    def test_empty(self):
        assert smat_det([]) == 1
        assert smat_rank([]) == 0
        assert smat_rank([[]]) == 0
        assert smat_inv([]) == []
        assert smat_mul([], [[1, 2]]) == []
        assert smat_mul([[], []], []) == [[], []]

    def test_mixed_fields_raise(self):
        rt2, rt3 = Scalar.sqrt(2), Scalar.sqrt(3)
        mixed = [[rt2, 1], [0, rt3]]
        for fn in (smat_det, smat_rank, smat_inv):
            with pytest.raises(IncompatibleField):
                fn(mixed)
        with pytest.raises(IncompatibleField):
            smat_mul([[rt2]], [[rt3]])
        with pytest.raises(IncompatibleField):
            smat_mul([[rt2, 0]], [[1], [rt3]])


# ---------------------------------------------------------------------------
# The Smith-form kernels that the Hermite-form ones replaced, kept as oracles.


def snf_left_kernel(rows, ncols=None):
    m = len(rows)
    if m == 0:
        return []
    k = len(rows[0]) if ncols is None else ncols
    if k == 0:
        return mat_identity(m)
    s, u, _ = snf(rows)
    rank = sum(1 for i in range(min(m, k)) if s[i][i])
    return [list(u[i]) for i in range(rank, m)]


def snf_solve_row_system(a_rows, b):
    m = len(a_rows)
    k = len(a_rows[0]) if m else len(b)
    if m == 0:
        return [] if all(x == 0 for x in b) else None
    s, u, v = snf(a_rows)
    c = [sum(b[i] * v[i][j] for i in range(k)) for j in range(k)]
    y = [0] * m
    rank = 0
    for j in range(min(m, k)):
        sj = s[j][j]
        if sj:
            if c[j] % sj:
                return None
            y[j] = c[j] // sj
            rank += 1
        elif c[j]:
            return None
    if any(c[min(m, k):]):
        return None
    x = [sum(y[i] * u[i][j] for i in range(m)) for j in range(m)]
    # nearest-integer rounding against the HNF pivots of the kernel
    for row in IntLattice(m, u[rank:]).basis:
        p = next(j for j, e in enumerate(row) if e)
        c = (2 * x[p] + row[p]) // (2 * row[p])
        x = [e - c * f for e, f in zip(x, row)]
    return x


def snf_integral_solution_lattice(rows, ncols=None):
    m = len(rows)
    if m == 0:
        return IntLattice(0)
    scal = [[Scalar.of(x) for x in r] for r in rows]
    k = len(scal[0]) if ncols is None else ncols
    quad = [[e.quad for e in r] for r in scal]
    if any(x for r in quad for x in r):
        ql = math.lcm(*(x.denominator for r in quad for x in r))
        k1 = snf_left_kernel([[int(x * ql) for x in r] for r in quad], ncols=k)
    else:
        k1 = mat_identity(m)
    if not k1:
        return IntLattice(m)
    nmat = [
        [sum(Fraction(krow[i]) * scal[i][j].rat for i in range(m)) for j in range(k)]
        for krow in k1
    ]
    q = math.lcm(1, *(x.denominator for r in nmat for x in r))
    if q == 1:
        return IntLattice(m, k1)
    s, u, _ = snf([[int(x * q) for x in r] for r in nmat])
    t = len(k1)
    scaled = []
    for j in range(t):
        sj = s[j][j] if j < min(t, k) else 0
        scaled.append([q // math.gcd(sj, q) * x for x in u[j]])
    return IntLattice(m, mat_mul(scaled, k1))


def two_kernel_saturation(lat):
    """saturate before summands skipped it: the vectors orthogonal to the
    vectors orthogonal to the lattice, two left kernels."""
    if lat.rank == 0:
        return lat
    n = lat.ambient_dim
    perp = left_kernel([list(c) for c in zip(*lat.basis)])
    return IntLattice(n, left_kernel([[r[j] for r in perp] for j in range(n)]))


def unimodular(rng, n):
    """A random product of elementary integer row operations."""
    mat = mat_identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            mat[i] = [x + rng.choice((-2, -1, 1, 2)) * y for x, y in zip(mat[i], mat[j])]
    return mat


def snf_saturate(lat):
    if lat.rank == 0:
        return lat
    _, _, v = snf([list(r) for r in lat.basis])
    return IntLattice(lat.ambient_dim, int_inverse_unimodular(v)[: lat.rank])


def _kernel_test_matrices(count=320, seed=59):
    """Seeded integer matrices of every shape the kernels meet: empty, zero
    width, m < k and m > k, rank-deficient, with zero rows or columns."""
    rng = random.Random(seed)
    mats = [[], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[5]], [[0, 4], [0, 6]]]
    while len(mats) < count:
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)]
        kind = len(mats) % 4
        if kind == 1:  # rank r < min(m, k): rows are combinations of r rows
            base = mat[: rng.randint(0, min(m, k) - 1)]
            mat = [[sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(k)]
                   for _ in range(m)]
        elif kind == 2:
            mat[rng.randrange(m)] = [0] * k
        elif kind == 3:
            j = rng.randrange(k)
            for row in mat:
                row[j] = 0
        mats.append(mat)
    return mats


def _check_kernels(mat, k):
    """left_kernel and saturate against the SNF oracles, as lattices."""
    m = len(mat)
    ker = left_kernel(mat)
    assert IntLattice(m, ker) == IntLattice(m, snf_left_kernel(mat, ncols=k))
    assert len(ker) == len(IntLattice(m, ker).basis)  # a basis, not a spanning set
    lat = IntLattice(k, mat)
    assert saturate(lat) == snf_saturate(lat)


class TestHnfKernelsAgainstSnf:
    def test_integer_matrices(self):
        rng = random.Random(61)
        mats = _kernel_test_matrices()
        assert len(mats) >= 300
        solvable = unsolvable = 0
        for mat in mats:
            m = len(mat)
            k = len(mat[0]) if m else rng.randint(0, 3)
            _check_kernels(mat, k)
            bs = []
            for _ in range(3):
                x = [rng.randint(-4, 4) for _ in range(m)]
                b = [sum(x[i] * mat[i][j] for i in range(m)) for j in range(k)]
                bs.append(b)
                bs.append([2 * e + rng.randint(-1, 1) for e in b])
                bs.append([rng.randint(-9, 9) for _ in range(k)])
            got = solve_rows(mat, bs)
            for b, x in zip(bs, got):
                want = snf_solve_row_system(mat, b)
                assert x == want
                assert solve_row_system(mat, b) == want
                solvable += want is not None
                unsolvable += want is None
            # an integer matrix over Q: the rational part is the lattice
            den = rng.randint(1, 12)
            frac = [[Fraction(e, den) for e in r] for r in mat]
            assert integral_solution_lattice(frac) == snf_integral_solution_lattice(frac, k)
        assert solvable > 300 and unsolvable > 300

    def test_sqrt2_matrices(self):
        rng = random.Random(67)
        for case in range(120):
            m, k = rng.randint(1, 5), rng.randint(1, 4)
            rat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k)]
                   for _ in range(m)]
            # the sqrt 2 part has rank < m, so its integer kernel is not zero
            base = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(k)]
                    for _ in range(rng.randint(0, min(m - 1, k)))]
            quad = [[sum((rng.randint(-2, 2) * b[j] for b in base), Fraction(0))
                     for j in range(k)] for _ in range(m)]
            mat = [[Scalar(a, b, 2 if b else None) for a, b in zip(ra, rq)]
                   for ra, rq in zip(rat, quad)]
            got = integral_solution_lattice(mat)
            assert got == snf_integral_solution_lattice(mat, k)
            lat = IntLattice(m, [[2 * e for e in r] for r in got.basis])
            assert saturate(lat) == snf_saturate(lat)

    def test_corpus(self, corpus):
        for theta in corpus:
            n = theta.n
            rows = [list(r) for r in theta.rows]
            lat = integral_solution_lattice(rows)
            assert lat == snf_integral_solution_lattice(rows, n)
            # q times the rational part of theta: skew, so singular at odd n
            q = math.lcm(*(x.rat.denominator for r in rows for x in r))
            ints = [[int(q * x.rat) for x in r] for r in rows]
            _check_kernels(ints, n)
            bs = ints + mat_identity(n) + [list(b) for b in lat.basis]
            assert solve_rows(ints, bs) == [snf_solve_row_system(ints, b) for b in bs]
