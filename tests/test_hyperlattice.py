import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_skew
from nctori import exactlin, hyperlattice, reduction
from nctori.exactlin import (
    IntLattice,
    Scalar,
    _pack,
    _pinv,
    _pmul,
    _unpack,
    int_inverse_unimodular,
    mat_identity,
    mat_mul,
    mat_transpose,
    saturate,
    smat_det,
    smat_mul,
)
from nctori.hyperlattice import (
    CompatibleBasis,
    IsotropicSubspace,
    NotIsotropic,
    NotSaturated,
    choose_sign_vector,
    complete_isotropic_basis,
    pairing,
    select_transversal,
)
from nctori.reduction import ONNElement, compose
from test_exactlin import two_kernel_saturation


def rand_scalar(rng):
    rat = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    quad = Fraction(rng.randint(-8, 8), rng.randint(1, 6)) if rng.random() < 0.4 else Fraction(0)
    return Scalar(rat, quad, 2 if quad else None)


class TestPairing:
    def test_defining_relation(self):
        n = 3
        alpha = [1, 0, 0, 0, 0, 0]
        beta = [0, 0, 0, 1, 0, 0]
        assert pairing(alpha, beta) == 1
        assert pairing(alpha, alpha) == 0

    def test_expansion(self):
        assert pairing([1, 2, 3, 4], [1, 1, 1, 1]) == 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairing([1, 2], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            pairing([1, 2, 3], [1, 2, 3])

    def test_symmetric_bilinear_randomized(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            x = [rand_scalar(rng) for _ in range(2 * n)]
            y = [rand_scalar(rng) for _ in range(2 * n)]
            z = [rand_scalar(rng) for _ in range(2 * n)]
            c = rand_scalar(rng)
            assert pairing(x, y) == pairing(y, x)
            xz = [a + c * b for a, b in zip(x, z)]
            assert pairing(xz, y) == pairing(x, y) + c * pairing(z, y)


def random_so_element(rng, n):
    """Small SO(n,n|Z) element built from standard generators."""

    def rho(r):
        rinv_t = mat_transpose(int_inverse_unimodular(r))
        zero = [[0] * n for _ in range(n)]
        return ONNElement(r, zero, zero, rinv_t)

    def nu(skew_int):
        eye = mat_identity(n)
        zero = [[0] * n for _ in range(n)]
        return ONNElement(eye, skew_int, zero, eye)

    def flip2():
        # exchange two coordinate pairs with their duals: det stays +1
        if n < 2:
            return ONNElement.identity(n)
        a = [[1 if (i == j and i >= 2) else 0 for j in range(n)] for i in range(n)]
        b = [[1 if (i == j and i < 2) else 0 for j in range(n)] for i in range(n)]
        return ONNElement(a, b, b, a)

    g = ONNElement.identity(n)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randint(0, 2)
        if kind == 0:
            r = mat_identity(n)
            if n > 1:
                i, j = rng.sample(range(n), 2)
                r[i][j] = rng.randint(-2, 2)
            g = compose(g, rho(r))
        elif kind == 1:
            sk = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randint(-2, 2)
                    sk[i][j] = v
                    sk[j][i] = -v
            g = compose(g, nu(sk))
        else:
            g = compose(g, flip2())
    return g


class TestCompatibleBasis:
    def test_check_order(self):
        # pairs are checked row by row, isotropy before <e_i, f_j> = delta_ij
        e0, e1, f1 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)
        with pytest.raises(ValueError) as exc:
            CompatibleBasis(2, (e0, (0, 0, 1, 0)), ((0, 0, 2, 0), f1))
        assert type(exc.value) is ValueError  # delta at (0, 0) before isotropy at (0, 1)
        with pytest.raises(NotIsotropic):
            CompatibleBasis(2, (e0, e1), ((0, 0, 1, 0), (0, 1, 0, 1)))
        with pytest.raises(NotIsotropic):
            CompatibleBasis(2, (e0, (1, 1, 0, 0)), ((1, 0, 2, 0), f1))
        assert CompatibleBasis(2, (e0, e1), ((0, 0, 1, 0), f1)) == CompatibleBasis.standard(2)

    def test_non_integral_rejected(self):
        # <e, f> = 1 and both halves isotropic, but 1/2 is not an integer
        with pytest.raises(ValueError, match="integral"):
            CompatibleBasis(1, ((2, 0),), ((0, Fraction(1, 2)),))
        with pytest.raises(ValueError, match="integral"):
            CompatibleBasis(1, ((2, 0),), ((0, 0.5),))
        assert CompatibleBasis(1, ((Fraction(1), 0),), ((0, 1.0),)) == CompatibleBasis.standard(1)


class TestCompatibleInverse:
    """canonical_form inverts each compatible basis B = [e; f] in closed form,
    B^-1 = J B^t J for J = [[0, I], [I, 0]].  Each closed form, and what
    canonical_form computes with it, against the elimination it replaced, on
    the bases built over the conftest corpus."""

    def test_closed_forms(self, corpus, monkeypatch):
        seen = {"bases": [], "transversal": [], "graph_map": [], "solve": []}

        def spy(store, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if store != "graph_map" or kwargs.get("jordan"):
                    seen[store].append((args, out))
                return out

            return wrapped

        # the completed basis, the swapped one, the graph, the packed
        # coordinates whose graph map _transversal eliminates mod q, and
        # those canonical_form hands to _psolve
        for mod, name, store in (
            (reduction, "complete_isotropic_basis", "bases"),
            (reduction, "CompatibleBasis", "bases"),
            (reduction, "_transversal", "transversal"),
            (hyperlattice, "_mod_q", "graph_map"),
            (reduction, "_psolve", "solve"),
        ):
            monkeypatch.setattr(mod, name, spy(store, getattr(mod, name)))

        def elim_inv(rows):
            return _unpack(*_pinv((None, 1, rows, None)))

        def swap(rows):  # J M J
            h = len(rows) // 2
            return [r[h:] + r[:h] for r in rows[h:] + rows[:h]]

        def uv(b):  # [e + f; e - f]
            return [[x + s * y for x, y in zip(e, f)] for s in (1, -1) for e, f in zip(b.e, b.f)]

        quad = 0
        for theta in corpus:
            for store in seen.values():
                store.clear()
            form = reduction.canonical_form(theta)
            quad += not theta.is_rational()
            (_, base), (_, newbase) = seen["bases"]
            (((_, graph), _),) = seen["transversal"]
            (((uv_coords,), _),) = seen["graph_map"]
            (((fe_coords,), _),) = seen["solve"]
            for b in (base, newbase):
                n, rows = b.n, b.rows()
                bt = mat_transpose(rows)
                eye = mat_identity(n)
                k = [r + r for r in eye] + [r + [-x for x in r] for r in eye]
                assert elim_inv(uv(b)) == _unpack(None, 2, mat_mul(swap(bt), k), None)
                assert elim_inv(rows[n:] + rows[:n]) == _unpack(None, 1, bt[n:] + bt[:n], None)
                assert int_inverse_unimodular(bt) == swap(rows)
            expect = _pmul(graph, _pinv((None, 1, uv(base), None)))
            assert _unpack(*uv_coords) == _unpack(*expect)
            fe = [list(v) for v in newbase.f + newbase.e]
            assert _unpack(*fe_coords) == _unpack(*_pmul(graph, _pinv((None, 1, fe, None))))
            assert form.g.matrix == int_inverse_unimodular(mat_transpose(newbase.rows()))
        assert quad >= 40


class TestCompleteIsotropicBasis:
    def test_single_beta(self):
        basis = complete_isotropic_basis(IntLattice(4, [[0, 0, 1, 0]]))
        assert basis == CompatibleBasis.standard(2)
        assert basis.f[0] == (0, 0, 1, 0)

    def test_zero_lattice(self):
        assert complete_isotropic_basis(IntLattice(4, [])) == CompatibleBasis.standard(2)

    def test_not_isotropic(self):
        with pytest.raises(NotIsotropic):
            complete_isotropic_basis(IntLattice(4, [[1, 1, 1, 1]]))

    def test_not_saturated(self):
        with pytest.raises(NotSaturated):
            complete_isotropic_basis(IntLattice(4, [[0, 0, 2, 0]]))

    def test_saturation_check_matches_saturate(self):
        # the precondition reads one Hermite form of the transposed basis;
        # the oracle is the double-kernel saturation
        rng = random.Random(21)
        counts = {True: 0, False: 0}
        for _ in range(360):
            n = rng.randint(1, 6)
            rows = [
                [rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(2 * n)]
                for _ in range(rng.randint(1, n))
            ]
            p = rng.choice((2, 3))
            kind = rng.randrange(3)
            if kind == 1:
                rows[0] = [p * x for x in rows[0]]
            elif kind == 2 and len(rows) > 1:
                # rows 0 and 1 sum to p times a vector
                w = [rng.randint(-2, 2) for _ in range(2 * n)]
                rows[1] = [p * y - x for x, y in zip(rows[0], w)]
            lat = IntLattice(2 * n, rows)
            saturated = saturate(lat) == lat
            counts[saturated] += 1
            try:
                complete_isotropic_basis(lat)
            except NotSaturated:
                assert not saturated
            except NotIsotropic:
                assert saturated
            else:
                assert saturated
        assert counts[False] >= 100 and counts[True] >= 100

    def test_random_isotropic_summands(self):
        # transform sub-bases of the standard f-half by random form-preserving
        # maps; the completion must hold them verbatim in its f slots
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            g = random_so_element(rng, n)
            # vectors transform as v -> v g^t when g acts on column vectors
            gt = mat_transpose(g.matrix)
            fvecs = [[1 if k == n + j else 0 for k in range(2 * n)] for j in range(r)]
            moved = mat_mul(fvecs, gt)
            lat = IntLattice(2 * n, moved)
            basis = complete_isotropic_basis(lat)
            assert basis.n == n
            assert tuple(map(tuple, lat.basis)) == basis.f[:r]


def leading_minor_signs(rows):
    """The 2n-determinant sign choice, kept as an oracle: extend zeta one
    entry at a time, +1 before -1, testing each leading minor afresh."""
    zeta = []
    for k in range(len(rows)):
        for cand in (1, -1):
            trial = zeta + [cand]
            minor = [
                [x - trial[i] if i == j else x for j, x in enumerate(rows[i][: k + 1])]
                for i in range(k + 1)
            ]
            if smat_det(minor):
                zeta = trial
                break
        else:
            raise AssertionError("no sign extension kept the minor invertible")
    return tuple(zeta)


def seeded_sign_inputs():
    """2,100 seeded square matrices, n = 0..7, every other one over Q(sqrt 2);
    entries from {0, +-1} make many leading minors vanish at zeta_k = +1."""
    rng = random.Random(27)
    for t in range(2100):
        n = t % 8
        quad = t % 2 == 1
        small = rng.random() < 0.7

        def entry():
            if small:
                rat, irr = rng.choice((0, 0, 1, -1)), rng.choice((0, 0, 0, 1, -1))
            else:
                rat = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                irr = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return Scalar(rat, irr if quad else 0, 2 if quad and irr else None)

        yield [[entry() for _ in range(n)] for _ in range(n)]


class TestChooseSignVector:
    def test_zero_1x1(self):
        assert choose_sign_vector([[0]]) == (1,)

    def test_identity_2x2(self):
        assert choose_sign_vector([[1, 0], [0, 1]]) == (-1, -1)

    def test_mixed_diag(self):
        assert choose_sign_vector([[1, 0], [0, -1]]) == (-1, 1)

    def test_against_leading_minors(self):
        needs_minus = 0
        for mat in seeded_sign_inputs():
            expected = leading_minor_signs(mat)
            assert choose_sign_vector(mat) == expected
            needs_minus += -1 in expected
        assert needs_minus >= 300

    def test_against_enumeration(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(1, 6)
            mat = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            zeta = choose_sign_vector(mat)
            shifted = [
                [mat[i][j] - (zeta[i] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            assert smat_det(shifted)
            if n <= 4:
                valid = [
                    z
                    for z in itertools.product((1, -1), repeat=n)
                    if smat_det(
                        [
                            [mat[i][j] - (z[i] if i == j else 0) for j in range(n)]
                            for i in range(n)
                        ]
                    )
                ]
                assert valid and zeta in valid


def is_prime(n):
    """Deterministic Miller-Rabin: the first 12 prime bases decide every n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def spy_certificates(monkeypatch):
    """Count the mod-p certificates and the exact passes behind them: the
    sign-vector Bareiss pass and the transversal's determinant."""
    calls = {"mod_p": 0, "sign": 0, "det": 0}
    for name, key in (("_mod_q", "mod_p"), ("_exact_sign_vector", "sign"), ("_pdet", "det")):
        def counted(*args, orig=getattr(hyperlattice, name), key=key, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(hyperlattice, name, counted)
    return calls


class TestModPCertificates:
    def test_table_primes(self):
        primes = hyperlattice._PRIMES
        assert len(set(primes)) == len(primes) >= 4
        for q in primes:
            assert q < 2**61 and q % 4 == 3 and is_prime(q)
        # strong pseudoprimes to the bases up to 7 and up to 23, and a Carmichael number
        assert not any(map(is_prime, (3215031751, 3825123056546413051, 561)))

    def test_certified_matches_exact(self):
        # the certificate holds exactly when zeta is all +1: these minors are
        # far below the table primes, so none vanishes mod q by accident
        certified = 0
        for mat in seeded_sign_inputs():
            p = _pack(mat)
            exact = hyperlattice._exact_sign_vector(p)
            assert hyperlattice._sign_vector(p) == exact
            cert = hyperlattice._mod_q(p, shift=p[1])[0] == len(mat)
            assert cert == (exact == (1,) * len(mat))
            certified += cert
        assert 1000 <= certified <= 1800

    def test_fallback_on_minus_ones(self, monkeypatch):
        calls = spy_certificates(monkeypatch)
        assert choose_sign_vector([[1, 0], [0, 1]]) == (-1, -1)
        assert calls == {"mod_p": 1, "sign": 1, "det": 0}

    def test_fallback_on_minor_divisible_by_prime(self, monkeypatch):
        calls = spy_certificates(monkeypatch)
        # N - I has leading minors 1 and q: nonzero, but zero mod q
        q = hyperlattice._PRIMES[0]
        assert choose_sign_vector([[2, 0], [0, q + 1]]) == (1, 1)
        # over Q(sqrt 2), (q - r) + sqrt 2 maps to 0 under sqrt 2 -> r
        q = next(q for q in hyperlattice._PRIMES if pow(2, (q - 1) // 2, q) == 1)
        r = pow(2, (q + 1) // 4, q)
        assert r * r % q == 2
        assert choose_sign_vector([[Scalar(q - r + 1, 1, 2)]]) == (1,)
        assert calls["sign"] == 2
        # the determinant certificate pivots, a shifted one (shift=0 here) does
        # not; a determinant of q decides nothing
        flip = (None, 1, [[0, 1], [q + 1, 0]], None)
        assert hyperlattice._mod_q(flip)[0] == 2
        assert hyperlattice._mod_q(flip, shift=0)[0] == 0
        assert hyperlattice._mod_q((None, 1, [[q]], None))[0] == 0
        assert hyperlattice._mod_q((None, 1, [[1, 2], [2, 4]], None))[0] == 1

    def test_fallback_when_no_prime_fits(self, monkeypatch):
        primes = hyperlattice._PRIMES
        d = next(
            d for d in range(3, 1000)
            if exactlin._is_squarefree(d) and all(pow(d, (q - 1) // 2, q) == q - 1 for q in primes)
        )
        calls = spy_certificates(monkeypatch)
        assert choose_sign_vector([[Scalar(0, 1, d)]]) == (1,)
        assert calls["sign"] == 1
        theta = reduction.SkewMatrix.from_upper(2, {(0, 1): Scalar(1, 1, d)})
        form = reduction.canonical_form(theta)
        assert calls["det"] >= 1
        assert reduction.act(form.g, theta) == form.theta_prime

    @pytest.mark.parametrize("n", [16, 20])
    def test_large_mixed_canon_runs_no_exact_pass(self, monkeypatch, n):
        calls = spy_certificates(monkeypatch)
        exact = []
        for mod, name in (
            (hyperlattice, "_psolve"),
            (hyperlattice, "_prank"),
            (reduction, "_pinv"),
            (exactlin, "_pinv"),
            (reduction, "is_in_onn"),
        ):
            def counted(*args, orig=getattr(mod, name), name=name):
                exact.append(name)
                return orig(*args)

            monkeypatch.setattr(mod, name, counted)
        reduction.canonical_form(random_skew(random.Random(5), n, quad_prob=0.5))
        assert calls["mod_p"] >= 2 and calls["sign"] == calls["det"] == 0
        assert exact == []


def residues(p, q, r):
    """The packed p = (A + B sqrt d)/den mapped to F_q by sqrt d -> r."""
    d, den, a, b = p
    inv = pow(den, -1, q)
    return [[(x + r * y) * inv % q for x, y in zip(ra, rb)] for ra, rb in zip(a, b or [[0] * len(ra) for ra in a])]


def table_root(d):
    """The prime and square root of d that _mod_q uses, None when none fits."""
    for q in hyperlattice._PRIMES:
        if d is None or pow(d, (q + 1) // 2, q) == d % q:
            return q, 0 if d is None else pow(d, (q + 1) // 4, q)
    return None


def graph_rows(mat, rng):
    """Rows U [I + M | I - M] with U a seeded unimodular matrix: in the
    standard basis their coordinates in u_j = e_j + f_j, v_j = e_j - f_j are
    U [I | M], so the graph map is M and the F block U needs pivoting."""
    n = len(mat)
    u = mat_identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = rng.choice((-2, -1, 1, 2))
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rows = [[int(i == j) + m for j, m in enumerate(r)] + [int(i == j) - m for j, m in enumerate(r)] for i, r in enumerate(mat)]
    return smat_mul(u, rows)


class TestModQCertificates:
    """Each certificate of the mod-q routine against the exact route it skips,
    on the conftest corpus and the seeded sign inputs, with forced fallbacks:
    a value equal to the first table prime (zero mod q only), d = 59 (a
    square mod no table prime) and sign vectors with -1s."""

    def test_d59_fits_no_table_prime(self):
        assert table_root(59) is None

    def test_full_row_rank_against_prank(self, corpus, monkeypatch):
        inputs = []
        for mat in seeded_sign_inputs():
            inputs += [mat, mat[: len(mat) // 2 + 1], [r + r for r in mat]]
        ranks = [(hyperlattice._mod_q(p)[0], hyperlattice._prank(p)) for p in map(_pack, inputs)]
        assert all(x == y for x, y in ranks)
        assert sum(y < len(m) for (_, y), m in zip(ranks, inputs)) >= 200

        seen = []

        def spy(p, *rest, orig=hyperlattice._check_isotropic):
            seen.append(p)
            return orig(p, *rest)

        monkeypatch.setattr(hyperlattice, "_check_isotropic", spy)
        monkeypatch.setattr(reduction, "_check_isotropic", spy)
        for theta in corpus:
            reduction.canonical_form(theta)
        assert len(seen) == 3 * len(corpus)
        for p in seen:
            assert hyperlattice._mod_q(p)[0] == hyperlattice._prank(p) == len(p[2])

    def test_rank_fallbacks(self, monkeypatch):
        calls = []
        orig = hyperlattice._prank
        monkeypatch.setattr(hyperlattice, "_prank", lambda p: calls.append(p) or orig(p))
        q = hyperlattice._PRIMES[0]
        IsotropicSubspace(1, ((q, 0),))  # rank 0 mod q, 1 exactly
        rt = Scalar.sqrt(59)
        IsotropicSubspace(2, ((rt, 0, 0, 0), (0, 1, 0, 0)))
        assert len(calls) == 2
        for rows in (((rt, 0, 0, 0), (2 * rt, 0, 0, 0)), ((q, 0), (2 * q, 0))):
            with pytest.raises(ValueError, match="linearly dependent"):
                IsotropicSubspace(len(rows), rows)
        assert len(calls) == 4

    def test_graph_map_against_exact(self, corpus, monkeypatch):
        seen = []

        def spy(base, p, orig=hyperlattice._transversal):
            seen.append((base, p))
            return orig(base, p)

        monkeypatch.setattr(reduction, "_transversal", spy)
        for theta in corpus:
            reduction.canonical_form(theta)
        minus = 0
        for base, graph in seen:
            n = base.n
            uv = [[x + s * y for x, y in zip(e, f)] for s in (1, -1) for e, f in zip(base.e, base.f)]
            coords = _pmul(graph, _pinv((None, 1, uv, None)))
            exact = exactlin._psolve(coords)
            rank, _, fe = hyperlattice._mod_q(coords, jordan=True)
            assert rank == n
            assert [r[n:] for r in fe] == residues(exact, *table_root(coords[0]))
            zeta = hyperlattice._exact_sign_vector(exact)
            assert hyperlattice._transversal(base, graph)[1] == tuple(z == -1 for z in zeta)
            minus += -1 in zeta
        assert len(seen) == len(corpus) and minus >= 20

    def test_graph_map_certifies_exactly_the_all_plus_signs(self, monkeypatch):
        solves = []
        orig = hyperlattice._psolve
        monkeypatch.setattr(hyperlattice, "_psolve", lambda p: solves.append(p) or orig(p))
        rng = random.Random(31)
        q = hyperlattice._PRIMES[0]
        rt = Scalar.sqrt(59)

        def check(mat):
            zeta = hyperlattice._exact_sign_vector(_pack(mat))
            _, swapped = select_transversal(CompatibleBasis.standard(len(mat)), graph_rows(mat, rng))
            assert swapped == tuple(z == -1 for z in zeta)
            return zeta

        minus = sum(-1 in check(m) for m in seeded_sign_inputs() if m)
        assert minus >= 300 and len(solves) == minus
        # forced fallbacks, each with an all-plus zeta: M - I with leading
        # minor q, F = q (singular mod q only), and sqrt 59
        assert check([[q + 1]]) == (1,)
        assert select_transversal(CompatibleBasis.standard(1), [[q * 3, -q]])[1] == (False,)
        assert check([[rt, 1], [0, rt + 2]]) == (1, 1)
        assert len(solves) == minus + 3


class TestSaturationSkip:
    def test_corpus_sums(self, corpus, monkeypatch):
        # every M + W of the completion against the two-kernel route; on a
        # few Q(sqrt 2) tori M + W is not a summand
        skipped = []

        def checked(lat):
            got = saturate(lat)
            assert got == two_kernel_saturation(lat)
            skipped.append(got is lat)
            return got

        monkeypatch.setattr(hyperlattice, "saturate", checked)
        for theta in corpus:
            reduction.canonical_form(theta)
        assert skipped.count(False) >= 5 and skipped.count(True) >= 150


class TestSelectTransversal:
    def test_f_half_forces_e(self):
        std = CompatibleBasis.standard(2)
        v = IsotropicSubspace(2, ((Scalar(0),) * 2 + (Scalar(1), Scalar(0)),
                                  (Scalar(0),) * 2 + (Scalar(0), Scalar(1))))
        eta, swapped = select_transversal(std, v)
        assert eta == std.e and swapped == (False, False)

    def test_e_half_forces_f(self):
        std = CompatibleBasis.standard(2)
        v = IsotropicSubspace(2, ((Scalar(1), Scalar(0), Scalar(0), Scalar(0)),
                                  (Scalar(0), Scalar(1), Scalar(0), Scalar(0))))
        eta, swapped = select_transversal(std, v)
        assert eta == std.f and swapped == (True, True)

    def test_one_dim_graph_line(self):
        # span{(1, sqrt 2)} in the e1, f1 plane: either choice works and the
        # returned one is certified by an exact rank computation
        std = CompatibleBasis.standard(1)
        eta, swapped = select_transversal(std, [[Scalar(1), Scalar.sqrt(2)]])
        stacked = [list(eta[0]), [Scalar(1), Scalar.sqrt(2)]]
        assert smat_det(stacked)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            select_transversal(CompatibleBasis.standard(2), [[Scalar(1)] * 4])

    def test_random_graphs(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(1, 3)
            # V = graph of a random skew matrix: always isotropic of dim n
            entries = {}
            for i in range(n):
                for j in range(i + 1, n):
                    entries[(i, j)] = rand_scalar(rng)
            from nctori.reduction import SkewMatrix

            theta = SkewMatrix.from_upper(n, entries)
            rows = tuple(
                tuple(theta.column(j)) + tuple(Scalar(1 if i == j else 0) for i in range(n))
                for j in range(n)
            )
            v = IsotropicSubspace(n, rows)
            basis = CompatibleBasis.standard(n)
            eta, _ = select_transversal(basis, v)
            stacked = [list(x) for x in eta] + [list(r) for r in rows]
            assert smat_det(stacked)
