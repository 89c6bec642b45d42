"""Exact arithmetic over Q and real quadratic fields, plus integer lattice algorithms.

Conventions used throughout the package:

* vectors are row vectors and matrices act on the right, so a lattice is the
  set of integer combinations of the rows of its basis matrix;
* integer matrices are plain lists of lists of Python ints;
* matrices over a field are lists of lists of :class:`Scalar` at the API;
  inside they are integer pairs over one common denominator,
  (A + B*sqrt(d))/den with A and B integer matrices.  :func:`_pack` is the
  one converter from Scalars into that form and the one place that rejects
  a second quadratic field; the problem-file parser builds the form from its
  digits directly, and a SkewMatrix or Bicharacter holds it, its Scalar rows
  a view.  The packed operations _pmul, _pinv, _psolve, _pdet and _prank stay
  in that form over the least positive den (:func:`_reduced`), so chains of
  them unpack once; smat_mul, smat_inv, smat_det and smat_rank are their
  wrappers.  Every determinant, rank and inverse comes from one
  fraction-free elimination, :func:`_bareiss`;
* every integer congruence y @ N = 0 mod q (integral solutions, transporters
  of trace ranges, kernels of characters) is one :func:`_mod_kernel`.

Everything here is pure: no function mutates its arguments.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


class IncompatibleField(ValueError):
    """Mixing scalars that live in different quadratic fields."""


class NotADirectSummand(ValueError):
    """A lattice that was required to be saturated is not."""


@functools.cache
def _is_squarefree(d: int) -> bool:
    """True when d >= 2 has no square factor > 1.

    Trial division runs only while k^3 <= d, dividing out each prime k
    found.  The cofactor left then has no prime factor below k and is less
    than k^3, so it is 1, p, p*q or p^2: it has a square factor exactly when
    it is a perfect square > 1.  Cached, since every irrational Scalar asks.
    """
    if d < 2:
        return False
    k = 2
    while k * k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return False
        k += 1
    return d == 1 or math.isqrt(d) ** 2 != d


_ZERO = Fraction(0)


class Scalar:
    """An exact number rat + quad*sqrt(d) with rational rat, quad.

    ``d`` is a squarefree integer >= 2, or None for plain rationals.  A scalar
    with quad == 0 always normalizes to d = None, so rationals mix freely with
    elements of any one quadratic field; two genuinely irrational scalars only
    combine when their fields agree.
    """

    __slots__ = ("rat", "quad", "d")

    def __init__(self, rat=0, quad=0, d: int | None = None):
        rat = Fraction(rat)
        quad = Fraction(quad)
        if quad == 0:
            d = None
        elif d is None:
            raise ValueError("irrational coefficient given without an ambient d")
        elif not _is_squarefree(d):
            raise ValueError(f"ambient d must be squarefree and >= 2, got {d}")
        self.rat = rat
        self.quad = quad
        self.d = d

    @classmethod
    def _over(cls, a: int, b: int, den: int, d: int | None) -> "Scalar":
        """(a + b*sqrt(d))/den for ints, with d already known to be squarefree
        (or None); skips the conversions and checks of __init__."""
        s = object.__new__(cls)
        s.rat = Fraction(a, den)
        s.quad = Fraction(b, den) if b else _ZERO
        s.d = d if b else None
        return s

    @classmethod
    def of(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return cls(Fraction(x))

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        return cls(0, 1, d)

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return None
        if self.d is not None and other.d is not None and self.d != other.d:
            raise IncompatibleField(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
        return other

    def _field(self, other) -> int | None:
        return self.d if self.d is not None else other.d

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Scalar(self.rat + other.rat, self.quad + other.quad, self._field(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Scalar(self.rat - other.rat, self.quad - other.quad, self._field(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Scalar(-self.rat, -self.quad, self.d)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        d = self._field(other)
        rat = self.rat * other.rat
        if self.quad and other.quad:
            rat += self.quad * other.quad * d
        quad = self.rat * other.quad + self.quad * other.rat
        return Scalar(rat, quad, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.rat / n, -self.quad / n, self.d)

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def conjugate(self) -> "Scalar":
        return Scalar(self.rat, -self.quad, self.d)

    def norm(self) -> Fraction:
        """rat^2 - d*quad^2, the determinant of multiplication by self."""
        n = self.rat * self.rat
        if self.quad:
            n -= self.quad * self.quad * self.d
        return n

    def sign(self) -> int:
        """Exact sign of the real value, taking sqrt(d) > 0."""
        a, b = self.rat, self.quad
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: compare a^2 with d*b^2; equality is impossible
        # because d is not a rational square
        lhs, rhs = a * a, b * b * self.d
        if lhs > rhs:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def is_rational(self) -> bool:
        return self.quad == 0

    def is_integer(self) -> bool:
        return self.quad == 0 and self.rat.denominator == 1

    def __bool__(self):
        return bool(self.rat or self.quad)

    def __eq__(self, other):
        try:
            other = self._coerced(other)
        except IncompatibleField:
            return False
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.quad == other.quad and self.d == other.d

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        if self.quad == 0:
            return hash(self.rat)
        return hash((self.rat, self.quad, self.d))

    def __str__(self):
        if self.quad == 0:
            return str(self.rat)
        quad = f"{abs(self.quad)}*rt"
        if self.rat == 0:
            return quad if self.quad > 0 else "-" + quad
        return f"{self.rat}{'+' if self.quad > 0 else '-'}{quad}"

    def __repr__(self):
        if self.quad == 0:
            return f"Scalar({self.rat})"
        return f"Scalar({self.rat}, {self.quad}, d={self.d})"


def scalar_sign(x) -> int:
    """Sign in {-1, 0, +1} of an exact scalar under the embedding sqrt(d) > 0."""
    return Scalar.of(x).sign()


# ---------------------------------------------------------------------------
# integer matrices


def int_row(xs) -> list[int]:
    """The entries of xs as ints; ValueError unless each is an integer, where
    int() alone would truncate 1.5 or 7/2 toward zero."""
    xs = list(xs)
    ints = list(map(int, xs))
    if ints != xs:
        bad = next(x for x, y in zip(xs, ints) if x != y)
        raise ValueError(f"entries must be integers, {bad!r} is not integral")
    return ints


def _int_matrix(rows, width: int | None = None) -> list[list[int]]:
    """The rows as int lists (:func:`int_row`), each of length width, by default the first row's."""
    mat = [int_row(r) for r in rows]
    width = len(mat[0]) if width is None and mat else width
    bad = next((len(r) for r in mat if len(r) != width), None)
    if bad is not None:
        raise ValueError(f"row of length {bad}, expected {width}")
    return mat


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(rows) -> list[list[int]]:
    return [list(r) for r in rows]


def mat_transpose(rows) -> list[list]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    return [[rows[i][j] for i in range(m)] for j in range(n)]


def mat_mul(a, b) -> list[list]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, ra, c)) for c in cols] for ra in a]


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (see :func:`_bareiss`)."""
    return _pdet((None, 1, _int_matrix(rows, len(rows)), None))[0]


def _sub_row(mat, i, r, q):
    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]


def _sub_col(mat, j, t, q):
    for row in mat:
        row[j] -= q * row[t]


def _swap_col(mat, j, t):
    for row in mat:
        row[j], row[t] = row[t], row[j]


def _hermite(mat, ncols: int):
    """Row Hermite normal form of the first ncols columns, in place.

    Row operations act on whole rows, so columns past ncols (an appended
    identity block, say) record the transform.  Pivots are positive, entries
    above each pivot are reduced into [0, pivot), and zero rows sink to the
    bottom.  Pivot selection: smallest absolute value, lowest row index on
    ties, which makes the result deterministic.  Returns mat.
    """
    m = len(mat)
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = -1
        while True:
            piv = -1
            best = 0
            for i in range(r, m):
                v = abs(mat[i][col])
                if v and (piv < 0 or v < best):
                    piv, best = i, v
            if piv < 0:
                break
            if piv != r:
                mat[r], mat[piv] = mat[piv], mat[r]
            clean = True
            for i in range(r + 1, m):
                if mat[i][col]:
                    q = mat[i][col] // mat[r][col]
                    if q:
                        _sub_row(mat, i, r, q)
                    if mat[i][col]:
                        clean = False
            if clean:
                piv = r
                break
        if piv < 0:
            continue
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        p = mat[r][col]
        for i in range(r):
            q = mat[i][col] // p
            if q:
                _sub_row(mat, i, r, q)
        r += 1
    return mat


def hnf(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with its transform.

    Returns (H, U) with U unimodular and U @ M = H, read off the normal form
    of [M | I]; see :func:`_hermite` for the normalization and pivot rule.
    """
    mat = _int_matrix(rows)
    m, n = len(mat), len(mat[0]) if mat else 0
    aug = [r + [int(i == j) for j in range(m)] for i, r in enumerate(mat)]
    _hermite(aug, n)
    return [r[:n] for r in aug], [r[n:] for r in aug]


def snf(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form.

    Returns (S, U, V) with U @ M @ V = S, S diagonal with nonnegative
    entries s1 | s2 | ..., and U, V unimodular.  Same deterministic pivot
    rule as :func:`hnf`.
    """
    mat = _int_matrix(rows)
    m, n = len(mat), len(mat[0]) if mat else 0
    u = mat_identity(m)
    v = mat_identity(n)
    t = 0
    while t < min(m, n):
        piv = None
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                val = abs(mat[i][j])
                if val and (piv is None or val < best):
                    piv, best = (i, j), val
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            mat[t], mat[i0] = mat[i0], mat[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            _swap_col(mat, j0, t)
            _swap_col(v, j0, t)
        while True:
            # clear column t, then row t; swapping remainders up keeps the
            # pivot shrinking, so this is a gcd computation
            for i in range(t + 1, m):
                while mat[i][t]:
                    q = mat[i][t] // mat[t][t]
                    if q:
                        _sub_row(mat, i, t, q)
                        _sub_row(u, i, t, q)
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        u[t], u[i] = u[i], u[t]
            for j in range(t + 1, n):
                while mat[t][j]:
                    q = mat[t][j] // mat[t][t]
                    if q:
                        _sub_col(mat, j, t, q)
                        _sub_col(v, j, t, q)
                    if mat[t][j]:
                        _swap_col(mat, j, t)
                        _swap_col(v, j, t)
            if any(mat[i][t] for i in range(t + 1, m)):
                continue
            if mat[t][t] < 0:
                mat[t] = [-x for x in mat[t]]
                u[t] = [-x for x in u[t]]
            p = mat[t][t]
            bad = None
            for i in range(t + 1, m):
                if any(x % p for x in mat[i][t + 1:]):
                    bad = i
                    break
            if bad is None:
                break
            _sub_row(mat, t, bad, -1)
            _sub_row(u, t, bad, -1)
        t += 1
    return mat, u, v


def int_inverse_unimodular(rows) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix.

    The HNF of a unimodular M is I, so its transform is M^-1.
    """
    n = len(rows)
    h, u = hnf(rows)
    if h != mat_identity(n):
        raise ValueError("matrix is not unimodular")
    return u


def _factor(rows) -> tuple[list[list[int]], list[list[int]]]:
    """One Hermite form of [M | I] on the k columns of M (Kannan-Bachem).

    Returns the rows [H_i | U_i] with H_i != 0, in echelon order, so that
    U_i @ M = H_i, and the HNF of the rows U_i whose H_i vanishes: the
    canonical basis of the left kernel of M.  No Smith form is needed, and
    the triangular transform stays small where the Smith transforms grow.
    """
    m, k = len(rows), len(rows[0])
    aug = _hermite([r + [int(i == j) for j in range(m)] for i, r in enumerate(_int_matrix(rows))], k)
    rank = next((i for i, r in enumerate(aug) if not any(r[:k])), m)
    return aug[:rank], _hermite([r[k:] for r in aug[rank:]], m)


def left_kernel(rows) -> list[list[int]]:
    """Basis of {x in Z^m : x @ M = 0}, in Hermite normal form."""
    return _factor(rows)[1] if rows else []


def _size_reduce(vec, basis) -> list[int]:
    """Reduce a vector modulo a lattice given by its HNF basis.

    Nearest-integer rounding brings the coordinate at each pivot h into
    [-h/2, h/2); later rows are zero there, so the result is the one
    representative of the coset with every pivot coordinate in its window.
    """
    v = list(vec)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        c = (2 * v[p] + row[p]) // (2 * row[p])
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def solve_rows(a_rows, bs) -> list[list[int] | None]:
    """For each b, one integer solution x of x @ A = b, or None.

    A is factored once (:func:`_factor`).  Each b is eliminated against the
    pivots of H while [b | 0] collects -x in its right block; the solution
    is then size-reduced modulo the HNF of the kernel (:func:`_size_reduce`),
    so the answer is deterministic and small whatever solution was found.
    """
    m = len(a_rows)
    if m == 0:
        return [None if any(int_row(b)) else [] for b in bs]
    k = len(a_rows[0])
    piv_rows, kernel = _factor(a_rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in piv_rows]
    out = []
    for b in _int_matrix(bs, k):
        v = b + [0] * m
        for row, p in zip(piv_rows, pivots):
            c = v[p] // row[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        # a remainder left at a pivot, or anywhere else in the left block,
        # means b is not in the row span
        out.append(None if any(v[:k]) else _size_reduce([-x for x in v[k:]], kernel))
    return out


def solve_row_system(a_rows, b) -> list[int] | None:
    """One integer solution x of x @ A = b, or None; see :func:`solve_rows`."""
    return solve_rows(a_rows, [b])[0]


# ---------------------------------------------------------------------------
# lattices


class IntLattice:
    """A subgroup of Z^N held as a row basis in Hermite normal form.

    The constructor accepts any generating rows; the stored basis is the HNF
    with zero rows dropped, which makes equality of lattices equality of
    representations.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, rows=()):
        (ambient_dim,) = int_row([ambient_dim])
        cleaned = _int_matrix(rows, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in _hermite(cleaned, ambient_dim) if any(r))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = int_row(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has the wrong length")
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            if v[p] % row[p]:
                return False
            c = v[p] // row[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return not any(v)

    def __eq__(self, other):
        return (
            isinstance(other, IntLattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"IntLattice({self.ambient_dim}, {list(map(list, self.basis))})"


def _mod_kernel(nmat, q: int, k: int) -> list[list[int]]:
    """Rows spanning {y in Z^t : y @ N = 0 mod q} for an integer t x k N.

    Dividing q and N by their gcd g leaves q' = q/g, and y is the projection
    of a left-kernel vector of [N/g; q' I].  That matrix has rank k, so its
    Hermite form has k nonzero rows, and the rows below them, read in the
    block that tracks the rows of N/g, span the y (Cohen, GTM 138, 2.4).
    """
    t = len(nmat)
    g = math.gcd(q, *(x for r in nmat for x in r))
    q //= g
    if q == 1:
        return mat_identity(t)
    aug = [[x // g for x in r] + [int(i == j) for j in range(t)] for i, r in enumerate(nmat)]
    aug += [[q * (i == j) for j in range(k)] + [0] * t for i in range(k)]
    return [r[k:] for r in _hermite(aug, k)[k:]]


def integral_solution_lattice(rows) -> IntLattice:
    """All integer row vectors x with x @ M integral, as an IntLattice;
    entries of M may lie in Q(sqrt d).  See :func:`_integral_lattice`."""
    return _integral_lattice(_pack(rows))


def _integral_lattice(p) -> IntLattice:
    """:func:`integral_solution_lattice` of the packed M = (N + B sqrt d)/den.

    The sqrt-part of x @ M must vanish identically: x = y @ K for K the
    integer left kernel of B (K = I when M is rational).  Then
    y @ K @ N = 0 mod den, a :func:`_mod_kernel`.
    """
    _, den, nmat, quad = p
    m = len(nmat)
    if m == 0:
        return IntLattice(0)
    k = len(nmat[0])
    k1 = None
    if quad is not None:
        k1 = left_kernel(quad)
        nmat = mat_mul(k1, nmat)
    sol = _mod_kernel(nmat, den, k)
    return IntLattice(m, sol if k1 is None else mat_mul(sol, k1))


def _is_summand(rows) -> bool:
    """True when independent rows span a direct summand of Z^N, that is when
    their columns span Z^r: the Hermite form of the transpose starts with I_r."""
    r = len(rows)
    return _hermite(mat_transpose(rows), r)[:r] == mat_identity(r)


def saturate(lat: IntLattice) -> IntLattice:
    """Smallest direct summand of Z^N containing the lattice.

    A summand (:func:`_is_summand`) comes back as it is.  Otherwise it is
    everything orthogonal to the vectors orthogonal to the lattice: two left kernels.
    """
    if _is_summand(lat.basis):
        return lat
    n = lat.ambient_dim
    perp = left_kernel(mat_transpose(lat.basis))
    return IntLattice(n, left_kernel([[r[j] for r in perp] for j in range(n)]))


def complete_to_basis(rows, ambient: int) -> list[list[int]]:
    """Complete independent rows spanning a direct summand to a basis of Z^N.

    The returned ambient x ambient matrix is unimodular and starts with the
    given rows verbatim.
    """
    rows = _int_matrix(rows, ambient)
    r = len(rows)
    if r == 0:
        return mat_identity(ambient)
    s, _, v = snf(rows)
    if any(s[i][i] != 1 for i in range(r)):
        raise NotADirectSummand("rows do not span a direct summand of Z^N")
    vinv = int_inverse_unimodular(v)
    full = rows + vinv[r:]
    assert abs(int_det(full)) == 1
    return full


def extend_summand_basis(lat: IntLattice) -> list[list[int]]:
    """Basis of Z^N whose first rank(L) rows are the lattice's basis rows.

    Raises NotADirectSummand when the lattice is not saturated.
    """
    return complete_to_basis([list(r) for r in lat.basis], lat.ambient_dim)


# ---------------------------------------------------------------------------
# matrices over Q(sqrt d)
#
# At the API a matrix over Q(sqrt d) is a list of lists of Scalar (ints and
# Fractions are accepted too).  Packed, it is a tuple (d, den, A, B) meaning
# (A + B sqrt d) / den, with A and B plain integer matrices, den a nonzero
# int, and d = B = None for a rational matrix.  The _p* operations take and
# return that form; each smat_* function packs, runs one, and unpacks.


def _pack(rows) -> tuple:
    """(d, den, A, B) for a matrix of scalars, den the least common denominator."""
    scal = [[x if type(x) is int else Scalar.of(x) for x in r] for r in rows]
    d = None
    den = 1
    for r in scal:
        for x in r:
            if type(x) is int:
                continue
            if x.d is not None:
                if d is None:
                    d = x.d
                elif x.d != d:
                    raise IncompatibleField(f"cannot mix sqrt({d}) with sqrt({x.d})")
                den = math.lcm(den, x.quad.denominator)
            den = math.lcm(den, x.rat.denominator)

    def scaled(f):
        return f.numerator * (den // f.denominator)

    a = [[x * den if type(x) is int else scaled(x.rat) for x in r] for r in scal]
    if d is None:
        return None, den, a, None
    b = [[0 if type(x) is int else scaled(x.quad) for x in r] for r in scal]
    return d, den, a, b


def _unpack(d, den, a, b) -> list[list[Scalar]]:
    over = Scalar._over
    if b is None:
        return [[over(x, 0, den, None) for x in r] for r in a]
    return [[over(x, y, den, d) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _reduced(d, den, a, b) -> tuple:
    """The packed matrix over its least positive denominator, d = B = None
    once B vanishes: the integers of a chain of packed operations do not grow."""
    if b is not None and not any(map(any, b)):
        d = b = None
    g = math.gcd(den, *(x for r in a for x in r), *(x for r in b or () for x in r))
    if den < 0:
        g = -g
    if g != 1:
        a = [[x // g for x in r] for r in a]
        b = b and [[x // g for x in r] for r in b]
    return d, den // g, a, b


def _pmul(p, q) -> tuple:
    """Packed product, as integer products over den1 * den2:
    (A1 + B1 rt)(A2 + B2 rt) = (A1 A2 + d B1 B2) + (A1 B2 + B1 A2) rt."""
    d1, den1, a1, b1 = p
    d2, den2, a2, b2 = q
    if d1 is not None and d2 is not None and d1 != d2:
        raise IncompatibleField(f"cannot mix sqrt({d1}) with sqrt({d2})")
    rat = mat_mul(a1, a2)
    quad = None
    if b1 is None and b2 is not None:
        quad = mat_mul(a1, b2)
    elif b2 is None and b1 is not None:
        quad = mat_mul(b1, a2)
    elif b1 is not None:
        rat = [[x + d1 * y for x, y in zip(r, s)] for r, s in zip(rat, mat_mul(b1, b2))]
        quad = [[x + y for x, y in zip(r, s)] for r, s in zip(mat_mul(a1, b2), mat_mul(b1, a2))]
    return _reduced(d1 or d2, den1 * den2, rat, quad)


def smat_mul(a, b) -> list[list[Scalar]]:
    """Exact product over Q(sqrt d); see :func:`_pmul`."""
    return _unpack(*_pmul(_pack(a), _pack(b)))


def _bareiss_step(d, a, b, r, col, rows, u, v) -> tuple[int, int]:
    """Eliminate column col of `rows` against pivot row r, u + v sqrt d the
    previous pivot, as in :func:`_bareiss`; returns the new pivot."""
    ya = a[r][col + 1:]
    ka = a[r][col]
    if b is None:
        for i in rows:
            row = a[i]
            f = row[col]
            row[col + 1:] = [(ka * x - f * y) // u for x, y in zip(row[col + 1:], ya)]
            row[col] = 0
        return ka, 0
    yb = b[r][col + 1:]
    kb = b[r][col]
    dkb = d * kb
    nrm = u * u - d * v * v
    dv = d * v
    for i in rows:
        ra, rb = a[i], b[i]
        fa, fb = ra[col], rb[col]
        dfb = d * fb
        xs = list(zip(ra[col + 1:], rb[col + 1:], ya, yb))
        ta = [ka * xa + dkb * xb - fa * y1 - dfb * y2 for xa, xb, y1, y2 in xs]
        tb = [ka * xb + kb * xa - fa * y2 - fb * y1 for xa, xb, y1, y2 in xs]
        if v:
            ra[col + 1:] = [(s * u - dv * t) // nrm for s, t in zip(ta, tb)]
            rb[col + 1:] = [(t * u - v * s) // nrm for s, t in zip(ta, tb)]
        else:
            ra[col + 1:] = [s // u for s in ta]
            rb[col + 1:] = [t // u for t in tb]
        ra[col] = rb[col] = 0
    return ka, kb


def _bareiss(p, ncols: int, jordan: bool = False) -> tuple:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over Z[sqrt d].

    Works on a copy of the numerator A + B sqrt d of the packed matrix p (B
    None for a rational one) and on its first ncols columns; columns past
    ncols ride along.  The pivot of a column is its first nonzero entry at
    or below the current row.  Every other row below it (with jordan, every
    other row) becomes (p x - f y) / prev, with p the pivot, f the row's
    entry in the pivot column, y the pivot row and prev the previous pivot.
    Each such entry is then a minor of the input (Sylvester's identity), so
    the division is exact; by u + v sqrt d it is x (u - v sqrt d) /
    (u^2 - d v^2).

    Returns (rank, sign of the row permutation, last pivot as (u, v), the
    eliminated (A, B)).  For a square input of full rank the last pivot
    times the sign is the determinant.  With jordan the pivot rows of
    earlier steps are updated too, except in the pivot columns left of the
    current one, which no caller reads: [F | E] ends with p F^-1 E in its
    right block, p the last pivot.
    """
    d, _, a, b = p
    a, b = mat_copy(a), b and mat_copy(b)
    m = len(a)
    rank = 0
    sign = 1
    u, v = 1, 0
    for col in range(ncols):
        if rank == m:
            break
        piv = next(
            (i for i in range(rank, m) if a[i][col] or (b is not None and b[i][col])),
            None,
        )
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            if b is not None:
                b[rank], b[piv] = b[piv], b[rank]
            sign = -sign
        rows = [i for i in (range(m) if jordan else range(rank + 1, m)) if i != rank]
        u, v = _bareiss_step(d, a, b, rank, col, rows, u, v)
        rank += 1
    return rank, sign, (u, v), (a, b)


def _pdet(p) -> tuple[int, int]:
    """(u, v) with det(A + B sqrt d) = u + v sqrt d; the determinant is that over den^n."""
    n = len(p[2])
    rank, sign, (u, v), _ = _bareiss(p, n)
    return (sign * u, sign * v) if rank == n else (0, 0)


def smat_det(rows) -> Scalar:
    """Exact determinant over Q(sqrt d): det(A + B sqrt d) / den^n."""
    d, den, a, b = p = _pack(rows)
    return Scalar._over(*_pdet(p), den ** len(a), d)


def _prank(p) -> int:
    return _bareiss(p, len(p[2][0]) if p[2] else 0)[0]


def smat_rank(rows) -> int:
    return _prank(_pack(rows))


def _psolve(p) -> tuple:
    """F^-1 E for the packed [F | E], F square; ValueError when F is singular.

    Gauss-Jordan on the numerators [N_F | N_E] (den cancels) leaves R =
    q N_F^-1 N_E on the right, q = u + v sqrt d the last pivot, so
    F^-1 E = R (u - v sqrt d) / (u^2 - d v^2)."""
    d, k = p[0], len(p[2])
    rank, _, (u, v), (a, b) = _bareiss(p, k, jordan=True)
    if rank < k:
        raise ValueError("singular matrix")
    if b is None:
        return _reduced(None, u, [r[k:] for r in a], None)
    return _reduced(
        d,
        u * u - d * v * v,
        [[x * u - d * y * v for x, y in zip(r[k:], s[k:])] for r, s in zip(a, b)],
        [[y * u - x * v for x, y in zip(r[k:], s[k:])] for r, s in zip(a, b)],
    )


def _pinv(p) -> tuple:
    """Packed inverse, M^-1 = M^-1 I read from [M | I]."""
    d, den, a, b = p
    n = len(a)
    a = [list(r) + [den * (i == j) for j in range(n)] for i, r in enumerate(a)]
    return _psolve((d, den, a, b and [list(r) + [0] * n for r in b]))


def smat_inv(rows) -> list[list[Scalar]]:
    """Exact inverse over Q(sqrt d); raises ValueError on singular input."""
    return _unpack(*_pinv(_pack(rows)))
