"""Exact arithmetic over Q and real quadratic fields, plus integer lattice algorithms.

Conventions used throughout the package:

* vectors are row vectors and matrices act on the right, so a lattice is the
  set of integer combinations of the rows of its basis matrix;
* integer matrices are plain lists of lists of Python ints;
* matrices over a field are lists of lists of :class:`Scalar` at the API;
  inside the ``smat_*`` functions they are integer pairs over one common
  denominator, (A + B*sqrt(d))/den with A and B integer matrices, and every
  determinant, rank and inverse comes from one fraction-free elimination,
  :func:`_bareiss`.

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

    def as_fraction(self) -> Fraction:
        if self.quad != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.rat

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return f.numerator

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


def row_times(vec, rows) -> list:
    """Row vector times matrix."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    return [sum(vec[i] * rows[i][j] for i in range(m)) for j in range(n)]


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (see :func:`_bareiss`)."""
    n = len(rows)
    rank, sign, (u, _) = _bareiss(None, mat_copy(rows), None, n)
    return sign * u if rank == n else 0


def _sub_row(mat, i, r, q):
    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]


def _add_row(mat, i, r, q=1):
    mat[i] = [x + q * y for x, y in zip(mat[i], mat[r])]


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
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[int(x) for x in r] + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    _hermite(aug, n)
    return [r[:n] for r in aug], [r[n:] for r in aug]


def snf(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form.

    Returns (S, U, V) with U @ M @ V = S, S diagonal with nonnegative
    entries s1 | s2 | ..., and U, V unimodular.  Same deterministic pivot
    rule as :func:`hnf`.
    """
    mat = [list(map(int, r)) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
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
            _add_row(mat, t, bad)
            _add_row(u, t, bad)
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


def left_kernel(rows, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x in Z^m : x @ M = 0}."""
    m = len(rows)
    if m == 0:
        return []
    k = len(rows[0]) if ncols is None else ncols
    if k == 0:
        return mat_identity(m)
    s, u, _ = snf(rows)
    rank = sum(1 for i in range(min(m, k)) if s[i][i])
    return [list(u[i]) for i in range(rank, m)]


def reduce_mod_rows(vec, rows) -> list[int]:
    """Size-reduce a vector modulo the lattice spanned by the rows.

    Nearest-integer rounding against the HNF pivots; deterministic, and keeps
    solution vectors from blowing up when a system has a large kernel.
    """
    v = list(vec)
    if not rows:
        return v
    for row in _hermite([list(map(int, r)) for r in rows], len(rows[0])):
        if not any(row):
            continue
        p = next(j for j, x in enumerate(row) if x)
        c = (2 * v[p] + row[p]) // (2 * row[p])
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def solve_row_system(a_rows, b) -> list[int] | None:
    """One integer solution x of x @ A = b, or None.

    The answer is deterministic: free coordinates come out pinned and the
    result is size-reduced modulo the kernel of the system.
    """
    m = len(a_rows)
    k = len(a_rows[0]) if m else len(b)
    if m == 0:
        return [] if all(x == 0 for x in b) else None
    s, u, v = snf(a_rows)
    c = row_times(list(b), v)
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
    for j in range(min(m, k), k):
        if c[j]:
            return None
    x = row_times(y, u)
    kernel = [u[i] for i in range(rank, m)]
    return reduce_mod_rows(x, kernel)


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
        ambient_dim = int(ambient_dim)
        cleaned = []
        for r in rows:
            r = [int(x) for x in r]
            if len(r) != ambient_dim:
                raise ValueError(
                    f"row of length {len(r)} in ambient Z^{ambient_dim}"
                )
            cleaned.append(r)
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in _hermite(cleaned, ambient_dim) if any(r))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = [int(x) for x in vec]
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


def _lcm_denoms(fracs) -> int:
    out = 1
    for f in fracs:
        out = out * f.denominator // math.gcd(out, f.denominator)
    return out


def integral_solution_lattice(rows, ncols: int | None = None) -> IntLattice:
    """All integer row vectors x with x @ M integral, as an IntLattice.

    Entries of M may lie in Q(sqrt d).  The sqrt-part of x @ M must vanish
    identically (an integer kernel computation) and the rational part must
    land in Z^k (cleared denominators, solved through Smith normal form).
    """
    m = len(rows)
    if m == 0:
        return IntLattice(0)
    scal = [[Scalar.of(x) for x in r] for r in rows]
    k = len(scal[0]) if ncols is None else ncols
    ds = {e.d for r in scal for e in r if e.d is not None}
    if len(ds) > 1:
        raise IncompatibleField(f"matrix mixes quadratic fields {sorted(ds)}")

    quad = [[e.quad for e in r] for r in scal]
    if any(x for r in quad for x in r):
        ql = _lcm_denoms(x for r in quad for x in r)
        qint = [[int(x * ql) for x in r] for r in quad]
        k1 = left_kernel(qint, ncols=k)
    else:
        k1 = mat_identity(m)
    if not k1:
        return IntLattice(m)

    rat = [[e.rat for e in r] for r in scal]
    nmat = [
        [sum(Fraction(krow[i]) * rat[i][j] for i in range(m)) for j in range(k)]
        for krow in k1
    ]
    q = _lcm_denoms(x for r in nmat for x in r)
    if q == 1:
        return IntLattice(m, k1)
    ni = [[int(x * q) for x in r] for r in nmat]
    t = len(k1)
    s, u, _ = snf(ni)
    scaled = []
    for j in range(t):
        sj = s[j][j] if j < min(t, k) else 0
        c = q // math.gcd(sj, q)
        scaled.append([c * x for x in u[j]])
    return IntLattice(m, mat_mul(scaled, k1))


def saturate(lat: IntLattice) -> IntLattice:
    """Smallest direct summand of Z^N containing the lattice."""
    if lat.rank == 0:
        return lat
    _, _, v = snf([list(r) for r in lat.basis])
    vinv = int_inverse_unimodular(v)
    return IntLattice(lat.ambient_dim, vinv[: lat.rank])


def complete_to_basis(rows, ambient: int) -> list[list[int]]:
    """Complete independent rows spanning a direct summand to a basis of Z^N.

    The returned ambient x ambient matrix is unimodular and starts with the
    given rows verbatim.
    """
    rows = [list(map(int, r)) for r in rows]
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
# Fractions are accepted too).  Inside, the smat_* functions hold it as a
# tuple (d, den, A, B) meaning (A + B sqrt d) / den, with A and B plain
# integer matrices, den a nonzero int, and d = B = None for a rational
# matrix.  smat_det, smat_rank, smat_inv and int_det share the one
# elimination routine, :func:`_bareiss`.


def smat_transpose(rows) -> list[list[Scalar]]:
    return [list(col) for col in zip(*rows)] if rows else []


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


def smat_mul(a, b) -> list[list[Scalar]]:
    """Exact product over Q(sqrt d), as integer products over den1 * den2:
    (A1 + B1 rt)(A2 + B2 rt) = (A1 A2 + d B1 B2) + (A1 B2 + B1 A2) rt."""
    d1, den1, a1, b1 = _pack(a)
    d2, den2, a2, b2 = _pack(b)
    if d1 is not None and d2 is not None and d1 != d2:
        raise IncompatibleField(f"cannot mix sqrt({d1}) with sqrt({d2})")
    rat = mat_mul(a1, a2)
    if b1 is None and b2 is None:
        return _unpack(None, den1 * den2, rat, None)
    if b1 is None:
        quad = mat_mul(a1, b2)
    elif b2 is None:
        quad = mat_mul(b1, a2)
    else:
        rat = [[x + d1 * y for x, y in zip(r, s)] for r, s in zip(rat, mat_mul(b1, b2))]
        quad = [
            [x + y for x, y in zip(r, s)] for r, s in zip(mat_mul(a1, b2), mat_mul(b1, a2))
        ]
    return _unpack(d1 or d2, den1 * den2, rat, quad)


def _bareiss(d, a, b, ncols: int, jordan: bool = False) -> tuple[int, int, tuple[int, int]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over Z[sqrt d].

    Works in place on the matrix A + B sqrt d (B None for a rational one) and
    on its first ncols columns; columns past ncols ride along.  The pivot of
    a column is its first nonzero entry at or below the current row.  Every
    other row below it (with jordan, every other row) becomes
    (p x - f y) / prev, with p the pivot, f the row's entry in the pivot
    column, y the pivot row and prev the previous pivot.  Each such entry is
    then a minor of the input (Sylvester's identity), so the division is
    exact; by u + v sqrt d it is x (u - v sqrt d) / (u^2 - d v^2).

    Returns (rank, sign of the row permutation, last pivot as (u, v)).  For
    a square input of full rank the last pivot times the sign is the
    determinant.  With jordan the pivot rows of earlier steps are updated
    too, except in the pivot columns left of the current one, which no
    caller reads: [N | I] ends with p N^-1 in its right block, p the last
    pivot.
    """
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
        ya = a[rank][col + 1:]
        ka = a[rank][col]
        if b is None:
            for i in rows:
                row = a[i]
                f = row[col]
                row[col + 1:] = [(ka * x - f * y) // u for x, y in zip(row[col + 1:], ya)]
                row[col] = 0
            u = ka
        else:
            yb = b[rank][col + 1:]
            kb = b[rank][col]
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
            u, v = ka, kb
        rank += 1
    return rank, sign, (u, v)


def smat_det(rows) -> Scalar:
    """Exact determinant over Q(sqrt d): det(A + B sqrt d) / den^n."""
    n = len(rows)
    d, den, a, b = _pack(rows)
    rank, sign, (u, v) = _bareiss(d, a, b, n)
    if rank < n:
        return Scalar(0)
    return Scalar._over(sign * u, sign * v, den**n, d)


def smat_rank(rows) -> int:
    d, _, a, b = _pack(rows)
    return _bareiss(d, a, b, len(a[0]) if a else 0)[0]


def smat_inv(rows) -> list[list[Scalar]]:
    """Exact inverse over Q(sqrt d); raises ValueError on singular input.

    Gauss-Jordan on [N | I], N = A + B sqrt d = den M, leaves p N^-1 in the
    right block R, p = u + v sqrt d the last pivot; so M^-1 = den R / p,
    that is den R (u - v sqrt d) / (u^2 - d v^2), one division per entry.
    """
    n = len(rows)
    d, den, a, b = _pack(rows)
    for i, r in enumerate(a):
        r.extend(int(i == j) for j in range(n))
    if b is not None:
        for r in b:
            r.extend([0] * n)
    rank, _, (u, v) = _bareiss(d, a, b, n, jordan=True)
    if rank < n:
        raise ValueError("singular matrix")
    if b is None:
        return _unpack(None, u, [[den * x for x in r[n:]] for r in a], None)
    return _unpack(
        d,
        u * u - d * v * v,
        [[den * (x * u - d * y * v) for x, y in zip(r[n:], s[n:])] for r, s in zip(a, b)],
        [[den * (y * u - x * v) for x, y in zip(r[n:], s[n:])] for r, s in zip(a, b)],
    )
