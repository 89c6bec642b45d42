"""Integer O(n,n) elements, their partial action on skew matrices, and the
reduction of any skew matrix to diag(0, nondegenerate block) inside one orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    IntLattice,
    Scalar,
    _integral_lattice,
    _pack,
    _pinv,
    _pmul,
    _psolve,
    _reduced,
    _unpack,
    int_det,
    int_row,
    mat_identity,
    mat_mul,
    mat_transpose,
)
from .hyperlattice import (
    CompatibleBasis,
    _check_isotropic,
    _mod_q,
    _transversal,
    complete_isotropic_basis,
)

ONN_NO = "no"
ONN_MINUS = "O-"
ONN_SO = "SO"


class ActionUndefined(ArithmeticError):
    """C @ theta + D is singular, so g.theta is not defined."""


class SkewMatrix:
    """An n x n skew-symmetric matrix of exact scalars, held packed like a
    Bicharacter's exponents: (A + B sqrt d)/den as in :mod:`~nctori.exactlin`.
    The checks run on the integers, and ``rows`` views it as Scalars."""

    __slots__ = ("n", "rows", "_packed")

    def __init__(self, rows):
        self._setup(_pack(rows))

    @classmethod
    def _of_packed(cls, packed) -> "SkewMatrix":
        """The skew matrix of a packed (d, den > 0, A, B), B None when rational."""
        theta = object.__new__(cls)
        theta._setup(packed)
        return theta

    def _setup(self, packed) -> None:
        _, _, a, b = packed
        n = len(a)
        if any(len(r) != n for r in a):
            raise ValueError("matrix must be square")
        if any(m[i][j] + m[j][i] for m in (a, b or ()) for i in range(len(m)) for j in range(i, n)):
            raise ValueError("matrix is not skew-symmetric")
        self.n, self._packed = n, packed
        self.rows = tuple(map(tuple, _unpack(*packed)))

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_upper(cls, n: int, entries) -> "SkewMatrix":
        """Build from a {(i, j): value} mapping over i < j."""
        rows = [[Scalar(0)] * n for _ in range(n)]
        for (i, j), val in entries.items():
            rows[i][j] = Scalar.of(val)
            rows[j][i] = -Scalar.of(val)
        return cls(rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def neg(self) -> "SkewMatrix":
        d, den, *mats = self._packed  # -theta is the transpose of theta
        return SkewMatrix._of_packed((d, den, *(m and mat_transpose(m) for m in mats)))

    def submatrix(self, idx) -> "SkewMatrix":
        d, den, *mats = self._packed
        idx = list(idx)
        sub = (m and [[m[i][j] for j in idx] for i in idx] for m in mats)
        return SkewMatrix._of_packed(_reduced(d, den, *sub))

    def column(self, j: int) -> list[Scalar]:
        return [self.rows[i][j] for i in range(self.n)]

    def is_rational(self) -> bool:
        return all(x.is_rational() for r in self.rows for x in r)

    def __eq__(self, other):
        return isinstance(other, SkewMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"SkewMatrix[{body}]"


def _blocks(mat):
    n2 = len(mat)
    n = n2 // 2
    a = [row[:n] for row in mat[:n]]
    b = [row[n:] for row in mat[:n]]
    c = [row[:n] for row in mat[n:]]
    d = [row[n:] for row in mat[n:]]
    return a, b, c, d


def is_in_onn(mat) -> str:
    """Classify an integer matrix: "no", "O-" (det -1) or "SO" (det +1).

    Membership in O(n,n|Z) is g^t J g = J, J = [[0, I], [I, 0]], that is
    A^t C + C^t A = 0 = B^t D + D^t B and A^t D + C^t B = I.  A matrix
    with an entry that is not an integer is "no".
    """
    rows = [list(r) for r in mat]
    n2 = len(rows)
    if n2 % 2:
        raise ValueError("matrix must have even dimension")
    for r in rows:
        if len(r) != n2:
            raise ValueError("matrix must be square")
    try:
        mat = [int_row(r) for r in rows]
    except ValueError:
        return ONN_NO
    n = n2 // 2
    form = [r[n:] + r[:n] for r in mat_identity(n2)]
    if mat_mul(mat_transpose(mat), mat[n:] + mat[:n]) != form:
        return ONN_NO
    det = int_det(mat)
    assert det in (1, -1), "block relations force det = +-1"
    return ONN_SO if det == 1 else ONN_MINUS


class ONNElement:
    """An element of O(n,n|Z) in A/B/C/D block form."""

    __slots__ = ("n", "a", "b", "c", "d", "det_sign")

    def __init__(self, a, b, c, d):
        a, b, c, d = (tuple(tuple(int_row(r)) for r in blk) for blk in (a, b, c, d))
        n = len(a)
        self.n = n
        self.a, self.b, self.c, self.d = a, b, c, d
        kind = is_in_onn(self.matrix)
        if kind == ONN_NO:
            raise ValueError("blocks do not satisfy the O(n,n) relations")
        self.det_sign = 1 if kind == ONN_SO else -1

    @classmethod
    def from_matrix(cls, mat) -> "ONNElement":
        if len(mat) % 2:
            raise ValueError("matrix must have even dimension")
        return cls(*_blocks([list(r) for r in mat]))

    @classmethod
    def _of_basis(cls, basis: CompatibleBasis) -> "ONNElement":
        """g = (B^t)^-1 = J B J for a compatible basis B = [e; f], without
        :func:`is_in_onn`: the basis check B J B^t = J gives B^t J B = J, so
        g^t J g = J, and det g = det B = +-1 is read exactly mod q."""
        g, n = cls.__new__(cls), basis.n
        mat = [v[n:] + v[:n] for v in basis.f + basis.e]
        g.n, (g.a, g.b, g.c, g.d) = n, (tuple(map(tuple, blk)) for blk in _blocks(mat))
        _, g.det_sign, _ = _mod_q((None, 1, mat, None))
        return g

    @classmethod
    def identity(cls, n: int) -> "ONNElement":
        eye = mat_identity(n)
        zero = [[0] * n for _ in range(n)]
        return cls(eye, zero, zero, eye)

    @property
    def matrix(self) -> list[list[int]]:
        top = [list(ra) + list(rb) for ra, rb in zip(self.a, self.b)]
        bot = [list(rc) + list(rd) for rc, rd in zip(self.c, self.d)]
        return top + bot

    def __eq__(self, other):
        return isinstance(other, ONNElement) and (
            (self.a, self.b, self.c, self.d)
            == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"ONNElement(n={self.n}, det={self.det_sign})"


def act(g: ONNElement, theta: SkewMatrix) -> SkewMatrix:
    """The partial action g.theta = (A theta + B)(C theta + D)^{-1}.

    Raises ActionUndefined when C theta + D is singular.  Whenever the
    action is defined the element is automatically special (det +1).
    """
    if g.n != theta.n:
        raise ValueError("dimension mismatch")
    cd, ab = _action_parts(g, theta._packed)
    try:
        cd_inv = _pinv(cd)
    except ValueError:
        raise ActionUndefined("C @ theta + D is singular") from None
    assert g.det_sign == 1, "a defined action forces membership in SO(n,n|Z)"
    return SkewMatrix._of_packed(_pmul(ab, cd_inv))


def _action_parts(g: ONNElement, th) -> tuple:
    """C theta + D and A theta + B for a packed theta, each as one packed
    product with [I; theta]."""
    d, den, ta, tb = th
    eye = [[den * x for x in r] for r in mat_identity(g.n)]
    lift = d, den, eye + ta, tb and [[0] * g.n for _ in eye] + tb
    cd = _pmul((None, 1, [x + y for x, y in zip(g.d, g.c)], None), lift)
    return cd, _pmul((None, 1, [x + y for x, y in zip(g.b, g.a)], None), lift)


def compose(g1: ONNElement, g2: ONNElement) -> ONNElement:
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    return ONNElement.from_matrix(mat_mul(g1.matrix, g2.matrix))


def inverse(g: ONNElement) -> ONNElement:
    # g^{-1} = J g^t J for the form matrix J = [[0, I], [I, 0]]
    inv = ONNElement(
        mat_transpose(g.d),
        mat_transpose(g.b),
        mat_transpose(g.c),
        mat_transpose(g.a),
    )
    assert mat_mul(g.matrix, inv.matrix) == mat_identity(2 * g.n)
    return inv


@dataclass(frozen=True)
class CanonicalForm:
    """Result of the orbit reduction: act(g, input) = theta_prime =
    diag(0, theta_tilde) with theta_tilde nondegenerate of size k."""

    g: ONNElement
    theta_prime: SkewMatrix
    k: int
    theta_tilde: SkewMatrix


def degeneracy_subgroup(theta: SkewMatrix) -> IntLattice:
    """{x in Z^n : x @ theta in Z^n} (rank n - k in the canonical form)."""
    return _integral_lattice(theta._packed)


def _acts_as(g: ONNElement, th, prime) -> bool:
    """act(g, theta) == theta' for packed theta and theta', with no inverse:
    A theta + B = theta' (C theta + D).  The identity makes C theta + D
    invertible, as [A theta + B; C theta + D] = g [theta; I] has full column
    rank: (C theta + D) x = 0 gives (A theta + B) x = 0, so x = 0."""
    cd, ab = _action_parts(g, th)
    (d1, den1, *m1), (d2, den2, *m2) = ab, _pmul(prime, cd)
    # both sides are reduced, so a sqrt d part is None exactly when it is 0
    return d1 == d2 and [m and [[x * den2 for x in r] for r in m] for m in m1] == [
        m and [[x * den1 for x in r] for r in m] for m in m2
    ]


def _nondegenerate(p) -> bool:
    """{x in Z^k : x theta integral} = 0 for a packed k x k theta = (A + B sqrt d)/den.
    x theta integral needs x B = 0, so B of full rank mod q (:func:`_mod_q`)
    certifies it; otherwise the integral lattice (:func:`degeneracy_subgroup`) decides."""
    if p[3] is not None and _mod_q((None, 1, p[3], None))[0] == len(p[3]):
        return True
    return _integral_lattice(p).rank == 0


def canonical_form(theta: SkewMatrix) -> CanonicalForm:
    """Reduce theta to diag(0, nondegenerate) by an explicit SO(n,n|Z) element.

    Pipeline: the graph V = {(theta y, y)} is an n-dimensional isotropic
    subspace; its integer points form a saturated isotropic lattice M whose
    basis extends to a compatible basis with M in the f slots; a transversal
    choice forces span(e) to miss V; the graph map span(f) -> span(e) read in
    that basis is the reduced matrix, and g is the basis change back to the
    standard frame.

    The self-checks run an exact elimination only where a certificate mod a
    prime (``hyperlattice._mod_q``) fails: the isotropy ranks, the transversal
    and theta~'s nondegeneracy.  det g = +-1 is read exactly mod q, and
    act(g, theta) = theta' is checked as an identity with no inverse.
    """
    n = theta.n
    degen = degeneracy_subgroup(theta)
    r = degen.rank
    k = n - r

    # theta is skew, so theta y = -(y theta) and column j of theta is minus its row j
    d, den, ta, tb = th = theta._packed
    _, one, images, quad = _pmul((None, 1, [list(y) for y in degen.basis], None), th)
    assert one == 1 and quad is None, "the degeneracy lattice maps into Z^n"
    # M = {(theta y, y) : y in the degeneracy lattice}
    lat = IntLattice(2 * n, [[-x for x in img] + list(y) for img, y in zip(images, degen.basis)])
    base = complete_isotropic_basis(lat)

    # the graph V, rows (theta e_j, e_j)
    graph = (
        d,
        den,
        [[-x for x in r] + [den * (i == j) for j in range(n)] for i, r in enumerate(ta)],
        tb and [[-x for x in r] + [0] * n for r in tb],
    )
    _check_isotropic(graph)

    eta, swapped = _transversal(base, graph)
    assert not any(swapped[:r]), "slots holding M can never swap"
    # swapping a pair (e_j, f_j) keeps compatibility; the constructor checks
    newbase = CompatibleBasis(
        n,
        tuple(tuple(v) for v in eta),
        tuple(base.e[j] if swapped[j] else base.f[j] for j in range(n)),
    )

    # theta' is the graph map span(f) -> span(e) in the new basis B = [e; f]: F^-1 E for
    # the graph's coordinates [F | E] in [f; e] = J B, whose inverse is J B^t as B^-1 = J B^t J
    cols = mat_transpose(newbase.rows())
    coords = _pmul(graph, (None, 1, cols[n:] + cols[:n], None))
    pd, pden, pa, pb = _psolve(coords)
    pa, pb = mat_transpose(pa), pb and mat_transpose(pb)
    if any(any(row) if i < r else any(row[:r]) for m in (pa, pb or ()) for i, row in enumerate(m)):
        raise AssertionError("reduced matrix must vanish on the M block")
    prime = SkewMatrix._of_packed((pd, pden, pa, pb))
    tilde = prime.submatrix(range(r, n))

    g = ONNElement._of_basis(newbase)
    assert _acts_as(g, th, prime._packed), "independent routes to theta' must agree"
    assert _nondegenerate(tilde._packed), "reduced block is nondegenerate"
    assert g.det_sign == 1
    return CanonicalForm(g=g, theta_prime=prime, k=k, theta_tilde=tilde)
