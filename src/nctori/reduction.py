"""Integer O(n,n) elements, their partial action on skew matrices, and the
reduction of any skew matrix to diag(0, nondegenerate block) inside one orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    IntLattice,
    Scalar,
    int_det,
    int_inverse_unimodular,
    integral_solution_lattice,
    mat_identity,
    mat_mul,
    mat_transpose,
    smat_det,
    smat_inv,
    smat_mul,
    smat_transpose,
)
from .hyperlattice import (
    CompatibleBasis,
    IsotropicSubspace,
    complete_isotropic_basis,
    select_transversal,
)

ONN_NO = "no"
ONN_MINUS = "O-"
ONN_SO = "SO"


class ActionUndefined(ArithmeticError):
    """C @ theta + D is singular, so g.theta is not defined."""


class SkewMatrix:
    """An n x n skew-symmetric matrix of exact scalars."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Scalar.of(x) for x in r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        self.n = n
        self.rows = rows

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
        return SkewMatrix([[-x for x in r] for r in self.rows])

    def submatrix(self, idx) -> "SkewMatrix":
        return SkewMatrix([[self.rows[i][j] for j in idx] for i in idx])

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

    Membership in O(n,n|Z) is the block test A^t C + C^t A = 0 = B^t D +
    D^t B together with A^t D + C^t B = I.
    """
    mat = [list(map(int, r)) for r in mat]
    n2 = len(mat)
    if n2 % 2:
        raise ValueError("matrix must have even dimension")
    for r in mat:
        if len(r) != n2:
            raise ValueError("matrix must be square")
    n = n2 // 2
    a, b, c, d = _blocks(mat)
    at, bt, ct, dt = map(mat_transpose, (a, b, c, d))
    zero = [[0] * n for _ in range(n)]

    def madd(x, y):
        return [[p + q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]

    if n:
        if madd(mat_mul(at, c), mat_mul(ct, a)) != zero:
            return ONN_NO
        if madd(mat_mul(bt, d), mat_mul(dt, b)) != zero:
            return ONN_NO
        if madd(mat_mul(at, d), mat_mul(ct, b)) != mat_identity(n):
            return ONN_NO
    det = int_det(mat)
    assert det in (1, -1), "block relations force det = +-1"
    return ONN_SO if det == 1 else ONN_MINUS


class ONNElement:
    """An element of O(n,n|Z) in A/B/C/D block form."""

    __slots__ = ("n", "a", "b", "c", "d", "det_sign")

    def __init__(self, a, b, c, d):
        a, b, c, d = (tuple(tuple(map(int, r)) for r in blk) for blk in (a, b, c, d))
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
    # C theta + D and A theta + B, each as one product with [theta; I]
    lift = [list(r) for r in theta.rows] + mat_identity(g.n)
    cd = smat_mul([c + d for c, d in zip(g.c, g.d)], lift)
    if not smat_det(cd):
        raise ActionUndefined("C @ theta + D is singular")
    assert g.det_sign == 1, "a defined action forces membership in SO(n,n|Z)"
    ab = smat_mul([a + b for a, b in zip(g.a, g.b)], lift)
    return SkewMatrix(smat_mul(ab, smat_inv(cd)))


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
    if theta.n == 0:
        return IntLattice(0)
    return integral_solution_lattice([list(r) for r in theta.rows], theta.n)


def canonical_form(theta: SkewMatrix) -> CanonicalForm:
    """Reduce theta to diag(0, nondegenerate) by an explicit SO(n,n|Z) element.

    Pipeline: the graph V = {(theta y, y)} is an n-dimensional isotropic
    subspace; its integer points form a saturated isotropic lattice M whose
    basis extends to a compatible basis with M in the f slots; a transversal
    choice forces span(e) to miss V; the graph map span(f) -> span(e) read in
    that basis is the reduced matrix, and g is the basis change back to the
    standard frame.
    """
    n = theta.n
    degen = degeneracy_subgroup(theta)
    r = degen.rank
    k = n - r

    # M = {(theta y, y) : y in the degeneracy lattice}; theta y = y theta^t
    images = smat_mul([list(y) for y in degen.basis], smat_transpose(theta.rows))
    lat = IntLattice(
        2 * n, [[x.as_int() for x in img] + list(y) for img, y in zip(images, degen.basis)]
    )
    base = complete_isotropic_basis(lat)

    graph_rows = tuple(
        tuple(theta.column(j)) + tuple(Scalar(1 if i == j else 0) for i in range(n))
        for j in range(n)
    )
    graph = IsotropicSubspace(n, graph_rows)

    eta, swapped = select_transversal(base, graph)
    assert not any(swapped[:r]), "slots holding M can never swap"
    # swapping a pair (e_j, f_j) keeps compatibility; the constructor checks
    newbase = CompatibleBasis(
        n,
        tuple(tuple(v) for v in eta),
        tuple(base.e[j] if swapped[j] else base.f[j] for j in range(n)),
    )

    # theta' is the matrix of the graph map span(f) -> span(e) in the new basis
    stacked = newbase.rows()
    coords = smat_mul(graph_rows, smat_inv(stacked))
    e_part = [row[:n] for row in coords]
    f_part = [row[n:] for row in coords]
    row_map = smat_mul(smat_inv(f_part), e_part)
    prime = SkewMatrix(smat_transpose(row_map))
    for i in range(n):
        for j in range(n):
            if (i < r or j < r) and prime.rows[i][j]:
                raise AssertionError("reduced matrix must vanish on the M block")
    tilde = prime.submatrix(range(r, n))

    g = ONNElement.from_matrix(int_inverse_unimodular(mat_transpose(stacked)))
    assert act(g, theta) == prime, "independent routes to theta' must agree"
    assert degeneracy_subgroup(tilde).rank == 0, "reduced block is nondegenerate"
    assert is_in_onn(g.matrix) == ONN_SO
    return CanonicalForm(g=g, theta_prime=prime, k=k, theta_tilde=tilde)
