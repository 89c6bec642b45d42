"""The hyperbolic bilinear form on Z^{2n} and its constructive basis tools.

The form is <x, y> = sum_j (x_j y_{n+j} + x_{n+j} y_j).  A basis
e_1..e_n, f_1..f_n of Z^{2n} is *compatible* with it when both halves are
isotropic and <e_i, f_j> = delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    IntLattice,
    Scalar,
    complete_to_basis,
    int_det,
    left_kernel,
    mat_identity,
    mat_mul,
    saturate,
    smat_det,
    smat_inv,
    smat_mul,
    smat_rank,
    smat_transpose,
    solve_row_system,
)


class NotIsotropic(ValueError):
    """A lattice or subspace required to be isotropic is not."""


class NotSaturated(ValueError):
    """A lattice required to be a direct summand of Z^{2n} is not."""


def pairing(x, y) -> Scalar:
    """The hyperbolic form of two vectors of equal even length."""
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("pairing needs two vectors of one even length")
    n = len(x) // 2
    total = Scalar(0)
    for j in range(n):
        total = total + Scalar.of(x[j]) * Scalar.of(y[n + j])
        total = total + Scalar.of(x[n + j]) * Scalar.of(y[j])
    return total


def _ipair(x, y) -> int:
    # integer fast path of `pairing`
    n = len(x) // 2
    return sum(x[j] * y[n + j] + x[n + j] * y[j] for j in range(n))


@dataclass(frozen=True)
class CompatibleBasis:
    """A basis of Z^{2n} compatible with the hyperbolic form."""

    n: int
    e: tuple
    f: tuple

    def __post_init__(self):
        n = self.n
        vecs = list(self.e) + list(self.f)
        if len(self.e) != n or len(self.f) != n:
            raise ValueError("need n vectors in each half")
        for v in vecs:
            if len(v) != 2 * n:
                raise ValueError("basis vectors must have length 2n")
        for i in range(n):
            for j in range(n):
                if _ipair(self.e[i], self.e[j]) or _ipair(self.f[i], self.f[j]):
                    raise NotIsotropic("basis halves must be isotropic")
                if _ipair(self.e[i], self.f[j]) != (1 if i == j else 0):
                    raise ValueError("<e_i, f_j> must be delta_ij")
        if abs(int_det([list(v) for v in vecs])) != 1:
            raise ValueError("vectors do not form a basis of Z^{2n}")

    @classmethod
    def standard(cls, n: int) -> "CompatibleBasis":
        eye = mat_identity(2 * n)
        return cls(
            n,
            tuple(tuple(eye[j]) for j in range(n)),
            tuple(tuple(eye[n + j]) for j in range(n)),
        )

    def rows(self) -> list[list[int]]:
        return [list(v) for v in self.e] + [list(v) for v in self.f]


@dataclass(frozen=True)
class IsotropicSubspace:
    """A subspace of R^{2n} on which the hyperbolic form vanishes."""

    dim: int
    basis: tuple

    def __post_init__(self):
        rows = [list(r) for r in self.basis]
        if len(rows) != self.dim:
            raise ValueError("dim does not match the number of basis vectors")
        if not rows:
            return
        width = len(rows[0])
        if width % 2 or any(len(r) != width for r in rows):
            raise ValueError("pairing needs two vectors of one even length")
        # all pairings at once: the rows times their half-swapped transpose
        h = width // 2
        gram = smat_mul(rows, smat_transpose([r[h:] + r[:h] for r in rows]))
        if any(x for r in gram for x in r):
            raise NotIsotropic("subspace is not isotropic")
        if smat_rank(rows) != self.dim:
            raise ValueError("basis vectors are linearly dependent")


def complete_isotropic_basis(lat: IntLattice) -> CompatibleBasis:
    """Extend a saturated isotropic lattice M to a compatible basis.

    The output places M's basis rows verbatim in the slots f_1..f_r,
    r = rank(M), which is how the reduction pipeline consumes it.

    Construction: pair M against the second coordinate half to get W,
    saturate M + W to a rank-n isotropic summand, extend M's basis to that
    summand, solve for dual-basis preimages h_j of the pairing, and correct
    them to f_j = h_j - (1/2)<h_j,h_j> e_j - sum_{k<j} <h_j,f_k> e_k.
    """
    N = lat.ambient_dim
    if N % 2:
        raise ValueError("ambient dimension must be even")
    n = N // 2
    if saturate(lat) != lat:
        raise NotSaturated("lattice is not a direct summand of Z^{2n}")
    rows_m = [list(r) for r in lat.basis]
    r = len(rows_m)
    for i in range(r):
        for j in range(i, r):
            if _ipair(rows_m[i], rows_m[j]):
                raise NotIsotropic("lattice is not isotropic")

    # W = {(0|w) : <(0|w), M> = 0}; the pairing only sees first halves of M
    if r:
        head = [[row[j] for row in rows_m] for j in range(n)]
        wker = left_kernel(head, ncols=r)
    else:
        wker = mat_identity(n)
    wrows = [[0] * n + list(w) for w in wker]
    big = saturate(IntLattice(N, rows_m + wrows))
    assert big.rank == n, "M + W must saturate to rank n"

    # re-order the summand's basis so that M's rows come first
    coords = []
    for row in rows_m:
        c = solve_row_system([list(b) for b in big.basis], row)
        assert c is not None
        coords.append(c)
    change = complete_to_basis(coords, n)
    evecs = mat_mul(change, [list(b) for b in big.basis])
    for i in range(n):
        for j in range(i, n):
            assert _ipair(evecs[i], evecs[j]) == 0

    # dual-basis preimages: <h_j, e_i> = delta_ij
    flipped = [row[n:] + row[:n] for row in evecs]
    apair = [[flipped[i][x] for i in range(n)] for x in range(2 * n)]
    fvecs = []
    for j in range(n):
        target = [1 if i == j else 0 for i in range(n)]
        h = solve_row_system(apair, target)
        assert h is not None, "dual basis must be attainable (summand saturated)"
        diag = _ipair(h, h)
        assert diag % 2 == 0
        f = [x - (diag // 2) * y for x, y in zip(h, evecs[j])]
        for k in range(j):
            c = _ipair(h, fvecs[k])
            if c:
                f = [x - c * y for x, y in zip(f, evecs[k])]
        fvecs.append(f)

    # swap the halves so that M lands in the f slots; compatibility is
    # symmetric in e and f, and the constructor re-verifies everything
    return CompatibleBasis(
        n,
        tuple(tuple(v) for v in fvecs),
        tuple(tuple(v) for v in evecs),
    )


def choose_sign_vector(rows) -> tuple[int, ...]:
    """Signs zeta in {+1,-1}^n with det(A - diag(zeta)) != 0.

    Inductive choice: extend a valid sign vector one entry at a time, trying
    +1 before -1; one of the two always keeps the leading minor invertible.
    """
    n = len(rows)
    zeta: list[int] = []
    for k in range(n):
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


def select_transversal(basis: CompatibleBasis, subspace) -> tuple[tuple, tuple]:
    """Pick eta_j in {e_j, f_j} with span_R(eta) meeting the subspace only in 0.

    `subspace` is an IsotropicSubspace of dimension n (or raw basis rows; the
    construction only needs the subspace to be a graph over the u-span).
    Returns (eta, swapped) where swapped[j] is True when eta_j = f_j.
    """
    rows = list(subspace.basis) if isinstance(subspace, IsotropicSubspace) else [list(r) for r in subspace]
    n = basis.n
    if len(rows) != n:
        raise ValueError("transversal selection needs dim V = n")
    uvecs = [[a + b for a, b in zip(e, f)] for e, f in zip(basis.e, basis.f)]
    vvecs = [[a - b for a, b in zip(e, f)] for e, f in zip(basis.e, basis.f)]
    coords = smat_mul(rows, smat_inv(uvecs + vvecs))
    ma = [row[:n] for row in coords]
    mb = [row[n:] for row in coords]
    try:
        ma_inv = smat_inv(ma)
    except ValueError:
        raise NotIsotropic(
            "subspace meets the span of the e_j - f_j, so it is not a graph"
        ) from None
    graph_map = smat_mul(ma_inv, mb)
    zeta = choose_sign_vector(graph_map)
    eta = tuple(basis.e[j] if zeta[j] == 1 else basis.f[j] for j in range(n))
    swapped = tuple(z == -1 for z in zeta)
    stack = [list(v) for v in eta] + rows
    assert smat_det(stack), "chosen transversal still meets the subspace"
    return eta, swapped
