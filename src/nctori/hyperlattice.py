"""The hyperbolic bilinear form on Z^{2n} and its constructive basis tools.

The form is <x, y> = sum_j (x_j y_{n+j} + x_{n+j} y_j).  A basis
e_1..e_n, f_1..f_n of Z^{2n} is *compatible* with it when both halves are
isotropic and <e_i, f_j> = delta_ij.

With J = [[0, I], [I, 0]] the form's matrix, compatibility of the rows
B = [e; f] reads B J B^t = J, so B^-1 = J B^t J: a transpose and two block
swaps, no elimination.  :func:`select_transversal` inverts [e + f; e - f]
this way, and ``reduction.canonical_form`` reads g and the graph's
coordinates in the final basis from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    IntLattice,
    Scalar,
    _bareiss_step,
    _is_summand,
    _pack,
    _pdet,
    _pmul,
    _prank,
    _psolve,
    complete_to_basis,
    int_row,
    left_kernel,
    mat_copy,
    mat_identity,
    mat_mul,
    mat_transpose,
    saturate,
    smat_mul,
    solve_rows,
)


class NotIsotropic(ValueError):
    """A lattice or subspace required to be isotropic is not."""


class NotSaturated(ValueError):
    """A lattice required to be a direct summand of Z^{2n} is not."""


def pairing(x, y) -> Scalar:
    """The hyperbolic form of two vectors of equal even length: x times the
    half-swapped y, one packed product."""
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("pairing needs two vectors of one even length")
    if not x:
        return Scalar(0)
    n = len(x) // 2
    return smat_mul([x], [[v] for v in (*y[n:], *y[:n])])[0][0]


@dataclass(frozen=True)
class CompatibleBasis:
    """A basis of Z^{2n} compatible with the hyperbolic form."""

    n: int
    e: tuple
    f: tuple

    def __post_init__(self):
        n = self.n
        vecs = [int_row(v) for v in (*self.e, *self.f)]
        if len(self.e) != n or len(self.f) != n:
            raise ValueError("need n vectors in each half")
        for v in vecs:
            if len(v) != 2 * n:
                raise ValueError("basis vectors must have length 2n")
        # all pairings at once, B J B^t for B = [e; f]; = J forces det B = +-1
        gram = mat_mul(vecs, mat_transpose([v[n:] + v[:n] for v in vecs]))
        for i in range(n):
            for j in range(n):
                if gram[i][j] or gram[n + i][n + j]:
                    raise NotIsotropic("basis halves must be isotropic")
                if gram[i][n + j] != (1 if i == j else 0):
                    raise ValueError("<e_i, f_j> must be delta_ij")

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
        if any(len(r) % 2 or len(r) != len(rows[0]) for r in rows):
            raise ValueError("pairing needs two vectors of one even length")
        _check_isotropic(_pack(rows))


def _check_isotropic(p, what: str = "subspace") -> None:
    """The checks of :class:`IsotropicSubspace` on packed rows: all pairings
    at once, the rows times their half-swapped transpose, then the rank: full
    row rank mod q (:func:`_mod_q`), else the exact ``_prank``."""
    d, den, a, b = p
    h = len(a[0]) // 2 if a else 0
    swapped = [m and mat_transpose([r[h:] + r[:h] for r in m]) for m in (a, b)]
    gram = _pmul(p, (d, den, *swapped))
    if gram[3] is not None or any(map(any, gram[2])):
        raise NotIsotropic(f"{what} is not isotropic")
    if _mod_q(p)[0] < len(a) and _prank(p) < len(a):
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
    r = lat.rank
    if not _is_summand(lat.basis):
        raise NotSaturated("lattice is not a direct summand of Z^{2n}")
    rows_m = [list(r) for r in lat.basis]
    _check_isotropic((None, 1, rows_m, None), "lattice")

    # W = {(0|w) : <(0|w), M> = 0}; the pairing only sees first halves of M
    wker = left_kernel([[row[j] for row in rows_m] for j in range(n)])
    wrows = [[0] * n + list(w) for w in wker]
    big = saturate(IntLattice(N, rows_m + wrows))
    assert big.rank == n, "M + W must saturate to rank n"

    # re-order the summand's basis so that M's rows come first
    coords = solve_rows([list(b) for b in big.basis], rows_m)
    assert None not in coords
    change = complete_to_basis(coords, n)
    evecs = mat_mul(change, [list(b) for b in big.basis])
    _check_isotropic((None, 1, evecs, None))

    # dual-basis preimages: <h_j, e_i> = delta_ij
    apair = mat_transpose([row[n:] + row[:n] for row in evecs])
    hvecs = solve_rows(apair, mat_identity(n))
    assert None not in hvecs, "dual basis must be attainable (summand saturated)"
    # <h_j, f_k> = <h_j, h_k> for k < j, as <h_j, e_k> = 0: every
    # coefficient of the correction comes from one Gram product of the h_j
    gram = mat_mul(hvecs, mat_transpose([h[n:] + h[:n] for h in hvecs]))
    assert all(gram[j][j] % 2 == 0 for j in range(n))
    coef = [[*g[:j], g[j] // 2] + [0] * (n - j - 1) for j, g in enumerate(gram)]
    fvecs = [[x - y for x, y in zip(h, c)] for h, c in zip(hvecs, mat_mul(coef, evecs))]

    # swap the halves so that M lands in the f slots; compatibility is
    # symmetric in e and f, and the constructor re-verifies everything
    return CompatibleBasis(
        n,
        tuple(tuple(v) for v in fvecs),
        tuple(tuple(v) for v in evecs),
    )


# primes q = 3 mod 4 below 2^61; the tests check each by deterministic Miller-Rabin
_PRIMES = (2**61 - 1, 2**61 - 45, 2**61 - 229, 2**61 - 465, 2**61 - 829, 2**61 - 985)


def _mod_q(p, shift: int | None = None, jordan: bool = False):
    """One elimination of N - shift I mod q, N = A + B sqrt d the numerator of
    the packed p and q the first table prime where r = d^((q+1)/4) squares to
    d (q = 3 mod 4).  sqrt d -> r is a ring map Z[sqrt d] -> F_q, so what is
    nonzero mod q is nonzero exactly (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 5).  Returns (rank, det, rows): the pivots found (with a
    shift, without row swaps, up to the first zero on the diagonal), their
    signed product as a residue in (-q/2, q/2), and N mod q eliminated; with
    jordan the square [F | E] ends as [I | F^-1 E].  (0, 0, None) when no prime fits."""
    d, _, a, b = p
    q = next((q for q in _PRIMES if d is None or pow(d, (q + 1) // 2, q) == d % q), None)
    if q is None:
        return 0, 0, None
    r = 0 if b is None else pow(d, (q + 1) // 4, q)
    if r:
        m = [[(x + r * y) % q for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    else:
        m = [[x % q for x in row] for row in a]
    for k in range(len(m) if shift else 0):
        m[k][k] = (m[k][k] - shift) % q
    rank, det = 0, 1
    for col in range(len(m) if jordan else len(a[0]) if a else 0):
        if rank == len(m):
            break
        piv = next((i for i in (range(rank, len(m)) if shift is None else (rank,)) if m[i][col]), None)
        if piv is None:
            if shift is None:
                continue
            break
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][col] % q
        inv = pow(m[rank][col], -1, q)
        if jordan:
            m[rank][col:] = [x * inv % q for x in m[rank][col:]]
            inv = 1
        y = m[rank][col:]
        for i in range(len(m)) if jordan else range(rank + 1, len(m)):
            f = m[i][col] * inv % q
            if f and i != rank:
                m[i][col:] = [(x - f * z) % q for x, z in zip(m[i][col:], y)]
        rank += 1
    return rank, det - q if det > q // 2 else det, m


def choose_sign_vector(rows) -> tuple[int, ...]:
    """Signs zeta in {+1,-1}^n with det(A - diag(zeta)) != 0."""
    return _sign_vector(_pack(rows))


def _sign_vector(p) -> tuple[int, ...]:
    """:func:`choose_sign_vector` on a packed A = N/den.  zeta = (1, ..., 1) when
    :func:`_mod_q` certifies every leading minor of N - den I nonzero;
    otherwise :func:`_exact_sign_vector` decides."""
    if _mod_q(p, shift=p[1])[0] == len(p[2]):
        return (1,) * len(p[2])
    return _exact_sign_vector(p)


def _exact_sign_vector(p) -> tuple[int, ...]:
    """One Bareiss pass over N - den diag(zeta) without row swaps.  Its k-th
    pivot, the k-th leading minor, is linear in zeta_k with slope -den times
    the previous pivot, so zeta_k = +1 unless that pivot vanishes, and then
    -1 cannot vanish."""
    d, den, a, b = p
    a, b = mat_copy(a), b and mat_copy(b)
    zeta = []
    u, v = 1, 0
    for k in range(len(a)):
        z = 1 if a[k][k] != den * u or (b is not None and b[k][k] != den * v) else -1
        a[k][k] -= z * den * u
        if b is not None:
            b[k][k] -= z * den * v
        zeta.append(z)
        u, v = _bareiss_step(d, a, b, k, k, range(k + 1, len(a)), u, v)
    return tuple(zeta)


def select_transversal(basis: CompatibleBasis, subspace) -> tuple[tuple, tuple]:
    """Pick eta_j in {e_j, f_j} with span_R(eta) meeting the subspace only in 0.

    `subspace` is an IsotropicSubspace of dimension n (or raw basis rows; the
    construction only needs the subspace to be a graph over the u-span).
    Returns (eta, swapped) where swapped[j] is True when eta_j = f_j.
    """
    rows = list(subspace.basis) if isinstance(subspace, IsotropicSubspace) else [list(r) for r in subspace]
    return _transversal(basis, _pack(rows))


def _transversal(basis: CompatibleBasis, p) -> tuple[tuple, tuple]:
    """:func:`select_transversal` on the packed rows of the subspace.  Mod q
    (:func:`_mod_q`): zeta = (1, ..., 1) when F is invertible and every leading
    minor of the graph map F^-1 E minus I is nonzero, else the exact
    :func:`_psolve` and :func:`_sign_vector` decide; the closing determinant,
    else :func:`_pdet`."""
    d, den, a, b = p
    n = basis.n
    if len(a) != n:
        raise ValueError("transversal selection needs dim V = n")
    # coordinates [M_a | M_b] in the basis u_j = e_j + f_j, v_j = e_j - f_j;
    # [u; v] = K [e; f], K = [[I, I], [I, -I]] = 2 K^-1, has inverse J [e; f]^t J K / 2
    uv = [[x + s * y for x, y in zip(e, f)] for s in (1, -1) for e, f in zip(basis.e, basis.f)]
    inv = mat_transpose([r[n:] + r[:n] for r in uv[:n]] + [[-x for x in r[n:] + r[:n]] for r in uv[n:]])
    coords = _pmul(p, (None, 2, inv, None))
    rank, _, fe = _mod_q(coords, jordan=True)
    if rank == n and _mod_q((coords[0], 1, [r[n:] for r in fe], None), shift=1)[0] == n:
        zeta = (1,) * n
    else:
        try:
            graph_map = _psolve(coords)
        except ValueError:
            raise NotIsotropic(
                "subspace meets the span of the e_j - f_j, so it is not a graph"
            ) from None
        zeta = _sign_vector(graph_map)
    eta = tuple(basis.e[j] if zeta[j] == 1 else basis.f[j] for j in range(n))
    swapped = tuple(z == -1 for z in zeta)
    stack = d, den, [[den * x for x in v] for v in eta] + a, b and [[0] * (2 * n) for _ in eta] + b
    assert _mod_q(stack)[0] == 2 * n or any(_pdet(stack)), (
        "chosen transversal still meets the subspace"
    )
    return eta, swapped
