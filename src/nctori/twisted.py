"""Twisted group algebras of finitely generated abelian groups.

A group is presented by its free rank r and a divisor chain of torsion
orders; a skew-symmetric bicharacter is an exponent matrix E over the
generators, pairing(g, h) = e(g @ E @ h^t) on exponent vectors.  Each
Bicharacter computes its pairing-kernel lattice once, at construction; from
it come the center, the simple quotient, the trace range (through
matrix-algebra splitting of the torsion) and the equivalence decision.
"""

from __future__ import annotations

import math

from .exactlin import (
    IntLattice,
    Scalar,
    _mod_kernel,
    _pack,
    _pmul,
    _unpack,
    int_inverse_unimodular,
    int_row,
    integral_solution_lattice,
    mat_identity,
    mat_mul,
    mat_transpose,
    snf,
    solve_rows,
)
from .invariants import (
    DEFAULT_SEARCH_HEIGHT,
    REASON_CENTER,
    REASON_DIMENSION,
    TraceRange,
    Verdict,
    range_equal_up_to_scaling,
    trace_range,
)
from .reduction import SkewMatrix


class InvalidBicharacter(ValueError):
    """Exponent matrix violates a bicharacter constraint."""


class FgGroup:
    """A finitely generated abelian group Z^r + Z/m_1 + ... + Z/m_s.

    Generators are indexed 0..r-1 (free) then r..r+s-1 (torsion); torsion
    orders form a divisor chain m_1 | m_2 | ... with every m_i >= 2.
    """

    __slots__ = ("free_rank", "torsion_orders")

    def __init__(self, free_rank: int, torsion_orders=()):
        free_rank, *torsion_orders = int_row([free_rank, *torsion_orders])
        torsion_orders = tuple(torsion_orders)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for m in torsion_orders:
            if m < 2:
                raise ValueError("torsion orders must be >= 2")
        for a, b in zip(torsion_orders, torsion_orders[1:]):
            if b % a:
                raise ValueError(
                    f"torsion orders must form a divisor chain, got {torsion_orders}"
                )
        self.free_rank = free_rank
        self.torsion_orders = torsion_orders

    @classmethod
    def from_relations(cls, num_generators: int, relation_rows) -> "FgGroup":
        """Quotient of Z^num_generators by the row span of the relations."""
        rows = [int_row(r) for r in relation_rows]
        s, _, _ = snf(rows)
        divisors = [
            s[i][i]
            for i in range(min(len(rows), num_generators))
            if s[i][i] != 0
        ]
        torsion = [d for d in divisors if d > 1]
        return cls(num_generators - len(divisors), torsion)

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    @property
    def torsion_size(self) -> int:
        return math.prod(self.torsion_orders)

    def generator_orders(self) -> tuple[int, ...]:
        """Order of each generator, 0 meaning infinite."""
        return (0,) * self.free_rank + self.torsion_orders

    def relation_rows(self) -> list[list[int]]:
        n = self.ngens
        r = self.free_rank
        return [
            [m if j == r + i else 0 for j in range(n)]
            for i, m in enumerate(self.torsion_orders)
        ]

    def __eq__(self, other):
        return isinstance(other, FgGroup) and (
            (self.free_rank, self.torsion_orders)
            == (other.free_rank, other.torsion_orders)
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion_orders))

    def __repr__(self):
        return f"FgGroup(free={self.free_rank}, torsion={list(self.torsion_orders)})"


class Bicharacter:
    """A skew-symmetric bicharacter via its exponent matrix on generators.

    The checks run on the packed matrix (A + B sqrt d)/den of
    :func:`~nctori.exactlin._pack`: c times an entry is an integer exactly
    when its B part is 0 and den divides c times its A part.  ``kernel`` is
    the pairing-kernel lattice {x in Z^N : x @ E integral}, computed once.
    """

    __slots__ = ("group", "exponents", "kernel")

    def __init__(self, group: FgGroup, rows):
        n = group.ngens
        rows = tuple(tuple(Scalar.of(x) for x in r) for r in rows)
        _, den, a, b = _pack(rows)
        b = b or [[0] * len(r) for r in a]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidBicharacter(f"exponent matrix must be {n}x{n}")
        for i in range(n):
            if a[i][i] % den or b[i][i]:
                raise InvalidBicharacter("diagonal exponents must be integers")
            for j in range(i + 1, n):
                if (a[i][j] + a[j][i]) % den or b[i][j] + b[j][i]:
                    raise InvalidBicharacter(
                        "matrix must be skew-symmetric modulo Z"
                    )
        orders = group.generator_orders()
        for i, m in enumerate(orders):
            if not m:
                continue
            for j in range(n):
                for x, y in ((a[i][j], b[i][j]), (a[j][i], b[j][i])):
                    if m * x % den or y:
                        raise InvalidBicharacter(
                            f"order-{m} generator {i} pairs by a non m-th root"
                        )
        self.group = group
        self.exponents = rows
        self.kernel = integral_solution_lattice(rows)

    @classmethod
    def from_skew(cls, theta: SkewMatrix) -> "Bicharacter":
        """The bicharacter of a noncommutative torus on Z^n."""
        return cls(FgGroup(theta.n), [list(r) for r in theta.rows])

    def pairing_exponent(self, x, y) -> Scalar:
        """g @ E @ h^t for exponent vectors, one packed product; defined
        modulo Z."""
        if not x or not y:
            return Scalar(0)
        gram = _pmul(_pmul(_pack([x]), _pack(self.exponents)), _pack([[v] for v in y]))
        return _unpack(*gram)[0][0]

    def __repr__(self):
        return f"Bicharacter({self.group!r})"


def normalize_cocycle(rows) -> SkewMatrix:
    """Skew-symmetrization Theta - Theta^t of a cocycle exponent matrix on Z^n."""
    mat = [[Scalar.of(x) for x in r] for r in rows]
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("cocycle exponent matrix must be square")
    return SkewMatrix(
        [[mat[i][j] - mat[j][i] for j in range(n)] for i in range(n)]
    )


def hsigma(sigma: Bicharacter) -> tuple[int, tuple[int, ...]]:
    """Structure (rank, torsion orders) of the kernel of the pairing.

    The kernel is the image in G of the lattice {x : x @ E integral}; its
    rank is the center's torus dimension and its torsion size the number of
    connected components of the center's spectrum.
    """
    lat, rel = sigma.kernel, sigma.group.relation_rows()
    if lat.rank == 0 or not rel:
        return (lat.rank, ())
    # the Bicharacter check puts each relation m e_i in the kernel
    coords = solve_rows([list(b) for b in lat.basis], rel)
    assert None not in coords, "relations must lie inside the kernel"
    h = FgGroup.from_relations(lat.rank, coords)
    assert h.free_rank == lat.rank - len(coords), "relation rows are independent"
    return (h.free_rank, h.torsion_orders)


def k_group_ranks_tga(sigma: Bicharacter) -> tuple[int, int]:
    """Ranks of (K0, K1) of the twisted algebra: |tor| * 2^{rank-1} twice for
    positive rank, else (|tor|, 0)."""
    _, torsion = hsigma(sigma)
    tor = math.prod(torsion)
    r = sigma.group.free_rank
    if r == 0:
        return (tor, 0)
    return (tor * 2 ** (r - 1), tor * 2 ** (r - 1))


def _present_quotient(sigma: Bicharacter, carrier_rows, relation_rows) -> Bicharacter:
    """Bicharacter induced on carrier/relations.

    carrier_rows is a basis of a sublattice K of Z^N, relation_rows a family
    of rows inside K; the quotient K / span(relations) is re-presented with
    free generators first, then a torsion divisor chain, and the exponent
    matrix is restricted along the chosen generator lifts: one packed
    product lifts @ E @ lifts^t, each rational part pulled into [0, 1)
    since exponents only matter mod Z.
    """
    ell = len(carrier_rows)
    coords = solve_rows(carrier_rows, relation_rows)
    assert None not in coords, "relations must lie inside the carrier"
    if coords:
        s, _, v = snf(coords)
        orders = [
            s[i][i] if i < min(len(coords), ell) else 0 for i in range(ell)
        ]
        lifts_w = int_inverse_unimodular(v)
    else:
        orders = [0] * ell
        lifts_w = mat_identity(ell)
    lift_rows = mat_mul(lifts_w, carrier_rows)

    free_idx = [i for i in range(ell) if orders[i] == 0]
    tors_idx = [i for i in range(ell) if orders[i] >= 2]
    lifts = [lift_rows[i] for i in free_idx + tors_idx]
    group = FgGroup(len(free_idx), tuple(orders[i] for i in tors_idx))
    lifted = _pmul((None, 1, lifts, None), _pack(sigma.exponents))
    induced = _unpack(*_pmul(lifted, (None, 1, mat_transpose(lifts), None)))
    return Bicharacter(group, [[Scalar(v.rat % 1, v.quad, v.d) for v in r] for r in induced])


def simple_quotient(sigma: Bicharacter) -> Bicharacter:
    """The bicharacter induced on G / ker(pairing); always nondegenerate."""
    n = sigma.group.ngens
    out = _present_quotient(
        sigma, mat_identity(n), [list(b) for b in sigma.kernel.basis]
    )
    assert hsigma(out) == (0, ()), "quotient pairing must be nondegenerate"
    return out


def _split_top_torsion(sigma: Bicharacter) -> tuple[Bicharacter, int]:
    """One matrix-algebra splitting step for a nondegenerate pairing.

    Take the torsion generator t of largest order m and its character
    chi_t = pairing(t, .), with values in the m-th roots of unity.  Its image
    is all of them: if it had order m' < m, then m' t would pair trivially
    with everything, contradicting nondegeneracy; this is the gcd criterion
    below.  Compressing by a spectral projection of u_t turns the algebra
    into M_m of the twisted algebra of K/<t>, K = ker chi_t, and that
    pairing is again nondegenerate: if x in K pairs trivially with K, then
    chi_x factors through G/K = Z/m, so chi_x = chi_t^k for some k,
    x - k t lies in the kernel of the pairing on G, and x = k t.
    Returns (smaller bicharacter, m).
    """
    group = sigma.group
    n = group.ngens
    t = n - 1
    m = group.torsion_orders[-1]
    # chi_t(e_i) = e(j_i / m): j_i from the packed row t, whose sqrt part
    # vanishes on a torsion row
    d, den, (top,), _ = _pack([sigma.exponents[t]])
    assert d is None and all(m * x % den == 0 for x in top)
    jvals = [m * x // den % m for x in top]
    assert math.gcd(*jvals, m) == 1, "a nondegenerate pairing has a partner for t"
    kernel = IntLattice(n, _mod_kernel([[j] for j in jvals], m, 1))
    relations = group.relation_rows()
    relations.append([1 if i == t else 0 for i in range(n)])
    out = _present_quotient(sigma, [list(b) for b in kernel.basis], relations)
    assert hsigma(out) == (0, ()), "splitting keeps the pairing nondegenerate"
    return out, m


def _skew_from_exponents(sigma: Bicharacter) -> SkewMatrix:
    """Skew representative of a pairing on a free group (same values mod Z)."""
    e = sigma.exponents
    n = len(e)
    rows = [
        [
            e[i][j] if i < j else (-e[j][i] if i > j else Scalar(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SkewMatrix(rows)


def trace_range_tga(sigma: Bicharacter) -> TraceRange:
    """Common image of K0 under the extremal traces.

    Pipeline: pass to the simple quotient; split torsion generators off one
    at a time, each contributing a matrix-algebra factor that scales the
    range by 1/m; read the torsion-free remainder as a torus.
    """
    current = simple_quotient(sigma)
    multiplier = 1
    while current.group.torsion_orders:
        current, m = _split_top_torsion(current)
        multiplier *= m
    base = trace_range(_skew_from_exponents(current))
    return TraceRange._from_coords(base.d, base.denom * multiplier, base.lattice.basis)


def morita_equivalent_tga(
    sigma1: Bicharacter, sigma2: Bicharacter, height: int = DEFAULT_SEARCH_HEIGHT
) -> Verdict:
    """Strong Morita equivalence of two twisted group algebras.

    Requires equal centers (rank and torsion size of the pairing kernel, whose
    lattice each Bicharacter computed once, at construction), compatible
    group ranks, and trace ranges agreeing up to a positive factor; Unknown
    propagates from the bounded search.
    """
    r1, tor1 = hsigma(sigma1)
    r2, tor2 = hsigma(sigma2)
    size1, size2 = math.prod(tor1), math.prod(tor2)
    if r1 != r2:
        return Verdict.not_equivalent(REASON_CENTER, f"center-rank {r1} vs {r2}")
    if size1 != size2:
        return Verdict.not_equivalent(
            REASON_CENTER, f"center-torsion {size1} vs {size2}"
        )
    g1, g2 = sigma1.group.free_rank, sigma2.group.free_rank
    if not (g1 == g2 or g1 + g2 == 1):
        return Verdict.not_equivalent(REASON_DIMENSION, f"group-rank {g1} vs {g2}")
    return range_equal_up_to_scaling(
        trace_range_tga(sigma1), trace_range_tga(sigma2), height
    )
