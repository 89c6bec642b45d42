"""Morita invariants of noncommutative tori and the equivalence decision.

The ordered K0 invariant is carried by the *trace range*: the subgroup of R
generated by 1 and the Pfaffians of the even-sized principal submatrices of
theta.  Two algebras are strongly Morita equivalent exactly when those ranges
agree up to a positive factor (plus matching dimension) and the centers have
the same torus dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    IntLattice,
    Scalar,
    _mod_kernel,
    _pack,
)
from .reduction import SkewMatrix, degeneracy_subgroup

DEFAULT_SEARCH_HEIGHT = 20

REASON_RANK = "rank"
REASON_RATIO_FIELD = "ratio-field"
REASON_ORDER = "multiplier-order"
REASON_DIMENSION = "dimension"
REASON_CENTER = "center"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equivalence decision.

    kind is "equivalent" (with a positive witness mu), "not-equivalent"
    (with a machine-checkable reason code and a printable detail), or
    "unknown" (the bounded mu-search was exhausted at `bound`).
    """

    kind: str
    mu: Scalar | None = None
    reason: str | None = None
    detail: str | None = None
    bound: int | None = None

    @classmethod
    def equivalent(cls, mu: Scalar) -> "Verdict":
        mu = Scalar.of(mu)
        assert mu.sign() > 0
        return cls(kind="equivalent", mu=mu)

    @classmethod
    def not_equivalent(cls, reason: str, detail: str) -> "Verdict":
        return cls(kind="not-equivalent", reason=reason, detail=detail)

    @classmethod
    def unknown(cls, bound: int) -> "Verdict":
        return cls(kind="unknown", bound=bound)

    @property
    def is_equivalent(self) -> bool:
        return self.kind == "equivalent"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


# ---------------------------------------------------------------------------
# Pfaffians


def _subset_pfaffians(packed):
    """Pfaffians of every even principal submatrix of the packed
    theta = (A + B sqrt d)/D, as integer pairs; only the upper triangle is
    read, so the lower one may hold anything (a pairing's exponents mod Z).

    A subset S of {0..n-1} is the bitmask with bit i set for i in S; for
    |S| = 2k, pf[mask] = (a, b) with Pf(theta_S) = (a + b sqrt d) / D^k, and
    pf[mask] is None for odd |S|.

    One pass over the masks in increasing order expands each along its
    lowest index i0: Pf(S) = sum over j in S, j > i0, of
    (-1)^(pos(j) - 1) * theta[i0][j] * Pf(S - {i0, j}), with pos(j) the number
    of elements of S below j.  Both smaller masks come earlier, so every
    subset is evaluated once: O(n 2^n) products of integer pairs.
    """
    d, _, num, quad = packed
    n = len(num)
    sq = d or 0  # (sqrt d)^2; every b is 0 when theta is rational
    quad = quad or [[0] * n] * n
    # upper[i]: (bit of j, a, b) for each nonzero entry D*theta[i][j] with j > i
    upper = [
        [(1 << j, x, y) for j, (x, y) in enumerate(zip(ra, rb)) if j > i and (x or y)]
        for i, (ra, rb) in enumerate(zip(num, quad))
    ]
    pf = [None] * (1 << n)
    pf[0] = (1, 0)
    for mask in range(1, len(pf)):
        if mask.bit_count() & 1:
            continue
        low = mask & -mask
        rest = mask ^ low
        a = b = 0
        for bit, x, y in upper[low.bit_length() - 1]:
            if not rest & bit:
                continue
            u, v = pf[rest ^ bit]
            p, q = x * u + sq * y * v, x * v + y * u
            # the sign is + when an even number of elements of S lie
            # strictly between i0 and j
            if (rest & (bit - 1)).bit_count() & 1:
                a, b = a - p, b - q
            else:
                a, b = a + p, b + q
        pf[mask] = (a, b)
    return pf


def pfaffian(skew: SkewMatrix) -> Scalar:
    """Pfaffian: the full-mask entry of the subset recursion
    (:func:`_subset_pfaffians`), so O(n 2^n) work."""
    if skew.n % 2:
        raise ValueError("pfaffian needs an even-dimensional matrix")
    d, D, _, _ = p = skew._packed
    a, b = _subset_pfaffians(p)[-1]
    den = D ** (skew.n // 2)
    return Scalar(Fraction(a, den), Fraction(b, den), d)


def _matchings(elems):
    """Yield (pairs, parity) over all perfect matchings of elems.

    parity is the sign of the permutation obtained by writing the pairs in
    order, i.e. exactly the sign attached to the matching in the Pfaffian.
    """
    if not elems:
        yield (), 1
        return
    first = elems[0]
    for t in range(1, len(elems)):
        partner = elems[t]
        rest = elems[1:t] + elems[t + 1:]
        for pairs, par in _matchings(rest):
            yield ((first, partner),) + pairs, par * (-1) ** (t - 1)


def pfaffian_from_matchings(skew: SkewMatrix) -> Scalar:
    """Pfaffian as the signed sum over perfect matchings (oracle route)."""
    if skew.n % 2:
        raise ValueError("pfaffian needs an even-dimensional matrix")
    total = Scalar(0)
    for pairs, par in _matchings(tuple(range(skew.n))):
        prod = Scalar(1)
        for i, j in pairs:
            prod = prod * skew.rows[i][j]
        total = total + (prod if par > 0 else -prod)
    return total


# ---------------------------------------------------------------------------
# trace ranges


class TraceRange:
    """A finitely generated subgroup of R containing 1, held canonically.

    Elements are (a + b sqrt(d)) / denom with (a, b) running over an integer
    lattice in Z^2; denom is the least common denominator of the generators'
    coordinates over {1, sqrt(d)}, and d is None for a rational range.  The
    representation is unique for the subgroup, so equality of trace ranges
    is representation equality.
    """

    __slots__ = ("d", "denom", "lattice")

    def __init__(self, generators):
        # d is set only by a generator with quad != 0, so d is None exactly
        # when the range is rational.
        d, denom, (num,), quad = _pack([list(generators)])
        self._set(d, denom, list(zip(num, quad[0] if quad else [0] * len(num))))

    @classmethod
    def _from_coords(cls, d, common: int, coords) -> "TraceRange":
        """The range generated by the (a + b sqrt d) / common over (a, b) in
        coords; common may be any common denominator, not only the least."""
        self = cls.__new__(cls)
        self._set(d, common, coords)
        return self

    def _set(self, d, common: int, coords) -> None:
        # After dividing common and every coordinate by their gcd g, each
        # prime p | denom misses some coordinate, whose fraction keeps all of
        # p's power in denom: denom is the least common denominator.
        g = math.gcd(common, *(x for pair in coords for x in pair))
        self.d = d
        self.denom = common // g
        self.lattice = IntLattice(2, [(a // g, b // g) for a, b in coords])
        if not self.lattice.rank:
            raise ValueError("a trace range needs a nonzero generator")
        if not self.lattice.contains((self.denom, 0)):
            raise ValueError("a trace range must contain 1")

    @property
    def basis(self) -> tuple[Scalar, ...]:
        return tuple(
            Scalar(Fraction(a, self.denom), Fraction(b, self.denom), self.d if b else None)
            for a, b in self.lattice.basis
        )

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def contains(self, x) -> bool:
        x = Scalar.of(x)
        if x.quad and x.d != self.d:
            return False
        ca, cb = x.rat * self.denom, x.quad * self.denom
        if ca.denominator != 1 or cb.denominator != 1:
            return False
        return self.lattice.contains([ca.numerator, cb.numerator])

    def scaled_equals(self, mu, other: "TraceRange") -> bool:
        """Exact test of mu * self == other as subgroups of R (mu != 0)."""
        mu = Scalar.of(mu)
        return all(other.contains(mu * b) for b in self.basis) and all(
            self.contains(b / mu) for b in other.basis
        )

    def covolume(self) -> Fraction:
        """Covolume of the coordinate lattice (rank-2 ranges only)."""
        assert self.rank == 2
        rows = self.lattice.basis
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        return Fraction(abs(det), self.denom * self.denom)

    def _key(self):
        return (self.d, self.denom, self.lattice)

    def __eq__(self, other):
        return isinstance(other, TraceRange) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"TraceRange({[str(b) for b in self.basis]})"


def trace_range(theta: SkewMatrix) -> TraceRange:
    """Subgroup of R generated by 1 and the Pfaffians of the even-sized
    principal submatrices of theta (the image of K0 under the trace).

    The Pfaffians come from one subset recursion over bitmasks
    (:func:`_subset_pfaffians`, O(n 2^n) integer-pair products); a 2k-subset
    enters over the common denominator D^K, K = n // 2, as (a, b) * D^(K-k).
    """
    return _trace_range(theta._packed)


def _trace_range(p) -> TraceRange:
    """:func:`trace_range` of the packed theta = (A + B sqrt d)/D, upper triangle only."""
    d, D, num, _ = p
    pf = _subset_pfaffians(p)
    half = len(num) // 2
    lift = [D ** (half - k) for k in range(half + 1)]
    coords = []
    for mask, pair in enumerate(pf):
        if pair is not None and any(pair):
            scale = lift[mask.bit_count() // 2]
            coords.append((pair[0] * scale, pair[1] * scale))
    return TraceRange._from_coords(d, D ** half, coords)


# ---------------------------------------------------------------------------
# equality up to a positive factor


def _transporter_basis(l1: TraceRange, l2: TraceRange):
    """Reduced Z-basis of {x : x * L1 <= L2} as (D, t1, t2), each t = (p, q)
    standing for x = (p + q sqrt d) / D.

    1 lies in L1, so every such x lies in L2 and D = l2.denom serves.  With
    H2 = [[h00, h01], [0, h11]] the Hermite basis of L2's lattice, x times
    (a + b sqrt d) / den1 lies in L2 exactly when
    (p a + d q b, p b + q a) @ adj(H2) = 0 mod den1 det H2: one modular
    kernel over the rows (a, b) of L1's lattice.  Gauss-Lagrange reduction
    under p^2 + d q^2 then gives small multipliers small coordinates."""
    d = l1.d
    (h00, h01), (_, h11) = l2.lattice.basis
    nmat = [[], []]
    for a, b in l1.lattice.basis:
        nmat[0] += (a * h11, b * h00 - a * h01)
        nmat[1] += (d * b * h11, a * h00 - d * b * h01)
    basis = IntLattice(2, _mod_kernel(nmat, l1.denom * h00 * h11, 4)).basis
    assert len(basis) == 2, "the transporter of two full lattices has rank 2"
    (p1, q1), (p2, q2) = basis
    while True:
        if p1 * p1 + d * q1 * q1 > p2 * p2 + d * q2 * q2:
            p1, q1, p2, q2 = p2, q2, p1, q1
        n = p1 * p1 + d * q1 * q1
        m = (2 * (p1 * p2 + d * q1 * q2) + n) // (2 * n)
        if m == 0:
            return l2.denom, (p1, q1), (p2, q2)
        p2, q2 = p2 - m * p1, q2 - m * q1


def _multiplier_order(l: TraceRange) -> TraceRange:
    """{x : x * L <= L}, an order in Q(sqrt d) (so it contains 1); it is
    invariant under scaling L, so differing orders rule out any mu."""
    D, t1, t2 = _transporter_basis(l, l)
    return TraceRange._from_coords(l.d, D, [t1, t2])


def _scaling_search(l1: TraceRange, l2: TraceRange, height: int) -> Scalar | None:
    """Search mu with mu * L1 = L2 among transporter elements of coordinate
    height <= height; complete up to that height because every valid mu
    lies in the transporter lattice.

    With t1, t2 = (p1 + q1 sqrt d) / D, (p2 + q2 sqrt d) / D, the candidate
    a t1 + b t2 is (x + y sqrt d) / D and its norm the integer form
    (x^2 - d y^2) / D^2, so only a candidate of norm +-ratio becomes a
    Scalar and is confirmed by exact lattice equality."""
    d = l1.d
    D, (p1, q1), (p2, q2) = _transporter_basis(l1, l2)
    ratio = l2.covolume() / l1.covolume()
    den, target = ratio.denominator, ratio.numerator * D * D
    for h in range(1, height + 1):
        # the ring max(|a|, |b|) = h, in the order of the full square
        for a in range(-h, h + 1):
            for b in range(-h, h + 1) if abs(a) == h else (-h, h):
                x, y = a * p1 + b * p2, a * q1 + b * q2
                # t1, t2 are a basis, so x + y sqrt d != 0 here
                if abs(x * x - d * y * y) * den != target:
                    continue
                mu = abs(Scalar._over(x, y, D, d))
                if l1.scaled_equals(mu, l2):
                    return mu
    return None


def range_equal_up_to_scaling(
    l1: TraceRange, l2: TraceRange, height: int = DEFAULT_SEARCH_HEIGHT
) -> Verdict:
    """Decide whether L2 = mu * L1 for some real mu > 0.

    Ladder: rank comparison; rank-1 generator ratio; ratio-field comparison;
    exact equality (mu = 1), before the orders because equal ranges have
    equal orders; multiplier-order comparison; bounded transporter search;
    otherwise Unknown with the exhausted height.
    """
    if l1.rank != l2.rank:
        return Verdict.not_equivalent(
            REASON_RANK, f"trace-range-rank {l1.rank} vs {l2.rank}"
        )
    if l1.rank == 1:
        g1 = l1.basis[0]
        g2 = l2.basis[0]
        return Verdict.equivalent(abs(g2 / g1))
    if l1.d != l2.d:
        return Verdict.not_equivalent(
            REASON_RATIO_FIELD, f"ratio-field sqrt({l1.d}) vs sqrt({l2.d})"
        )
    if l1 == l2:
        return Verdict.equivalent(Scalar(1))
    if _multiplier_order(l1) != _multiplier_order(l2):
        return Verdict.not_equivalent(
            REASON_ORDER, "multiplier-order mismatch"
        )
    mu = _scaling_search(l1, l2, height)
    if mu is not None:
        return Verdict.equivalent(mu)
    return Verdict.unknown(height)


# ---------------------------------------------------------------------------
# the decision procedure


def k_group_ranks(theta: SkewMatrix) -> tuple[int, int]:
    """Ranks of (K0, K1): (2^{n-1}, 2^{n-1}) for n > 0, (1, 0) for n = 0."""
    if theta.n == 0:
        return (1, 0)
    r = 2 ** (theta.n - 1)
    return (r, r)


def ordered_k0_isomorphic(
    theta1: SkewMatrix, theta2: SkewMatrix, height: int = DEFAULT_SEARCH_HEIGHT
) -> Verdict:
    """Ordered-K0 isomorphism: trace ranges agree up to a positive factor and
    the dimensions are equal (or one algebra is C and the other C(T)).

    The dimension test is decisive, so it runs before the range search and
    Unknown can only arise from the search itself.
    """
    n1, n2 = theta1.n, theta2.n
    if not (n1 == n2 or n1 + n2 == 1):
        r1, _ = k_group_ranks(theta1)
        r2, _ = k_group_ranks(theta2)
        return Verdict.not_equivalent(REASON_DIMENSION, f"k0-rank {r1} vs {r2}")
    return range_equal_up_to_scaling(trace_range(theta1), trace_range(theta2), height)


def morita_equivalent(
    theta1: SkewMatrix, theta2: SkewMatrix, height: int = DEFAULT_SEARCH_HEIGHT
) -> Verdict:
    """Strong Morita equivalence: isomorphic ordered K0 and equal center
    dimension (the rank of the degeneracy subgroup)."""
    c1 = degeneracy_subgroup(theta1).rank
    c2 = degeneracy_subgroup(theta2).rank
    if c1 != c2:
        return Verdict.not_equivalent(REASON_CENTER, f"center-rank {c1} vs {c2}")
    return ordered_k0_isomorphic(theta1, theta2, height)
