"""Error branches of the public API, as tables: each call must raise the
given exception with the given message fragment.

The first table pins the integer boundary: every integer entry point
rejects an entry that is not an integer, where int() alone would truncate
it (1.5 -> 1, 7/2 -> 3, 2.9 -> 2).  The last table holds public behaviour
that no other test reaches: each call returns the given value, or raises
the given exception.
"""

from fractions import Fraction

import pytest

from nctori import (
    Bicharacter,
    CompatibleBasis,
    FgGroup,
    IntLattice,
    InvalidBicharacter,
    IsotropicSubspace,
    NotIsotropic,
    ONNElement,
    Scalar,
    SkewMatrix,
    TraceRange,
    act,
    complete_isotropic_basis,
    compose,
    hnf,
    int_det,
    is_in_onn,
    normalize_cocycle,
    pairing,
    pfaffian,
    pfaffian_from_matchings,
    select_transversal,
    snf,
)
from nctori.exactlin import complete_to_basis, left_kernel, solve_rows

Z3_SQUARED = Bicharacter(FgGroup(0, (3, 3)), [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])

NOT_INTEGRAL = {
    "IntLattice ambient": lambda: IntLattice(2.9),
    "IntLattice rows": lambda: IntLattice(2, [[1.5, 0]]),
    "IntLattice.contains": lambda: IntLattice(2, [[1, 0]]).contains([1.5, 0]),
    "hnf": lambda: hnf([[Fraction(7, 2), 1]]),
    "snf": lambda: snf([[2.9, 0], [0, 1]]),
    "int_det": lambda: int_det([[1.5, 0], [0, 1]]),
    "left_kernel": lambda: left_kernel([[1.5], [3]]),
    "solve_rows": lambda: solve_rows([[1, 0]], [[Fraction(1, 2), 0]]),
    "solve_rows without rows": lambda: solve_rows([], [[0.5]]),
    "complete_to_basis": lambda: complete_to_basis([[1.5, 0]], 2),
    "FgGroup free rank": lambda: FgGroup(1.7),
    "FgGroup torsion": lambda: FgGroup(1, (2.5,)),
    "FgGroup.from_relations": lambda: FgGroup.from_relations(2, [[2.5, 0]]),
    "ONNElement": lambda: ONNElement([[Fraction(3, 2)]], [[0]], [[0]], [[1]]),
    "CompatibleBasis": lambda: CompatibleBasis(1, ((2, 0),), ((0, Fraction(1, 2)),)),
    "Bicharacter.pairing_exponent": lambda: Z3_SQUARED.pairing_exponent([1.5, 0], [0, 1]),
}


@pytest.mark.parametrize("call", NOT_INTEGRAL.values(), ids=NOT_INTEGRAL)
def test_non_integral_entries_rejected(call):
    with pytest.raises(ValueError, match="must be integers, .* is not integral"):
        call()


def test_integral_values_of_other_types_accepted():
    assert IntLattice(2.0, [[Fraction(2), 0.0]]) == IntLattice(2, [[2, 0]])
    assert FgGroup(Fraction(1), (2.0,)) == FgGroup(1, (2,))
    assert hnf([[Fraction(4), 2]]) == ([[4, 2]], [[1]])
    assert int_det([[2.0, 0], [0, Fraction(3)]]) == 6
    assert is_in_onn([[1.5, 0], [0, 1]]) == "no"


E0, F0, F1 = (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

ERRORS = {
    "Scalar without d": (lambda: Scalar(0, 1), ValueError, "without an ambient d"),
    "IntLattice row length": (lambda: IntLattice(2, [[1, 0, 0]]), ValueError, "row of length 3"),
    "IntLattice.contains length": (
        lambda: IntLattice(2).contains([1]), ValueError, "wrong length"
    ),
    "CompatibleBasis count": (
        lambda: CompatibleBasis(2, (E0,), (F0, F1)), ValueError, "n vectors in each half"
    ),
    "CompatibleBasis length": (
        lambda: CompatibleBasis(1, ((1, 0, 0),), ((0, 1, 0),)), ValueError, "length 2n"
    ),
    "IsotropicSubspace dim": (
        lambda: IsotropicSubspace(2, (E0,)), ValueError, "dim does not match"
    ),
    "IsotropicSubspace odd rows": (
        lambda: IsotropicSubspace(1, ((1, 0, 0),)), ValueError, "even length"
    ),
    "IsotropicSubspace dependent": (
        lambda: IsotropicSubspace(2, (E0, (2, 0, 0, 0))), ValueError, "linearly dependent"
    ),
    "complete_isotropic_basis odd": (
        lambda: complete_isotropic_basis(IntLattice(3)), ValueError, "must be even"
    ),
    # raw rows may meet span(e - f); an IsotropicSubspace cannot, as the
    # form is negative definite there
    "select_transversal meets e - f": (
        lambda: select_transversal(CompatibleBasis.standard(1), [[1, -1]]),
        NotIsotropic,
        "not a graph",
    ),
    "pfaffian odd": (lambda: pfaffian(SkewMatrix.zero(3)), ValueError, "even-dimensional"),
    "TraceRange zero": (lambda: TraceRange([0]), ValueError, "nonzero generator"),
    "TraceRange without 1": (lambda: TraceRange([2]), ValueError, "must contain 1"),
    "SkewMatrix not square": (lambda: SkewMatrix([[0, 1]]), ValueError, "must be square"),
    "is_in_onn not square": (
        lambda: is_in_onn([[1, 0, 0], [0, 1, 0]]), ValueError, "must be square"
    ),
    "ONNElement outside O(n,n)": (
        lambda: ONNElement([[2]], [[0]], [[0]], [[1]]), ValueError, "do not satisfy"
    ),
    "ONNElement.from_matrix odd": (
        lambda: ONNElement.from_matrix([[1]]), ValueError, "even dimension"
    ),
    "act dimensions": (
        lambda: act(ONNElement.identity(2), SkewMatrix.zero(3)), ValueError, "dimension mismatch"
    ),
    "compose dimensions": (
        lambda: compose(ONNElement.identity(1), ONNElement.identity(2)),
        ValueError,
        "dimension mismatch",
    ),
    "FgGroup negative rank": (lambda: FgGroup(-1), ValueError, "nonnegative"),
    "Bicharacter shape": (
        lambda: Bicharacter(FgGroup(2), [[0]]), InvalidBicharacter, "must be 2x2"
    ),
    "Bicharacter.pairing_exponent long": (
        lambda: Z3_SQUARED.pairing_exponent([1, 0, 0], [0, 1]), ValueError, "must have length 2"
    ),
    "Bicharacter.pairing_exponent short": (
        lambda: Z3_SQUARED.pairing_exponent([1], [0, 1]), ValueError, "must have length 2"
    ),
    "normalize_cocycle not square": (
        lambda: normalize_cocycle([[0, 1]]), ValueError, "must be square"
    ),
    # integer matrices: ragged rows, a non-square determinant and rows of
    # the wrong width are rejected, not misread
    "int_det not square": (
        lambda: int_det([[1, 2, 3], [4, 5, 6]]), ValueError, "row of length 3, expected 2"
    ),
    "int_det ragged": (lambda: int_det([[1, 2], [3]]), ValueError, "row of length 1, expected 2"),
    "hnf ragged": (lambda: hnf([[1, 2], [3]]), ValueError, "row of length 1, expected 2"),
    "snf ragged": (lambda: snf([[1, 2], [3]]), ValueError, "row of length 1, expected 2"),
    "left_kernel ragged": (lambda: left_kernel([[1], [3, 4]]), ValueError, "row of length 2, expected 1"),
    "solve_rows target length": (
        lambda: solve_rows([[1, 2]], [[1, 2, 0]]), ValueError, "row of length 3, expected 2"
    ),
    "complete_to_basis ambient": (
        lambda: complete_to_basis([[1, 0]], 3), ValueError, "row of length 2, expected 3"
    ),
    "FgGroup.from_relations long row": (
        lambda: FgGroup.from_relations(1, [[0, 1]]), ValueError, "row of length 2, expected 1"
    ),
    "FgGroup.from_relations ragged": (
        lambda: FgGroup.from_relations(2, [[2, 0], [0, 3, 5]]), ValueError, "row of length 3, expected 2"
    ),
}


@pytest.mark.parametrize("call, exc, message", ERRORS.values(), ids=ERRORS)
def test_error_branches(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


RT2 = Scalar.sqrt(2)


def _equal_and_hash_equal(x, y):
    return x == y, hash(x) == hash(y)


BEHAVIOUR = {
    "Scalar.conjugate": (lambda: Scalar(1, 2, 2).conjugate(), Scalar(1, -2, 2)),
    # 1 / (1 + sqrt 2) = sqrt 2 - 1
    "int / Scalar": (lambda: 1 / (1 + RT2), Scalar(-1, 1, 2)),
    "Scalar <=": (lambda: (1 + RT2 <= 3, 3 <= 1 + RT2, RT2 <= RT2), (True, False, True)),
    "Scalar >=": (lambda: (Scalar(Fraction(3, 2)) >= RT2, RT2 >= Fraction(3, 2)), (True, False)),
    "sqrt 2 == sqrt 3": (lambda: RT2 == Scalar.sqrt(3), False),
    "Scalar + str": (lambda: RT2 + "1", TypeError),
    "TraceRange.contains another field": (
        lambda: TraceRange([1, RT2]).contains(Scalar.sqrt(3)), False
    ),
    "TraceRange.contains a non-integral coordinate": (
        lambda: TraceRange([1, RT2]).contains(Fraction(1, 2) + RT2), False
    ),
    "pairing of empty vectors": (lambda: pairing([], []), 0),
    "pfaffian_from_matchings odd n": (
        lambda: pfaffian_from_matchings(SkewMatrix([[0]])), ValueError
    ),
    "hash Scalar": (lambda: _equal_and_hash_equal(Scalar(1, 2, 2), 2 * RT2 + 1), (True, True)),
    "hash IntLattice": (
        lambda: _equal_and_hash_equal(IntLattice(2, [[2, 0], [0, 3]]), IntLattice(2, [[2, 3], [0, 3]])),
        (True, True),
    ),
    "hash TraceRange": (
        lambda: _equal_and_hash_equal(TraceRange([1, RT2]), TraceRange([1 + RT2, 1])), (True, True)
    ),
    "hash SkewMatrix": (
        lambda: _equal_and_hash_equal(
            SkewMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]),
            SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 2)}),
        ),
        (True, True),
    ),
    "hash ONNElement": (
        lambda: _equal_and_hash_equal(ONNElement.identity(1), ONNElement([[1]], [[0]], [[0]], [[1]])),
        (True, True),
    ),
    "hash FgGroup": (
        lambda: _equal_and_hash_equal(
            FgGroup(1, (2, 4)), FgGroup.from_relations(3, [[0, 2, 0], [0, 0, 4]])
        ),
        (True, True),
    ),
}


@pytest.mark.parametrize("call, expected", BEHAVIOUR.values(), ids=BEHAVIOUR)
def test_public_behaviour(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected
