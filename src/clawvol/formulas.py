"""Closed-form degree and cut-piece volume formulas, in exact arithmetic.

Quantities that are integers by construction are computed as ``int``:
the Z2xZ2 alternating sum (one running product, no ``Fraction``) and the
quotient (2n)!/2^n in the Z3 degree and Z3 assembly, which
``pow2_quotient`` takes by a shift after checking that the low bits are
zero.  Only the remaining small denominators reach ``fractions.Fraction``.
``degree`` checks that each degree formula comes out integral and raises
``FormulaError`` otherwise, so a transcription slip surfaces as a loud
error instead of a wrong table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .clawpoly import _check_n
from .groups import Group, Z2, Z3

Z2_CUT = "Z2Cut"
Z22_ONE_FACET = "Z22OneFacet"
Z22_TWO_FACET = "Z22TwoFacet"
Z22_THREE_FACET = "Z22ThreeFacet"
Z3_ONE_FACET = "Z3OneFacet"
Z3_TWO_FACET = "Z3TwoFacet"


class FormulaError(Exception):
    """A formula produced a non-integral value where an integer is required."""


def pow2_quotient(value: int, k: int) -> int:
    """value / 2^k, which must be exact: a nonzero remainder raises."""
    if value & ((1 << k) - 1):
        raise FormulaError(f"division by 2^{k} is not exact")
    return value >> k


def _alternating_factorial_sum(n: int) -> int:
    """sum over i of (-2)^i * C(n, i) * (3n)! / (2n+i)!.

    Each term is an integer, since (3n)!/(2n+i)! is the falling product
    (2n+i+1)...(3n).  Nested in Horner form,
    c_0 (2n+1)...(3n) + c_1 (2n+2)...(3n) + ... + c_n with
    c_i = (-2)^i C(n, i), the sum is one running product: multiply by
    2n+i, then add c_i, for i = 1..n.  C(n, i) steps along as a running
    integer too.
    """
    total = 1
    binom = 1
    for i in range(1, n + 1):
        binom = binom * (n - i + 1) // i
        total = total * (2 * n + i) + (-binom << i if i & 1 else binom << i)
    return total


def degree_rational(group: Group, n: int) -> Fraction:
    """The degree formula before the integrality check."""
    _check_n(n)
    if group is Z2:
        return Fraction(factorial(n), 2) - Fraction(2) ** (n - 2)
    if group is Z3:
        return (Fraction(pow2_quotient(factorial(2 * n), n), 3)
                - 2 ** (n + 1) * 3 ** (n - 2)
                + 3 ** (n - 1) * n)
    return (Fraction(factorial(3 * n), 4 * 6 ** n)
            - 3 * Fraction(2) ** (n - 3) * _alternating_factorial_sum(n)
            + 3 * Fraction(4) ** (n - 2) * comb(2 * n, n)
            - n * Fraction(4) ** (n - 1))


def degree(group: Group, n: int) -> int:
    """Exact degree of the claw polytope's toric variety for this group."""
    value = degree_rational(group, n)
    if value.denominator != 1:
        raise FormulaError(
            f"degree({group}, {n}) evaluated to the non-integer {value}")
    return int(value)


def delta_set(a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> frozenset[int]:
    """(A minus B,C) union (B minus A,C) union (C minus A,B) union (A and B and C).

    Its size always matches |A|+|B|+|C| in parity, so it is odd whenever the
    total is odd.
    """
    sa, sb, sc = frozenset(a), frozenset(b), frozenset(c)
    return frozenset(
        (sa - (sb | sc)) | (sb - (sa | sc)) | (sc - (sa | sb)) | (sa & sb & sc))


def cut_formula(tag: str, n: int, extra=None) -> Fraction:
    """Closed-form value of one cut-piece lemma.

    ``extra`` is required only for the three-channel tag: a triple
    (A, B, C) of position sets with odd total size; the value is then
    4 - 3/2^(n-1) when the combined difference set is a singleton and 0
    otherwise.
    """
    _check_n(n)
    if tag == Z2_CUT:
        return Fraction(1)
    if tag == Z22_ONE_FACET:
        return Fraction(_alternating_factorial_sum(n))
    if tag == Z22_TWO_FACET:
        return comb(2 * n, n) - Fraction(n, 2 ** (n - 1))
    if tag == Z22_THREE_FACET:
        if extra is None:
            raise ValueError("the three-channel formula needs the (A, B, C) triple")
        a, b, c = extra
        if (len(frozenset(a)) + len(frozenset(b)) + len(frozenset(c))) % 2 == 0:
            raise ValueError("|A| + |B| + |C| must be odd")
        if len(delta_set(a, b, c)) == 1:
            return 4 - Fraction(3, 2 ** (n - 1))
        return Fraction(0)
    if tag == Z3_ONE_FACET:
        return 2 ** n - Fraction(n, 2 ** (n - 1))
    if tag == Z3_TWO_FACET:
        return 3 - Fraction(1, 2 ** (n - 2))
    raise ValueError(f"unknown formula tag {tag!r}")


def degree_table(group: Group, n_min: int, n_max: int) -> list[tuple[int, int]]:
    """Rows (n, degree) for n_min..n_max."""
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    return [(n, degree(group, n)) for n in range(n_min, n_max + 1)]
