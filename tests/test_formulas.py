"""Closed-form degree and cut-piece values against frozen references."""

import hashlib
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from clawvol.formulas import (
    FormulaError,
    Z2_CUT,
    Z22_ONE_FACET,
    Z22_THREE_FACET,
    Z22_TWO_FACET,
    Z3_ONE_FACET,
    Z3_TWO_FACET,
    _alternating_factorial_sum,
    cut_formula,
    degree,
    degree_rational,
    degree_table,
    delta_set,
    pow2_quotient,
)
from clawvol.cuts import assemble
from clawvol.groups import Z2, Z2xZ2, Z3

F = Fraction


def test_degree_tables_frozen():
    assert [degree(Z2, n) for n in range(2, 7)] == [0, 1, 8, 52, 344]
    assert [degree(Z2xZ2, n) for n in range(2, 4)] == [0, 96]
    assert [degree(Z3, n) for n in range(2, 5)] == [0, 9, 660]


def test_degree_is_integral_up_to_n_12():
    for group in (Z2, Z2xZ2, Z3):
        for n in range(2, 13):
            value = degree_rational(group, n)
            assert value.denominator == 1
            assert value >= 0
            assert degree(group, n) == value


def test_degree_rejects_small_n():
    with pytest.raises(ValueError):
        degree(Z2, 1)


def test_cut_formulas_frozen():
    assert cut_formula(Z2_CUT, 5) == 1
    assert cut_formula(Z22_ONE_FACET, 2) == 10
    assert cut_formula(Z22_ONE_FACET, 3) == 172
    assert cut_formula(Z22_TWO_FACET, 2) == 5
    assert cut_formula(Z22_TWO_FACET, 3) == F(77, 4)
    assert cut_formula(Z3_ONE_FACET, 2) == 3
    assert cut_formula(Z3_ONE_FACET, 3) == F(29, 4)
    assert cut_formula(Z3_TWO_FACET, 2) == 2
    assert cut_formula(Z3_TWO_FACET, 3) == F(5, 2)
    assert degree(Z2, 4) == 8
    assert degree(Z2xZ2, 3) == 96
    assert degree(Z3, 3) == 9


def test_three_channel_formula():
    # singleton combined difference: volume 4 - 3/2^(n-1)
    triple = ((1,), (1,), (1,))
    assert cut_formula(Z22_THREE_FACET, 2, triple) == F(5, 2)
    assert cut_formula(Z22_THREE_FACET, 3, triple) == F(13, 4)
    # larger difference set: the three-cut piece is lower dimensional
    assert cut_formula(Z22_THREE_FACET, 3, ((1,), (2,), (3,))) == 0
    with pytest.raises(ValueError):
        cut_formula(Z22_THREE_FACET, 2, ((1,), (2,), (1, 2, 3, 4)))  # even total
    with pytest.raises(ValueError):
        cut_formula(Z22_THREE_FACET, 2)  # triple is mandatory


def test_delta_set():
    assert delta_set((1,), (1,), (1,)) == frozenset({1})
    assert delta_set((1, 2), (2, 3), (3, 1)) == frozenset()
    assert delta_set((1,), (2,), (3,)) == frozenset({1, 2, 3})
    # size parity always matches |A| + |B| + |C|
    import random
    rng = random.Random(7)
    universe = range(1, 6)
    for _ in range(200):
        a, b, c = (frozenset(rng.sample(universe, rng.randint(0, 5)))
                   for _ in range(3))
        assert len(delta_set(a, b, c)) % 2 == (len(a) + len(b) + len(c)) % 2


def test_degree_table_rows():
    assert degree_table(Z2, 2, 6) == [(2, 0), (3, 1), (4, 8), (5, 52), (6, 344)]
    with pytest.raises(ValueError):
        degree_table(Z2, 5, 3)


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        cut_formula("DegQ8", 3)


def _fraction_loop(n):
    """The Fraction evaluation that the running product replaced."""
    total = Fraction(0)
    for i in range(n + 1):
        total += Fraction((-2) ** i * comb(n, i) * factorial(3 * n),
                          factorial(2 * n + i))
    return total


def test_alternating_sum_matches_fraction_loop():
    for n in range(2, 81):
        value = _alternating_factorial_sum(n)
        assert type(value) is int
        assert value == _fraction_loop(n)
        cut = cut_formula(Z22_ONE_FACET, n)
        assert type(cut) is Fraction and cut == value


def test_pow2_quotient_exact_or_raises():
    assert pow2_quotient(0, 5) == 0
    assert pow2_quotient(7, 0) == 7
    assert pow2_quotient(96, 5) == 3
    assert pow2_quotient(-96, 5) == -3
    for n in (1, 2, 17, 300):
        assert pow2_quotient(factorial(2 * n), n) << n == factorial(2 * n)
    with pytest.raises(FormulaError):
        pow2_quotient(96, 6)
    with pytest.raises(FormulaError):
        pow2_quotient(factorial(2 * 17) + 2 ** 16, 17)
    with pytest.raises(FormulaError):
        pow2_quotient(1, 1)
    # the message must not print the value: this one has about 20000 digits
    with pytest.raises(FormulaError):
        pow2_quotient(factorial(6000) + 1, 3000)


@pytest.fixture
def unlimited_int_str():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


# sha256 of str(degree(g, n)) and of str(assemble(g, n)), which agree: the top
# n of each formula-sweep group and z2xz2 n=1000, taken with the Fraction
# evaluation before the integer running product and power-of-two quotients.
PINNED_DEGREE_SHA256 = [
    (Z2, 14500, "33776099fc60d98c648e3f9b46c8dba881b9e10fe0b20fe4aa1a8fba93cc714b"),
    (Z3, 4300, "020fd208d63ae1786c6d5ab54ba69301f4d2cc5dcce1f89551b736dadab487b3"),
    (Z2xZ2, 240, "2de51cef393598c644dfd03d4e76f80786f6fc8b153d7c6960faa250582c9217"),
    (Z2xZ2, 1000, "3434e515f8d0de217428587d9ed663bd3ed66877adfa2eefcdfd2042a4c5b51f"),
]


@pytest.mark.parametrize("group, n, digest", PINNED_DEGREE_SHA256,
                         ids=[f"{g.name}-{n}" for g, n, _ in PINNED_DEGREE_SHA256])
def test_large_degrees_pinned(unlimited_int_str, group, n, digest):
    for value in (degree(group, n), assemble(group, n)):
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest
