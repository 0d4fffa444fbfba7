"""Values the benchmark checks clawvol against, computed without clawvol.

Everything here is written from the paper's closed forms and from counting
arguments, in plain integer arithmetic where the value is an integer.  None
of it imports or calls the package, so agreement with the program is
evidence and not a tautology.
"""

from __future__ import annotations

from fractions import Fraction


def _falling(top: int, count: int) -> int:
    """top * (top - 1) * ... * (top - count + 1)."""
    out = 1
    for k in range(top - count + 1, top + 1):
        out *= k
    return out


def _binomials(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) by the running product."""
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * (n - i + 1) // i)
    return row


def _fact(n: int) -> int:
    return _falling(n, n)


def alternating_sum(n: int) -> int:
    """sum_i (-2)^i C(n, i) (3n)! / (2n + i)!, an integer for every n.

    (3n)!/(2n+i)! is the falling product (2n+i+1)...(3n); it is built from
    i = n downwards, one multiplication per term.
    """
    binom = _binomials(n)
    total = 0
    tail = 1  # (3n)! / (2n + i)! at i = n
    for i in range(n, -1, -1):
        total += (-2) ** i * binom[i] * tail
        tail *= 2 * n + i
    return total


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"closed form is not integral: {num}/{den}")
    return q


def degree(group: str, n: int) -> int:
    """The paper's degree of the claw polytope, in integer arithmetic."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if group == "z2":
        return _exact(_fact(n), 2) - 2 ** (n - 2)
    if group == "z3":
        return (_exact(_fact(2 * n), 3 * 2 ** n)
                - 2 ** (n + 1) * 3 ** (n - 2) + n * 3 ** (n - 1))
    if group == "z2xz2":
        # Eight times the degree keeps the 2^(n-3) term integral at n = 2.
        eight = (_exact(2 * _fact(3 * n), 6 ** n)
                 - 3 * 2 ** n * alternating_sum(n)
                 + 24 * 4 ** (n - 2) * _binomials(2 * n)[n]
                 - 8 * n * 4 ** (n - 1))
        return _exact(eight, 8)
    raise ValueError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Cut-piece lemma values
# ---------------------------------------------------------------------------

def lemma_volume(lemma: str, n: int, subsets=()) -> Fraction:
    """Z^d lattice volume the paper states for one volume-kind instance.

    ``subsets`` matters only for the three-channel family: the position
    sets (A, B, C).  A position lies in the lemma's difference set exactly
    when it lies in an odd number of A, B, C, so the set is A ^ B ^ C.
    """
    if lemma == "z2-single-cut-simplex":
        return Fraction(1)
    if lemma == "z2z2-single-cut-volume":
        return Fraction(alternating_sum(n))
    if lemma == "z2z2-cross-channel-pair-volume":
        return _binomials(2 * n)[n] - Fraction(n, 2 ** (n - 1))
    if lemma == "z2z2-triple-channel-volume":
        odd = set()
        for s in subsets:
            odd ^= set(s)
        return 4 - Fraction(3, 2 ** (n - 1)) if len(odd) == 1 else Fraction(0)
    if lemma == "z3-single-cut-volume":
        return 2 ** n - Fraction(n, 2 ** (n - 1))
    if lemma == "z3-cross-channel-pair-volume":
        return 3 - Fraction(1, 2 ** (n - 2))
    raise ValueError(f"{lemma!r} is not a volume family")


def _nonzero_digit_words(length: int, residue: int) -> int:
    """Words in {1, 2}^length whose digit sum is residue mod 3."""
    sign = (-1) ** length
    return (2 ** length + (2 * sign if residue == 0 else -sign)) // 3


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def instance_count(lemma: str, n: int) -> int:
    """Number of instances the lemma has at n, by counting, not listing.

    Z3 families count digit tuples by their difference pattern: two tuples
    at Hamming distance k with equal digit sums differ by a word in
    {1, 2}^k summing to 0 mod 3, and a cross-channel pair is fixed by its
    first tuple and the word of position sums.
    """
    binom = _binomials(n)
    odd_subsets = 2 ** (n - 1)
    if lemma == "z2-single-cut-simplex":
        return 2 ** n
    if lemma == "z2-same-parity-pair-flat":
        return 2 * _pairs(odd_subsets)
    if lemma == "z2z2-same-channel-pair-flat":
        return 3 * 2 * _pairs(odd_subsets)
    if lemma == "z2z2-cut-lattice-points":
        return 3 * 2 ** n * 2
    if lemma == "z2z2-single-cut-volume":
        return 3 * 2 ** n
    if lemma == "z2z2-cross-channel-pair-volume":
        return 3 * 4 ** n
    if lemma == "z2z2-triple-channel-volume":
        return 8 ** n // 2
    if lemma == "z3-far-same-channel-flat":
        # two channels times unordered pairs: the ordered count
        return 3 ** n * sum(binom[k] * _nonzero_digit_words(k, 0)
                            for k in range(3, n + 1))
    if lemma == "z3-near-same-channel-contained":
        return 3 ** (n - 1) * binom[2] * _nonzero_digit_words(2, 0)
    if lemma == "z3-cross-channel-flat":
        # at least two nonzero position sums, total 1 mod 3; the first
        # tuple is free except the one equal to the second
        words = sum(binom[m] * _nonzero_digit_words(m, 1)
                    for m in range(2, n + 1))
        return (3 ** n - 1) * words
    if lemma == "z3-double-pair-flat":
        return _pairs(3 ** (n - 1)) ** 2
    if lemma == "z3-single-cut-volume":
        return 2 * 3 ** n
    if lemma == "z3-cross-channel-pair-volume":
        return n * 3 ** n
    raise ValueError(f"unknown lemma {lemma!r}")
