"""Cut pieces, their volume and dimension claims, and the assembled degree.

A *piece* is the ambient product of simplices intersected with one side of
each of some chosen cuts; a cut carries its side, minus unless it says
plus.  The degree of the claw polytope equals the ambient volume minus the
volume of the union of all facet-cut pieces; that union is accounted for by
closed-form piece volumes together with counting arguments, and every one
of those closed forms and dimension claims is checkable here against the
exact geometry oracle (vertex enumeration + triangulation).

Claim kinds:

* ``volume``: the piece's Z^d lattice volume equals a closed form;
* ``flat``: the piece is empty or of deficient affine dimension;
* ``contained-exists``: some admissible opposite-channel cut's minus side
  contains the whole piece;
* ``integral-vertices``: every vertex of the piece is integral.

The 13 claim families live in one table, ``LEMMA_FAMILIES``: each id maps
to its group, its claim kind, an ``instances(n)`` builder that yields
every instance's cut keys and closed-form value, and the number of
instances in closed form.  ``lemma_claims`` turns the instances into
``CutSpec`` and ``LemmaClaim`` objects in one place, and ``LEMMA_IDS`` and
``LEMMA_GROUPS`` are read from the table.

Cuts are shared within a claim list: ``lemma_claims`` builds one
``OddSubsetCut`` per distinct (A, channel, side), and each cut builds its
halfspace once, so ``cut_piece`` only appends prebuilt halfspaces to the
shared ambient polytope.  Every check still runs the double description
on its own piece.  A volume claim reads the vertex rows of
``vertex_enumeration``; the flat, contained and integral claims read the
primitive rays (y_0, y) of ``vertex_rays`` and build no ``VPolytope``.

Every check runs at any n it is given.  The cost of a volume claim grows
with the dimension (|G|-1)n, and the size of a claim list with the
instance count; the command line refuses oversized families from the
request alone, before any claim is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from math import comb, factorial
from operator import mul
from typing import Callable, Iterator

from .clawpoly import (
    MINUS,
    PLUS,
    OddSubsetCut,
    _check_n,
    _mask_positions,
    ambient,
    ambient_dim,
    model_lattice_index,
    z3_facet_tuples,
    z3_minus_halfspaces,
    z3_tuples,
)
from .formulas import (
    Z22_ONE_FACET,
    Z22_THREE_FACET,
    Z22_TWO_FACET,
    Z2_CUT,
    Z3_ONE_FACET,
    Z3_TWO_FACET,
    cut_formula,
    pow2_quotient,
)
from .geometry import (
    HPolytope,
    VPolytope,
    bareiss,
    vertex_enumeration,
    vertex_rays,
)
from .groups import Group, Z2, Z2xZ2, Z3
from .volume import lattice_volume


@dataclass(frozen=True)
class CutSpec:
    """A piece: ambient(group, n) cut by the halfspace of each listed cut."""

    group: Group
    n: int
    cuts: tuple[OddSubsetCut, ...]

    def __post_init__(self):
        for cut in self.cuts:
            if cut.group is not self.group or cut.n != self.n:
                raise ValueError("cut does not match the piece's group and n")


def cut_piece(spec: CutSpec) -> HPolytope:
    """The shared ambient polytope with each cut's prebuilt halfspace
    appended, so vertex enumeration resumes from the ambient's cone."""
    return ambient(spec.group, spec.n).with_halfspaces(
        cut.halfspace for cut in spec.cuts)


def piece_vertices(spec: CutSpec) -> VPolytope:
    return vertex_enumeration(cut_piece(spec))


def piece_volume(spec: CutSpec) -> Fraction:
    """Exact lattice volume of the piece in Z^((|G|-1)n)."""
    return lattice_volume(piece_vertices(spec))


# ---------------------------------------------------------------------------
# Assembly of the total volume from closed forms
# ---------------------------------------------------------------------------

def assemble(group: Group, n: int) -> Fraction:
    """Degree by the inclusion-exclusion route, in pure arithmetic.

    Ambient volume minus the union of the facet-cut pieces, divided by the
    model lattice index.  Piece counts: Z2 has 2^(n-1) disjoint cuts;
    Z2xZ2 takes 3*2^(n-1) single pieces, 3*4^(n-1) ordered cross-channel
    pairs, and n*4^(n-1) surviving channel triples; Z3 takes 2*3^(n-1)
    single pieces corrected by n*3^(n-1) cross-channel pairs.
    """
    _check_n(n)
    if group is Z2:
        box = Fraction(factorial(n))
        union = 2 ** (n - 1) * cut_formula(Z2_CUT, n)
    elif group is Z2xZ2:
        box = Fraction(factorial(3 * n), 6 ** n)
        union = (3 * 2 ** (n - 1) * cut_formula(Z22_ONE_FACET, n)
                 - 3 * 4 ** (n - 1) * cut_formula(Z22_TWO_FACET, n)
                 + n * 4 ** (n - 1) * (4 - Fraction(3, 2 ** (n - 1))))
    else:
        box = Fraction(pow2_quotient(factorial(2 * n), n))
        union = (2 * 3 ** (n - 1) * cut_formula(Z3_ONE_FACET, n)
                 - n * 3 ** (n - 1) * cut_formula(Z3_TWO_FACET, n))
    return (box - union) / model_lattice_index(group)


# ---------------------------------------------------------------------------
# Lemma claims
# ---------------------------------------------------------------------------

VOLUME = "volume"
FLAT = "flat"
CONTAINED_EXISTS = "contained-exists"
INTEGRAL_VERTICES = "integral-vertices"


@dataclass(frozen=True)
class LemmaClaim:
    lemma: str
    spec: CutSpec
    kind: str
    expected: Fraction | None = None

    def hypothesis(self) -> dict:
        data = {
            "group": self.spec.group.name,
            "n": self.spec.n,
            "cuts": [c.describe() for c in self.spec.cuts],
        }
        if any(c.side != MINUS for c in self.spec.cuts):
            data["sides"] = [c.side for c in self.spec.cuts]
        return data


@dataclass(frozen=True)
class Verdict:
    confirmed: bool
    expected: str
    computed: str


# Instance builders.  Each yields ``(cuts, expected)`` per instance in
# canonical order: ``cuts`` holds one key per cut, the arguments of its
# ``OddSubsetCut`` after the group and n: ``(A, channel)``, with A the sorted
# positions (Z2, Z2xZ2) or the digit tuple (Z3), or ``(A, channel, side)``
# in the one family that takes both sides; ``expected`` is the closed-form
# volume, or None for the other kinds.

def _subsets(n: int) -> list[tuple[int, ...]]:
    """Every A in [n], in the order of its bitmask."""
    return [_mask_positions(mask) for mask in range(1 << n)]


def _single_cut_volumes(tag, channels, pool, n):
    expected = cut_formula(tag, n)
    for g in channels:
        for a in pool(n):
            yield ((a, g),), expected


def _same_parity_pairs(channels, n):
    subsets = _subsets(n)
    for g in channels:
        for a, b in combinations(subsets, 2):
            if len(a) % 2 == len(b) % 2:
                yield ((a, g), (b, g)), None


def _z22_both_sides(n):
    for g in (1, 2, 3):
        for a in _subsets(n):
            for side in (MINUS, PLUS):
                yield ((a, g, side),), None


def _z22_cross_pairs(n):
    expected = cut_formula(Z22_TWO_FACET, n)
    subsets = _subsets(n)
    for g, h in ((1, 2), (1, 3), (2, 3)):
        for a, b in product(subsets, repeat=2):
            yield ((a, g), (b, h)), expected


def _z22_triples(n):
    for a, b, c in product(_subsets(n), repeat=3):
        if (len(a) + len(b) + len(c)) % 2:
            yield (((a, 1), (b, 2), (c, 3)),
                   cut_formula(Z22_THREE_FACET, n, (a, b, c)))


def _z3_same_channel_pairs(pool, keep, n):
    """Pairs a < b from the pool, one channel at a time, whose digit sums
    agree mod 3 and whose count of differing positions passes ``keep``."""
    tuples = list(pool(n))
    for g in (1, 2):
        for a, b in combinations(tuples, 2):
            if (sum(a) % 3 == sum(b) % 3
                    and keep(sum(x != y for x, y in zip(a, b)))):
                yield ((a, g), (b, g)), None


def _z3_cross_flat(n):
    tuples = list(z3_tuples(n))
    for a, b in product(tuples, repeat=2):
        if (a != b and (sum(a) + sum(b)) % 3 == 1
                and sum((x + y) % 3 == 0 for x, y in zip(a, b)) < n - 1):
            yield ((a, 1), (b, 2)), None


def _z3_double_pairs(n):
    pairs = list(combinations(z3_facet_tuples(n), 2))
    for (a, b), (c, d) in product(pairs, repeat=2):
        yield ((a, 1), (b, 1), (c, 2), (d, 2)), None


def _z3_cross_pairs(n):
    expected = cut_formula(Z3_TWO_FACET, n)
    for a in z3_tuples(n):
        for j in range(n):
            b = tuple(((i == j) - x) % 3 for i, x in enumerate(a))
            yield ((a, 1), (b, 2)), expected


# Closed-form instance counts.  Z3 pairs are counted by their difference
# pattern: two tuples at Hamming distance k with equal digit sums differ by
# a word in {1, 2}^k whose digit sum is 0 mod 3.

def _digit_words(length: int, residue: int) -> int:
    """Words in {1, 2}^length whose digit sum is residue mod 3."""
    sign = (-1) ** length
    return (2 ** length + (2 * sign if residue == 0 else -sign)) // 3


def _z3_far_count(n: int) -> int:
    # 3^n ordered pairs per difference word, halved, on two channels.
    return 3 ** n * sum(comb(n, k) * _digit_words(k, 0) for k in range(3, n + 1))


def _z3_cross_flat_count(n: int) -> int:
    # A pair is its first tuple and the word of position sums, which has at
    # least two nonzero entries and total 1 mod 3; the first tuple is free
    # except the one equal to the second.
    words = sum(comb(n, m) * _digit_words(m, 1) for m in range(2, n + 1))
    return (3 ** n - 1) * words


# The claim families: id -> (group, kind, instances, count), where
# instances(n) yields the builders' pairs and count(n) is their number in
# closed form.  ``lemma_claims`` turns the pairs into claims; the command
# line reads the count to refuse a family before any claim is built.
LEMMA_FAMILIES: dict[str, tuple[Group, str, Callable[[int], Iterator],
                                Callable[[int], int]]] = {
    "z2-single-cut-simplex":
        (Z2, VOLUME, partial(_single_cut_volumes, Z2_CUT, (1,), _subsets),
         lambda n: 2 ** n),
    "z2-same-parity-pair-flat": (Z2, FLAT, partial(_same_parity_pairs, (1,)),
                                 lambda n: 2 * comb(2 ** (n - 1), 2)),
    "z2z2-same-channel-pair-flat":
        (Z2xZ2, FLAT, partial(_same_parity_pairs, (1, 2, 3)),
         lambda n: 6 * comb(2 ** (n - 1), 2)),
    "z2z2-cut-lattice-points":
        (Z2xZ2, INTEGRAL_VERTICES, _z22_both_sides, lambda n: 6 * 2 ** n),
    "z2z2-single-cut-volume": (Z2xZ2, VOLUME, partial(
        _single_cut_volumes, Z22_ONE_FACET, (1, 2, 3), _subsets),
        lambda n: 3 * 2 ** n),
    "z2z2-cross-channel-pair-volume":
        (Z2xZ2, VOLUME, _z22_cross_pairs, lambda n: 3 * 4 ** n),
    "z2z2-triple-channel-volume":
        (Z2xZ2, VOLUME, _z22_triples, lambda n: 8 ** n // 2),
    "z3-far-same-channel-flat":
        (Z3, FLAT, partial(_z3_same_channel_pairs, z3_tuples, lambda d: d > 2),
         _z3_far_count),
    "z3-near-same-channel-contained": (Z3, CONTAINED_EXISTS, partial(
        _z3_same_channel_pairs, z3_facet_tuples, lambda d: d == 2),
        lambda n: 2 * comb(n, 2) * 3 ** (n - 1)),
    "z3-cross-channel-flat": (Z3, FLAT, _z3_cross_flat, _z3_cross_flat_count),
    "z3-double-pair-flat":
        (Z3, FLAT, _z3_double_pairs, lambda n: comb(3 ** (n - 1), 2) ** 2),
    "z3-single-cut-volume": (Z3, VOLUME, partial(
        _single_cut_volumes, Z3_ONE_FACET, (1, 2), z3_tuples),
        lambda n: 2 * 3 ** n),
    "z3-cross-channel-pair-volume":
        (Z3, VOLUME, _z3_cross_pairs, lambda n: n * 3 ** n),
}

LEMMA_IDS = tuple(LEMMA_FAMILIES)

LEMMA_GROUPS: dict[str, Group] = {
    lemma_id: group for lemma_id, (group, *_) in LEMMA_FAMILIES.items()}


def lemma_claims(lemma_id: str, n: int) -> tuple[LemmaClaim, ...]:
    """All instances of one lemma at this n, in canonical order."""
    _check_n(n)
    if lemma_id not in LEMMA_FAMILIES:
        known = ", ".join(LEMMA_IDS)
        raise ValueError(f"unknown lemma {lemma_id!r}; expected one of: {known}")
    group, kind, instances, _ = LEMMA_FAMILIES[lemma_id]
    # One cut object per (A, channel, side), shared by every claim that uses
    # it, so each cut's halfspace is built once for the whole list.
    @cache
    def cut(key: tuple) -> OddSubsetCut:
        return OddSubsetCut(group, n, *key)

    return tuple(
        LemmaClaim(lemma_id, CutSpec(group, n, tuple(map(cut, cuts))),
                   kind, expected)
        for cuts, expected in instances(n))


def check_lemma(claim: LemmaClaim) -> Verdict:
    """Decide one claim against the exact geometry oracle.

    A volume claim triangulates the piece's vertex rows.  The other kinds
    read the double description's primitive rays (y_0, y), y_0 > 0, one per
    vertex y / y_0, and build no ``VPolytope``; an integral refutation names
    the least fractional vertex, read off its ray.
    """
    spec = claim.spec
    if claim.kind == VOLUME:
        computed = piece_volume(spec)
        return Verdict(computed == claim.expected,
                       str(claim.expected), str(computed))

    rays = vertex_rays(cut_piece(spec))
    if claim.kind == FLAT:
        if not rays:
            return Verdict(True, "flat", "empty")
        # Rows (y_0, y) have the rank of rows (1, y / y_0), which is one
        # more than the affine dimension of the vertices.
        ad = len(bareiss(list(map(list, rays)))[0]) - 1
        return Verdict(ad < ambient_dim(spec.group, spec.n), "flat", f"dim={ad}")

    if claim.kind == CONTAINED_EXISTS:
        other = 2 if spec.cuts[0].channel == 1 else 1
        if not rays:
            return Verdict(True, "contained", "empty")
        # <normal, y / y_0> <= offset, cleared of y_0 > 0.
        for c, target in z3_minus_halfspaces(spec.n, other):
            row = (-target.offset, *target.normal)
            if all(sum(map(mul, row, r)) <= 0 for r in rays):
                return Verdict(True, "contained",
                               f"C={list(c)} channel={other}")
        return Verdict(False, "contained", "no containing cut found")

    if claim.kind == INTEGRAL_VERTICES:
        # A primitive ray stands for an integral vertex exactly when y_0 = 1.
        if all(r[0] == 1 for r in rays):
            return Verdict(True, "integral", f"{len(rays)} integral vertices")
        bad = min(tuple(Fraction(v, r[0]) for v in r[1:])
                  for r in rays if r[0] != 1)
        return Verdict(False, "integral", f"fractional vertex {bad}")

    raise ValueError(f"unknown claim kind {claim.kind!r}")


def _lemma_record(claim: LemmaClaim) -> dict:
    verdict = check_lemma(claim)
    return {
        "lemma": claim.lemma,
        "hypothesis": claim.hypothesis(),
        "expected": verdict.expected,
        "computed": verdict.computed,
        "verdict": "confirmed" if verdict.confirmed else "refuted",
    }


def run_lemma(lemma_id: str, n: int) -> Iterator[dict]:
    """One JSON-ready record per claim, checked as it is taken; the claims
    are built on the call, so a bad family or n raises here."""
    return map(_lemma_record, lemma_claims(lemma_id, n))
