"""Cut pieces, their volume and dimension claims, and the assembled degree.

A *piece* is the ambient product of simplices intersected with the minus
sides of chosen cuts.  The degree of the claw polytope equals the ambient
volume minus the volume of the union of all facet-cut pieces; that union is
accounted for by closed-form piece volumes together with counting arguments,
and every one of those closed forms and dimension claims is checkable here
against the exact geometry oracle (vertex enumeration + triangulation).

Claim kinds:

* ``volume``: the piece's Z^d lattice volume equals a closed form;
* ``flat``: the piece is empty or of deficient affine dimension;
* ``contained-exists``: some admissible opposite-channel cut's minus side
  contains the whole piece;
* ``integral-vertices``: every vertex of the piece is integral.

The 13 claim families live in one table, ``LEMMA_FAMILIES``: each id maps
to its group, its claim kind and an ``instances(n)`` builder that yields
every instance's cut indices, sides and closed-form value.
``lemma_claims`` turns those into ``CutSpec`` and ``LemmaClaim`` objects in
one place, and ``LEMMA_IDS`` and ``LEMMA_GROUPS`` are read from the table.

Every check runs at any n it is given.  The cost of a volume claim grows
with the dimension (|G|-1)n; the command line refuses oversized families
from the request alone, before any piece is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import factorial
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
    cut_halfspace,
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
from .geometry import HPolytope, VPolytope, affine_dim, vertex_enumeration
from .groups import Group, Z2, Z2xZ2, Z3
from .volume import lattice_volume


@dataclass(frozen=True)
class CutSpec:
    """A piece: ambient(group, n) cut by the listed halfspaces.

    ``sides[i]`` applies to ``cuts[i]``; by default every cut contributes
    its minus side, which is the case used throughout the assembly.
    """

    group: Group
    n: int
    cuts: tuple[OddSubsetCut, ...]
    sides: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.sides:
            object.__setattr__(self, "sides", (MINUS,) * len(self.cuts))
        if len(self.sides) != len(self.cuts):
            raise ValueError("one side per cut is required")
        for cut in self.cuts:
            if cut.group is not self.group or cut.n != self.n:
                raise ValueError("cut does not match the piece's group and n")


def cut_piece(spec: CutSpec) -> HPolytope:
    base = ambient(spec.group, spec.n)
    extra = tuple(cut_halfspace(c, s) for c, s in zip(spec.cuts, spec.sides))
    return base.with_halfspaces(extra)


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
        if any(s != MINUS for s in self.spec.sides):
            data["sides"] = list(self.spec.sides)
        return data


@dataclass(frozen=True)
class Verdict:
    confirmed: bool
    expected: str
    computed: str


# Instance builders.  Each yields ``(cuts, sides, expected)`` per instance in
# canonical order: ``cuts`` holds one ``(A, channel)`` pair per cut, with A
# the sorted positions (Z2, Z2xZ2) or the digit tuple (Z3); ``sides`` is
# empty when every cut takes its minus side; ``expected`` is the closed-form
# volume, or None for the other kinds.

def _subsets(n: int) -> list[tuple[int, ...]]:
    """Every A in [n], in the order of its bitmask."""
    return [_mask_positions(mask) for mask in range(1 << n)]


def _single_cut_volumes(tag, channels, pool, n):
    expected = cut_formula(tag, n)
    for g in channels:
        for a in pool(n):
            yield ((a, g),), (), expected


def _same_parity_pairs(channels, n):
    subsets = _subsets(n)
    for g in channels:
        for i, a in enumerate(subsets):
            for b in subsets[i + 1:]:
                if len(a) % 2 == len(b) % 2:
                    yield ((a, g), (b, g)), (), None


def _z22_both_sides(n):
    for g in (1, 2, 3):
        for a in _subsets(n):
            for side in (MINUS, PLUS):
                yield ((a, g),), (side,), None


def _z22_cross_pairs(n):
    expected = cut_formula(Z22_TWO_FACET, n)
    subsets = _subsets(n)
    for g, h in ((1, 2), (1, 3), (2, 3)):
        for a, b in product(subsets, repeat=2):
            yield ((a, g), (b, h)), (), expected


def _z22_triples(n):
    for a, b, c in product(_subsets(n), repeat=3):
        if (len(a) + len(b) + len(c)) % 2:
            yield (((a, 1), (b, 2), (c, 3)), (),
                   cut_formula(Z22_THREE_FACET, n, (a, b, c)))


def _z3_same_channel_pairs(pool, keep, n):
    """Pairs a < b from the pool, one channel at a time, whose digit sums
    agree mod 3 and whose count of differing positions passes ``keep``."""
    tuples = list(pool(n))
    for g in (1, 2):
        for i, a in enumerate(tuples):
            for b in tuples[i + 1:]:
                if (sum(a) % 3 == sum(b) % 3
                        and keep(sum(x != y for x, y in zip(a, b)))):
                    yield ((a, g), (b, g)), (), None


def _z3_cross_flat(n):
    tuples = list(z3_tuples(n))
    for a, b in product(tuples, repeat=2):
        if (a != b and (sum(a) + sum(b)) % 3 == 1
                and sum((x + y) % 3 == 0 for x, y in zip(a, b)) < n - 1):
            yield ((a, 1), (b, 2)), (), None


def _z3_double_pairs(n):
    pairs = list(combinations(z3_facet_tuples(n), 2))
    for (a, b), (c, d) in product(pairs, repeat=2):
        yield ((a, 1), (b, 1), (c, 2), (d, 2)), (), None


def _z3_cross_pairs(n):
    expected = cut_formula(Z3_TWO_FACET, n)
    for a in z3_tuples(n):
        for j in range(n):
            b = tuple(((i == j) - x) % 3 for i, x in enumerate(a))
            yield ((a, 1), (b, 2)), (), expected


# The claim families: id -> (group, kind, instances), where instances(n)
# yields the builders' triples.  ``lemma_claims`` turns them into claims.
LEMMA_FAMILIES: dict[str, tuple[Group, str, Callable[[int], Iterator]]] = {
    "z2-single-cut-simplex":
        (Z2, VOLUME, partial(_single_cut_volumes, Z2_CUT, (1,), _subsets)),
    "z2-same-parity-pair-flat": (Z2, FLAT, partial(_same_parity_pairs, (1,))),
    "z2z2-same-channel-pair-flat":
        (Z2xZ2, FLAT, partial(_same_parity_pairs, (1, 2, 3))),
    "z2z2-cut-lattice-points": (Z2xZ2, INTEGRAL_VERTICES, _z22_both_sides),
    "z2z2-single-cut-volume": (Z2xZ2, VOLUME, partial(
        _single_cut_volumes, Z22_ONE_FACET, (1, 2, 3), _subsets)),
    "z2z2-cross-channel-pair-volume": (Z2xZ2, VOLUME, _z22_cross_pairs),
    "z2z2-triple-channel-volume": (Z2xZ2, VOLUME, _z22_triples),
    "z3-far-same-channel-flat":
        (Z3, FLAT, partial(_z3_same_channel_pairs, z3_tuples, lambda d: d > 2)),
    "z3-near-same-channel-contained": (Z3, CONTAINED_EXISTS, partial(
        _z3_same_channel_pairs, z3_facet_tuples, lambda d: d == 2)),
    "z3-cross-channel-flat": (Z3, FLAT, _z3_cross_flat),
    "z3-double-pair-flat": (Z3, FLAT, _z3_double_pairs),
    "z3-single-cut-volume": (Z3, VOLUME, partial(
        _single_cut_volumes, Z3_ONE_FACET, (1, 2), z3_tuples)),
    "z3-cross-channel-pair-volume": (Z3, VOLUME, _z3_cross_pairs),
}

LEMMA_IDS = tuple(LEMMA_FAMILIES)

LEMMA_GROUPS: dict[str, Group] = {
    lemma_id: group for lemma_id, (group, _, _) in LEMMA_FAMILIES.items()}


def lemma_claims(lemma_id: str, n: int) -> tuple[LemmaClaim, ...]:
    """All instances of one lemma at this n, in canonical order."""
    _check_n(n)
    if lemma_id not in LEMMA_FAMILIES:
        known = ", ".join(LEMMA_IDS)
        raise ValueError(f"unknown lemma {lemma_id!r}; expected one of: {known}")
    group, kind, instances = LEMMA_FAMILIES[lemma_id]
    return tuple(
        LemmaClaim(lemma_id,
                   CutSpec(group, n,
                           tuple(OddSubsetCut(group, n, a, g) for a, g in cuts),
                           sides),
                   kind, expected)
        for cuts, sides, expected in instances(n))


def check_lemma(claim: LemmaClaim) -> Verdict:
    """Decide one claim against the exact geometry oracle."""
    spec = claim.spec
    if claim.kind == VOLUME:
        computed = piece_volume(spec)
        return Verdict(computed == claim.expected,
                       str(claim.expected), str(computed))

    verts = piece_vertices(spec)
    if claim.kind == FLAT:
        if verts.is_empty():
            return Verdict(True, "flat", "empty")
        ad = affine_dim(verts.rows)
        return Verdict(ad < ambient_dim(spec.group, spec.n), "flat", f"dim={ad}")

    if claim.kind == CONTAINED_EXISTS:
        other = 2 if spec.cuts[0].channel == 1 else 1
        if verts.is_empty():
            return Verdict(True, "contained", "empty")
        # <normal, x> <= offset at x = row / scale, cleared of the scale.
        for c, target in z3_minus_halfspaces(spec.n, other):
            bound = target.offset * verts.scale
            if all(sum(map(mul, target.normal, r)) <= bound for r in verts.rows):
                return Verdict(True, "contained",
                               f"C={list(c)} channel={other}")
        return Verdict(False, "contained", "no containing cut found")

    if claim.kind == INTEGRAL_VERTICES:
        if verts.scale != 1:
            bad = next(v for v in verts.vertices
                       if any(x.denominator != 1 for x in v))
            return Verdict(False, "integral", f"fractional vertex {bad}")
        return Verdict(True, "integral", f"{len(verts.rows)} integral vertices")

    raise ValueError(f"unknown claim kind {claim.kind!r}")


def run_lemma(lemma_id: str, n: int) -> list[dict]:
    """Check every instance; one JSON-ready record per claim."""
    records = []
    for claim in lemma_claims(lemma_id, n):
        verdict = check_lemma(claim)
        records.append({
            "lemma": claim.lemma,
            "hypothesis": claim.hypothesis(),
            "expected": verdict.expected,
            "computed": verdict.computed,
            "verdict": "confirmed" if verdict.confirmed else "refuted",
        })
    return records
