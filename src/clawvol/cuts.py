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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Sequence

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
    subset_cut,
    tuple_cut,
    z3_facet_tuples,
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
from .volume import check_dimension_guard, lattice_volume


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


def piece_volume(spec: CutSpec, *, allow_big: bool = False) -> Fraction:
    """Exact lattice volume of the piece in Z^((|G|-1)n)."""
    check_dimension_guard(ambient_dim(spec.group, spec.n), allow_big)
    return lattice_volume(piece_vertices(spec), allow_big=allow_big)


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
# Digit-tuple combinatorics
# ---------------------------------------------------------------------------

def z3_diff_count(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def z3_zero_pair_count(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(1 for x, y in zip(a, b) if (x + y) % 3 == 0)


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


def _claims_z2_single(n: int) -> Iterator[LemmaClaim]:
    for mask in range(1 << n):
        cut = subset_cut(Z2, n, _mask_positions(mask))
        yield LemmaClaim("z2-single-cut-simplex",
                         CutSpec(Z2, n, (cut,)), VOLUME, Fraction(1))


def _claims_z2_pair_flat(n: int) -> Iterator[LemmaClaim]:
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if bin(a).count("1") % 2 != bin(b).count("1") % 2:
                continue
            cuts = (subset_cut(Z2, n, _mask_positions(a)),
                    subset_cut(Z2, n, _mask_positions(b)))
            yield LemmaClaim("z2-same-parity-pair-flat",
                             CutSpec(Z2, n, cuts), FLAT)


def _claims_z22_pair_flat(n: int) -> Iterator[LemmaClaim]:
    for channel in (1, 2, 3):
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                if bin(a).count("1") % 2 != bin(b).count("1") % 2:
                    continue
                cuts = (subset_cut(Z2xZ2, n, _mask_positions(a), channel),
                        subset_cut(Z2xZ2, n, _mask_positions(b), channel))
                yield LemmaClaim("z2z2-same-channel-pair-flat",
                                 CutSpec(Z2xZ2, n, cuts), FLAT)


def _claims_z22_lattice_points(n: int) -> Iterator[LemmaClaim]:
    for channel in (1, 2, 3):
        for mask in range(1 << n):
            cut = subset_cut(Z2xZ2, n, _mask_positions(mask), channel)
            for side in (MINUS, PLUS):
                yield LemmaClaim("z2z2-cut-lattice-points",
                                 CutSpec(Z2xZ2, n, (cut,), (side,)),
                                 INTEGRAL_VERTICES)


def _claims_z22_single(n: int) -> Iterator[LemmaClaim]:
    expected = cut_formula(Z22_ONE_FACET, n)
    for channel in (1, 2, 3):
        for mask in range(1 << n):
            cut = subset_cut(Z2xZ2, n, _mask_positions(mask), channel)
            yield LemmaClaim("z2z2-single-cut-volume",
                             CutSpec(Z2xZ2, n, (cut,)), VOLUME, expected)


def _claims_z22_cross_pair(n: int) -> Iterator[LemmaClaim]:
    expected = cut_formula(Z22_TWO_FACET, n)
    for g, h in ((1, 2), (1, 3), (2, 3)):
        for a in range(1 << n):
            for b in range(1 << n):
                cuts = (subset_cut(Z2xZ2, n, _mask_positions(a), g),
                        subset_cut(Z2xZ2, n, _mask_positions(b), h))
                yield LemmaClaim("z2z2-cross-channel-pair-volume",
                                 CutSpec(Z2xZ2, n, cuts), VOLUME, expected)


def _claims_z22_triple(n: int) -> Iterator[LemmaClaim]:
    for a in range(1 << n):
        for b in range(1 << n):
            for c in range(1 << n):
                total = (bin(a).count("1") + bin(b).count("1")
                         + bin(c).count("1"))
                if total % 2 == 0:
                    continue
                sets = (_mask_positions(a), _mask_positions(b),
                        _mask_positions(c))
                expected = cut_formula(Z22_THREE_FACET, n, sets)
                cuts = (subset_cut(Z2xZ2, n, sets[0], 1),
                        subset_cut(Z2xZ2, n, sets[1], 2),
                        subset_cut(Z2xZ2, n, sets[2], 3))
                yield LemmaClaim("z2z2-triple-channel-volume",
                                 CutSpec(Z2xZ2, n, cuts), VOLUME, expected)


def _claims_z3_far_flat(n: int) -> Iterator[LemmaClaim]:
    tuples = list(z3_tuples(n))
    for channel in (1, 2):
        for i, a in enumerate(tuples):
            for b in tuples[i + 1:]:
                if sum(a) % 3 != sum(b) % 3 or z3_diff_count(a, b) <= 2:
                    continue
                cuts = (tuple_cut(n, a, channel), tuple_cut(n, b, channel))
                yield LemmaClaim("z3-far-same-channel-flat",
                                 CutSpec(Z3, n, cuts), FLAT)


def _claims_z3_near_contained(n: int) -> Iterator[LemmaClaim]:
    valid = z3_facet_tuples(n)
    for channel in (1, 2):
        for i, a in enumerate(valid):
            for b in valid[i + 1:]:
                if z3_diff_count(a, b) != 2:
                    continue
                cuts = (tuple_cut(n, a, channel), tuple_cut(n, b, channel))
                yield LemmaClaim("z3-near-same-channel-contained",
                                 CutSpec(Z3, n, cuts), CONTAINED_EXISTS)


def _claims_z3_cross_flat(n: int) -> Iterator[LemmaClaim]:
    tuples = list(z3_tuples(n))
    for a in tuples:
        for b in tuples:
            if a == b or (sum(a) + sum(b)) % 3 != 1:
                continue
            if z3_zero_pair_count(a, b) >= n - 1:
                continue
            cuts = (tuple_cut(n, a, 1), tuple_cut(n, b, 2))
            yield LemmaClaim("z3-cross-channel-flat",
                             CutSpec(Z3, n, cuts), FLAT)


def _claims_z3_double_pair(n: int) -> Iterator[LemmaClaim]:
    valid = z3_facet_tuples(n)
    pairs = [(a, b) for i, a in enumerate(valid) for b in valid[i + 1:]]
    for a, b in pairs:
        for c, d in pairs:
            cuts = (tuple_cut(n, a, 1), tuple_cut(n, b, 1),
                    tuple_cut(n, c, 2), tuple_cut(n, d, 2))
            yield LemmaClaim("z3-double-pair-flat",
                             CutSpec(Z3, n, cuts), FLAT)


def _claims_z3_single(n: int) -> Iterator[LemmaClaim]:
    expected = cut_formula(Z3_ONE_FACET, n)
    for channel in (1, 2):
        for a in z3_tuples(n):
            yield LemmaClaim("z3-single-cut-volume",
                             CutSpec(Z3, n, (tuple_cut(n, a, channel),)),
                             VOLUME, expected)


def _claims_z3_cross_pair(n: int) -> Iterator[LemmaClaim]:
    expected = cut_formula(Z3_TWO_FACET, n)
    for a in z3_tuples(n):
        for j in range(n):
            b = tuple(((1 if i == j else 0) - x) % 3 for i, x in enumerate(a))
            cuts = (tuple_cut(n, a, 1), tuple_cut(n, b, 2))
            yield LemmaClaim("z3-cross-channel-pair-volume",
                             CutSpec(Z3, n, cuts), VOLUME, expected)


LEMMA_GENERATORS: dict[str, Callable[[int], Iterator[LemmaClaim]]] = {
    "z2-single-cut-simplex": _claims_z2_single,
    "z2-same-parity-pair-flat": _claims_z2_pair_flat,
    "z2z2-same-channel-pair-flat": _claims_z22_pair_flat,
    "z2z2-cut-lattice-points": _claims_z22_lattice_points,
    "z2z2-single-cut-volume": _claims_z22_single,
    "z2z2-cross-channel-pair-volume": _claims_z22_cross_pair,
    "z2z2-triple-channel-volume": _claims_z22_triple,
    "z3-far-same-channel-flat": _claims_z3_far_flat,
    "z3-near-same-channel-contained": _claims_z3_near_contained,
    "z3-cross-channel-flat": _claims_z3_cross_flat,
    "z3-double-pair-flat": _claims_z3_double_pair,
    "z3-single-cut-volume": _claims_z3_single,
    "z3-cross-channel-pair-volume": _claims_z3_cross_pair,
}

LEMMA_IDS = tuple(LEMMA_GENERATORS)

LEMMA_GROUPS: dict[str, Group] = {
    lemma_id: (Z2xZ2 if lemma_id.startswith("z2z2")
               else Z3 if lemma_id.startswith("z3") else Z2)
    for lemma_id in LEMMA_IDS
}


def lemma_claims(lemma_id: str, n: int) -> tuple[LemmaClaim, ...]:
    """All instances of one lemma at this n, in canonical order."""
    if lemma_id not in LEMMA_GENERATORS:
        known = ", ".join(LEMMA_IDS)
        raise ValueError(f"unknown lemma {lemma_id!r}; expected one of: {known}")
    return tuple(LEMMA_GENERATORS[lemma_id](n))


def check_lemma(claim: LemmaClaim, *, allow_big: bool = False) -> Verdict:
    """Decide one claim against the exact geometry oracle."""
    spec = claim.spec
    if claim.kind == VOLUME:
        computed = piece_volume(spec, allow_big=allow_big)
        return Verdict(computed == claim.expected,
                       str(claim.expected), str(computed))

    verts = piece_vertices(spec)
    if claim.kind == FLAT:
        if verts.is_empty():
            return Verdict(True, "flat", "empty")
        ad = affine_dim(verts.vertices)
        return Verdict(ad < ambient_dim(spec.group, spec.n), "flat", f"dim={ad}")

    if claim.kind == CONTAINED_EXISTS:
        other = 2 if spec.cuts[0].channel == 1 else 1
        if verts.is_empty():
            return Verdict(True, "contained", "empty")
        for c in z3_facet_tuples(spec.n):
            target = cut_halfspace(tuple_cut(spec.n, c, other), MINUS)
            if all(target.holds(v) for v in verts.vertices):
                return Verdict(True, "contained",
                               f"C={list(c)} channel={other}")
        return Verdict(False, "contained", "no containing cut found")

    if claim.kind == INTEGRAL_VERTICES:
        bad = [v for v in verts.vertices
               if any(x.denominator != 1 for x in v)]
        if bad:
            return Verdict(False, "integral", f"fractional vertex {bad[0]}")
        return Verdict(True, "integral", f"{len(verts.vertices)} integral vertices")

    raise ValueError(f"unknown claim kind {claim.kind!r}")


def run_lemma(lemma_id: str, n: int, *, allow_big: bool = False) -> list[dict]:
    """Check every instance; one JSON-ready record per claim."""
    records = []
    for claim in lemma_claims(lemma_id, n):
        verdict = check_lemma(claim, allow_big=allow_big)
        records.append({
            "lemma": claim.lemma,
            "hypothesis": claim.hypothesis(),
            "expected": verdict.expected,
            "computed": verdict.computed,
            "verdict": "confirmed" if verdict.confirmed else "refuted",
        })
    return records
