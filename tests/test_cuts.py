"""Cut pieces, the inclusion-exclusion assembly, and the lemma suite."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from clawvol import clawpoly, cuts
from clawvol.clawpoly import (
    MINUS,
    PLUS,
    OddSubsetCut,
    ambient,
    ambient_dim,
    cut_halfspace,
    model_lattice_index,
    s_coefficients,
    subset_cut,
    tuple_cut,
    z3_facet_tuples,
)
from clawvol.cuts import (
    LEMMA_FAMILIES,
    LEMMA_GROUPS,
    LEMMA_IDS,
    CutSpec,
    LemmaClaim,
    Verdict,
    assemble,
    check_lemma,
    cut_piece,
    lemma_claims,
    piece_vertices,
    piece_volume,
    run_lemma,
)
from clawvol.formulas import degree_rational
from clawvol.geometry import HalfSpace, affine_dim, vertex_enumeration
from clawvol.groups import Z2, Z2xZ2, Z3
from clawvol.volume import lattice_volume, triangulate
from certify import certify
from helpers import (
    count_singleton_delta_triples,
    delta_mask,
    facet_cuts,
    holds,
    normalized_vertices,
    paths_agree,
    same_points,
)

F = Fraction


def test_cutspec_validation():
    cut = subset_cut(Z2, 3, (1,))
    spec = CutSpec(Z2, 3, (cut,))
    assert spec.sides == ("minus",)
    with pytest.raises(ValueError):
        CutSpec(Z2, 3, (cut,), ("minus", "minus"))
    with pytest.raises(ValueError):
        CutSpec(Z3, 3, (cut,))  # group mismatch
    with pytest.raises(ValueError):
        CutSpec(Z2, 4, (cut,))  # n mismatch


def test_piece_volumes_frozen():
    # a single Z2 cut piece is a unit simplex slice of volume 1
    assert piece_volume(CutSpec(Z2, 3, (subset_cut(Z2, 3, (1,)),))) == 1
    # one Z2xZ2 facet cut at n = 2
    one = CutSpec(Z2xZ2, 2, (subset_cut(Z2xZ2, 2, (1,), channel=1),))
    assert piece_volume(one) == 10
    # one Z3 facet cut at n = 2
    z3_one = CutSpec(Z3, 2, (tuple_cut(2, (2, 0), 1),))
    assert piece_volume(z3_one) == 3


def test_assemble_matches_formula_through_n_40():
    for group in (Z2, Z2xZ2, Z3):
        for n in range(2, 41):
            assert assemble(group, n) == degree_rational(group, n)


def union_volume_by_regions(group, n):
    """Union volume of all facet-cut pieces by disjoint region accounting.

    Splits the ambient along every facet cut: for each nonempty sign
    pattern, the region inside exactly those minus sides (and the plus
    sides of all other cuts) is measured, and the volumes are summed.
    Exponential in the cut count, so only tiny n are sensible; this is the
    independent check that the assembly's counting is right.
    """
    all_cuts = facet_cuts(group, n)
    base = ambient(group, n)
    total = F(0)
    for pattern in range(1, 1 << len(all_cuts)):
        rows = tuple(
            cut_halfspace(c, MINUS if pattern >> i & 1 else PLUS)
            for i, c in enumerate(all_cuts))
        region = base.with_halfspaces(rows)
        total += lattice_volume(vertex_enumeration(region))
    return total


@pytest.mark.parametrize(
    "group,n",
    [(Z2, 2), (Z2, 3), (Z3, 2), (Z2xZ2, 2)],
    ids=("z2-2", "z2-3", "z3-2", "z2xz2-2"))
def test_union_closed_form_matches_region_sweep(group, n):
    expected = {(Z2, 2): 2, (Z2, 3): 4, (Z3, 2): 6, (Z2xZ2, 2): 20}[(group, n)]
    ambient_volume = lattice_volume(vertex_enumeration(ambient(group, n)))
    closed_form = ambient_volume - assemble(group, n) * model_lattice_index(group)
    assert closed_form == expected
    assert union_volume_by_regions(group, n) == expected


def test_delta_mask_and_singleton_counting():
    assert delta_mask(0b01, 0b01, 0b01) == 0b01
    assert delta_mask(0b01, 0b10, 0b11) == 0
    assert delta_mask(0b001, 0b010, 0b100) == 0b111
    for n in range(2, 6):
        assert count_singleton_delta_triples(n) == n * 4 ** (n - 1)


N2_CLAIM_COUNTS = {
    "z2-single-cut-simplex": 4,
    "z2-same-parity-pair-flat": 2,
    "z2z2-same-channel-pair-flat": 6,
    "z2z2-cut-lattice-points": 24,
    "z2z2-single-cut-volume": 12,
    "z2z2-cross-channel-pair-volume": 48,
    "z2z2-triple-channel-volume": 32,
    "z3-far-same-channel-flat": 0,
    "z3-near-same-channel-contained": 6,
    "z3-cross-channel-flat": 8,
    "z3-double-pair-flat": 9,
    "z3-single-cut-volume": 18,
    "z3-cross-channel-pair-volume": 18,
}

N3_CLAIM_COUNTS = {
    "z2-single-cut-simplex": 8,
    "z2-same-parity-pair-flat": 12,
    "z2z2-same-channel-pair-flat": 36,
    "z2z2-cut-lattice-points": 48,
    "z2z2-single-cut-volume": 24,
    "z2z2-cross-channel-pair-volume": 192,
    "z2z2-triple-channel-volume": 256,
    "z3-far-same-channel-flat": 54,
    "z3-near-same-channel-contained": 54,
    "z3-cross-channel-flat": 156,
    "z3-double-pair-flat": 1296,
    "z3-single-cut-volume": 54,
    "z3-cross-channel-pair-volume": 81,
}


def test_lemma_catalog_is_complete():
    assert len(LEMMA_IDS) == 13
    assert set(LEMMA_GROUPS) == set(LEMMA_IDS)
    assert set(N2_CLAIM_COUNTS) == set(LEMMA_IDS)
    assert set(N3_CLAIM_COUNTS) == set(LEMMA_IDS)


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_lemma_instance_counts_frozen(lemma_id):
    assert len(lemma_claims(lemma_id, 2)) == N2_CLAIM_COUNTS[lemma_id]
    assert len(lemma_claims(lemma_id, 3)) == N3_CLAIM_COUNTS[lemma_id]


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_closed_form_counts_match_the_claim_lists(lemma_id):
    count = LEMMA_FAMILIES[lemma_id][3]
    for n in range(2, 4 if lemma_id == "z3-double-pair-flat" else 5):
        assert count(n) == len(lemma_claims(lemma_id, n))


def test_check_lemma_examples():
    # triple-channel piece with A = B = C = {1} at n = 2 has volume 5/2
    (claim,) = (c for c in lemma_claims("z2z2-triple-channel-volume", 2)
                if all(cut.subset == (1,) for cut in c.spec.cuts))
    assert claim.expected == F(5, 2)
    verdict = check_lemma(claim)
    assert verdict.confirmed and verdict.computed == "5/2"

    # same-parity pair at n = 3: the two cuts cannot both be tight
    flat = next(c for c in lemma_claims("z2-same-parity-pair-flat", 3))
    assert check_lemma(flat).confirmed


def test_full_lemma_suite_at_n_2():
    for lemma_id in LEMMA_IDS:
        records = list(run_lemma(lemma_id, 2))
        assert all(r["verdict"] == "confirmed" for r in records)
        for r in records:
            assert r["lemma"] == lemma_id
            assert set(r) == {"lemma", "hypothesis", "expected", "computed",
                              "verdict"}


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@pytest.mark.parametrize("n", (-1, 0, 1))
def test_every_lemma_refuses_n_below_2(lemma_id, n):
    with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
        lemma_claims(lemma_id, n)


# Instance 0 of each volume family beyond the criterion-05 sizes.  The
# z2z2 single-cut row ties the Z2xZ2 alternating factorial sum, which the
# formula and inclusion-exclusion routes share, to the geometry at n = 4.
BEYOND_CRITERION_05 = [
    ("z2z2-single-cut-volume", 4, "4120"),
    ("z2z2-cross-channel-pair-volume", 4, "139/2"),
    ("z2z2-triple-channel-volume", 4, "29/8"),
    ("z2z2-triple-channel-volume", 5, "61/16"),
    ("z3-single-cut-volume", 5, "507/16"),
    ("z3-single-cut-volume", 6, "1021/16"),
    ("z3-cross-channel-pair-volume", 5, "23/8"),
    ("z3-cross-channel-pair-volume", 6, "47/16"),
]


@pytest.mark.parametrize("lemma_id,n,computed", BEYOND_CRITERION_05)
def test_first_volume_instance_beyond_criterion_05(lemma_id, n, computed):
    verdict = check_lemma(lemma_claims(lemma_id, n)[0])
    assert verdict == Verdict(True, computed, computed)


def criterion_05_volume_claims():
    """Every volume claim at criterion-05 sizes: 763 of them."""
    for lemma_id in LEMMA_IDS:
        sizes = (2, 3, 4) if LEMMA_GROUPS[lemma_id] is Z2 else (2, 3)
        for n in sizes:
            for claim in lemma_claims(lemma_id, n):
                if claim.kind == cuts.VOLUME:
                    yield claim


def volume_pieces():
    """Every volume-claim piece at criterion-05 sizes, then instance 0 of
    each family and size in ``BEYOND_CRITERION_05``."""
    for claim in criterion_05_volume_claims():
        yield claim.spec
    for lemma_id, n, _ in BEYOND_CRITERION_05:
        yield lemma_claims(lemma_id, n)[0].spec


def test_volume_pieces_are_stored_as_vpolytope_would():
    # vertex_enumeration skips VPolytope's own normalization; every piece's
    # points, their order and their types must be what it would give, so
    # triangulate places them the same way.
    checked = 0
    for spec in volume_pieces():
        hp = cut_piece(spec)
        assert same_points(vertex_enumeration(hp), normalized_vertices(hp))
        checked += 1
    assert checked == 771


def test_integer_rows_and_points_triangulate_alike_on_every_volume_piece():
    checked = 0
    for spec in volume_pieces():
        assert paths_agree(cut_piece(spec))
        checked += 1
    assert checked == 771


def test_criterion_05_volume_pieces_are_certified():
    # All 763 take about 6 s, 4 of them in the 192 z2z2 cross-channel pairs
    # at n = 3, so of those only every eighth claim is certified.
    cross_pairs = 0
    checked = 0
    for claim in criterion_05_volume_claims():
        if claim.lemma == "z2z2-cross-channel-pair-volume" and claim.spec.n == 3:
            cross_pairs += 1
            if cross_pairs % 8 != 1:
                continue
        hp = cut_piece(claim.spec)
        t = triangulate(vertex_enumeration(hp))
        certify(t, hp.halfspaces)
        assert t.volume == claim.expected
        checked += 1
    assert (cross_pairs, checked) == (192, 595)


@pytest.mark.parametrize("lemma_id", ["z3-single-cut-volume",
                                      "z3-cross-channel-pair-volume",
                                      "z2z2-cross-channel-pair-volume"])
def test_volume_claims_never_build_points(monkeypatch, lemma_id):
    # A volume claim measures the double description's integer rows; the
    # points, with their Fractions, are built only when something reads them.
    built = []

    def recording(hp):
        built.append(vertex_enumeration(hp))
        return built[-1]

    monkeypatch.setattr(cuts, "vertex_enumeration", recording)
    for claim in lemma_claims(lemma_id, 3):
        assert check_lemma(claim).confirmed
    assert built and any(vp.scale > 1 for vp in built)
    assert all(vp._points is None for vp in built)


def points_verdict(claim):
    """``check_lemma``'s verdict for a flat, contained or integral claim,
    worked out on the piece's points: affine_dim of the points,
    ``helpers.holds`` per point, and each coordinate's denominator."""
    spec = claim.spec
    points = piece_vertices(spec).vertices
    if claim.kind == cuts.FLAT:
        if not points:
            return Verdict(True, "flat", "empty")
        ad = affine_dim(points)
        return Verdict(ad < ambient_dim(spec.group, spec.n), "flat", f"dim={ad}")
    if claim.kind == cuts.CONTAINED_EXISTS:
        other = 2 if spec.cuts[0].channel == 1 else 1
        if not points:
            return Verdict(True, "contained", "empty")
        for c in z3_facet_tuples(spec.n):
            target = cut_halfspace(tuple_cut(spec.n, c, other), MINUS)
            if all(holds(target, p) for p in points):
                return Verdict(True, "contained", f"C={list(c)} channel={other}")
        return Verdict(False, "contained", "no containing cut found")
    bad = [p for p in points if any(x.denominator != 1 for x in p)]
    if bad:
        return Verdict(False, "integral", f"fractional vertex {bad[0]}")
    return Verdict(True, "integral", f"{len(points)} integral vertices")


def test_claims_on_integer_rows_match_their_points_versions():
    # The contained family's pieces have half-integral vertices; the volume
    # pieces, asked the other kinds of claim, are refuted as often as not.
    claims = [*lemma_claims("z3-near-same-channel-contained", 3),
              *lemma_claims("z3-near-same-channel-contained", 4),
              *lemma_claims("z2z2-cut-lattice-points", 3),
              *lemma_claims("z3-far-same-channel-flat", 3)]
    for lemma_id in ("z3-single-cut-volume", "z3-cross-channel-pair-volume",
                     "z2z2-triple-channel-volume"):
        for claim in lemma_claims(lemma_id, 3):
            kinds = [cuts.FLAT, cuts.INTEGRAL_VERTICES]
            if claim.spec.group is Z3:
                kinds.append(cuts.CONTAINED_EXISTS)
            claims += [replace(claim, kind=k, expected=None) for k in kinds]
    verdicts = [check_lemma(claim) for claim in claims]
    assert verdicts == [points_verdict(claim) for claim in claims]
    assert {(v.expected, v.confirmed) for v in verdicts} == {
        (kind, confirmed) for kind in ("flat", "contained", "integral")
        for confirmed in (True, False)}


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        lemma_claims("z2-missing-lemma", 2)
    with pytest.raises(ValueError):
        run_lemma("z5-anything", 2)


def fresh_claims(lemma_id, n):
    """The family's claims with a new cut object in every place."""
    group, kind, instances, _ = LEMMA_FAMILIES[lemma_id]
    return tuple(
        LemmaClaim(lemma_id, CutSpec(group, n, tuple(
            OddSubsetCut(group, n, a, g) for a, g in pairs), sides), kind, expected)
        for pairs, sides, expected in instances(n))


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_claims_share_equal_cuts(lemma_id):
    claims = lemma_claims(lemma_id, 3)
    used = [c for claim in claims for c in claim.spec.cuts]
    # Equal cuts are one object within a list ...
    assert len({id(c) for c in used}) == len(set(used))
    # ... and the claims are the ones built with a new cut in every place.
    fresh = fresh_claims(lemma_id, 3)
    assert claims == fresh
    assert [hash(c) for c in claims] == [hash(c) for c in fresh]
    assert [c.hypothesis() for c in claims] == [c.hypothesis() for c in fresh]
    # Nothing outlives the list: a second call builds its own cuts.
    if used:
        again = lemma_claims(lemma_id, 3)[0].spec.cuts[0]
        assert again == claims[0].spec.cuts[0]
        assert again is not claims[0].spec.cuts[0]


def test_cut_halfspaces_are_built_once_per_side():
    distinct = {c for lemma_id in LEMMA_IDS
                for claim in lemma_claims(lemma_id, 3) for c in claim.spec.cuts}
    # Every cut at n = 3: 2^3 for Z2, 3 * 2^3 for Z2xZ2, 2 * 3^3 for Z3.
    assert len(distinct) == 8 + 24 + 54
    for cut in distinct:
        coeffs = s_coefficients(cut)
        built = {MINUS: HalfSpace(coeffs, cut.rhs),
                 PLUS: HalfSpace(tuple(-c for c in coeffs), -cut.rhs)}
        for side in (MINUS, PLUS):
            first = cut_halfspace(cut, side)
            assert first == built[side]
            assert cut_halfspace(cut, side) is first
        # The memo is invisible to equality, hashing and repr.
        copy = OddSubsetCut(cut.group, cut.n, cut.subset, cut.channel)
        assert copy == cut and hash(copy) == hash(cut) and repr(copy) == repr(cut)


def test_a_claim_list_builds_each_halfspace_once(monkeypatch):
    calls = Counter()

    def counting(cut):
        calls[cut] += 1
        return s_coefficients(cut)

    pieces = []

    def enumerating(hp):
        pieces.append(hp)
        return vertex_enumeration(hp)

    monkeypatch.setattr(clawpoly, "s_coefficients", counting)
    monkeypatch.setattr(cuts, "vertex_enumeration", enumerating)
    claims = lemma_claims("z3-double-pair-flat", 3)
    assert all(check_lemma(claim).confirmed for claim in claims)
    # Only minus sides: one call per distinct cut, however many claims.
    distinct = {c for claim in claims for c in claim.spec.cuts}
    assert dict(calls) == dict.fromkeys(distinct, 1)
    assert len(claims) == 1296 and len(distinct) == 18
    # Every claim still enumerates its own piece.
    assert len(pieces) == len(claims)
    assert [p.halfspaces for p in pieces] == [
        cut_piece(c.spec).halfspaces for c in claims]
