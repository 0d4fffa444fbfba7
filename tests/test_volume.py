"""Triangulation, exact volumes, and free sums."""

import gc
import hashlib
import itertools
import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawvol import volume
from clawvol.clawpoly import vertices
from clawvol.cuts import lemma_claims, piece_vertices
from clawvol.geometry import VPolytope, affine_dim, bareiss
from clawvol.groups import GROUPS
from clawvol.volume import (
    Triangulation,
    lattice_volume,
    triangulate,
    triangulation_lattice_volume,
)
from joins import join_product, join_product_many
import placing_reference

F = Fraction


def pt(*vals):
    return tuple(F(v) for v in vals)


def cube(d):
    return VPolytope(d, tuple(
        tuple(F(b) for b in bits)
        for bits in itertools.product((0, 1), repeat=d)))


def test_simplex_volumes():
    assert lattice_volume(VPolytope(2, (pt(0, 0), pt(1, 0), pt(0, 1)))) == 1
    assert lattice_volume(VPolytope(2, (pt(0, 0), pt(1, 1), pt(2, 2)))) == 0
    assert lattice_volume(VPolytope(1, (pt(F(1, 3)), pt(F(5, 6))))) == F(1, 2)
    scaled = VPolytope(3, (pt(0, 0, 0), pt(2, 0, 0), pt(0, 3, 0),
                           pt(F(1, 2), F(1, 2), F(5, 2))))
    assert lattice_volume(scaled) == 15


def test_cube_volumes():
    for d in (1, 2, 3):
        assert lattice_volume(cube(d)) == factorial(d)


def test_triangulate_square():
    t = triangulate(cube(2))
    assert len(t.simplices) == 2
    assert triangulation_lattice_volume(t) == 2
    assert {len(s) for s in t.simplices} == {3}


def test_triangulate_flat_or_small_inputs():
    assert triangulate(VPolytope(2, (pt(0, 0), pt(1, 0)))).simplices == ()
    line = VPolytope(2, (pt(0, 0), pt(1, 1), pt(2, 2)))
    assert triangulate(line).simplices == ()
    assert lattice_volume(line) == 0
    assert lattice_volume(VPolytope(3, ())) == 0


def test_non_extreme_points_do_not_change_volume():
    with_center = VPolytope(2, cube(2).vertices + (pt(F(1, 2), F(1, 2)),))
    assert lattice_volume(with_center) == 2
    with_edge_midpoint = VPolytope(2, cube(2).vertices + (pt(F(1, 2), 0),))
    assert lattice_volume(with_edge_midpoint) == 2


def test_lattice_volume_with_basis():
    from clawvol.geometry import LatticeBasis

    halved = LatticeBasis(2, ((2, 0), (0, 1)))
    assert lattice_volume(cube(2), halved) == 1


def test_lattice_volume_refuses_a_basis_of_another_dimension():
    from clawvol.geometry import LatticeBasis

    wide = LatticeBasis(3, ((5, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="Z\\^3"):
        lattice_volume(cube(2), wide)
    with pytest.raises(ValueError, match="R\\^3"):
        lattice_volume(VPolytope(3, ()), LatticeBasis(2, ((1, 0), (0, 1))))


def test_join_product_basics():
    seg = VPolytope(1, (pt(0), pt(1)))
    tri = join_product(seg, seg)
    assert set(tri.vertices) == {pt(0, 0), pt(1, 0), pt(0, 1)}
    assert lattice_volume(tri) == 1
    shifted = VPolytope(1, (pt(1), pt(2)))
    with pytest.raises(ValueError, match="origin"):
        join_product(seg, shifted)


def test_join_product_many_multiplies_volumes():
    seg = VPolytope(1, (pt(0), pt(2)))
    sq = VPolytope(2, (pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)))
    joined = join_product_many([seg, sq, seg])
    assert joined.dim == 4
    assert lattice_volume(joined) == 2 * 2 * 2


def test_join_product_random_instances():
    rng = random.Random(20260813)
    for _ in range(30):
        factors = []
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 3)
            pts = {tuple(F(0) for _ in range(d))}
            for _ in range(d + rng.randint(1, 3)):
                pts.add(tuple(F(rng.randint(0, 2)) for _ in range(d)))
            factors.append(VPolytope(d, tuple(pts)))
        joined = join_product_many(factors)
        expected = F(1)
        for f in factors:
            expected *= lattice_volume(f)
        assert lattice_volume(joined) == expected


def test_triangulation_accessors():
    t = triangulate(cube(2))
    assert t.polytope.dim == 2
    assert {j for s in t.simplices for j in s} == set(range(4))
    assert t.volume == 2
    assert Triangulation(cube(2), t.simplices, t.volume).polytope == cube(2)


CROSS_PAIR = "z2z2-cross-channel-pair-volume"
SINGLE = "z2z2-single-cut-volume"
TRIPLE = "z2z2-triple-channel-volume"
Z3_SINGLE = "z3-single-cut-volume"
Z3_CROSS_PAIR = "z3-cross-channel-pair-volume"


# The simplex tuples themselves are pinned by the sha256 of their repr.
# A piece is given by its claim family and claim index.
@pytest.mark.parametrize("group,n,piece,count,digest", [
    ("z2", 6, None, 344, "06391087786b1852d6068e4cac04e519be54b5914b33932e1dca6eb8acd56e77"),
    ("z2", 7, None, 2487, "d71b75ceeca8212ae1d1d611508535a35c8f05a04ced794ae201d61c457bddbe"),
    ("z2", 8, None, 20068, "3da2b15199cd1c34c59a5c4b1ab760d11c8402131c76fb332ca47071534d48e4"),
    ("z3", 3, None, 9, "7df8c050efd9c913cfdc10be8e915b3ff9a8e7f8641c5ef6c592eb5bff6e4455"),
    ("z3", 4, None, 660, "9395687eac8cf7b54bde0ef56902a7b9fcef0199b2be2e6f272e87dbb6ad0aa0"),
    ("z3", 5, None, 36444, "262762b5f950b76255441525faa2f9813dcfad67928b2490fcdfe812b4984491"),
    ("z2xz2", 3, None, 95, "47a34b354a5f3d1ac96c0193ccb4674d642ede1c05f4066b61c381ffb35c7f72"),
    ("z2xz2", 3, (CROSS_PAIR, 0), 234, "da892a38141615c450fc5ddc8bba7c6ddc93b542657c217927a38d68c643caee"),
    ("z2xz2", 3, (CROSS_PAIR, 20), 202, "4e526b9c0945bd9a822032ffe0419cd49554767304e4778c3f0d9c1c61e610f9"),
    ("z2xz2", 3, (CROSS_PAIR, 40), 140, "72387683fde5ca3737b011ed1132be88373b5b45a528ff29a2f64c86c56b122f"),
    ("z2xz2", 3, (CROSS_PAIR, 60), 194, "5b95203d254049b4e42c8f74e42b380e713fba8da1c1ee18a7aa04b7eb0c52f9"),
    ("z2xz2", 3, (CROSS_PAIR, 80), 227, "09884999b8448df2833797bd0d35e682b65ea99ea0969401f5f9a3ddc69f7316"),
    ("z2xz2", 3, (CROSS_PAIR, 100), 237, "5fe274139f21906c8d4d3bebf283253e7d85464ed0929437201e6a5944c21287"),
    ("z2xz2", 3, (CROSS_PAIR, 120), 239, "3a9326534544d7f2350ed5858160c8d4433ceeff00fefca1dd2cd50754f37000"),
    ("z2xz2", 3, (CROSS_PAIR, 140), 237, "cdc2a0a3f43f7bcb7144ca523e888455043dbc9b29eba756ea32360dd12ee333"),
    ("z2xz2", 3, (CROSS_PAIR, 160), 252, "2ffdcd316c17a04f3970421775d5297173eecea1eb7a70f2a54675f1c5e6c412"),
    ("z2xz2", 3, (CROSS_PAIR, 180), 227, "875340119a21a582df19917c3cce71eeb2294785ad642ee3c4f7df58b304759e"),
    ("z2xz2", 3, (SINGLE, 0), 172, "69ac19f3caffbfdc68f1eeb43b3e623a4482fdcf8c6697c7e2afe58dd2a8ffd6"),
    ("z2xz2", 3, (TRIPLE, 0), 33, "672fa0af788696e9278d27ea1cfd848835483aa9340e87d6fbcf379020318afc"),
    ("z2xz2", 3, (TRIPLE, 5), 27, "2ce3bb138da64582e994fd6110c79595dda1a3a361fc856eecd8464b9e6e8eee"),
    ("z3", 3, (Z3_SINGLE, 0), 32, "2529730c6caef61dfb7e1213943038c2f967a6bc27e919fe4803ab273167f281"),
    ("z3", 3, (Z3_SINGLE, 5), 17, "74c6043f68345bf9195caa3978684410cf58263369191fec9c8ed26411a13a90"),
    ("z3", 3, (Z3_CROSS_PAIR, 0), 8, "ef7247053efcd5c5a2f66e7e6ace17698c38c49952b148c2a3b41c2858cca34a"),
    ("z3", 3, (Z3_CROSS_PAIR, 9), 6, "bf943bb5033f0e24093b01bdb1028b791f83ea127465fc766df21b4142165b26"),
], ids=("z2-6", "z2-7", "z2-8", "z3-3", "z3-4", "z3-5", "z2xz2-3",
        *(f"cross-pair-3-{k}" for k in range(0, 200, 20)),
        "single-3-0", "triple-3-0", "triple-3-5", "z3-single-3-0", "z3-single-3-5",
        "z3-cross-pair-3-0", "z3-cross-pair-3-9"))
def test_claw_simplex_counts_frozen(group, n, piece, count, digest):
    if piece is None:
        vp = vertices(GROUPS[group], n)
    else:
        lemma, index = piece
        claim = lemma_claims(lemma, n)[index]
        assert claim.spec.group is GROUPS[group]
        vp = piece_vertices(claim.spec)
    simplices = triangulate(vp).simplices
    assert len(simplices) == count
    assert hashlib.sha256(repr(simplices).encode()).hexdigest() == digest


@st.composite
def point_sets(draw):
    """Small point sets in R^1..R^5 with fractional coordinates, often with
    coordinates in {0, 1} (many coplanar points), duplicates and midpoints."""
    d = draw(st.integers(1, 5))
    coord = st.one_of(st.integers(0, 1).map(F),
                      st.fractions(-2, 2, max_denominator=3))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 6))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(pts))
        b = draw(st.sampled_from(pts))
        pts.append(draw(st.sampled_from((a, tuple((x + y) / 2 for x, y in zip(a, b))))))
    return VPolytope(d, tuple(pts))


@st.composite
def unimodular_maps(draw, d):
    """An integer matrix of determinant +-1 and an integer translation."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        k = draw(st.integers(-2, 2))
        if a != b:
            rows[b] = [x + k * y for x, y in zip(rows[b], rows[a])]
        else:
            rows[a] = [-x for x in rows[a]]
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return rows, shift


def determinant_sum(t):
    """Sum of |det(v_i - v_0)| over the simplices, one elimination each."""
    pts = t.polytope.vertices
    scale = lcm(*(x.denominator for p in pts for x in p))
    total = 0
    for simplex in t.simplices:
        base = pts[simplex[0]]
        rows = [[int((a - b) * scale) for a, b in zip(pts[j], base)]
                for j in simplex[1:]]
        pivots, last = bareiss(rows)
        assert len(pivots) == t.polytope.dim
        total += abs(last)
    return F(total, scale ** t.polytope.dim)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangulation_volume_matches_determinants_and_unimodular_image(data):
    vp = data.draw(point_sets())
    t = triangulate(vp)
    assert t.volume == determinant_sum(t)
    assert (t.volume > 0) == (affine_dim(vp.vertices) == vp.dim)
    rows, shift = data.draw(unimodular_maps(vp.dim))
    image = VPolytope(vp.dim, tuple(
        tuple(sum(r * x for r, x in zip(row, p)) + s for row, s in zip(rows, shift))
        for p in vp.vertices))
    assert triangulate(image).volume == t.volume


@st.composite
def zero_one_sets(draw):
    """Point sets in R^1..R^7 with coordinates mostly in {0, 1}: many points
    on each hyperplane, so boundary simplices share hull facets and new
    points often extend a facet (h_G(p) = 0)."""
    d = draw(st.integers(1, 7))
    coord = st.one_of(st.sampled_from((F(0), F(1))),
                      st.sampled_from((F(0), F(1), F(2), F(-1), F(1, 2))))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 10))
    return VPolytope(d, tuple(pts))


def outcome(triangulate_fn, vp):
    """The simplices and volume, or ``AssertionError`` if a check fails."""
    try:
        t = triangulate_fn(vp)
    except AssertionError:
        return AssertionError
    return t.simplices, t.volume


@settings(max_examples=300, deadline=None)
@given(st.one_of(point_sets(), zero_one_sets()))
def test_triangulate_matches_per_simplex_reference(vp):
    # The reference keeps one functional per boundary simplex; the hull
    # facet design must build the same simplices in the same order.
    assert outcome(triangulate, vp) == outcome(placing_reference.triangulate, vp)


def test_triangulate_matches_reference_on_every_single_cut_piece():
    # Most boundary simplices of these pieces are never coned: a wrong
    # boundary record or end-of-round mask shows only through the few
    # that are, so every piece is compared, not a sample.
    claims = lemma_claims(SINGLE, 3)
    assert len(claims) == 24
    for claim in claims:
        vp = piece_vertices(claim.spec)
        assert outcome(triangulate, vp) == outcome(placing_reference.triangulate, vp)


def test_triangulate_leaves_no_cyclic_garbage():
    claim = lemma_claims(CROSS_PAIR, 3)[0]
    for vp in (vertices(GROUPS["z2"], 6), piece_vertices(claim.spec)):
        gc.collect()
        gc.disable()
        try:
            triangulate(vp)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_every_hull_facet_has_its_own_hyperplane(monkeypatch):
    # A hyperplane that a point sees never supports the hull again, so a
    # second hull facet on one hyperplane would be a split, not a new facet.
    rows = []

    class Recorded(volume._HullFacet):
        __slots__ = ()

        def __init__(self, h, bit, simplices):
            super().__init__(h, bit, simplices)
            rows.append(h)

    monkeypatch.setattr(volume, "_HullFacet", Recorded)
    for vp in (cube(4), vertices(GROUPS["z2"], 6), vertices(GROUPS["z3"], 4)):
        rows.clear()
        triangulate(vp)
        assert len(set(rows)) == len(rows)


def test_every_boundary_record_carries_its_parents_point_bitmask(monkeypatch):
    # A new facet's horizon vertices are read off the record's mask, so a
    # wrong mask gives a vertex a wrong incidence bit, which only a later
    # ridge test through that vertex would show.
    records = []

    class Listed(list):
        def append(self, record):
            records.append(record)
            super().append(record)

    class Recorded(volume._HullFacet):
        __slots__ = ()

        def __init__(self, h, bit, simplices):
            records.extend(simplices)
            super().__init__(h, bit, Listed(simplices))

    monkeypatch.setattr(volume, "_HullFacet", Recorded)
    claim = lemma_claims(CROSS_PAIR, 3)[0]
    for vp in (cube(4), vertices(GROUPS["z2"], 6), piece_vertices(claim.spec)):
        records.clear()
        t = triangulate(vp)
        assert len(records) > vp.dim + 1  # more than the seed facets
        for _, parent, _, _, mask in records:
            assert mask == sum(1 << v for v in parent)


# Each of triangulate's three checks, reached on its own.  Exact arithmetic
# on distinct points never fails them, so each test breaks one input or one
# step from outside the loop.

def test_a_point_that_sees_no_hull_facet_is_refused():
    # _from_rows stores rows as given: the second (1, 0) is already a
    # vertex of the seed simplex, so it sees no hull facet strictly.
    vp = VPolytope._from_rows(2, 1, ((0, 0), (0, 1), (1, 0), (1, 0), (1, 1)))
    with pytest.raises(AssertionError, match="sees no hull facet"):
        triangulate(vp)


def test_a_degenerate_simplex_is_refused(monkeypatch):
    # A new hull facet's functional turned outward puts the vertex off
    # each of its ridges at a negative height.
    primitive = volume._primitive
    monkeypatch.setattr(volume, "_primitive",
                        lambda row: tuple(-x for x in primitive(row)))
    with pytest.raises(AssertionError, match="degenerate simplex"):
        triangulate(vertices(GROUPS["z2"], 4))


def test_a_ridge_in_two_hidden_hull_facets_is_refused(monkeypatch):
    # On a consistent hull a ridge lies in exactly two hull facets, so the
    # check guards the incidence masks.  A new facet that takes the bit
    # below its own shares it with a live facet (bits are handed out lowest
    # first), and that bit then marks the vertices of two facets.
    class Shifted(volume._HullFacet):
        __slots__ = ()

        def __init__(self, h, bit, simplices):
            super().__init__(h, bit, simplices)
            if not simplices:
                self.bit = bit - 1

    monkeypatch.setattr(volume, "_HullFacet", Shifted)
    with pytest.raises(AssertionError, match="a ridge lies in three hull facets"):
        triangulate(cube(3))
