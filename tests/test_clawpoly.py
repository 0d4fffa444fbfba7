"""The model polytopes: vertices, cuts, facet systems, lattices."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from clawvol.clawpoly import (
    MINUS,
    PLUS,
    OddSubsetCut,
    ambient,
    ambient_dim,
    block_width,
    facet_halfspaces,
    lattice,
    model_lattice_index,
    s_coefficients,
    vertices,
)
from clawvol.geometry import VPolytope, lattice_index, vertex_enumeration
from clawvol.groups import GROUPS, Z2, Z2xZ2, Z3, zero_sum_tuples
from clawvol.volume import lattice_volume
from helpers import (
    contains,
    facet_cuts,
    facets,
    holds,
    is_facet,
    value,
    vh_consistent,
)

ALL_GROUPS = list(GROUPS.values())


def test_dimensions():
    assert block_width(Z2) == 1 and block_width(Z3) == 2 and block_width(Z2xZ2) == 3
    assert ambient_dim(Z2, 4) == 4
    assert ambient_dim(Z3, 3) == 6
    assert ambient_dim(Z2xZ2, 3) == 9


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_vertices_are_01_with_unit_block_sums(group):
    for n in (2, 3, 4):
        vp = vertices(group, n)
        assert len(vp.vertices) == group.order ** (n - 1)
        w = block_width(group)
        for v in vp.vertices:
            assert all(x in (0, 1) for x in v)
            for j in range(n):
                assert sum(v[j * w:(j + 1) * w]) in (0, 1)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_vertices_are_the_parsed_zero_sum_points(group):
    """The rows built directly at scale 1 are what ``VPolytope(dim,
    points)`` makes of the encoded zero-sum tuples: distinct, lex-sorted rows of
    length d, so the polytopes and their hashes are equal."""
    w = block_width(group)
    for n in (2, 3, 4, 5):
        points = [tuple(int(g == e) for g in t for e in range(1, w + 1))
                  for t in zero_sum_tuples(group, n)]
        parsed = VPolytope(ambient_dim(group, n), points)
        vp = vertices(group, n)
        assert vp == parsed and hash(vp) == hash(parsed)
        assert vp.scale == 1 and vp.vertices is vp.rows


def test_vertices_requires_n_at_least_2():
    with pytest.raises(ValueError):
        vertices(Z2, 1)


def test_subset_cut_validation():
    assert is_facet(OddSubsetCut(Z2, 3, (1,), 1))
    assert not is_facet(OddSubsetCut(Z2, 3, (1, 2), 1))
    assert OddSubsetCut(Z2, 3, (1,), 1).rhs == 0
    assert OddSubsetCut(Z2, 3, (1, 2, 3), 1).rhs == -2
    with pytest.raises(ValueError):
        OddSubsetCut(Z2, 3, (1, 1), 1)
    with pytest.raises(ValueError):
        OddSubsetCut(Z2, 3, (2, 1), 1)  # positions are given sorted
    with pytest.raises(ValueError):
        OddSubsetCut(Z2, 3, (4,), 1)
    with pytest.raises(ValueError):
        OddSubsetCut(Z2, 3, (1,), 2)  # z2 has a single channel
    with pytest.raises(ValueError):
        OddSubsetCut(Z2xZ2, 3, (1,), 4)
    # Positions and channels are ints: 2.7 is not position 2, and neither
    # 1.0 nor 2.0 stands for the int it equals.
    for positions, channel in (((1, 2.7), 1), ((1.0,), 1), ((1,), 2.0)):
        with pytest.raises(ValueError, match="got float"):
            OddSubsetCut(Z2xZ2, 3, positions, channel)
    # A bool is the int it equals, and is stored as that int.
    flag = OddSubsetCut(Z2xZ2, True, (True,), True)
    assert flag == OddSubsetCut(Z2xZ2, 1, (1,), 1) and type(flag.n) is int
    assert flag.describe() == {"A": [1], "channel": "a"}


def test_tuple_cut_validation():
    cut = OddSubsetCut(Z3, 2, (2, 0), 1)
    assert is_facet(cut) and cut.rhs == 0
    assert is_facet(OddSubsetCut(Z3, 2, (1, 1), 2))
    assert not is_facet(OddSubsetCut(Z3, 2, (1, 0), 1))
    assert OddSubsetCut(Z3, 3, (1, 1, 1), 1).rhs == -1
    with pytest.raises(ValueError):
        OddSubsetCut(Z3, 2, (3, 0), 1)
    with pytest.raises(ValueError):
        OddSubsetCut(Z3, 2, (2, 0), 3)
    for digits, channel in (((2, 0.0), 1), ((2.0, 0), 1), ((2, 0), 1.0)):
        with pytest.raises(ValueError, match="got float"):
            OddSubsetCut(Z3, 2, digits, channel)
    assert OddSubsetCut(Z3, 2, (2, 0), True).describe() == {
        "A": [2, 0], "channel": "1"}


def test_z3_cut_coefficients_frozen():
    # channel 1 uses u_0=(1,2), u_1=(1,-1), u_2=(-2,-1) per digit
    assert s_coefficients(OddSubsetCut(Z3, 2, (0, 1), 1)) == (1, 2, 1, -1)
    # channel 2 uses w_0=(2,1), w_1=(-1,1), w_2=(-1,-2)
    assert s_coefficients(OddSubsetCut(Z3, 2, (0, 1), 2)) == (2, 1, -1, 1)
    assert s_coefficients(OddSubsetCut(Z3, 2, (2, 2), 1)) == (-2, -1, -2, -1)


def test_z2_and_z2xz2_cut_coefficients_frozen():
    assert s_coefficients(OddSubsetCut(Z2, 3, (2,), 1)) == (1, -1, 1)
    # channel b of a cut with A={1}: signs on the two non-channel
    # coordinates of each block, negated inside A
    assert s_coefficients(OddSubsetCut(Z2xZ2, 2, (1,), 2)) == (
        -1, 0, -1, 1, 0, 1)


def test_s_value_and_halfspace_sides():
    cut = OddSubsetCut(Z2, 2, (1,), 1)
    assert cut.side == MINUS
    p_in = (Fraction(1), Fraction(0))   # S = -1 <= rhs 0
    p_out = (Fraction(0), Fraction(1))  # S = 1 >= 0
    assert value(cut.halfspace, p_in) == -1
    assert holds(cut.halfspace, p_in)
    assert not holds(cut.halfspace, p_out)
    assert holds(OddSubsetCut(Z2, 2, (1,), 1, PLUS).halfspace, p_out)


@pytest.mark.parametrize("side", ["sideways", "MINUS", None])
def test_a_cut_refuses_a_side_other_than_minus_or_plus(side):
    with pytest.raises(ValueError, match="side must be 'minus' or 'plus'"):
        OddSubsetCut(Z2, 2, (1,), 1, side)


def test_a_plus_cut_negates_the_minus_row():
    minus = OddSubsetCut(Z3, 3, (2, 0, 1), 2)
    plus = replace(minus, side=PLUS)
    assert plus != minus
    # The plus halfspace is the minus row negated, built once on first read.
    assert "halfspace" not in vars(plus)
    first = plus.halfspace
    assert first.normal == tuple(-c for c in minus.halfspace.normal)
    assert first.offset == -minus.halfspace.offset
    assert plus.halfspace is first
    # The kept halfspace is out of equality, hashing and repr.
    fresh = OddSubsetCut(Z3, 3, (2, 0, 1), 2, PLUS)
    assert fresh == plus and hash(fresh) == hash(plus)
    assert repr(fresh) == repr(plus) and "HalfSpace" not in repr(plus)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_facet_cut_counts(group):
    for n in (2, 3, 4):
        cuts = facet_cuts(group, n)
        if group is Z2:
            assert len(cuts) == 2 ** (n - 1)
        elif group is Z2xZ2:
            assert len(cuts) == 3 * 2 ** (n - 1)
        else:
            assert len(cuts) == 2 * 3 ** (n - 1)
        assert all(is_facet(c) for c in cuts)
        assert len(set(cuts)) == len(cuts)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_facet_system_supports_vertices(group):
    """Vertices satisfy every inequality; each cut is tight somewhere."""
    n = 3
    vp = vertices(group, n)
    hp = facets(group, n)
    for v in vp.vertices:
        assert contains(hp, v)
    for cut in facet_cuts(group, n):
        minus = replace(cut, side=MINUS).halfspace
        assert min(value(minus, v) for v in vp.vertices) == cut.rhs


def test_z3_facet_walk_is_lazy():
    # The first rows of the Z3 facet system come before its 177147 digit
    # tuples at n = 12 are built: a list of them would take about 25 MB.
    tracemalloc.start()
    try:
        rows = list(itertools.islice(facet_halfspaces(Z3, 12), 36 + 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[36] == OddSubsetCut(Z3, 12, (0,) * 11 + (2,), 1, PLUS).halfspace
    assert peak < 1 << 20


@pytest.mark.parametrize("group,n", [(Z2, 6), (Z2, 7), (Z2, 8), (Z3, 4), (Z2xZ2, 4)],
                         ids=("z2-6", "z2-7", "z2-8", "z3-4", "z2xz2-4"))
def test_facet_system_matches_vertices_beyond_criterion_06(group, n):
    assert vh_consistent(vertices(group, n), facets(group, n))


@pytest.mark.parametrize(
    "group,n,volume",
    [(Z2, 2, 2), (Z2, 3, 6), (Z3, 2, 6), (Z2xZ2, 2, 20)],
    ids=("z2-2", "z2-3", "z3-2", "z2xz2-2"))
def test_ambient_volumes_frozen(group, n, volume):
    vp = vertex_enumeration(ambient(group, n))
    assert lattice_volume(vp) == volume


@pytest.mark.parametrize("group,index", [(Z2, 2), (Z2xZ2, 4), (Z3, 3)],
                         ids=("z2", "z2xz2", "z3"))
def test_model_lattice_index(group, index):
    assert model_lattice_index(group) == index
    width = group.order - 1
    for n in range(2, 9):
        basis = lattice(group, n)
        assert lattice_index(basis) == index
        # Each row lies in the kernel of the map sending the unit vector of
        # block j and element g to g; at n = 2 the vertices do not span, so
        # this is what pins the basis down there.
        for row in basis.generators:
            image = 0
            for i, x in enumerate(row):
                for _ in range(x % group.order):
                    image = group.add_table[image][i % width + 1]
            assert image == 0


def span_index(rows, dim):
    """Index in Z^dim of the lattice spanned by any number of integer rows.

    The product of the Smith invariant factors, or 0 when the rows do not
    span R^dim.  ``lattice_index`` only takes square bases, so this is the
    oracle for overcomplete generator sets.
    """
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    diagonal = [snf[i, i] for i in range(min(snf.shape))]
    return abs(math.prod(diagonal)) if len(diagonal) == dim else 0


def vertex_rows(group, n):
    """The raw vertex vectors as lattice generators.

    For n >= 3 these span the same lattice as ``lattice(group, n)``; at
    n = 2 they are rank-deficient, which is why the explicit basis exists.
    """
    return [list(p) for p in vertices(group, n).vertices]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_vertex_span_matches_explicit_lattice(group):
    for n in (3, 4):
        explicit = lattice(group, n)
        spanned = vertex_rows(group, n)
        combined = spanned + [list(r) for r in explicit.generators]
        assert (span_index(spanned, explicit.dim)
                == lattice_index(explicit)
                == span_index(combined, explicit.dim))
    assert span_index(vertex_rows(group, 2), ambient_dim(group, 2)) == 0
