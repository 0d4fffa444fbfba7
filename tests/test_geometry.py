"""Half-spaces, vertex enumeration, hull membership, lattice index."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clawvol.geometry import (
    HPolytope,
    HalfSpace,
    LatticeBasis,
    RankDeficientError,
    UnboundedError,
    VPolytope,
    affine_dim,
    bareiss,
    canonicalize,
    lattice_index,
    matrix_rank,
    point_in_hull,
    vertex_enumeration,
    vh_consistent,
)

F = Fraction


def pt(*vals):
    return tuple(F(v) for v in vals)


def box(*bounds) -> HPolytope:
    """Axis-aligned box given per-coordinate (lo, hi) pairs."""
    d = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        e = [F(0)] * d
        e[i] = F(1)
        rows.append(HalfSpace(tuple(-x for x in e), F(-lo)))
        rows.append(HalfSpace(tuple(e), F(hi)))
    return HPolytope(d, tuple(rows))


def test_halfspace_basics():
    h = HalfSpace.of((1, -2), 3)
    assert h.value(pt(1, 0)) == 1
    assert h.slack(pt(1, 0)) == 2
    assert h.holds(pt(3, 0)) and h.is_tight(pt(3, 0))
    assert not h.holds(pt(4, 0))
    assert h.flipped().holds(pt(4, 0))
    assert h.integer_form() == (1, -2, 3)
    assert HalfSpace.of((2, -4), 6).integer_form() == (1, -2, 3)
    assert HalfSpace.of((F(2, 3), 0), F(1, 3)).canonical() == HalfSpace.of((2, 0), 1)


def test_hpolytope_contains():
    hp = box((0, 1), (0, 1))
    assert hp.contains(pt(F(1, 2), F(1, 2)))
    assert not hp.contains(pt(2, 0))


def test_vpolytope_dedup_and_sort():
    vp = VPolytope(1, (pt(1), pt(0), pt(1)))
    assert vp.vertices == (pt(0), pt(1))
    assert not vp.is_empty()
    assert VPolytope(2, ()).is_empty()


def test_enumerate_unit_square():
    vp = vertex_enumeration(box((0, 1), (0, 1)))
    assert vp.vertices == (pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1))


def test_enumerate_simplex():
    rows = (
        HalfSpace.of((-1, 0), 0),
        HalfSpace.of((0, -1), 0),
        HalfSpace.of((1, 1), 1),
    )
    vp = vertex_enumeration(HPolytope(2, rows))
    assert vp.vertices == (pt(0, 0), pt(0, 1), pt(1, 0))


def test_enumerate_cut_cube():
    """Cube corners below the plane plus six edge crossings at halves."""
    hp = box((0, 1), (0, 1), (0, 1)).with_halfspaces(
        (HalfSpace.of((2, 2, 2), 3),))
    vp = vertex_enumeration(hp)
    low = {p for p in vp.vertices if sum(p) <= 1}
    cut = {p for p in vp.vertices if sum(p) == F(3, 2)}
    assert len(vp.vertices) == 10 and len(low) == 4 and len(cut) == 6
    assert pt(1, F(1, 2), 0) in cut


def test_enumerate_empty_and_unbounded():
    infeasible = HPolytope(1, (HalfSpace.of((1,), -1), HalfSpace.of((-1,), 0)))
    assert vertex_enumeration(infeasible).is_empty()
    with pytest.raises(UnboundedError):
        vertex_enumeration(HPolytope(2, (HalfSpace.of((1, 0), 0),)))


def test_enumerate_lower_dimensional():
    hp = box((0, 1), (0, 0))
    vp = vertex_enumeration(hp)
    assert vp.vertices == (pt(0, 0), pt(1, 0))


def test_point_in_hull():
    square = [pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)]
    assert point_in_hull(pt(F(1, 3), F(2, 3)), square)
    assert point_in_hull(pt(1, 1), square)
    assert not point_in_hull(pt(1, F(3, 2)), square)
    assert not point_in_hull(pt(-1, 0), square)


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([pt(5, 5)]) == 0
    assert affine_dim([pt(0, 0), pt(1, 1), pt(2, 2)]) == 1
    assert affine_dim([pt(0, 0), pt(1, 0), pt(0, 1)]) == 2


def test_matrix_rank():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(1), F(1)]]) == 2


@st.composite
def int_matrices(draw, square=False, degenerate=True):
    """Small integer matrices; with ``degenerate``, rows are often replaced by
    a zero row, a copy of another row, or a combination of two others."""
    ncols = draw(st.integers(1, 5))
    nrows = ncols if square else draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if degenerate:
        for i in range(nrows):
            kind = draw(st.sampled_from(("keep", "keep", "zero", "copy", "combo")))
            j = draw(st.integers(0, nrows - 1))
            k = draw(st.integers(0, nrows - 1))
            if kind == "zero":
                rows[i] = [0] * ncols
            elif kind == "copy":
                rows[i] = list(rows[j])
            elif kind == "combo":
                a, b = draw(entry), draw(entry)
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_bareiss_rank_matches_sympy(rows):
    expected = sympy.Matrix(rows).rank()
    assert len(bareiss([r[:] for r in rows])[0]) == expected
    assert matrix_rank([[F(v, 3) for v in r] for r in rows]) == expected


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_bareiss_determinant_matches_sympy(rows):
    pivots, last = bareiss([r[:] for r in rows])
    det = abs(last) if len(pivots) == len(rows) else 0
    assert det == abs(sympy.Matrix(rows).det())


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True, degenerate=False))
def test_bareiss_on_augmented_identity_gives_scaled_inverse(rows):
    m = sympy.Matrix(rows)
    assume(m.det() != 0)
    size = len(rows)
    work = [r + [int(i == j) for i in range(size)] for j, r in enumerate(rows)]
    pivots, last = bareiss(work)
    assert pivots == list(range(size))
    right = sympy.Matrix([r[size:] for r in work])
    assert m * right == last * sympy.eye(size)
    assert abs(last) == abs(m.det())


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_bareiss_pivots_are_greedy_and_right_block_inverts_them(rows):
    m = sympy.Matrix(rows)
    nrows, ncols = m.shape
    work = [r + [int(i == j) for i in range(nrows)] for j, r in enumerate(rows)]
    pivots, last = bareiss(work)
    ranks = [0] + [m[:, :c + 1].rank() for c in range(ncols)]
    assert [c for c in pivots if c < ncols] == [
        c for c in range(ncols) if ranks[c + 1] > ranks[c]]
    if pivots[-1] < ncols:
        right = sympy.Matrix([r[ncols:] for r in work])
        assert m[:, pivots] * right == last * sympy.eye(nrows)


def test_canonicalize_drops_non_extreme_points():
    vp = VPolytope(2, (pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2),
                       pt(1, 1), pt(1, 0)))
    assert canonicalize(vp).vertices == (pt(0, 0), pt(0, 2), pt(2, 0), pt(2, 2))


def test_vh_consistent():
    hp = box((0, 1), (0, 1))
    good = VPolytope(2, (pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)))
    assert vh_consistent(good, hp)
    # redundant hull-interior points are fine, a wrong vertex set is not
    with_center = VPolytope(2, good.vertices + (pt(F(1, 2), F(1, 2)),))
    assert vh_consistent(with_center, hp)
    missing = VPolytope(2, good.vertices[:3])
    assert not vh_consistent(missing, hp)
    outside = VPolytope(2, good.vertices + (pt(2, 2),))
    assert not vh_consistent(outside, hp)


def test_lattice_index():
    assert lattice_index(LatticeBasis(2, ((1, 0), (0, 1)))) == 1
    assert lattice_index(LatticeBasis(2, ((2, 0), (0, 3)))) == 6
    assert lattice_index(LatticeBasis(2, ((1, 2), (3, 4)))) == 2
    # extra generators that stay in the same lattice do not change it
    assert lattice_index(LatticeBasis(2, ((2, 0), (0, 3), (2, 3)))) == 6
    with pytest.raises(RankDeficientError):
        lattice_index(LatticeBasis(2, ((1, 1), (2, 2))))


def test_lattice_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(2, ((1,),))
    with pytest.raises(ValueError, match="integral"):
        LatticeBasis(1, ((F(1, 2),),))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_enumeration_of_random_boxes(ax, ay, bx, by):
    lo = (F(-ax, 2), F(-ay, 3))
    hi = (F(bx, 2), F(by, 3))
    vp = vertex_enumeration(box((lo[0], hi[0]), (lo[1], hi[1])))
    corners = {(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])}
    assert set(vp.vertices) == corners
