"""Half-spaces, vertex enumeration, V/H agreement, lattice index."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clawvol import cli, clawpoly, geometry
from clawvol.clawpoly import OddSubsetCut
from clawvol.cuts import CutSpec, cut_piece, lemma_claims, piece_vertices
from clawvol.geometry import (
    HPolytope,
    HalfSpace,
    LatticeBasis,
    RankDeficientError,
    UnboundedError,
    VPolytope,
    affine_dim,
    bareiss,
    lattice_index,
    vertex_enumeration,
    vertex_rays,
)
from clawvol.geometry import (
    _cone_rows,
    _dd_cone,
    _dd_state,
    _primitive,
)
from clawvol.formulas import degree
from clawvol.groups import Z2, Z2xZ2, Z3
from clawvol.serialize import dumps
from helpers import (
    contains,
    criterion_05_volume_claims,
    flipped,
    holds,
    normalized_vertices,
    paths_agree,
    rational_halfspace,
    rational_polytope,
    same_points,
    value,
    vh_consistent,
    vpolytope_to_doc,
    write_ext,
)

F = Fraction


def pt(*vals):
    return tuple(F(v) for v in vals)


def box(*bounds) -> HPolytope:
    """Axis-aligned box given per-coordinate rational (lo, hi) pairs."""
    d = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        e = tuple(int(j == i) for j in range(d))
        rows.append(rational_halfspace(tuple(-x for x in e), -lo))
        rows.append(rational_halfspace(e, hi))
    return HPolytope(d, tuple(rows))


def test_halfspace_basics():
    h = HalfSpace((1, -2), 3)
    assert value(h, pt(1, 0)) == 1
    assert holds(h, pt(3, 0)) and value(h, pt(3, 0)) == h.offset
    assert not holds(h, pt(4, 0))
    assert holds(flipped(h), pt(4, 0))
    assert flipped(h) == HalfSpace((-1, 2), -3)
    # stored as the primitive integer row, orientation kept
    assert HalfSpace((2, -4), 6) == h
    assert HalfSpace((-2, 4), -6) == flipped(h)
    assert HalfSpace((0, 0), -3) == HalfSpace((0, 0), -1)
    # a bool counts as the int it equals, and is stored as that int
    flag = HalfSpace((True, False), True)
    assert flag == HalfSpace((1, 0), 1)
    assert all(type(v) is int for v in (*flag.normal, flag.offset))


# Every public entry that takes numbers, given one entry at a time; the
# other entries are valid ints.
PUBLIC_ENTRIES = {
    "halfspace-offset": lambda x: HalfSpace((1, 0), x),
    "halfspace-normal": lambda x: HalfSpace((x, 0), 1),
    "vpolytope": lambda x: VPolytope(1, ((x,),)),
    "vpolytope-whole": lambda x: VPolytope(2, ((0, 0), (1, x))),
    "lattice": lambda x: LatticeBasis(2, ((1, 0), (0, x))),
    "affine-dim": lambda x: affine_dim([(0, 0), (x, 1)]),
    "subset-cut-position": lambda x: OddSubsetCut(Z2, 3, (x, 2), 1),
    "subset-cut-channel": lambda x: OddSubsetCut(Z2xZ2, 3, (1,), x),
    "tuple-cut-digit": lambda x: OddSubsetCut(Z3, 3, (1, x, 0), 1),
    "tuple-cut-channel": lambda x: OddSubsetCut(Z3, 3, (1, 1, 0), x),
    # The sizes: a dimension, and an n, which the cuts and formulas check
    # through one function (doubled here, as n must be at least 2).
    "hpolytope-dim": lambda x: HPolytope(x, ()),
    "vpolytope-dim": lambda x: VPolytope(x, ((0,),)),
    "lattice-dim": lambda x: LatticeBasis(x, ((1,),)),
    "cut-n": lambda x: OddSubsetCut(Z2, x, (1,), 1),
    "degree-n": lambda x: degree(Z2, 2 * x),
    # The cached sizes: the int call's result is kept, and the cache must
    # not hand it to an equal float or Fraction.
    "ambient-n": lambda x: clawpoly.ambient(Z2, 3 * x),
    "z3-minus-n": lambda x: clawpoly.z3_minus_halfspaces(3 * x, 1),
    "z3-minus-channel": lambda x: clawpoly.z3_minus_halfspaces(3, x),
}
# The test-side point checks take rational points.
HELPER_ENTRIES = {
    "holds": lambda x: holds(HalfSpace((1, 0), 1), (x, 0)),
    "contains": lambda x: contains(box((0, 1), (0, 1)), (0, x)),
}


@pytest.mark.parametrize("entry", [*PUBLIC_ENTRIES, *HELPER_ENTRIES])
def test_floats_are_refused(entry):
    """A float, a ``Fraction`` and a string are refused even when they
    equal 1, with a ``ValueError`` that names their type; the int 1 passes.
    The refusal holds before and after the int call, which a cache keeps.
    The test helpers refuse only the float and the string."""
    build = PUBLIC_ENTRIES.get(entry) or HELPER_ENTRIES[entry]
    refused = (1.0, F(1), "1") if entry in PUBLIC_ENTRIES else (1.0, "1")
    for _ in range(2):
        for bad in refused:
            with pytest.raises(ValueError, match=f"got {type(bad).__name__}$"):
                build(bad)
        build(1)


@pytest.mark.parametrize("call", [
    lambda: value(HalfSpace((1, 1), 1), (0, 0, 7)),
    lambda: holds(HalfSpace((1, 1), 1), (0,)),
    lambda: contains(HPolytope(2, (HalfSpace((1, 1), 1),)), (0, 0, 7, 7)),
    lambda: affine_dim([(0,), (1, 5, 7)]),
], ids=("value", "holds", "contains", "affine-dim"))
def test_points_of_the_wrong_length_are_refused(call):
    with pytest.raises(ValueError, match="point of length"):
        call()


def test_hpolytope_contains():
    hp = box((0, 1), (0, 1))
    assert contains(hp, pt(F(1, 2), F(1, 2)))
    assert not contains(hp, pt(2, 0))


def test_vpolytope_dedup_and_sort():
    vp = VPolytope(1, ((1,), (0,), (1,)))
    assert vp.scale == 1 and vp.rows == vp.vertices == ((0,), (1,))
    assert not vp.is_empty()
    assert VPolytope(2, ()).is_empty()


def test_enumerate_unit_square():
    vp = vertex_enumeration(box((0, 1), (0, 1)))
    assert vp.vertices == (pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1))


def test_enumerate_simplex():
    rows = (
        HalfSpace((-1, 0), 0),
        HalfSpace((0, -1), 0),
        HalfSpace((1, 1), 1),
    )
    vp = vertex_enumeration(HPolytope(2, rows))
    assert vp.vertices == (pt(0, 0), pt(0, 1), pt(1, 0))


def test_enumerate_cut_cube():
    """Cube corners below the plane plus six edge crossings at halves."""
    hp = box((0, 1), (0, 1), (0, 1)).with_halfspaces(
        (HalfSpace((2, 2, 2), 3),))
    vp = vertex_enumeration(hp)
    low = {p for p in vp.vertices if sum(p) <= 1}
    cut = {p for p in vp.vertices if sum(p) == F(3, 2)}
    assert len(vp.vertices) == 10 and len(low) == 4 and len(cut) == 6
    assert pt(1, F(1, 2), 0) in cut


def test_points_keep_int_and_fraction_coordinates(monkeypatch):
    """Integral vertices stay ints, the others are Fractions, and either
    spelling of a point gives the same polytope and the same bytes."""
    hp = box((0, 1), (0, 1), (0, 1)).with_halfspaces(
        (HalfSpace((2, 2, 2), 3),))
    kinds = [{type(x) for x in p} for p in vertex_enumeration(hp).vertices]
    assert kinds.count({int}) == 4 and kinds.count({Fraction}) == 6

    ints = ((1, 0), (0, 0), (0, 1), (F(1, 2), 2))
    fractions = tuple(pt(*p) for p in ints)
    mixed = ((F(1), 0), (0, F(0)), (0, 1), (F(1, 2), F(2)), (1, F(0)))
    polys = [rational_polytope(2, points) for points in (ints, fractions, mixed)]
    assert polys[0] == polys[1] == polys[2]
    assert len({hash(vp) for vp in polys}) == 1
    # Only the rows are kept; the points are built from them on first read.
    assert all("vertices" not in vars(vp) for vp in polys)
    assert all(vp.vertices == ((0, 0), (0, 1), (F(1, 2), 2), (1, 0))
               for vp in polys)
    assert all(kinds == [{int}, {int}, {Fraction}, {int}] for kinds in (
        [set(map(type, p)) for p in vp.vertices] for vp in polys))

    def render(vp):
        monkeypatch.setattr(cli, "claw_vertices", lambda group, n: vp)
        rows = CliRunner().invoke(cli.main,
                                  ["vertices", "--group", "z2", "--n", "2"])
        return dumps(vpolytope_to_doc(vp)), write_ext(vp), rows.stdout

    assert render(polys[0]) == render(polys[1]) == render(polys[2])
    assert render(polys[0])[2] == "0 0\n0 1\n1/2 2\n1 0\n"


def test_enumerate_empty_and_unbounded():
    infeasible = HPolytope(1, (HalfSpace((1,), -1), HalfSpace((-1,), 0)))
    assert vertex_enumeration(infeasible).is_empty()
    with pytest.raises(UnboundedError):
        vertex_enumeration(HPolytope(2, (HalfSpace((1, 0), 0),)))


def test_enumerate_lower_dimensional():
    hp = box((0, 1), (0, 0))
    vp = vertex_enumeration(hp)
    assert vp.vertices == (pt(0, 0), pt(1, 0))


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([(5, 5)]) == 0
    assert affine_dim([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2


@st.composite
def int_matrices(draw, square=False, degenerate=True, max_cols=5):
    """Small integer matrices; with ``degenerate``, rows are often replaced by
    a zero row, a copy of another row, or a combination of two others."""
    ncols = draw(st.integers(1, max_cols))
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


def test_vh_consistent():
    hp = box((0, 1), (0, 1))
    good = VPolytope(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert vh_consistent(good, hp)
    # redundant hull-interior points are fine, a wrong vertex set is not
    with_center = rational_polytope(2, good.vertices + ((F(1, 2), F(1, 2)),))
    assert vh_consistent(with_center, hp)
    missing = VPolytope(2, good.vertices[:3])
    assert not vh_consistent(missing, hp)
    outside = VPolytope(2, good.vertices + ((2, 2),))
    assert not vh_consistent(outside, hp)


def test_lattice_index():
    assert lattice_index(LatticeBasis(2, ((1, 0), (0, 1)))) == 1
    assert lattice_index(LatticeBasis(2, ((2, 0), (0, 3)))) == 6
    assert lattice_index(LatticeBasis(2, ((1, 2), (3, 4)))) == 2
    # a basis has exactly dim rows; a generating set with more is refused
    with pytest.raises(ValueError, match="needs 2 rows, got 3"):
        LatticeBasis(2, ((2, 0), (0, 3), (2, 3)))
    with pytest.raises(RankDeficientError):
        lattice_index(LatticeBasis(2, ((1, 1), (2, 2))))


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True, max_cols=6))
def test_lattice_index_is_abs_determinant(rows):
    det = sympy.Matrix(rows).det()
    basis = LatticeBasis(len(rows), tuple(map(tuple, rows)))
    if det == 0:
        with pytest.raises(RankDeficientError):
            lattice_index(basis)
    else:
        assert lattice_index(basis) == abs(det)


def test_lattice_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(2, ((1,),))
    with pytest.raises(ValueError, match="got Fraction"):
        LatticeBasis(1, ((F(1, 2),),))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_enumeration_of_random_boxes(ax, ay, bx, by):
    lo = (F(-ax, 2), F(-ay, 3))
    hi = (F(bx, 2), F(by, 3))
    vp = vertex_enumeration(box((lo[0], hi[0]), (lo[1], hi[1])))
    corners = {(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])}
    assert set(vp.vertices) == corners


def brute_force_vertices(hp: HPolytope) -> tuple:
    """Every feasible point where some dim of the constraints are tight and
    independent, found by solving each dim-subset with Fraction elimination."""
    found = set()
    for subset in itertools.combinations(hp.halfspaces, hp.dim):
        system = [[F(v) for v in (*h.normal, h.offset)] for h in subset]
        for c in range(hp.dim):
            p = next((i for i in range(c, hp.dim) if system[i][c]), None)
            if p is None:
                break
            system[c], system[p] = system[p], system[c]
            system[c] = [v / system[c][c] for v in system[c]]
            for i in range(hp.dim):
                if i != c and system[i][c]:
                    f = system[i][c]
                    system[i] = [a - f * b for a, b in zip(system[i], system[c])]
        else:
            point = tuple(row[-1] for row in system)
            if contains(hp, point):
                found.add(point)
    return tuple(sorted(found))


@st.composite
def boxed_polytopes(draw):
    """A box in R^1..R^4 cut by random halfspaces near its center, with
    duplicate rows, zero rows, implicit equalities and contradictions.  A
    duplicate may be given rescaled; it is stored as the same primitive
    row."""
    d = draw(st.integers(1, 4))
    halves = st.integers(-4, 4).map(lambda k: F(k, 2))
    lo = [draw(halves) for _ in range(d)]
    hi = [a + F(draw(st.integers(0, 4)), 2) for a in lo]
    center = [(a + b) / 2 for a, b in zip(lo, hi)]
    rows = []
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        rows += [rational_halfspace(tuple(-x for x in e), -lo[i]),
                 rational_halfspace(e, hi[i])]

    def near_center():
        a = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
        return rational_halfspace(
            a, sum(x * c for x, c in zip(a, center)) + draw(halves) / 2)

    for _ in range(draw(st.integers(0, 2))):
        rows.append(near_center())
    for kind in draw(st.lists(st.sampled_from(
            ("duplicate", "zero", "equality", "contradiction")), max_size=2)):
        if kind == "duplicate":
            h = draw(st.sampled_from(rows))
            k = draw(st.sampled_from((F(1), F(2), F(1, 3))))
            rows.append(rational_halfspace(tuple(k * a for a in h.normal),
                                           k * h.offset))
        elif kind == "zero":
            rows.append(rational_halfspace((0,) * d, draw(halves)))
        elif kind == "equality":
            h = near_center()
            rows += [h, flipped(h)]
        else:
            h = near_center()
            rows += [h, HalfSpace(flipped(h).normal, flipped(h).offset - 1)]
    return HPolytope(d, tuple(draw(st.permutations(rows))))


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes())
def test_enumeration_matches_brute_force(hp):
    assert vertex_enumeration(hp).vertices == brute_force_vertices(hp)


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes(), st.data())
def test_contains_matches_fraction_evaluation(hp, data):
    coord = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    point = data.draw(st.tuples(*[coord] * hp.dim))
    exact = [sum(F(a) * v for a, v in zip(hs.normal, point)) <= hs.offset
             for hs in hp.halfspaces]
    assert [holds(hs, point) for hs in hp.halfspaces] == exact
    assert contains(hp, point) == all(exact)


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes(), st.data())
def test_int_points_answer_like_their_fractions(hp, data):
    # An all-int point skips the scaling; its answers must not change.
    point = data.draw(st.tuples(*[st.integers(-3, 3)] * hp.dim))
    as_fractions = tuple(map(F, point))
    assert ([holds(hs, point) for hs in hp.halfspaces]
            == [holds(hs, as_fractions) for hs in hp.halfspaces])
    assert contains(hp, point) == contains(hp, as_fractions)


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes())
def test_vertex_enumeration_stores_what_vpolytope_would(hp):
    # vertex_enumeration sorts the rays by their integer rows; the
    # reference normalizes the points in helpers.rational_polytope.
    assert same_points(vertex_enumeration(hp), normalized_vertices(hp))


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes())
def test_integer_rows_and_points_triangulate_alike(hp):
    assert paths_agree(hp)


def integral_rule_holds(hp: HPolytope) -> bool:
    """One primitive ray per vertex, and the rays with y_0 = 1 are exactly
    the integral vertices, as an integral-vertices claim reads them."""
    rays = vertex_rays(hp)
    vp = vertex_enumeration(hp)
    integral = {p for p in vp.vertices if all(x.denominator == 1 for x in p)}
    return (len(rays) == len(vp.rows)
            and {r[1:] for r in rays if r[0] == 1} == integral)


@settings(max_examples=100, deadline=None)
@given(boxed_polytopes())
def test_rays_with_y0_one_are_the_integral_vertices(hp):
    assert integral_rule_holds(hp)


def test_rays_with_y0_one_are_the_integral_vertices_of_every_volume_piece():
    fractional = 0
    for claim in criterion_05_volume_claims():
        hp = cut_piece(claim.spec)
        assert integral_rule_holds(hp)
        fractional += any(r[0] > 1 for r in vertex_rays(hp))
    # Both outcomes of the rule occur among the 763 pieces.
    assert 0 < fractional < 763


def convex_combination(points, weights):
    total = sum(weights)
    return tuple(sum(w * p[i] for w, p in zip(weights, points)) / total
                 for i in range(len(points[0])))


@settings(max_examples=50, deadline=None)
@given(boxed_polytopes(), st.data())
def test_vh_consistent_against_brute_force_vertices(hp, data):
    verts = brute_force_vertices(hp)
    if not verts:
        assert vh_consistent(VPolytope(hp.dim, ()), hp)
        assert not vh_consistent(VPolytope(hp.dim, ((0,) * hp.dim,)), hp)
        return
    weights = st.lists(st.integers(0, 3), min_size=len(verts),
                       max_size=len(verts)).filter(any)
    combos = tuple(convex_combination(verts, w)
                   for w in data.draw(st.lists(weights, max_size=3)))
    assert vh_consistent(rational_polytope(hp.dim, verts + combos), hp)
    dropped = data.draw(st.sampled_from(verts))
    rest = tuple(p for p in verts + combos if p != dropped)
    assert not vh_consistent(rational_polytope(hp.dim, rest), hp)
    outside = (max(v[0] for v in verts) + 1, *verts[0][1:])
    assert not vh_consistent(
        rational_polytope(hp.dim, verts + combos + (outside,)), hp)


@st.composite
def rational_point_sets(draw):
    """Up to six points in R^1..R^4 with int or Fraction coordinates, often
    repeated, on one line, or on the line through two earlier points."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    point = st.tuples(*[coord] * d)
    if draw(st.booleans()):
        base, step = draw(point), draw(point)
        points = [tuple(b + t * s for b, s in zip(base, step))
                  for t in draw(st.lists(coord, max_size=5))]
    else:
        points = draw(st.lists(point, max_size=4))
    for kind in draw(st.lists(st.sampled_from(("duplicate", "collinear")),
                              max_size=2 if points else 0)):
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        if kind == "duplicate":
            points.append(a)
        else:
            t = draw(coord)
            points.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    return d, points


@settings(max_examples=100, deadline=None)
@given(rational_point_sets())
def test_affine_dim_matches_sympy_rank(case):
    # affine_dim takes ints: it reads the polytope's rows, the points times
    # their common denominator, which have the same affine dimension.
    d, points = case
    rows = rational_polytope(d, points).rows
    if not points:
        assert affine_dim(rows) == -1
        return
    base = points[0]
    diffs = sympy.Matrix([[x - b for x, b in zip(p, base)] for p in points])
    assert diffs.shape == (len(points), d)
    assert affine_dim(rows) == diffs.rank()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-30, 30), min_size=d, max_size=d),
    st.integers(-30, 30),
    st.integers(1, 7),
    st.lists(st.fractions(-3, 3, max_denominator=5), min_size=d, max_size=d))))
def test_halfspace_rescaling_and_holds(case):
    normal, offset, k, point = case
    h = HalfSpace(tuple(normal), offset)
    assert HalfSpace(tuple(k * a for a in normal), k * offset) == h
    assert math.gcd(*h.normal, h.offset) in (0, 1)

    def exact(x):
        return sum(a * v for a, v in zip(normal, x)) <= offset

    assert holds(h, point) == exact(point)
    i = next((i for i, a in enumerate(normal) if a), None)
    if i is not None:
        # move the point onto the boundary along coordinate i
        tight = list(point)
        tight[i] += (offset - sum(a * v for a, v in zip(normal, point))) / normal[i]
        assert holds(h, tight) and holds(flipped(h), tight) and exact(tight)


@pytest.mark.parametrize("hp", [
    HPolytope(2, (HalfSpace((1, 0), 0),)),
    HPolytope(2, (HalfSpace((-1, 0), 0), HalfSpace((1, 0), 1))),
    HPolytope(3, tuple(HalfSpace(tuple(-int(i == j) for j in range(3)), 0)
                       for i in range(3))),
], ids=("halfspace", "strip", "orthant"))
def test_enumerate_unbounded_examples(hp):
    with pytest.raises(UnboundedError):
        vertex_enumeration(hp)


def loop_primitive(vec):
    """The gcd loop ``_primitive`` used before it called ``math.gcd(*vec)``."""
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


INTEGER_VECTORS = [(), (0,), (0, 0, 0), (7,), (-6,), (0, -4, 6), (-3, -9, 12),
                   (2, 3, -5), (-1, 0, 0, 1)]


@pytest.mark.parametrize("vec", INTEGER_VECTORS)
def test_primitive_matches_gcd_loop(vec):
    assert _primitive(vec) == loop_primitive(vec)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=6))
def test_integer_helpers_match_loops_on_random_vectors(values):
    assert _primitive(values) == loop_primitive(values)


# sha256 of repr(_dd_cone(rows, d + 1)) over every piece of each family, in
# canonical claim order.  The digests were taken before the DD loops were
# rewritten on ints; a change of ray order or zero sets changes them.
FROZEN_DD = [
    ("z2-same-parity-pair-flat", 4, 56, "83162d167b891a7218dc76f5cf6ea31b859b9f4c3a62ec555115989e04428536"),
    ("z2z2-same-channel-pair-flat", 3, 36, "74bd37be2bd75a431ff9833361a234248eb09850ff9b518efcf5f60f268045b0"),
    ("z2z2-cut-lattice-points", 3, 48, "09097c3fb080a20ce87734f2a1b1ead34c476e84a4b5ed6beebecd429a57921c"),
    ("z3-far-same-channel-flat", 3, 54, "1cd55c08cefc7a89907b78a0eec094c4db508c3b61da29de528e5c64c1bffdfb"),
    ("z3-near-same-channel-contained", 3, 54, "63aadabf6ea4961381236a60102b352ed06e6c9a35e8d6b0136d6a2330a49cbd"),
    ("z3-cross-channel-flat", 3, 156, "3e69e6e757fe8d5a3d219dc6fe5eafe5639cb63d1341ae5eaab4830c9d2cbd04"),
    ("z3-double-pair-flat", 3, 1296, "0bf8de2576a037c0155aa6d6825ee68a72ab7f940bb43ed4144be5cca67d28a7"),
    ("z3-single-cut-volume", 3, 54, "131055a00362625a8f4d2d5637e981266117c12c060b4b0912818febb0c89771"),
    ("z3-cross-channel-pair-volume", 3, 81, "a4802ad2180cb6cc3a25529e3276eeddf8e96c15acc8a05942e821048d0828c8"),
]


@pytest.mark.parametrize("lemma, n, pieces, digest", FROZEN_DD,
                         ids=[lemma for lemma, *_ in FROZEN_DD])
def test_dd_cone_output_frozen(lemma, n, pieces, digest):
    claims = lemma_claims(lemma, n)
    assert len(claims) == pieces
    h = hashlib.sha256()
    for claim in claims:
        hp = cut_piece(claim.spec)
        h.update(repr(_dd_cone(_cone_rows(hp), hp.dim + 1)).encode())
    assert h.hexdigest() == digest


def normalised_cone(state):
    """The ``(rays, zero_sets, lineality)`` part of a DD state, as lists."""
    return tuple(list(part) for part in state[:3])


@pytest.mark.parametrize("lemma, n, pieces, digest", FROZEN_DD,
                         ids=[lemma for lemma, *_ in FROZEN_DD])
def test_resumed_dd_matches_frozen_digests(lemma, n, pieces, digest):
    h = hashlib.sha256()
    for claim in lemma_claims(lemma, n):
        hp = cut_piece(claim.spec)
        assert hp.base is not None
        h.update(repr(normalised_cone(_dd_state(hp))).encode())
    assert h.hexdigest() == digest


@st.composite
def split_polytopes(draw):
    """A boxed polytope and up to three cut points splitting its rows into
    a chain of bases, each extended by the next segment."""
    hp = draw(boxed_polytopes())
    m = len(hp.halfspaces)
    return hp, sorted(draw(st.lists(st.integers(0, m), max_size=3)))


def chained(hp, cuts):
    piece = HPolytope(hp.dim, hp.halfspaces[:cuts[0]])
    for lo, hi in zip(cuts, cuts[1:] + [len(hp.halfspaces)]):
        piece = piece.with_halfspaces(hp.halfspaces[lo:hi])
    return piece


def vertices_or_unbounded(hp):
    try:
        return vertex_enumeration(hp)
    except UnboundedError:
        return "unbounded"


UNIT_SQUARE_ROWS = box((0, 1), (0, 1)).halfspaces
INFEASIBLE_ROWS = (HalfSpace((1, 0), -1), HalfSpace((-1, 0), 0))


@settings(max_examples=100, deadline=None)
@given(split_polytopes())
# an unbounded base: one row, so the lineality is not yet empty
@example((HPolytope(2, UNIT_SQUARE_ROWS), [1]))
# a base with no row at all
@example((HPolytope(2, UNIT_SQUARE_ROWS), [0, 0]))
# an infeasible base extended by the square's rows
@example((HPolytope(2, INFEASIBLE_ROWS + UNIT_SQUARE_ROWS), [2]))
# an unbounded base that stays unbounded
@example((HPolytope(2, UNIT_SQUARE_ROWS[:3]), [1]))
# a bounded base extended by a copy of one of its rows, which is tight on
# some of the base's rays and cuts none of them
@example((HPolytope(2, UNIT_SQUARE_ROWS + UNIT_SQUARE_ROWS[1:2]), [4]))
# a bounded base cut by one more row
@example((HPolytope(2, UNIT_SQUARE_ROWS + (HalfSpace((1, 1), 1),)), [4]))
def test_resumed_enumeration_matches_full(case):
    hp, cuts = case
    if not cuts:
        cuts = [0]
    piece = chained(hp, cuts)
    assert piece == hp
    assert vertices_or_unbounded(piece) == vertices_or_unbounded(hp)
    assert normalised_cone(_dd_state(piece)) == _dd_cone(
        _cone_rows(hp), hp.dim + 1)
    # extending a base never changes the cone kept on it
    base = piece.base
    while base is not None:
        assert normalised_cone(base._cone) == _dd_cone(
            _cone_rows(base), base.dim + 1)
        base = base.base


def test_a_polytope_with_a_base_checks_the_halfspaces_it_adds():
    square = box((0, 1), (0, 1))
    with pytest.raises(ValueError, match=r"halfspace in R\^3 does not match"):
        square.with_halfspaces((HalfSpace((1, 1), 1), HalfSpace((1, 1, 1), 1)))
    with pytest.raises(ValueError, match=r"halfspace in R\^1 does not match"):
        square.with_halfspaces((HalfSpace((1,), 1),))
    # Only with_halfspaces sets a base; the constructor takes none.
    with pytest.raises(TypeError):
        HPolytope(2, (HalfSpace((1, 1), 1), *square.halfspaces), square)


def test_base_is_invisible_to_equality_hash_and_repr():
    square = box((0, 1), (0, 1))
    cut = square.with_halfspaces((HalfSpace((1, 1), 1),))
    plain = HPolytope(2, cut.halfspaces)
    vertex_enumeration(cut)
    assert cut.base is square and square._cone is not None
    assert cut == plain and hash(cut) == hash(plain) and repr(cut) == repr(plain)


LEMMA_PIECE_FAMILIES = (("z2-same-parity-pair-flat", 4),
                        ("z2z2-same-channel-pair-flat", 3),
                        ("z3-cross-channel-flat", 3))


def test_enumerating_twice_leaves_memoised_cones_unchanged():
    pieces = [cut_piece(claim.spec) for lemma, n in LEMMA_PIECE_FAMILIES
              for claim in lemma_claims(lemma, n)]
    first = [vertex_enumeration(p) for p in pieces]
    bases = {id(p.base): p.base for p in pieces}
    assert len(bases) == len(LEMMA_PIECE_FAMILIES)
    memo = {key: base._cone for key, base in bases.items()}
    snapshot = {key: repr(cone) for key, cone in memo.items()}
    assert [vertex_enumeration(p) for p in pieces] == first
    for key, base in bases.items():
        assert base._cone is memo[key]
        assert repr(base._cone) == snapshot[key]
        full = _dd_cone(_cone_rows(base), base.dim + 1)
        assert normalised_cone(base._cone) == full
        assert base._cone[3] == len(base.halfspaces) + 1


def test_second_piece_consumes_only_its_cut_rows(monkeypatch):
    consumed = []
    original = geometry._dd_cone

    def recording(rows, dim, start=None):
        consumed.append(len(rows))
        return original(rows, dim, start)

    monkeypatch.setattr(geometry, "_dd_cone", recording)
    clawpoly.ambient.cache_clear()
    first, second = (claim.spec for claim in
                     lemma_claims("z3-cross-channel-pair-volume", 3)[:2])
    rows = len(clawpoly.ambient(first.group, first.n).halfspaces) + 1
    piece_vertices(first)
    assert consumed == [rows, len(first.cuts)]
    consumed.clear()
    piece_vertices(second)
    assert consumed == [len(second.cuts)]
    consumed.clear()
    one_cut = CutSpec(first.group, first.n, first.cuts[:1])
    piece_vertices(one_cut)
    assert consumed == [1]
