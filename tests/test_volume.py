"""Triangulation, exact volumes, guard rails, and free sums."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from clawvol.clawpoly import vertices
from clawvol.geometry import GuardRailError, VPolytope
from clawvol.groups import GROUPS
from clawvol.volume import (
    Triangulation,
    join_product,
    join_product_many,
    lattice_volume,
    triangulate,
    triangulation_lattice_volume,
)

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


def test_guard_rails():
    too_high = VPolytope(15, (tuple(F(0) for _ in range(15)),))
    with pytest.raises(GuardRailError, match="dimension"):
        triangulate(too_high)
    many = VPolytope(1, tuple(pt(i) for i in range(201)))
    with pytest.raises(GuardRailError, match="vertices"):
        triangulate(many)
    assert lattice_volume(many, allow_big=True) == 200


def test_lattice_volume_with_basis():
    from clawvol.geometry import LatticeBasis

    halved = LatticeBasis(2, ((2, 0), (0, 1)))
    assert lattice_volume(cube(2), halved) == 1


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
    assert t.dim == 2
    assert {j for s in t.simplices for j in s} == set(range(4))
    assert Triangulation(cube(2), t.simplices).polytope == cube(2)


@pytest.mark.parametrize("group,n,count", [
    ("z2", 6, 344), ("z2", 7, 2487), ("z3", 3, 9), ("z3", 4, 660),
    ("z2xz2", 3, 95),
], ids=("z2-6", "z2-7", "z3-3", "z3-4", "z2xz2-3"))
def test_claw_simplex_counts_frozen(group, n, count):
    assert len(triangulate(vertices(GROUPS[group], n)).simplices) == count
