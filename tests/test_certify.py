"""The triangulation certificate: it passes the claw triangulations and
catches broken ones."""

import itertools
import random
from dataclasses import replace

import pytest

from certify import CertificateError, affine_rank, certify, signed_det
from clawvol.clawpoly import vertices
from clawvol.geometry import VPolytope, bareiss
from clawvol.groups import GROUPS
from clawvol.volume import triangulate
from helpers import facets, flipped


def test_signed_det_keeps_the_sign_of_row_swaps():
    for perm in itertools.permutations(range(4)):
        matrix = [[int(c == r) for c in range(4)] for r in perm]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert signed_det(matrix) == (-1) ** inversions
    rng = random.Random(20261020)
    for _ in range(50):
        matrix = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        pivots, last = bareiss([row[:] for row in matrix])
        det = signed_det(matrix)
        assert abs(det) == (abs(last) if len(pivots) == 5 else 0)
        assert signed_det(matrix[1:2] + matrix[:1] + matrix[2:]) == -det


def test_affine_rank_counts_the_affine_dimension_plus_one():
    assert affine_rank([]) == 0
    assert affine_rank([(3, 4)]) == 1
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 2
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 3
    assert affine_rank(list(itertools.product((0, 1), repeat=3))) == 4


@pytest.mark.parametrize("group,n,boundary", [
    ("z2", 6, 656),
    ("z2", 7, 4880),
    ("z3", 3, 27),
    ("z3", 4, 1764),
    ("z2xz2", 3, 384),
], ids=("z2-6", "z2-7", "z3-3", "z3-4", "z2xz2-3"))
def test_claw_triangulations_are_certified(group, n, boundary):
    t = triangulate(vertices(GROUPS[group], n))
    assert certify(t, facets(GROUPS[group], n).halfspaces) == boundary


def test_a_flat_point_set_is_certified_empty():
    line = VPolytope(2, ((0, 0), (1, 1), (2, 2)))
    t = triangulate(line)
    assert t.simplices == ()
    assert certify(t, ()) == 0
    square = VPolytope(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(CertificateError, match="span R\\^2"):
        certify(replace(triangulate(square), simplices=()), ())


# Each mutation of the z2 n=6 triangulation must fail the certificate.

@pytest.fixture(scope="module")
def z2_6():
    t = triangulate(vertices(GROUPS["z2"], 6))
    return t, facets(GROUPS["z2"], 6).halfspaces


def test_dropping_the_last_simplex_leaves_a_ridge_on_no_facet(z2_6):
    t, halfspaces = z2_6
    with pytest.raises(CertificateError, match="boundary ridge .* lies on no facet"):
        certify(replace(t, simplices=t.simplices[:-1]), halfspaces)


def test_dropping_a_middle_simplex_leaves_a_ridge_on_no_facet(z2_6):
    t, halfspaces = z2_6
    middle = len(t.simplices) // 2
    with pytest.raises(CertificateError, match="boundary ridge .* lies on no facet"):
        certify(replace(t, simplices=t.simplices[:middle] + t.simplices[middle + 1:]),
                halfspaces)


def test_a_duplicated_simplex_puts_a_ridge_in_three_simplices(z2_6):
    t, halfspaces = z2_6
    middle = len(t.simplices) // 2
    doubled = t.simplices[:middle + 1] + t.simplices[middle:]
    with pytest.raises(CertificateError, match="three or more simplices"):
        certify(replace(t, simplices=doubled), halfspaces)


def test_a_wrong_volume_or_a_point_outside_is_refused(z2_6):
    t, halfspaces = z2_6
    with pytest.raises(CertificateError, match="determinants sum to"):
        certify(replace(t, volume=t.volume + 1), halfspaces)
    # The last facet cut, turned around, cuts off every point off it.
    with pytest.raises(CertificateError, match="violates halfspace"):
        certify(t, halfspaces[:-1] + (flipped(halfspaces[-1]),))
