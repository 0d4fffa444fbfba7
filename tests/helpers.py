"""Checks that only the tests use: rational points scaled to integer rows,
a V-polytope and a halfspace built from rational input, halfspace
evaluation and exact point-in-halfspace tests, V/H agreement, vertex
enumeration through ``rational_polytope``, the two ways of building a polytope
triangulated side by side, which cuts are facets, the facet system built
apart from ``clawpoly``'s walk, whole JSON documents and cdd-style blocks,
the triple-lemma count, every volume claim at criterion-05 sizes, and
random symmetries of the claw polytope."""

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from clawvol.clawpoly import PLUS, OddSubsetCut, ambient
from clawvol.cuts import LEMMA_GROUPS, LEMMA_IDS, VOLUME, lemma_claims
from clawvol.geometry import (
    HalfSpace,
    HPolytope,
    VPolytope,
    _check_length,
    vertex_enumeration,
    vertex_rays,
)
from clawvol.groups import Z2, Z3
from clawvol.serialize import facet_lines, rat_to_str, vertex_lines
from clawvol.volume import triangulate


def integer_point(point: Sequence) -> tuple[Sequence[int], int]:
    """``(d * point, d)`` with d the lcm of the point's denominators.

    An all-int point is its own scaled form, with d = 1.  Entries must be
    ints or ``Fraction``s; any other type, a float included, is refused.
    """
    if all(type(v) is int for v in point):
        return point, 1
    for v in point:
        if not isinstance(v, (int, Fraction)):
            raise ValueError(f"expected int or Fraction, got {type(v).__name__}")
    d = math.lcm(*(v.denominator for v in point))
    return [v.numerator * d // v.denominator for v in point], d


def rational_polytope(dim: int, points: Sequence[Sequence]) -> VPolytope:
    """The ``VPolytope`` of points with int or ``Fraction`` entries: its
    rows are the distinct points times ``scale``, the lcm of all their
    denominators, lex-sorted."""
    for p in points:
        _check_length(p, dim)
    scaled = [integer_point(p) for p in points]
    scale = math.lcm(*(d for _, d in scaled))
    return VPolytope._from_rows(dim, scale, tuple(sorted(
        {tuple(v * (scale // d) for v in row) for row, d in scaled})))


def rational_halfspace(normal: Sequence, offset) -> HalfSpace:
    """``{x : <normal, x> <= offset}`` for int or ``Fraction`` entries, as
    the ``HalfSpace`` of the row times the lcm of its denominators."""
    row, _ = integer_point((*normal, offset))
    return HalfSpace(tuple(row[:-1]), row[-1])


def value(hs: HalfSpace, point: Sequence):
    """Evaluate ``<normal, point>``."""
    _check_length(point, hs.dim)
    return sum(map(mul, hs.normal, point))


def flipped(hs: HalfSpace) -> HalfSpace:
    """The opposite halfspace ``{x : <normal, x> >= offset}`` in <= form."""
    return HalfSpace(tuple(-a for a in hs.normal), -hs.offset)


def holds(hs: HalfSpace, point: Sequence) -> bool:
    """Does the point satisfy <normal, point> <= offset, exactly?"""
    _check_length(point, hs.dim)
    scaled, d = integer_point(point)
    return sum(map(mul, hs.normal, scaled)) <= hs.offset * d


def contains(hp: HPolytope, point: Sequence) -> bool:
    """Does the point satisfy every halfspace of ``hp``, exactly?"""
    _check_length(point, hp.dim)
    scaled, d = integer_point(point)
    return all(sum(map(mul, hs.normal, scaled)) <= hs.offset * d
               for hs in hp.halfspaces)


def vh_consistent(vp: VPolytope, hp: HPolytope) -> bool:
    """Do the two descriptions define the same polytope?

    True when every stored point satisfies all halfspaces, so conv(vp) lies
    in ``hp``, and every vertex of ``hp`` is a stored point, so ``hp`` lies
    in conv(vp).  Stored points that are not extreme are allowed.
    """
    if vp.dim != hp.dim:
        return False
    if not all(contains(hp, p) for p in vp.vertices):
        return False
    return set(vertex_enumeration(hp).vertices) <= set(vp.vertices)


def normalized_vertices(hp: HPolytope) -> VPolytope:
    """Reference for ``vertex_enumeration``: each ray's point y / y_0 (int
    coordinates when y_0 = 1), deduplicated and sorted by the
    normalization in ``rational_polytope``."""
    return rational_polytope(hp.dim, tuple(
        r[1:] if r[0] == 1 else tuple(Fraction(v, r[0]) for v in r[1:])
        for r in vertex_rays(hp)))


def paths_agree(hp: HPolytope) -> bool:
    """``vertex_enumeration``'s integer rows and ``normalized_vertices``'
    points: equal polytopes with equal hashes, before and after the rows
    build their points, giving the same simplices and volume."""
    rows, points = vertex_enumeration(hp), normalized_vertices(hp)
    before = hash(rows)
    by_rows, by_points = triangulate(rows), triangulate(points)
    same = (rows == points and before == hash(points)
            and by_rows.simplices == by_points.simplices
            and by_rows.volume == by_points.volume)
    # Reading the points builds them; equality and hash must not move.
    return (same and rows.vertices == points.vertices
            and rows == points and hash(rows) == before)


def same_points(a: VPolytope, b: VPolytope) -> bool:
    """Equal points in the same order, each coordinate of the same type."""
    return a == b and ([tuple(map(type, p)) for p in a.vertices]
                       == [tuple(map(type, p)) for p in b.vertices])


def is_facet(cut: OddSubsetCut) -> bool:
    """Is the cut's plus side a facet: odd |A|, or digit sum 2 mod 3?"""
    if cut.group is Z3:
        return sum(cut.subset) % 3 == 2
    return len(cut.subset) % 2 == 1


def facet_cuts(group, n: int) -> tuple[OddSubsetCut, ...]:
    """The plus side of every cut that is a facet, enumerated here and not
    by ``clawpoly``'s walk, in the order the walk must follow: channel by
    channel, odd subsets of [n] by ascending bitmask (Z2, Z2xZ2), or digit
    tuples with sum 2 mod 3 in lexicographic order (Z3)."""
    if group is Z3:
        return tuple(OddSubsetCut(Z3, n, digits, channel, PLUS)
                     for channel in (1, 2)
                     for digits in itertools.product(range(3), repeat=n)
                     if sum(digits) % 3 == 2)
    return tuple(
        OddSubsetCut(group, n, tuple(j + 1 for j in range(n) if mask >> j & 1),
                     g, PLUS)
        for g in ((1,) if group is Z2 else (1, 2, 3))
        for mask in range(1 << n) if bin(mask).count("1") % 2)


def facets(group, n: int) -> HPolytope:
    """The facet system: the ambient bounds cut by the halfspace of each of
    ``facet_cuts``, with the ambient polytope as its base."""
    return ambient(group, n).with_halfspaces(
        c.halfspace for c in facet_cuts(group, n))


def criterion_05_volume_claims():
    """Every volume claim at criterion-05 sizes: 763 of them."""
    for lemma_id in LEMMA_IDS:
        sizes = (2, 3, 4) if LEMMA_GROUPS[lemma_id] is Z2 else (2, 3)
        for n in sizes:
            for claim in lemma_claims(lemma_id, n):
                if claim.kind == VOLUME:
                    yield claim


def vpolytope_to_doc(vp: VPolytope) -> dict:
    """The whole JSON document of a V-polytope, for the streamed writer to
    match."""
    return {
        "kind": "vpolytope",
        "dim": vp.dim,
        "vertices": [[rat_to_str(x) for x in v] for v in vp.vertices],
    }


def hpolytope_to_doc(hp: HPolytope) -> dict:
    """The whole JSON document of an H-polytope, for the streamed writer to
    match."""
    return {
        "kind": "hpolytope",
        "dim": hp.dim,
        "halfspaces": [{"normal": [rat_to_str(x) for x in h.normal],
                        "offset": rat_to_str(h.offset)}
                       for h in hp.halfspaces],
    }


def write_ext(vp: VPolytope) -> str:
    return "".join(vertex_lines(vp, "ext"))


def write_ine(hp: HPolytope) -> str:
    return "".join(facet_lines(hp.dim, hp.halfspaces, len(hp.halfspaces),
                               "ine"))


def random_symmetry(group, n: int, rng):
    """A random symmetry of the claw polytope, as a map on projected points.

    One of three kinds, each with equal chance: shift the entries of every
    tuple by a fixed zero-sum tuple, reorder the n blocks, or relabel the
    nonzero elements of every block by a group automorphism.  Each block is
    completed by its identity coordinate, one minus the block sum, moved,
    and projected again, so every kind is an affine lattice map.
    """
    add, elements = group.add_table, group.elements
    kind = rng.randrange(3)
    if kind == 0:
        head = [rng.choice(elements) for _ in range(n - 1)]
        shift = head + [group.neg(group.tuple_sum(head))]

        def move(blocks):
            return [[b[add[g][s]] for g in elements]
                    for b, s in zip(blocks, shift)]
    elif kind == 1:
        order = rng.sample(range(n), n)

        def move(blocks):
            return [blocks[j] for j in order]
    else:
        while True:
            phi = [0, *rng.sample(group.nonzero, len(group.nonzero))]
            if all(phi[add[x][y]] == add[phi[x]][phi[y]]
                   for x in elements for y in elements):
                break

        def move(blocks):
            return [[b[phi.index(g)] for g in elements] for b in blocks]

    width = group.order - 1

    def act(point):
        blocks = [(1 - sum(point[i:i + width]), *point[i:i + width])
                  for i in range(0, len(point), width)]
        return tuple(v for b in move(blocks) for v in b[1:])
    return act


def delta_mask(a: int, b: int, c: int) -> int:
    """Bitmask version of the three-set difference used by the triple lemma."""
    return (a & ~(b | c)) | (b & ~(a | c)) | (c & ~(a | b)) | (a & b & c)


def count_singleton_delta_triples(n: int) -> int:
    """#{(A,B,C) odd subsets of [n] : |delta(A,B,C)| = 1}, exhaustively."""
    odd = [m for m in range(1 << n) if bin(m).count("1") % 2 == 1]
    return sum(
        1
        for a in odd for b in odd for c in odd
        if bin(delta_mask(a, b, c)).count("1") == 1
    )
