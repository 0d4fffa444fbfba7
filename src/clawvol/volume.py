"""Exact polytope volumes via a deterministic placing triangulation.

The triangulation strategy is fixed: vertices are taken in their canonical
lexicographic order, a first full-dimensional simplex is built greedily, and
every later point is attached by coning over the boundary facets it can see
strictly.  Ties never arise because insertion order is the total lex order.
Points are scaled to a common denominator and all arithmetic is on
integers, so results are exact.

The volume is summed while the simplices are built, beneath-beyond style
(Büeler, Enge and Fukuda 2000).  Each boundary facet F keeps a primitive
inward affine functional h_F, its base volume g_F (its normalized volume in
the lattice of its hyperplane) and its neighbours across its ridges.  Then:

* a point p that sees F strictly adds the simplex F + p, a pyramid of
  normalized volume vol(F + p) = g_F * (-h_F(p)), the lattice height of p
  over F times the base;
* the new facets are R + p for each ridge R between a visible F and a hidden
  neighbour G.  Their functional is the primitive part of
  h_G(p) * h_F - h_F(p) * h_G, which vanishes on R and at p, and their base
  volume is vol(F + p) / h_{R+p}(v), v the vertex of F off R;
* the visible facets are connected across ridges, and one of them passes
  through the point just before p in lex order, so a search through
  neighbours from the facets through that point finds them all.

Only the seed simplex is eliminated (``geometry.bareiss``): its adjugate
gives the first d + 1 functionals and base volumes.  Any break of these
invariants (a height that is not positive, a base volume that is not an
integer, an unpaired ridge) raises ``AssertionError``.

Volume convention: ``lattice_volume`` in a lattice L of index k inside Z^d
is ``d! * euclidean volume / k``; a polytope of deficient affine dimension
has volume 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable

from .geometry import (
    GuardRailError,
    LatticeBasis,
    VPolytope,
    _primitive,
    bareiss,
    lattice_index,
)

MAX_DIM = 14
MAX_VERTICES = 200


@dataclass(frozen=True)
class Triangulation:
    """Simplices, as vertex-index tuples into the base polytope's vertices.

    ``volume`` is the normalized Z^dim volume the simplices add up to.
    """

    polytope: VPolytope
    simplices: tuple[tuple[int, ...], ...]
    volume: Fraction

    @property
    def dim(self) -> int:
        return self.polytope.dim


class _Facet:
    """A boundary facet: vertex tuple, inward functional, base volume, neighbours.

    The functional ``<normal, x> - offset`` is primitive, zero on the facet
    and positive inside.  ``base`` is the facet's normalized volume in the
    lattice of its hyperplane, and ``nbrs[j]`` is the facet across the ridge
    that omits ``key[j]``.  ``seen`` is the last point that saw the facet.
    """

    __slots__ = ("key", "normal", "offset", "base", "nbrs", "seen")

    def __init__(self, key, normal, offset, base):
        self.key = key
        self.normal = normal
        self.offset = offset
        self.base = base
        self.nbrs = [None] * len(key)
        self.seen = -1


def check_dimension_guard(dim: int, allow_big: bool) -> None:
    """Refuse to triangulate in dimension above ``MAX_DIM`` unless ``allow_big``.

    Needs only the dimension, so callers can refuse before enumerating vertices.
    """
    if not allow_big and dim > MAX_DIM:
        raise GuardRailError(
            f"triangulation refused: dimension {dim} exceeds {MAX_DIM} "
            "(pass the override to force)")


def _check_guard(vp: VPolytope, allow_big: bool) -> None:
    check_dimension_guard(vp.dim, allow_big)
    if not allow_big and len(vp.vertices) > MAX_VERTICES:
        raise GuardRailError(
            f"triangulation refused: {len(vp.vertices)} vertices exceed "
            f"{MAX_VERTICES} (pass the override to force)")


def _mark_visible(p: tuple[int, ...], i: int, start: list[_Facet]) -> None:
    """Mark with i every boundary facet that p sees strictly.

    ``start`` must hold one of them.  They are connected across ridges, so a
    search through neighbours finds the rest.
    """
    todo = [f for f in start if sum(map(mul, f.normal, p)) < f.offset]
    if not todo:
        raise AssertionError("no facet through the last point is visible")
    for f in todo:
        f.seen = i
    hidden = set()
    while todo:
        for g in todo.pop().nbrs:
            if g.seen == i or g in hidden:
                continue
            if sum(map(mul, g.normal, p)) < g.offset:
                g.seen = i
                todo.append(g)
            else:
                hidden.add(g)


def triangulate(vp: VPolytope, *, allow_big: bool = False) -> Triangulation:
    """Deterministic placing triangulation of a V-polytope, with its volume.

    Points are inserted in lexicographic order after a greedy full-dimensional
    seed simplex; each insertion cones the new point over the strictly visible
    boundary facets.  Returns an empty triangulation when the affine hull has
    deficient dimension.  Refuses oversized inputs unless ``allow_big``.
    """
    _check_guard(vp, allow_big)
    pts = vp.vertices
    d = vp.dim
    count = len(pts)
    if count < d + 1:
        return Triangulation(vp, (), Fraction(0))

    scale = math.lcm(*(v.denominator for p in pts for v in p))
    ipts = [tuple(int(v * scale) for v in p) for p in pts]

    # Eliminate [B | I], B with columns (1, v).  B's pivot columns are the
    # greedy seed: the first point and each point that extends the affine
    # rank of the ones before it.  [B | I] always has full rank; B has it
    # when all pivots lie in B.  Then the right block is (last pivot) * M^-T,
    # M with the seed's rows (1, v), so its row k is the affine functional
    # of the seed facet opposite vertex k: zero on that facet, |det M| at
    # vertex k.  The gcd divided out of it is the facet's base volume.
    rows = [[1] * count, *map(list, zip(*ipts))]
    for r, row in enumerate(rows):
        row.extend(int(c == r) for c in range(d + 1))
    pivots, last = bareiss(rows)
    if pivots[-1] >= count:
        return Triangulation(vp, (), Fraction(0))

    seed = tuple(pivots)
    sign = 1 if last > 0 else -1
    total = abs(last)
    simplices = [seed]
    # Boundary facets in creation order.  A facet enters the boundary with
    # its first owning simplex and leaves for good when a second one covers
    # it, so its orientation never changes.
    boundary: dict[tuple[int, ...], _Facet] = {}
    for k in range(d + 1):
        adj = [sign * v for v in rows[k][count:]]
        g = math.gcd(*adj)
        key = seed[:k] + seed[k + 1:]
        boundary[key] = _Facet(key, tuple(v // g for v in adj[1:]), -adj[0] // g, g)
    fresh = list(boundary.values())
    for k, f in enumerate(fresh):
        f.nbrs = [fresh[j if j < k else j + 1] for j in range(d)]

    bits = [1 << j for j in range(count)]
    for i in range(count):
        if i in seed:
            continue
        p = ipts[i]
        # p sees a facet through point i - 1.  The placed points before p
        # span an affine space that holds p; the seed points after p are
        # independent of it, so the hull meets it in their hull, whose
        # lex-largest point is i - 1, and p, lex-larger, is outside.  The
        # facets through i - 1 are those made in the last round, unless
        # i - 1 is a seed point.
        if i - 1 in seed:
            fresh = [f for f in boundary.values() if i - 1 in f.key]
        _mark_visible(p, i, fresh)
        visible = [f for f in boundary.values() if f.seen == i]
        fresh = []
        # Ridges through p that one new facet has and its neighbour-to-be
        # has not yet claimed, keyed by the bitmask of their other vertices.
        open_ridges: dict[int, tuple[_Facet, int]] = {}
        for f in visible:
            # The pyramid over f with apex p.
            hf = sum(map(mul, f.normal, p)) - f.offset
            vol = -hf * f.base
            total += vol
            simplices.append(tuple(sorted(f.key + (i,))))
            del boundary[f.key]
            mask = sum(map(bits.__getitem__, f.key))
            for j, g in enumerate(f.nbrs):
                if g.seen == i:
                    continue
                # The ridge between f and the hidden g is on the horizon:
                # cone it to p.  The combination of the two functionals that
                # vanishes at p is the new one, and f + p is a pyramid over
                # the new facet with apex f.key[j], which gives its base.
                hg = sum(map(mul, g.normal, p)) - g.offset
                h = _primitive([hg * a - hf * b for a, b in zip(f.normal, g.normal)]
                               + [hg * f.offset - hf * g.offset])
                normal, offset = h[:-1], h[-1]
                height = sum(map(mul, normal, ipts[f.key[j]])) - offset
                if height <= 0 or vol % height:
                    raise AssertionError("degenerate simplex in triangulation")
                key = tuple(sorted(f.key[:j] + f.key[j + 1:] + (i,)))
                new = _Facet(key, normal, offset, vol // height)
                boundary[key] = new
                fresh.append(new)
                new.nbrs[key.index(i)] = g
                g.nbrs[g.nbrs.index(f)] = new
                ridge = mask ^ bits[f.key[j]]
                for m, u in enumerate(key):
                    if u == i:
                        continue
                    rest = ridge ^ bits[u]
                    mate = open_ridges.pop(rest, None)
                    if mate is None:
                        open_ridges[rest] = (new, m)
                    else:
                        other, slot = mate
                        other.nbrs[slot] = new
                        new.nbrs[m] = other
        if open_ridges:
            raise AssertionError("unpaired ridge in triangulation")
        for f in visible:
            f.nbrs = None  # drop the cycles among removed facets
    for f in boundary.values():
        f.nbrs = None  # and among the rest, so no garbage outlives the call

    return Triangulation(vp, tuple(simplices), Fraction(total, scale ** d))


def triangulation_lattice_volume(t: Triangulation) -> Fraction:
    """Sum of normalized simplex volumes: the Z^dim volume of the polytope."""
    return t.volume


def lattice_volume(vp: VPolytope, basis: LatticeBasis | None = None, *,
                   allow_big: bool = False) -> Fraction:
    """Normalized volume dim! * euclidean / index(basis); basis None means Z^dim."""
    if vp.is_empty():
        return Fraction(0)
    vol = triangulation_lattice_volume(triangulate(vp, allow_big=allow_big))
    if basis is None:
        return vol
    return vol / lattice_index(basis)


def join_product(p1: VPolytope, p2: VPolytope) -> VPolytope:
    """Free sum conv(P1 x {0} union {0} x P2) in R^{dim1 + dim2}.

    Both factors must have the origin among their vertices; with both
    full-dimensional, the normalized volume of the result is the product of
    the factors' normalized volumes.
    """
    for p in (p1, p2):
        if (0,) * p.dim not in p.vertices:
            raise ValueError("join factor does not have the origin as a vertex")
    zeros1 = (0,) * p1.dim
    zeros2 = (0,) * p2.dim
    points = [v + zeros2 for v in p1.vertices]
    points += [zeros1 + w for w in p2.vertices]
    return VPolytope(p1.dim + p2.dim, tuple(points))


def join_product_many(factors: Iterable[VPolytope]) -> VPolytope:
    """Iterated free sum over a nonempty sequence of factors."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    result = factors[0]
    for f in factors[1:]:
        result = join_product(result, f)
    return result
