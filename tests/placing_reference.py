"""The placing triangulation with one facet per boundary simplex: the test oracle.

Each boundary facet is found by a search through neighbour links and
matched across ridges with parent-position keys and a dict of open
ridges.  ``clawvol.volume.triangulate`` must return the same simplices,
in the same order, and the same volume.
"""

import math
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable

from clawvol.geometry import VPolytope, _primitive, bareiss
from clawvol.volume import Triangulation


class _Facet:
    """A boundary facet: vertex tuple, inward functional, base volume, neighbours.

    ``key`` holds the vertex indices in parent-position order, not sorted.
    ``h`` is the primitive homogeneous row ``(normal, offset)``: its dot
    product with ``(x, -1)`` is zero on the facet and positive inside.
    ``base`` is the facet's normalized volume in the lattice of its
    hyperplane, and ``nbrs[j]`` is the facet across the ridge that omits
    ``key[j]``.  ``serial`` counts facets in creation order.
    """

    __slots__ = ("key", "h", "base", "nbrs", "serial")

    def __init__(self, key, h, base, serial):
        self.key = key
        self.h = h
        self.base = base
        self.serial = serial



def _mark_visible(p: tuple[int, ...], start: Iterable[_Facet]
                  ) -> tuple[list[_Facet], dict[_Facet, int]]:
    """The boundary facets that p sees strictly, in creation order.

    ``p`` is homogeneous, ``(x, -1)``.  ``start`` must hold a visible facet.
    The visible facets are connected across ridges, so a search through
    neighbours finds the rest.  The dict returned holds h_F(p) for every
    facet the search evaluated: the visible facets, where it is negative,
    and all their neighbours.
    """
    value = {}
    todo = []
    for f in start:
        v = value[f] = sum(map(mul, f.h, p))
        if v < 0:
            todo.append(f)
    if not todo:
        raise AssertionError("no facet through the last point is visible")
    visible = todo[:]
    while todo:
        for g in todo.pop().nbrs:
            if g not in value:
                v = value[g] = sum(map(mul, g.h, p))
                if v < 0:
                    todo.append(g)
                    visible.append(g)
    visible.sort(key=attrgetter("serial"))
    return visible, value


def triangulate(vp: VPolytope) -> Triangulation:
    """Deterministic placing triangulation of a V-polytope, with its volume.

    Points are inserted in lexicographic order after a greedy full-dimensional
    seed simplex; each insertion cones the new point over the strictly visible
    boundary facets.  Returns an empty triangulation when the affine hull has
    deficient dimension.
    """
    pts = vp.vertices
    d = vp.dim
    count = len(pts)
    if count < d + 1:
        return Triangulation(vp, (), Fraction(0))

    scale = math.lcm(*(v.denominator for p in pts for v in p))
    ipts = [[v.numerator * (scale // v.denominator) for v in p] for p in pts]

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

    hpts = [(*p, -1) for p in ipts]
    seed = tuple(pivots)
    sign = 1 if last > 0 else -1
    total = abs(last)
    simplices = [seed]
    # The live boundary by serial.  A facet enters it with its first owning
    # simplex and leaves for good when a second one covers it, so its
    # orientation never changes.
    boundary: dict[int, _Facet] = {}
    for k in range(d + 1):
        adj = [sign * v for v in rows[k][count:]]
        g = math.gcd(*adj)
        h = tuple(v // g for v in (*adj[1:], -adj[0]))
        boundary[k] = _Facet(seed[:k] + seed[k + 1:], h, g, k)
    fresh = list(boundary.values())
    for k, f in enumerate(fresh):
        f.nbrs = [fresh[j if j < k else j + 1] for j in range(d)]
    serial = d + 1

    bits = [1 << j for j in range(count)]
    for i in range(count):
        if i in seed:
            continue
        p = hpts[i]
        # p sees a facet through point i - 1.  The placed points before p
        # span an affine space that holds p; the seed points after p are
        # independent of it, so the hull meets it in their hull, whose
        # lex-largest point is i - 1, and p, lex-larger, is outside.  The
        # facets through i - 1 are those made in the last round, unless
        # i - 1 is a seed point.
        if i - 1 in seed:
            fresh = [f for f in boundary.values() if i - 1 in f.key]
        visible, value = _mark_visible(p, fresh)
        fresh = []
        # Ridges through p whose two new facets come from different visible
        # facets, keyed by the bitmask of their vertices other than p, until
        # the second of the two claims the first.
        open_ridges: dict[int, tuple[_Facet, int]] = {}
        for f in visible:
            # The pyramid over f with apex p.
            hf = value[f]
            vol = -hf * f.base
            total += vol
            key, fh, nbrs = f.key, f.h, f.nbrs
            simplices.append(tuple(sorted(key + (i,))))
            del boundary[f.serial]
            # f's ridges to hidden neighbours are on the horizon: cone each
            # to p, in the order of the vertex it omits.  The new facet keeps
            # f's vertex positions with p in the omitted one's slot.  The
            # combination of the two functionals that vanishes at p is its
            # functional, and f + p is a pyramid over it with apex key[j],
            # which gives its base.
            horizon = [j for j, g in enumerate(nbrs) if value[g] >= 0]
            horizon.sort(key=key.__getitem__)
            made = [None] * d
            for j in horizon:
                g = nbrs[j]
                hg = value[g]
                h = _primitive([hg * a - hf * b for a, b in zip(fh, g.h)])
                height = sum(map(mul, h, hpts[key[j]]))
                if height <= 0 or vol % height:
                    raise AssertionError("degenerate simplex in triangulation")
                new = _Facet(key[:j] + (i,) + key[j + 1:], h, vol // height, serial)
                boundary[serial] = made[j] = new
                serial += 1
                g.nbrs[g.nbrs.index(f)] = new
                fresh.append(new)
            # The new facets from f across slots j and m meet across the
            # ridge that omits key[j] and key[m], so each one starts from
            # ``made``, its siblings at their slots, with g at its own.
            # Across a slot m whose neighbour is visible lies a new facet
            # of another parent, matched through ``open_ridges``.
            bit = list(map(bits.__getitem__, key))
            mask = sum(bit)
            inner = [m for m in range(d) if made[m] is None]
            for j in horizon:
                new = made[j]
                new.nbrs = ring = made[:]
                ring[j] = nbrs[j]
                ridge = mask ^ bit[j]
                for m in inner:
                    rest = ridge ^ bit[m]
                    mate = open_ridges.pop(rest, None)
                    if mate is None:
                        open_ridges[rest] = (new, m)
                    else:
                        other, slot = mate
                        other.nbrs[slot] = new
                        ring[m] = other
        if open_ridges:
            raise AssertionError("unpaired ridge in triangulation")
        for f in visible:
            f.nbrs = None  # drop the cycles among removed facets
    for f in boundary.values():
        f.nbrs = None  # and among the rest, so no garbage outlives the call

    return Triangulation(vp, tuple(simplices), Fraction(total, scale ** d))
