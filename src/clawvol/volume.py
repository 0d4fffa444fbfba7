"""Exact polytope volumes via a deterministic placing triangulation.

The triangulation strategy is fixed: vertices are taken in their canonical
lexicographic order, a first full-dimensional simplex is built greedily, and
every later point is attached by coning over the boundary simplices it can
see strictly.  Ties never arise because insertion order is the total lex
order.  It reads the polytope's integer rows, the points scaled to a
common denominator, and all arithmetic is on integers, so results are
exact.

The boundary is kept as hull facets, beneath-beyond style (Joswig,
"Beneath-and-beyond revisited", 2003).  A hull facet is a maximal set of
coplanar boundary simplices; it holds its primitive inward affine
functional h, stored as one homogeneous row and evaluated against (p, -1),
a bit, its boundary simplices and the heights measured against it.  A
boundary simplex is kept as a record (serial, parent, position, base,
mask): its creation serial, the simplex it was cut from (the coned simplex
it is a facet of, or the seed), the position of the parent's vertex it
omits, its normalized volume in the lattice of the hyperplane, and the
parent's point bitmask.  Its vertex tuple is sliced from the parent only
when a later point cones it, which most boundary simplices never are, and
its point bitmask is the parent's with the omitted vertex's bit cleared.
Every placed point holds an incidence mask: the bits of the hull facets
that contain it; seed vertex k starts with the bit of every seed facet but
the one opposite it.  A boundary simplex has its hull facet's functional,
so each functional, visibility test and new facet is worked out once per
hull facet.  Inserting a point p:

* p sees the hull facets F with h_F(p) < 0, and with them all their boundary
  simplices.  Each such simplex f, taken in serial order, adds the simplex
  f + p, a pyramid of normalized volume g_f * (-h_F(p)), the lattice height
  of p over F times the base (Büeler, Enge and Fukuda 2000);
* a ridge R of f lies in the hull facets whose bits are set in the masks of
  all of R's vertices.  Apart from F, that is none when R is inside F, and
  exactly one hull facet G when R is on F's boundary.  When G is visible
  too, or R is inside F, R + p is not on the new boundary.  The ridges of
  f are tested in one forward pass: the ANDs of the masks of the vertices
  after each position are built once, back to front, and the AND of
  those before it is carried along the pass;
* otherwise R + p is a new boundary simplex, taken in the order of the
  vertex of f that R omits.  When p lies on G's hyperplane (h_G(p) = 0), it
  joins G; the hidden facets through p are collected once per round, by
  their bit, so such a ridge costs one lookup.  Else it joins the new hull
  facet of the pair (F, G), made once per pair and found by the OR of the
  pair's bits, whose functional is the primitive part of
  h_G(p) * h_F - h_F(p) * h_G: it vanishes on F and G's common face and at
  p.  Distinct pairs give distinct facets (Grünbaum's beneath-beyond
  theorem).  Its base volume is vol(f + p) / h(v), h its hull facet's
  functional and v the vertex of f off R.  A hull facet keeps every h(v)
  it has measured for as long as it lives, so each is computed once;
* masks gain bits once per round, at its end.  A new facet's bit goes to
  p and to every vertex of its horizon ridges (the OR of the ridges' point
  bitmasks, each read off f's record); a facet that p extends gives its
  bit to p only, since the ridge's vertices already have it.  Nothing in
  the round reads the new bits: ridges are tested only against the facets
  hidden before p, and p is never a vertex of a simplex coned in its own
  round.  The visible facets are then dropped, and their bits are cleared
  from every mask and used again.

Every boundary simplex gets a serial when it is made, so the simplices come
out in the same order as from a scan of the boundary in creation order.
Only the seed simplex is eliminated (``geometry.bareiss``): its adjugate
gives the first d + 1 functionals and base volumes.  Three checks raise
``AssertionError``: a point that sees no hull facet, a ridge in more than
one hull facet besides its own, and a simplex whose height is not positive
or whose base volume is not an integer.

Nothing here refuses an input for its size.  The cost grows with the
number of simplices, exponentially in n for the claw polytopes; the
command line's guard rails decide from the request, before any vertex is
built, what is too big to run by default.

Volume convention: ``lattice_volume`` in a lattice L of index k inside Z^d
is ``d! * euclidean volume / k``; a polytope of deficient affine dimension
has volume 0.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from .geometry import LatticeBasis, VPolytope, _primitive, bareiss, lattice_index


@dataclass(frozen=True)
class Triangulation:
    """Simplices, as vertex-index tuples into the base polytope's vertices.

    ``volume`` is the normalized Z^dim volume the simplices add up to.
    """

    polytope: VPolytope
    simplices: tuple[tuple[int, ...], ...]
    volume: Fraction


class _HullFacet:
    """A facet of the current hull: inward functional, bit, boundary
    simplices and heights.

    ``h`` is the primitive homogeneous row ``(normal, offset)``: its dot
    product with ``(x, -1)`` is zero on the facet and positive inside.
    ``bit`` is the index of the facet's bit in the points' incidence masks;
    a point has it from the end of the round that made or extended the
    facet with the point as a vertex; the seed's vertices have the bits of
    the seed facets through them from the start.  ``simplices`` lists the
    boundary simplices that make up the facet as
    ``(serial, parent, omit, base, mask)`` in serial order: the simplex's
    sorted vertex indices are ``parent`` with position ``omit`` left out,
    ``base`` is its normalized volume in the lattice of the hyperplane, and
    ``mask`` has bit v set for each vertex v of ``parent``.  ``heights``
    maps a point index v to the value of ``h`` at v, for each v that was
    the vertex off a ridge the facet gained a simplex across; it lives as
    long as the facet, since ``h`` never changes.
    """

    __slots__ = ("h", "bit", "simplices", "heights")

    def __init__(self, h, bit, simplices):
        self.h = h
        self.bit = bit
        self.simplices = simplices
        self.heights = {}


def triangulate(vp: VPolytope) -> Triangulation:
    """Deterministic placing triangulation of a V-polytope, with its volume.

    Points are inserted in lexicographic order after a greedy full-dimensional
    seed simplex; each insertion cones the new point over the strictly visible
    boundary simplices.  Returns an empty triangulation when the affine hull has
    deficient dimension.  Only ``vp.rows`` and ``vp.scale`` are read, so a
    polytope from ``vertex_enumeration`` never builds its points here.
    """
    ipts = vp.rows
    d = vp.dim
    count = len(ipts)
    if count < d + 1:
        return Triangulation(vp, (), Fraction(0))

    # Eliminate [B | I], B with columns (1, v).  B's pivot columns are the
    # greedy seed: the first point and each point that extends the affine
    # rank of the ones before it.  [B | I] always has full rank; B has it
    # when all pivots lie in B.  Then the right block is (last pivot) * M^-T,
    # M with the seed's rows (1, v), so its row k is the affine functional
    # of the seed facet opposite vertex k: zero on that facet, |det M| at
    # vertex k.  The gcd divided out of it is the facet's base volume.
    rows = [[*col, *(0,) * r, 1, *(0,) * (d - r)]
            for r, col in enumerate(((1,) * count, *zip(*ipts)))]
    pivots, last = bareiss(rows)
    if pivots[-1] >= count:
        return Triangulation(vp, (), Fraction(0))

    hpts = [(*p, -1) for p in ipts]
    seed = tuple(pivots)
    sign = 1 if last > 0 else -1
    total = abs(last)
    simplices = [seed]
    # The live hull facets by bit index, and for each point the bits of the
    # live hull facets through it.  Bits of dropped facets are used again,
    # lowest first, so the masks stay as short as the hull is large.  Seed
    # vertex k lies on every seed facet but the one opposite it.
    hull: dict[int, _HullFacet] = {}
    incidence = [0] * count
    live = (1 << (d + 1)) - 1
    seed_bits = 0
    for v in seed:
        seed_bits |= 1 << v
    for k, v in enumerate(seed):
        row = rows[k][count:]
        g = math.gcd(*row)
        unit = sign * g
        h = (*[a // unit for a in row[1:]], -row[0] // unit)
        hull[k] = _HullFacet(h, k, [(k, seed, k, g, seed_bits)])
        incidence[v] = live ^ 1 << k
    serial = d + 1
    seeded = set(seed)

    for i in range(count):
        if i in seeded:
            continue
        p = hpts[i]
        # Split the live hull facets by the sign of h(p) in one pass: the
        # visible ones, the hidden ones through p, keyed by 1 << bit as a
        # ridge's ``other`` below is (p extends them), and the visible bits.
        value = {k: sum(map(mul, f.h, p)) for k, f in hull.items()}
        visible = []
        on = {}
        gone = 0
        for k, v in value.items():
            if v < 0:
                visible.append((hull.pop(k), -v))
                gone |= 1 << k
            elif not v:
                on[1 << k] = hull[k]
        if not visible:
            raise AssertionError("the new point sees no hull facet")
        hidden = live ^ gone
        # Every boundary simplex of a visible facet is visible, and they
        # are coned to p in serial order.  ``depth`` is -h_F(p) > 0.
        todo = [(*record, f, depth)
                for f, depth in visible for record in f.simplices]
        todo.sort(key=itemgetter(0))
        # The new hull facets by the mask bits of their (visible, hidden)
        # pair: most new simplices share theirs with an earlier one of the
        # round.  ``spans`` holds the vertices of each new facet's
        # simplices but p, as a point bitmask; ``reach`` the bits of the
        # facets p extends.
        made: dict[int, _HullFacet] = {}
        spans: dict[int, int] = {}
        reach = 0
        for _, parent, omit, base, mask, f, depth in todo:
            key = parent[:omit] + parent[omit + 1:]
            key_bits = mask ^ 1 << parent[omit]
            vol = depth * base
            total += vol
            q = bisect(key, i)
            full = key[:q] + (i,) + key[q:]
            simplices.append(full)
            full_bits = key_bits | 1 << i
            # The hull facets through the ridge that omits key[j] have
            # their bits set in the masks of all vertices but key[j]: the
            # prefix AND ``acc``, carried from hidden, times the suffix AND
            # ``after``.  Starting from the facets hidden before p leaves
            # out the visible ones and those made in this round.
            acc = -1
            suffix = [acc]
            for v in key[:0:-1]:
                acc &= incidence[v]
                suffix.append(acc)
            acc = hidden
            j = -1
            for v, after in zip(key, reversed(suffix)):
                j += 1
                other = acc & after
                acc &= incidence[v]
                if not other:
                    continue
                if other & (other - 1):
                    raise AssertionError("a ridge lies in three hull facets")
                # p on G's hyperplane extends G, whose bit the ridge's
                # vertices already have; else F's and G's common face and
                # p span a new facet, one per pair.
                target = on.get(other)
                if target is None:
                    pair = other | 1 << f.bit
                    target = made.get(pair)
                    if target is None:
                        k = other.bit_length() - 1
                        h = _primitive([value[k] * a + depth * b
                                        for a, b in zip(f.h, hull[k].h)])
                        bit = (~live & (live + 1)).bit_length() - 1
                        live |= 1 << bit
                        target = made[pair] = _HullFacet(h, bit, [])
                        spans[pair] = 0
                    spans[pair] |= key_bits ^ 1 << v
                else:
                    reach |= other
                heights = target.heights
                height = heights.get(v)
                if height is None:
                    height = heights[v] = sum(map(mul, target.h, hpts[v]))
                if height <= 0 or vol % height:
                    raise AssertionError("degenerate simplex in triangulation")
                omitted = j if j < q else j + 1
                target.simplices.append(
                    (serial, full, omitted, vol // height, full_bits))
                serial += 1
        live ^= gone
        incidence = [m & live for m in incidence]
        # Each new facet's bit goes to p and to the vertices of its
        # simplices once.
        for pair, f in made.items():
            mark = 1 << f.bit
            reach |= mark
            span = spans[pair]
            while span:
                low = span & -span
                incidence[low.bit_length() - 1] |= mark
                span ^= low
            hull[f.bit] = f
        incidence[i] = reach

    return Triangulation(vp, tuple(simplices), Fraction(total, vp.scale ** d))


def triangulation_lattice_volume(t: Triangulation) -> Fraction:
    """Sum of normalized simplex volumes: the Z^dim volume of the polytope."""
    return t.volume


def lattice_volume(vp: VPolytope, basis: LatticeBasis | None = None) -> Fraction:
    """Normalized volume dim! * euclidean / index(basis); basis None means Z^dim."""
    if basis is not None and basis.dim != vp.dim:
        raise ValueError(f"a basis of Z^{basis.dim} does not measure a polytope "
                         f"in R^{vp.dim}")
    if vp.is_empty():
        return Fraction(0)
    vol = triangulation_lattice_volume(triangulate(vp))
    if basis is None:
        return vol
    return vol / lattice_index(basis)
