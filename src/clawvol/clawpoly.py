"""Polytopes attached to n-claw trees for the groups Z2, Z2xZ2, Z3.

Coordinates are the projected ones: blocks j = 1..n are contiguous, and
inside a block the nonzero group elements appear in index order (Z2: [x_1];
Z2xZ2: [x_a, x_b, x_c]; Z3: [x_1, x_2]).  The identity coordinate of each
block is implicit (1 minus the block sum).

Each polytope has one 0/1 vertex per zero-sum tuple over the group, and a
facet system made of nonnegativity, per-block upper bounds, and a family of
cut inequalities indexed by subsets of [n] (Z2, Z2xZ2) or by digit tuples in
{0,1,2}^n (Z3) in two dual channels.
``facet_halfspaces``, the one form of the facet system, walks it one
halfspace at a time and builds each cut as it is reached.

A cut carries its side, minus or plus, and builds its one halfspace once,
on first use, and keeps it on the cut object.  ``cuts.lemma_claims`` shares
one cut object among all the claims of a list that use it, so a claim list
builds each halfspace once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .geometry import HalfSpace, HPolytope, LatticeBasis, VPolytope, _int, _ints
from .groups import Group, Z2, Z2xZ2, Z3, zero_sum_tuples

# The two fixed families of 2-vectors defining the Z3 cut functionals:
# channel 1 uses U, channel 2 uses W, indexed by the digit at each block.
Z3_NORMALS_U = ((1, 2), (1, -1), (-2, -1))
Z3_NORMALS_W = ((2, 1), (-1, 1), (-1, -2))

MIN_N = 2

MINUS = "minus"
PLUS = "plus"


def _check_n(n: int, minimum: int = MIN_N) -> None:
    if _int(n) < minimum:
        raise ValueError(f"n must be >= {minimum}, got {n}")


def block_width(group: Group) -> int:
    return group.order - 1


def ambient_dim(group: Group, n: int) -> int:
    return block_width(group) * n


@dataclass(frozen=True)
class OddSubsetCut:
    """One side of a cut functional S_{A,g}: its index data (A, channel)
    and the side it keeps, MINUS (S_{A,g} <= rhs, the default) or PLUS
    (S_{A,g} >= rhs).

    For Z2 and Z2xZ2, ``subset`` is the sorted tuple of positions in [n]
    forming A; the channel is a nonzero group element (Z2 has only channel
    1; Z2xZ2 channels 1, 2, 3 stand for a, b, c).  For Z3, ``subset`` is the
    digit tuple A in {0,1,2}^n and the channel is 1 or 2 selecting the U or
    W normals.  The cut's plus-side inequality is one of the polytope's
    facets for odd |A|, or digit sum 2 mod 3; general cuts are still
    meaningful and are used by the cut-piece lemmas.
    """

    group: Group
    n: int
    subset: tuple[int, ...]
    channel: int
    side: str = MINUS

    def __post_init__(self):
        if self.side not in (MINUS, PLUS):
            raise ValueError(
                f"side must be {MINUS!r} or {PLUS!r}, got {self.side!r}")
        subset, (n, channel) = _ints(self.subset), _ints((self.n, self.channel))
        _check_n(n, 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "channel", channel)
        if self.group is Z3:
            if self.channel not in (1, 2):
                raise ValueError(f"Z3 channel must be 1 or 2, got {self.channel}")
            if len(subset) != self.n or any(a not in (0, 1, 2) for a in subset):
                raise ValueError("Z3 cut needs a digit tuple in {0,1,2}^n")
        else:
            if self.channel not in self.group.nonzero:
                raise ValueError(
                    f"channel {self.channel} is not a nonzero element of {self.group}")
            if subset != tuple(sorted(set(subset))):
                raise ValueError("subset positions must be sorted and distinct")
            if any(j < 1 or j > self.n for j in subset):
                raise ValueError("subset positions must lie in 1..n")

    @property
    def rhs(self) -> int:
        """Right-hand side of the facet inequality S_{A,g} >= rhs."""
        if self.group is Z3:
            return 2 - sum(self.subset)
        return 1 - len(self.subset)

    def describe(self) -> dict:
        """JSON-ready hypothesis fragment; the side is left to the claim."""
        channel = (str(self.channel) if self.group is Z3
                   else self.group.element_name(self.channel))
        return {"A": list(self.subset), "channel": channel}

    @functools.cached_property
    def halfspace(self) -> HalfSpace:
        """S_{A,g} <= rhs (minus) or S_{A,g} >= rhs (plus), built on first
        use and kept on the cut, out of equality, hashing and repr."""
        coeffs = s_coefficients(self)
        if self.side == MINUS:
            return HalfSpace(coeffs, self.rhs)
        return HalfSpace(tuple(-c for c in coeffs), -self.rhs)


def s_coefficients(cut: OddSubsetCut) -> tuple[int, ...]:
    """Integer coefficient vector of S_{A,g} on the projected coordinates."""
    n = cut.n
    if cut.group is Z3:
        table = Z3_NORMALS_U if cut.channel == 1 else Z3_NORMALS_W
        coeffs: list[int] = []
        for a in cut.subset:
            coeffs.extend(table[a])
        return tuple(coeffs)
    inside = set(cut.subset)
    coeffs = []
    for j in range(1, n + 1):
        sign = -1 if j in inside else 1
        for g in cut.group.nonzero:
            coeffs.append(0 if cut.group is Z2xZ2 and g == cut.channel else sign)
    return tuple(coeffs)


def _mask_positions(mask: int) -> tuple[int, ...]:
    """The positions in [n] of a subset given as a bitmask, bit 0 being 1."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def z3_tuples(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product((0, 1, 2), repeat=n)


def z3_facet_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Digit tuples with sum 2 mod 3, in lexicographic order, one at a time."""
    return (t for t in z3_tuples(n) if sum(t) % 3 == 2)


@functools.lru_cache(maxsize=8, typed=True)
def z3_minus_halfspaces(n: int, channel: int
                        ) -> tuple[tuple[tuple[int, ...], HalfSpace], ...]:
    """Each Z3 facet tuple C, in lexicographic order, with S_{C,channel} <= rhs.

    Built once per (n, channel) and shared: a contained claim tests its
    piece against every one of them.  The cache is typed, so a float or
    ``Fraction`` equal to a cached int is still refused.
    """
    _check_n(n)
    return tuple((c, OddSubsetCut(Z3, n, c, channel).halfspace)
                 for c in z3_facet_tuples(n))


@functools.lru_cache(maxsize=8, typed=True)
def ambient(group: Group, n: int) -> HPolytope:
    """The box or product of unit simplices containing the polytope.

    Z2: the cube [0,1]^n.  Z2xZ2 and Z3: per block, all coordinates
    nonnegative with block sum at most 1.  The object is shared between
    calls, so every piece cut from it resumes vertex enumeration from the
    same memoised cone.  The cache is typed, so a float or ``Fraction``
    equal to a cached int is still refused.
    """
    _check_n(n, 1)
    d = ambient_dim(group, n)
    width = block_width(group)
    halfspaces = []
    for i in range(d):
        normal = tuple(-1 if j == i else 0 for j in range(d))
        halfspaces.append(HalfSpace(normal, 0))
    for j in range(n):
        normal = tuple(1 if j * width <= i < (j + 1) * width else 0
                       for i in range(d))
        halfspaces.append(HalfSpace(normal, 1))
    return HPolytope(d, tuple(halfspaces))


def _encode_tuple(group: Group, entries: tuple[int, ...]) -> tuple[int, ...]:
    width = block_width(group)
    point = []
    for g in entries:
        block = [0] * width
        if g != 0:
            block[g - 1] = 1
        point.extend(block)
    return tuple(point)


def vertices(group: Group, n: int) -> VPolytope:
    """One 0/1 point per zero-sum n-tuple; |G|^(n-1) vertices in R^((|G|-1)n).

    A 0/1 point is its own integer row at scale 1, and distinct tuples
    encode to distinct points, so the sorted encodings are the rows.
    """
    _check_n(n)
    rows = sorted(_encode_tuple(group, t) for t in zero_sum_tuples(group, n))
    return VPolytope._from_rows(ambient_dim(group, n), 1, tuple(rows))


def _facet_cut_walk(group: Group, n: int) -> Iterator[OddSubsetCut]:
    """The plus side of each cut that is a facet, built one at a time, in
    (channel, index) order.

    Z2: odd subsets of [n] by ascending bitmask.  Z2xZ2: the same per
    channel a, b, c.  Z3: digit tuples with sum 2 mod 3 in lexicographic
    order, channels 1 then 2.
    """
    if group is Z3:
        for channel in (1, 2):
            for digits in z3_facet_tuples(n):
                yield OddSubsetCut(Z3, n, digits, channel, PLUS)
        return
    for channel in (1,) if group is Z2 else (1, 2, 3):
        for mask in range(1, 1 << n):
            if bin(mask).count("1") % 2 == 1:
                yield OddSubsetCut(group, n, _mask_positions(mask), channel,
                                   PLUS)


def facet_halfspaces(group: Group, n: int) -> Iterator[HalfSpace]:
    """The facet system one halfspace at a time: the ambient bounds, then
    each facet cut's plus side, built as it is reached.

    ``n`` is checked on the call, before the first halfspace is asked for.
    """
    _check_n(n)
    return itertools.chain(
        ambient(group, n).halfspaces,
        (c.halfspace for c in _facet_cut_walk(group, n)))


# Rows generating the model lattice inside block 0: the kernel of the
# block's map onto the group, which sends the unit vector of g to g.
BLOCK0_KERNEL = {
    Z2: ((2,),),
    Z3: ((3, 0), (1, 1)),
    Z2xZ2: ((2, 0, 0), (0, 2, 0), (-1, -1, 1)),
}


def lattice(group: Group, n: int) -> LatticeBasis:
    """The model lattice, as an explicit square basis.

    The model lattice is the kernel of the map from Z^dim onto the group
    sending the unit vector of block j and element g to g; it has index
    |G|.  Block 0 contributes its ``BLOCK0_KERNEL`` rows, and every later
    block j adds e_{j,g} - e_{0,g} for each nonzero g.  The basis holds for
    every n >= 2, including n = 2 where the vertices do not span the space.
    """
    _check_n(n)
    d = ambient_dim(group, n)
    width = block_width(group)
    gens = [row + (0,) * (d - width) for row in BLOCK0_KERNEL[group]]
    for i in range(width, d):
        row = [0] * d
        row[i], row[i % width] = 1, -1
        gens.append(tuple(row))
    return LatticeBasis(d, tuple(gens))


def model_lattice_index(group: Group) -> int:
    """Index of the model lattice inside Z^dim: the order of the group.

    Sending the unit vector of block j and element g to g maps Z^dim onto
    the group, and the model lattice is the kernel of that map.
    """
    return group.order
