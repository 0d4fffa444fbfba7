"""Exact polyhedral geometry on integer input.

Every constructor and ``affine_dim`` take int entries and an int
dimension only (a ``bool`` counts as 0 or 1); a float, a ``Fraction``, a
string or any other type is refused with a ``ValueError`` naming it.
Results are computed with integer arithmetic and no floats are ever
produced; the one output with ``Fraction`` entries is the non-integral
points a ``VPolytope`` reads back from its rows.
The central algorithm is a double description vertex enumerator working on
integer homogeneous coordinates, which turns a halfspace description into
the exact vertex set of a bounded polyhedron and reliably distinguishes
empty from unbounded inputs.  ``vertex_rays`` returns that vertex set as
the cone's primitive integer rays (y_0, y), one per vertex y / y_0, and
``vertex_enumeration`` keeps them as a ``VPolytope``'s integer rows
y * (L / y_0), L the lcm of the y_0, sorted as ints.
A polytope built by ``with_halfspaces`` remembers the polytope it came
from; the enumerator resumes from that base polytope's cone, computed once
and kept on the base, and processes only the added rows.

Conventions:

* a point given to a constructor or to ``affine_dim`` is a sequence of
  ints; a point read back from ``VPolytope.vertices`` is a tuple of ints,
  or of ``Fraction``s when it is not integral;
* a halfspace is ``{x : <normal, x> <= offset}``, stored as the primitive
  integer row ``(normal, offset)``;
* a ``VPolytope`` is stored only as integer rows: its distinct points
  times ``scale``, the lcm of their denominators, lexicographically sorted.
  Consumers read the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Sequence

Point = tuple[int | Fraction, ...]


class GeometryError(Exception):
    """Base class for geometric failure modes."""


class UnboundedError(GeometryError):
    """The polyhedron has a recession direction, so it has no vertex list."""


class RankDeficientError(GeometryError):
    """Generators fail to span the ambient space."""


def _ints(values: Sequence) -> tuple[int, ...]:
    """``values`` as a tuple of ints, a ``bool`` as 0 or 1; refuse any entry
    of another type, naming it."""
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"expected int, got {type(v).__name__}")
    return tuple(map(int, values))


def _int(value) -> int:
    """``value`` as an int, refused as ``_ints`` refuses an entry."""
    return _ints((value,))[0]


def _check_length(point: Sequence, dim: int) -> None:
    if len(point) != dim:
        raise ValueError(
            f"point of length {len(point)} does not match ambient R^{dim}")


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping signs."""
    g = math.gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace ``{x : <normal, x> <= offset}``.

    ``normal`` and ``offset`` take ints only.  The row is reduced once to
    its primitive form, sign kept, so a positive integer multiple of a
    halfspace compares equal to it.
    """

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self):
        row = (*self.normal, self.offset)
        if not all(type(v) is int for v in row):
            row = _ints(row)
        row = _primitive(row)
        object.__setattr__(self, "normal", row[:-1])
        object.__setattr__(self, "offset", row[-1])

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class HPolytope:
    """A polyhedron given by finitely many halfspaces in R^dim.

    ``base`` is the polytope whose halfspaces are a prefix of these; only
    ``with_halfspaces`` sets it.  ``vertex_enumeration`` resumes from the
    base's cone, which it computes once and keeps in the base's ``_cone``.
    Neither field is a constructor argument or takes part in equality,
    hashing or repr.
    """

    dim: int
    halfspaces: tuple[HalfSpace, ...]
    base: HPolytope | None = field(default=None, init=False, compare=False,
                                   repr=False)
    _cone: tuple | None = field(default=None, init=False, compare=False,
                                repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", _int(self.dim))
        for hs in self.halfspaces:
            if hs.dim != self.dim:
                raise ValueError(
                    f"halfspace in R^{hs.dim} does not match ambient R^{self.dim}")

    def with_halfspaces(self, extra: Iterable[HalfSpace]) -> "HPolytope":
        # Checked on the added rows alone, as this polytope checked its own;
        # then this polytope's rows go in front and it becomes the base.
        child = HPolytope(self.dim, tuple(extra))
        object.__setattr__(child, "halfspaces", self.halfspaces + child.halfspaces)
        object.__setattr__(child, "base", self)
        return child


@dataclass(frozen=True, init=False)
class VPolytope:
    """A polytope given by points, stored as integer rows.

    ``scale`` is the lcm of the points' denominators and ``rows`` are the
    distinct integer rows ``scale * point``, lex-sorted; nothing else is
    stored, and equality and hashing use only ``dim``, ``scale`` and
    ``rows``.  The points are not forced to be extreme.

    ``VPolytope(dim, points)`` takes points with int entries and stores
    them at scale 1; only ``vertex_enumeration`` makes a larger scale.
    ``vertices`` reads the points back from the rows, built on first read:
    the rows themselves at scale 1, otherwise an int tuple for each
    integral point and ``Fraction``s for the others.
    """

    dim: int
    scale: int
    rows: tuple[tuple[int, ...], ...]
    _points: tuple[Point, ...] | None = field(default=None, compare=False,
                                              repr=False)

    def __init__(self, dim: int, vertices: Iterable[Sequence]):
        dim = _int(dim)
        rows = set()
        for p in vertices:
            _check_length(p, dim)
            rows.add(_ints(p))
        self._store(dim, 1, tuple(sorted(rows)))

    @classmethod
    def _from_rows(cls, dim: int, scale: int,
                   rows: tuple[tuple[int, ...], ...]) -> VPolytope:
        """Store integer rows as they are: of length ``dim``, distinct and
        lex-sorted, with ``scale`` the lcm of the denominators of the
        points row / scale, as ``vertex_enumeration`` makes them."""
        vp = object.__new__(cls)
        vp._store(dim, scale, rows)
        return vp

    def _store(self, dim: int, scale: int,
               rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rows", rows)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The points ``row / scale``, built from the rows on first read."""
        points = self._points
        if points is None:
            s = self.scale
            points = self.rows if s == 1 else tuple(
                tuple(v // s for v in r) if all(v % s == 0 for v in r)
                else tuple(Fraction(v, s) for v in r)
                for r in self.rows)
            object.__setattr__(self, "_points", points)
        return points

    def is_empty(self) -> bool:
        return not self.rows


# ---------------------------------------------------------------------------
# Double description vertex enumeration
# ---------------------------------------------------------------------------

def _dd_cone(rows: list[tuple[int, ...]], dim: int, start: tuple | None = None):
    """Extreme rays and lineality of ``{y : <row, y> >= 0 for all rows}``.

    Pure integer double description: the rows, rays and lineality
    generators are tuples of ints, every dot product and combination stays
    in int, and no ``Fraction`` is built.  Rays are primitive integer
    vectors; each carries a bitmask of the constraints it satisfies with
    equality (its zero set).  A positive ray and a negative ray are
    combined when they are adjacent, by the combinatorial test of Fukuda
    and Prodon (1996): their common zero set is large enough for the
    pointed part of the cone, and no third ray's zero set contains it.
    Returns ``(rays, zero_sets, lineality)``.

    ``start``, when given, is ``(rays, zero_sets, lineality, consumed)``
    for the cone of ``consumed`` earlier rows; the run continues from it,
    numbering the zero-set bits of ``rows`` from ``consumed`` on.  The loop
    only rebinds its lists, so ``start`` is never modified.
    """
    if start is None:
        lineality: list[tuple[int, ...]] = [
            tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
        ]
        rays: list[tuple[int, ...]] = []
        zsets: list[int] = []
        consumed = 0
    else:
        rays, zsets, lineality, consumed = start

    for k, c in enumerate(rows, consumed):
        bit = 1 << k
        lin_vals = [sum(map(mul, c, l)) for l in lineality]
        pivot = next((i for i, t in enumerate(lin_vals) if t != 0), None)
        if pivot is not None:
            # Case A: the new constraint cuts the lineality space.  One
            # lineality generator becomes an extreme ray; the rest, and all
            # existing rays, are shifted onto the constraint's hyperplane.
            lstar, tstar = lineality[pivot], lin_vals[pivot]
            if tstar < 0:
                lstar, tstar = tuple(-v for v in lstar), -tstar
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                t = lin_vals[i]
                new_lin.append(_primitive([tstar * a - t * b
                                           for a, b in zip(l, lstar)]))
            new_rays = []
            for r in rays:
                t = sum(map(mul, c, r))
                new_rays.append(_primitive([tstar * a - t * b
                                            for a, b in zip(r, lstar)]))
            lineality = new_lin
            rays = new_rays + [lstar]
            zsets = [z | bit for z in zsets] + [bit - 1]
            continue

        # Case B: constraint is orthogonal to the lineality space; split the
        # current rays and combine adjacent positive/negative pairs.
        vals = [sum(map(mul, c, r)) for r in rays]
        if min(vals, default=0) >= 0:
            zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals)]
            continue

        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]

        implicit = ~0
        for z in zsets:
            implicit &= z
        # A pair of adjacent extreme rays shares at least (pointed cone
        # dimension - 2) tight constraints beyond the implicit equalities.
        needed = dim - len(lineality) - 2 - (implicit & (bit - 1)).bit_count()

        new_rays = []
        new_zsets = []
        for ip in pos:
            zp = zsets[ip]
            for im in neg:
                common = zp & zsets[im]
                if common.bit_count() < needed:
                    continue
                # Adjacent iff no third ray is tight on all of common; rays
                # ip and im are, so exactly two zero sets may contain it.
                if [common & z for z in zsets].count(common) > 2:
                    continue
                vp, vm = vals[ip], vals[im]
                combo = [vp * a - vm * b for a, b in zip(rays[im], rays[ip])]
                new_rays.append(_primitive(combo))
                new_zsets.append(common | bit)

        rays = [rays[i] for i in pos] + [rays[i] for i in zero] + new_rays
        zsets = ([zsets[i] for i in pos]
                 + [zsets[i] | bit for i in zero]
                 + new_zsets)

    return rays, zsets, lineality


def _halfspace_rows(halfspaces: Iterable[HalfSpace]) -> list[tuple[int, ...]]:
    """Cone rows ``b*y_0 - <a, y> >= 0`` of halfspaces ``<a, x> <= b``."""
    return [(hs.offset, *map(neg, hs.normal)) for hs in halfspaces]


def _cone_rows(hp: HPolytope) -> list[tuple[int, ...]]:
    """Integer rows of the homogenized cone: y_0 >= 0 and b*y_0 - <a, y> >= 0."""
    return [(1,) + (0,) * hp.dim] + _halfspace_rows(hp.halfspaces)


def _dd_state(hp: HPolytope) -> tuple:
    """DD state ``(rays, zero_sets, lineality, consumed)`` of hp's cone.

    With a base, DD resumes from the base's state and consumes only the
    rows after it; the base's state is computed once, the same way, and
    kept on the base.
    """
    base = hp.base
    if base is None:
        rows, start = _cone_rows(hp), None
    else:
        if base._cone is None:
            object.__setattr__(base, "_cone", _dd_state(base))
        rows = _halfspace_rows(hp.halfspaces[len(base.halfspaces):])
        start = base._cone
    return (*_dd_cone(rows, hp.dim + 1, start), len(hp.halfspaces) + 1)


def vertex_rays(hp: HPolytope) -> list[tuple[int, ...]]:
    """Primitive integer rays (y_0, y) of hp's homogenized cone, y_0 > 0.

    Each ray stands for the vertex y / y_0 of a bounded ``HPolytope``; the
    rays come in DD order, one per vertex.  Returns an empty list when the
    constraints are infeasible and raises ``UnboundedError`` when the
    feasible region has a recession direction, so the two degenerate
    outcomes are never confused.  A polytope built by ``with_halfspaces``
    resumes DD from its base polytope's cone and processes only the added
    halfspaces.
    """
    rays, _, lineality, _ = _dd_state(hp)
    bounded = [r for r in rays if r[0] > 0]
    if bounded and (lineality or len(bounded) < len(rays)):
        raise UnboundedError(
            f"polyhedron in R^{hp.dim} is unbounded; no vertex description exists")
    return bounded


def vertex_enumeration(hp: HPolytope) -> VPolytope:
    """Exact vertex set of a bounded ``HPolytope``, from ``vertex_rays``.

    Empty when the constraints are infeasible; ``UnboundedError`` when the
    feasible region is unbounded.  Each ray (y_0, y) becomes the integer
    row y * (L / y_0), L the lcm of the y_0, which is the vertex y / y_0
    scaled by L: the polytope's ``scale`` and ``rows``.  Sorting the rows
    orders the vertices lexicographically, and distinct primitive rays are
    distinct vertices, so no ``Fraction`` is built, hashed or compared.
    """
    rays = vertex_rays(hp)
    scale = math.lcm(*(r[0] for r in rays))
    rows = [r[1:] if r[0] == scale
            else tuple(v * (scale // r[0]) for v in r[1:]) for r in rays]
    rows.sort()
    return VPolytope._from_rows(hp.dim, scale, tuple(rows))


# ---------------------------------------------------------------------------
# Rank and affine dimension
# ---------------------------------------------------------------------------

def bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns the pivot columns and the last pivot (1 when there is none).
    Every entry stays a minor of the input (Bareiss 1968), so each division
    is exact.  Consequences the callers rely on: the rank is the number of
    pivots, and the pivot columns are the first columns that are independent
    of the ones before them; a square matrix of full rank has determinant
    +-(last pivot); and eliminating ``[B | I]``, B of full row rank, leaves
    (last pivot) * M^-1 in the right block, M the square matrix of B's
    pivot columns, so its determinant is +-(last pivot) too.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        found = next((i for i in range(r, m) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        row_r = rows[r]
        piv = row_r[c]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(piv * a - f * b) // prev
                           for a, b in zip(rows[i], row_r)]
            elif piv != prev:
                # A zero in the pivot column only rescales the row.
                rows[i] = [piv * a // prev for a in rows[i]]
        prev = piv
        pivots.append(c)
    return pivots, prev


def affine_dim(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull: -1 for no points, 0 for one point.

    The rank of the rows ``(1, p)`` is one more than the affine dimension.
    The points must all have the same length and int entries.
    """
    for p in points[1:]:
        _check_length(p, len(points[0]))
    return len(bareiss([[1, *_ints(p)] for p in points])[0]) - 1


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBasis:
    """A basis of a sublattice of Z^dim: dim rows of dim ints each."""

    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", _int(self.dim))
        if len(self.generators) != self.dim:
            raise ValueError(f"a basis of Z^{self.dim} needs {self.dim} rows, "
                             f"got {len(self.generators)}")
        for row in self.generators:
            if len(row) != self.dim:
                raise ValueError(
                    f"generator of length {len(row)} does not match Z^{self.dim}")
        object.__setattr__(self, "generators",
                           tuple(map(_ints, self.generators)))


def lattice_index(basis: LatticeBasis) -> int:
    """Index in Z^dim of the sublattice spanned by the basis rows.

    The index is |det| of the square basis matrix, which ``bareiss`` leaves
    as its last pivot up to sign.  Raises ``RankDeficientError`` when the
    rows do not span R^dim.
    """
    d = basis.dim
    pivots, last = bareiss([list(r) for r in basis.generators])
    if len(pivots) < d:
        raise RankDeficientError(
            f"generators span rank {len(pivots)} < ambient dimension {d}")
    return abs(last)
