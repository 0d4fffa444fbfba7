"""Exact polytope volumes via a deterministic placing triangulation.

The triangulation strategy is fixed: vertices are taken in their canonical
lexicographic order, a first full-dimensional simplex is built greedily, and
every later point is attached by coning over the boundary facets it can see
strictly.  Ties never arise because insertion order is the total lex order.
Points are scaled to a common denominator, and one fraction-free kernel
(``geometry.bareiss``) supplies every rank, determinant and facet
functional, so results are exact.

Volume convention: ``lattice_volume`` in a lattice L of index k inside Z^d
is ``d! * euclidean volume / k``; a polytope of deficient affine dimension
has volume 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import (
    GuardRailError,
    LatticeBasis,
    Point,
    VPolytope,
    _primitive,
    bareiss,
    lattice_index,
    matrix_rank,
)

MAX_DIM = 14
MAX_VERTICES = 200


@dataclass(frozen=True)
class Triangulation:
    """Simplices, as vertex-index tuples into the base polytope's vertices."""

    polytope: VPolytope
    simplices: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.polytope.dim


def _common_denominator(points: Sequence[Point]) -> int:
    lcm = 1
    for p in points:
        for v in p:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    return lcm


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


def triangulate(vp: VPolytope, *, allow_big: bool = False) -> Triangulation:
    """Deterministic placing triangulation of a V-polytope.

    Points are inserted in lexicographic order after a greedy full-dimensional
    seed simplex; each insertion cones the new point over the strictly visible
    boundary facets.  Returns an empty triangulation when the affine hull has
    deficient dimension.  Refuses oversized inputs unless ``allow_big``.
    """
    _check_guard(vp, allow_big)
    pts = vp.vertices
    d = vp.dim
    if len(pts) < d + 1:
        return Triangulation(vp, ())

    scale = _common_denominator(pts)
    ipts = [tuple(int(v * scale) for v in p) for p in pts]

    # Greedy seed: first point plus points extending the affine rank.
    seed = [0]
    diffs: list[list[int]] = []
    for i in range(1, len(pts)):
        cand = [a - b for a, b in zip(ipts[i], ipts[0])]
        if matrix_rank(diffs + [cand]) > len(diffs):
            diffs.append(cand)
            seed.append(i)
            if len(seed) == d + 1:
                break
    if len(seed) < d + 1:
        return Triangulation(vp, ())

    simplices: list[tuple[int, ...]] = []
    # Boundary facets with inward-oriented hyperplanes <normal, x> >= offset.
    # A facet enters the boundary when its first owning simplex appears and
    # leaves for good when a second one covers it, so the orientation never
    # needs updating.
    boundary: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    def add_simplex(simplex: tuple[int, ...]) -> None:
        simplices.append(simplex)
        # Eliminating [M | I], M with rows (1, v), leaves (last pivot) * M^-1
        # on the right.  Its column k is the affine functional of the facet
        # opposite vertex k: zero on that facet, the last pivot at vertex k.
        rows = [[1, *ipts[j]] + [int(i == r) for i in range(d + 1)]
                for r, j in enumerate(simplex)]
        pivots, last = bareiss(rows)
        # [M | I] always has full rank; M has it when all pivots lie in M.
        if pivots[-1] != d:
            raise AssertionError("degenerate simplex in triangulation")
        sign = 1 if last > 0 else -1
        for k in range(d + 1):
            facet = simplex[:k] + simplex[k + 1:]
            if facet in boundary:
                del boundary[facet]
                continue
            f = _primitive([sign * row[d + 1 + k] for row in rows])
            boundary[facet] = (f[1:], -f[0])

    add_simplex(tuple(sorted(seed)))
    placed = set(seed)

    for i in range(len(pts)):
        if i in placed:
            continue
        p = ipts[i]
        visible = [
            facet for facet, (normal, offset) in boundary.items()
            if sum(a * b for a, b in zip(normal, p)) < offset
        ]
        for facet in visible:
            add_simplex(tuple(sorted(facet + (i,))))
        placed.add(i)

    return Triangulation(vp, tuple(simplices))


def triangulation_lattice_volume(t: Triangulation) -> Fraction:
    """Sum of normalized simplex volumes: the Z^dim volume of the polytope."""
    total = 0
    pts = t.polytope.vertices
    scale = _common_denominator(pts)
    ipts = [tuple(int(v * scale) for v in p) for p in pts]
    for simplex in t.simplices:
        base = ipts[simplex[0]]
        rows = [[a - b for a, b in zip(ipts[j], base)] for j in simplex[1:]]
        pivots, last = bareiss(rows)
        if len(pivots) == t.dim:
            total += abs(last)
    return Fraction(total, scale ** t.dim)


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
        origin = tuple(Fraction(0) for _ in range(p.dim))
        if origin not in p.vertices:
            raise ValueError("join factor does not have the origin as a vertex")
    zeros1 = (Fraction(0),) * p1.dim
    zeros2 = (Fraction(0),) * p2.dim
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
