"""Free sums of V-polytopes, the test oracle for multiplicative volumes."""

from typing import Iterable

from clawvol.geometry import VPolytope


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
