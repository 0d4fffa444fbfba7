"""An independent certificate that a ``Triangulation`` triangulates its polytope.

It reads only the simplices (vertex-index tuples), the polytope's integer
rows and scale, and an H-representation, never any state of the placing
triangulation.  A set of full-dimensional simplices with vertices among the
points is a triangulation of their convex hull when every ridge lies in
exactly two simplices whose apexes are on opposite sides of it, or in one
simplex and inside a facet (De Loera, Rambau and Santos, "Triangulations",
2010, ch. 4).  The sum of the simplices' |determinants| must then be the
triangulation's volume times ``scale^dim``.

The determinants come from a fraction-free elimination here, which tracks
its row swaps: ``geometry.bareiss`` gives the last pivot only up to sign.

Run as a script, it certifies the largest claw triangulations that the
command line's guard rails allow:

    PYTHONPATH=src python tests/certify.py z2:8 z3:5
"""

import sys
import time
from operator import mul
from typing import Iterable

from clawvol.clawpoly import vertices
from clawvol.geometry import HalfSpace
from clawvol.groups import GROUPS
from clawvol.volume import Triangulation, triangulate
from helpers import facets


class CertificateError(AssertionError):
    """The simplices do not triangulate the polytope, or miss its volume."""


# What a ridge has met, past the side (0 or 1) of its first simplex's apex.
CLOSED, ONE_SIDE, CROWDED = 2, 3, 4


def _points(mask: int) -> tuple[int, ...]:
    """The indices of the bits set in a point bitmask, in ascending order."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def signed_det(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix, sign included.

    Bareiss elimination below the diagonal: every entry stays a minor of
    the input, so each division is exact, and each row swap flips the sign.
    """
    rows = [list(r) for r in matrix]
    size = len(rows)
    sign, prev = 1, 1
    for c in range(size):
        found = next((r for r in range(c, size) if rows[r][c]), None)
        if found is None:
            return 0
        if found != c:
            rows[c], rows[found] = rows[found], rows[c]
            sign = -sign
        top = rows[c]
        piv = top[c]
        for r in range(c + 1, size):
            row = rows[r]
            f = row[c]
            rows[r] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
    return sign * prev


def affine_rank(rows: Iterable[tuple[int, ...]]) -> int:
    """The rank of the rows (1, v): one more than the points' affine dimension."""
    pending = [[1, *v] for v in rows]
    rank = 0
    while pending:
        top = pending.pop()
        c = next((c for c, a in enumerate(top) if a), None)
        if c is None:
            continue
        rank += 1
        piv = top[c]
        pending = [[piv * a - row[c] * b for a, b in zip(row, top)]
                   for row in pending]
    return rank


def certify(t: Triangulation, halfspaces: Iterable[HalfSpace]) -> int:
    """Check that ``t`` triangulates conv(points); return its boundary ridges.

    ``halfspaces`` is any H-representation of the polytope: every point must
    satisfy each halfspace, and every ridge in only one simplex must lie on
    the hyperplane of one of them.  Raises ``CertificateError`` on the first
    condition that fails.
    """
    vp = t.polytope
    d, rows, scale = vp.dim, vp.rows, vp.scale
    # The bits of the halfspaces each point lies on.
    on = [0] * len(rows)
    for bit, hs in enumerate(halfspaces):
        bound = hs.offset * scale
        for v, row in enumerate(rows):
            slack = bound - sum(map(mul, hs.normal, row))
            if slack < 0:
                raise CertificateError(f"point {v} violates halfspace {bit}")
            if not slack:
                on[v] |= 1 << bit
    if not t.simplices:
        if affine_rank(rows) == d + 1:
            raise CertificateError(f"no simplices, but the points span R^{d}")
        if t.volume:
            raise CertificateError(f"no simplices, but volume {t.volume}")
        return 0

    # Each ridge by its point bitmask: the side of the apex of the first
    # simplex it lies in (0 or 1), then CLOSED once a simplex on the other
    # side shares it, ONE_SIDE if one on the same side does, and CROWDED
    # once a third simplex has it.
    ridges: dict[int, int] = {}
    total = 0
    for simplex in t.simplices:
        s = sorted(simplex)
        mask = 0
        for v in s:
            mask |= 1 << v
        if len(s) != d + 1 or mask.bit_count() != d + 1:
            raise CertificateError(f"simplex {simplex} has not {d + 1} distinct vertices")
        det = signed_det([[1, *rows[v]] for v in s])
        if not det:
            raise CertificateError(f"simplex {simplex} is flat")
        total += abs(det)
        # Moving the apex from position k to the end takes d - k swaps, so
        # the sign of det[ridge; apex] is the apex's side of the ridge.
        for k, apex in enumerate(s):
            side = int((det > 0) == ((d - k) % 2 == 0))
            key = mask ^ 1 << apex
            seen = ridges.get(key)
            if seen is None:
                ridges[key] = side
            elif seen < CLOSED:
                ridges[key] = CLOSED if seen != side else ONE_SIDE
            else:
                ridges[key] = CROWDED

    for state, fault in ((CROWDED, "lies in three or more simplices"),
                         (ONE_SIDE, "has both apexes on one side")):
        for key, seen in ridges.items():
            if seen == state:
                raise CertificateError(f"ridge {_points(key)} {fault}")
    boundary = 0
    for key, seen in ridges.items():
        if seen < CLOSED:
            common = -1
            for v in _points(key):
                common &= on[v]
            if not common:
                raise CertificateError(f"boundary ridge {_points(key)} lies on no facet")
            boundary += 1

    if total != t.volume * scale ** d:
        raise CertificateError(
            f"the determinants sum to {total}, not volume * scale^d = "
            f"{t.volume * scale ** d}")
    return boundary


def main(argv: list[str]) -> int:
    """Certify each ``group:n`` claw triangulation named: 0 if all pass, 1
    if any fails, 2 if none is named."""
    if not argv:
        print("usage: python tests/certify.py GROUP:N [GROUP:N ...]")
        return 2
    failed = 0
    for arg in argv:
        name, n = arg.split(":")
        group, n = GROUPS[name], int(n)
        start = time.perf_counter()
        t = triangulate(vertices(group, n))
        try:
            boundary = certify(t, facets(group, n).halfspaces)
        except CertificateError as err:
            print(f"{arg}: FAILED: {err}")
            failed = 1
            continue
        print(f"{arg}: {len(t.simplices)} simplices, {boundary} boundary ridges, "
              f"volume {t.volume} certified in {time.perf_counter() - start:.2f} s")
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
