"""Cross-checking the degree by independent routes.

Three ways to the same number: closed-form evaluation, arithmetic assembly
from cut-piece volumes, and brute-force geometry (enumerate vertices,
triangulate, measure in the model lattice).  Agreement is strong evidence
and disagreement is a bug somewhere specific, with one gap: for Z2xZ2 the
first two routes share ``formulas._alternating_factorial_sum``, so a slip
in that sum would make them agree on a wrong value.  The geometric route
shares no arithmetic with the other two.

The geometric route builds all |G|^(n-1) vertices and triangulates them,
which is exponential in n; it runs whatever it is asked.  The command
line refuses oversized requests before calling in, and
``serialize.verify_lines`` writes the result as text or JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clawpoly import lattice, vertices
from .cuts import assemble
from .formulas import degree_rational
from .groups import Group
from .volume import lattice_volume

FORMULA = "formula"
INCLUSION_EXCLUSION = "inclusion-exclusion"
TRIANGULATION = "triangulation"
METHODS = (FORMULA, INCLUSION_EXCLUSION, TRIANGULATION)


def degree_by_method(group: Group, n: int, method: str) -> Fraction:
    if method == FORMULA:
        return degree_rational(group, n)
    if method == INCLUSION_EXCLUSION:
        return assemble(group, n)
    if method == TRIANGULATION:
        return lattice_volume(vertices(group, n), lattice(group, n))
    known = ", ".join(METHODS)
    raise ValueError(f"unknown method {method!r}; expected one of: {known}")


@dataclass(frozen=True)
class VerifyResult:
    group: Group
    n: int
    values: tuple[tuple[str, Fraction], ...]

    @property
    def consistent(self) -> bool:
        nums = [v for _, v in self.values]
        return all(v == nums[0] for v in nums)


def verify_degree(group: Group, n: int,
                  methods: tuple[str, ...] = METHODS) -> VerifyResult:
    values = tuple((m, degree_by_method(group, n, m)) for m in methods)
    return VerifyResult(group, n, values)
