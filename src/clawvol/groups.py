"""Small abelian groups and the tuple combinatorics built on them.

The three groups handled by this package are Z2, Z2xZ2 (the Klein four
group), and Z3.  Elements are encoded as small integers so that tuples of
elements can be hashed, sorted, and stored compactly:

* Z2: 0, 1 with addition mod 2.
* Z3: 0, 1, 2 with addition mod 3.
* Z2xZ2: 0, 1, 2, 3 where the group law is bitwise XOR.  The three
  involutions 1, 2, 3 are printed as ``a``, ``b``, ``c``.

Every iteration order in this module is deterministic: elements ascend
and tuples are generated in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class Group:
    """A finite abelian group with integer-labelled elements.

    ``add_table[x][y]`` gives x + y; the identity is always 0.  Instances
    are immutable and hashable, so they can key caches.
    """

    name: str
    element_names: tuple[str, ...]
    add_table: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.element_names)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.order))

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(range(1, self.order))

    def neg(self, x: int) -> int:
        for y in self.elements:
            if self.add_table[x][y] == 0:
                return y
        raise AssertionError(f"{self.name}: element {x} has no inverse")

    def tuple_sum(self, items) -> int:
        total = 0
        for x in items:
            total = self.add_table[total][x]
        return total

    def element_name(self, x: int) -> str:
        return self.element_names[x]

    def __str__(self) -> str:
        return self.name


def _mod_table(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((x + y) % m for y in range(m)) for x in range(m))


def _xor_table(order: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x ^ y for y in range(order)) for x in range(order))


Z2 = Group("z2", ("0", "1"), _mod_table(2))
Z3 = Group("z3", ("0", "1", "2"), _mod_table(3))
Z2xZ2 = Group("z2xz2", ("0", "a", "b", "c"), _xor_table(4))

GROUPS: dict[str, Group] = {g.name: g for g in (Z2, Z2xZ2, Z3)}


def group_by_name(name: str) -> Group:
    """Look up a group by its CLI spelling (``z2``, ``z2xz2``, ``z3``)."""
    key = name.lower()
    if key not in GROUPS:
        known = ", ".join(sorted(GROUPS))
        raise ValueError(f"unknown group {name!r}; expected one of: {known}")
    return GROUPS[key]


def zero_sum_tuples(group: Group, n: int) -> Iterator[tuple[int, ...]]:
    """Yield all n-tuples over ``group`` that sum to the identity.

    There are ``order**(n-1)`` of them; the first n-1 entries range freely
    and determine the last.  Output is in lexicographic order because the
    last entry is a function of the free ones.
    """
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    for head in itertools.product(group.elements, repeat=n - 1):
        last = group.neg(group.tuple_sum(head))
        yield head + (last,)
