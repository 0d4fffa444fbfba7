"""Exact-rational serialization: JSON documents and cdd-style text blocks.

Rationals render as ``p/q`` with the denominator omitted when it is 1, so
logs and files stay exact.  The writers are canonical: equal polytopes give
the same bytes.

The ``.ine`` block stores one inequality per row as ``b  -a_1 ... -a_d``
meaning b + <-a, x> >= 0, i.e. <a, x> <= b.  The ``.ext`` block stores one
vertex per row as ``1  v_1 ... v_d`` (the leading 1 marks a point).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .geometry import HalfSpace, VPolytope


def rat_to_str(value: int | Fraction) -> str:
    if type(value) is int:
        return str(value)
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def dumps(doc: dict | list) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _dumps_pieces(doc: dict, key: str, items: Iterable) -> Iterator[str]:
    """``dumps`` of ``doc`` with ``doc[key]`` the list of ``items``, in pieces.

    Only one item is rendered at a time: each is dumped on its own and
    indented to its depth in the document, so the pieces join to the same
    bytes as ``dumps`` of the whole document.
    """
    marker = f"{json.dumps(key)}: ["
    head, tail = dumps({**doc, key: []}).split(marker + "]")
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    pieces = (encode(item).replace("\n", "\n    ") for item in items)
    first = next(pieces, None)
    if first is None:
        yield head + marker + "]" + tail
        return
    yield f"{head}{marker}\n    {first}"
    for piece in pieces:
        yield f",\n    {piece}"
    yield "\n  ]" + tail


def vpolytope_json(vp: VPolytope) -> Iterator[str]:
    """The JSON document of ``vp``: kind "vpolytope", its dim, and each
    vertex as a list of rational strings, in pieces, one vertex at a time."""
    return _dumps_pieces({"kind": "vpolytope", "dim": vp.dim}, "vertices",
                         ([rat_to_str(x) for x in v] for v in vp.vertices))


def hpolytope_json(dim: int, halfspaces: Iterable[HalfSpace]) -> Iterator[str]:
    """The JSON document of ``halfspaces`` in R^dim: kind "hpolytope", the
    dim, and each halfspace's normal and offset as rational strings, in
    pieces, taking one halfspace at a time from any iterable."""
    return _dumps_pieces(
        {"kind": "hpolytope", "dim": dim}, "halfspaces",
        ({"normal": [rat_to_str(x) for x in h.normal],
          "offset": rat_to_str(h.offset)} for h in halfspaces))


# ---------------------------------------------------------------------------
# cdd-style text blocks
# ---------------------------------------------------------------------------

def _block_lines(header: str, rows: Iterable[list], count: int,
                 width: int) -> Iterator[str]:
    yield f"{header}\nbegin\n {count} {width} rational\n"
    for row in rows:
        yield " " + " ".join(rat_to_str(x) for x in row) + "\n"
    yield "end\n"


def ext_lines(vp: VPolytope) -> Iterator[str]:
    """The ``.ext`` block, one line at a time."""
    return _block_lines("V-representation", ([1, *v] for v in vp.vertices),
                        len(vp.rows), vp.dim + 1)


def ine_lines(dim: int, halfspaces: Iterable[HalfSpace],
              count: int) -> Iterator[str]:
    """The ``.ine`` block of ``count`` halfspaces in R^dim, one line at a
    time; the header states the count before any halfspace is taken."""
    return _block_lines("H-representation",
                        ([h.offset, *(-x for x in h.normal)] for h in halfspaces),
                        count, dim + 1)
