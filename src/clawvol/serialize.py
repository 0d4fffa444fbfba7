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
from fractions import Fraction

from .geometry import HPolytope, VPolytope


def rat_to_str(value: int | Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def vpolytope_to_doc(vp: VPolytope) -> dict:
    return {
        "kind": "vpolytope",
        "dim": vp.dim,
        "vertices": [[rat_to_str(x) for x in v] for v in vp.vertices],
    }


def hpolytope_to_doc(hp: HPolytope) -> dict:
    return {
        "kind": "hpolytope",
        "dim": hp.dim,
        "halfspaces": [
            {"normal": [rat_to_str(x) for x in h.normal],
             "offset": rat_to_str(h.offset)}
            for h in hp.halfspaces
        ],
    }


def dumps(doc: dict | list) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# cdd-style text blocks
# ---------------------------------------------------------------------------

def _format_block(header: str, rows: list[list], width: int) -> str:
    lines = [header, "begin", f" {len(rows)} {width} rational"]
    for row in rows:
        lines.append(" " + " ".join(rat_to_str(x) for x in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_ext(vp: VPolytope) -> str:
    rows = [[1, *v] for v in vp.vertices]
    return _format_block("V-representation", rows, vp.dim + 1)


def write_ine(hp: HPolytope) -> str:
    rows = [[h.offset, *(-x for x in h.normal)] for h in hp.halfspaces]
    return _format_block("H-representation", rows, hp.dim + 1)
