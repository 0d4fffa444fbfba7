"""Exact-rational serialization: JSON documents and cdd-style text blocks.

Rationals render as ``p/q`` with the denominator omitted when it is 1, so
logs and files stay exact.  The writers are canonical: parsing a written
document and writing it again reproduces the bytes.

The ``.ine`` block stores one inequality per row as ``b  -a_1 ... -a_d``
meaning b + <-a, x> >= 0, i.e. <a, x> <= b.  The ``.ext`` block stores one
vertex per row as ``1  v_1 ... v_d`` (the leading 1 marks a point).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .geometry import HPolytope, HalfSpace, VPolytope


class FormatError(ValueError):
    """Raised when a document does not parse as the expected representation."""


_RAT_TOKEN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def rat_to_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def str_to_rat(text: str) -> Fraction:
    token = text.strip()
    if not _RAT_TOKEN.match(token):
        raise FormatError(f"bad rational token {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise FormatError(f"bad rational token {text!r}") from exc


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


def doc_to_vpolytope(doc: dict) -> VPolytope:
    if doc.get("kind") != "vpolytope":
        raise FormatError("expected a vpolytope document")
    dim = int(doc["dim"])
    vertices = tuple(tuple(str_to_rat(x) for x in v) for v in doc["vertices"])
    return VPolytope(dim, vertices)


def doc_to_hpolytope(doc: dict) -> HPolytope:
    if doc.get("kind") != "hpolytope":
        raise FormatError("expected an hpolytope document")
    dim = int(doc["dim"])
    rows = tuple(
        HalfSpace(tuple(str_to_rat(x) for x in h["normal"]),
                  str_to_rat(h["offset"]))
        for h in doc["halfspaces"]
    )
    return HPolytope(dim, rows)


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# cdd-style text blocks
# ---------------------------------------------------------------------------

def _format_block(header: str, rows: list[list[Fraction]], width: int) -> str:
    lines = [header, "begin", f" {len(rows)} {width} rational"]
    for row in rows:
        lines.append(" " + " ".join(rat_to_str(x) for x in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_ext(vp: VPolytope) -> str:
    rows = [[Fraction(1), *v] for v in vp.vertices]
    return _format_block("V-representation", rows, vp.dim + 1)


def write_ine(hp: HPolytope) -> str:
    rows = [[h.offset, *(-x for x in h.normal)] for h in hp.halfspaces]
    return _format_block("H-representation", rows, hp.dim + 1)


def _parse_block(text: str, expected_header: str) -> tuple[list[list[Fraction]], int]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != expected_header:
        raise FormatError(f"expected header {expected_header!r}")
    if len(lines) < 3 or lines[1] != "begin":
        raise FormatError("expected 'begin' after the header")
    size = lines[2].split()
    if len(size) != 3 or size[2] != "rational":
        raise FormatError(f"bad size line {lines[2]!r}")
    count, width = int(size[0]), int(size[1])
    body = lines[3:3 + count]
    if len(body) != count or lines[3 + count:] != ["end"]:
        raise FormatError("row count does not match the size line")
    rows = []
    for ln in body:
        row = [str_to_rat(tok) for tok in ln.split()]
        if len(row) != width:
            raise FormatError(f"row has {len(row)} entries, expected {width}")
        rows.append(row)
    return rows, width - 1


def read_ext(text: str) -> VPolytope:
    rows, dim = _parse_block(text, "V-representation")
    vertices = []
    for row in rows:
        if row[0] != 1:
            raise FormatError("only bounded polytopes are supported; "
                              "every row must start with 1")
        vertices.append(tuple(row[1:]))
    return VPolytope(dim, tuple(vertices))


def read_ine(text: str) -> HPolytope:
    rows, dim = _parse_block(text, "H-representation")
    halfspaces = tuple(
        HalfSpace(tuple(-x for x in row[1:]), row[0]) for row in rows
    )
    return HPolytope(dim, halfspaces)
