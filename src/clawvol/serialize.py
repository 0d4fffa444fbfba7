"""Every output format of the command line, as streams of pieces.

Each ``*_lines`` function yields one command's output in order, and the
command line writes each piece as it comes; the library never imports this
module.  Rationals render as ``p/q``, the denominator omitted when it is 1.
The writers are canonical: equal inputs give the same bytes.  A listing's
JSON is ``dumps`` of its document with an empty list, the list written one
item at a time in its place.

The ``.ine`` block stores one inequality per row as ``b  -a_1 ... -a_d``
meaning b + <-a, x> >= 0, i.e. <a, x> <= b.  The ``.ext`` block stores one
vertex per row as ``1  v_1 ... v_d`` (the leading 1 marks a point).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain

from .geometry import HalfSpace, VPolytope
from .groups import Group
from .verify import VerifyResult


def rat_to_str(value: int | Fraction) -> str:
    if type(value) is int:
        return str(value)
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dumps(doc: dict | list) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_list(items: Iterable, depth: int) -> Iterator[str]:
    """A JSON list at ``depth`` in a ``dumps`` document, one item at a time."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    indent = "\n" + "  " * (depth + 1)
    opening = "["
    for item in items:
        yield opening + indent + encode(item).replace("\n", indent)
        opening = ","
    yield "[]" if opening == "[" else "\n" + "  " * depth + "]"


def _json_listing(frame: dict | list, items: Iterable) -> Iterator[str]:
    """``dumps`` of ``frame`` with its one empty list filled by ``items``: a
    top-level list, or the list under a key of a top-level object."""
    head, tail = dumps(frame).split("[]")
    depth = 0 if isinstance(frame, list) else 1
    return chain([head], _json_list(items, depth), [tail])


def vertex_lines(vp: VPolytope, fmt: str) -> Iterator[str]:
    """The vertices of ``vp`` as text rows, a JSON document of kind
    "vpolytope" or an ``.ext`` block, one vertex at a time."""
    if fmt == "text":
        return (" ".join(map(rat_to_str, v)) + "\n" for v in vp.vertices)
    if fmt == "json":
        return _json_listing(
            {"kind": "vpolytope", "dim": vp.dim, "vertices": []},
            ([rat_to_str(x) for x in v] for v in vp.vertices))
    header = f"V-representation\nbegin\n {len(vp.rows)} {vp.dim + 1} rational\n"
    rows = (" 1 " + " ".join(map(rat_to_str, v)) + "\n" for v in vp.vertices)
    return chain([header], rows, ["end\n"])


def facet_lines(dim: int, halfspaces: Iterable[HalfSpace], count: int,
                fmt: str) -> Iterator[str]:
    """``count`` halfspaces <a, x> <= b in R^dim as text rows, a JSON
    document of kind "hpolytope" or an ``.ine`` block, taking one halfspace
    at a time from any iterable; the ``.ine`` header states the count
    before any halfspace is taken."""
    if fmt == "text":
        return (" ".join(map(rat_to_str, h.normal)) + " <= "
                + rat_to_str(h.offset) + "\n" for h in halfspaces)
    if fmt == "json":
        return _json_listing(
            {"kind": "hpolytope", "dim": dim, "halfspaces": []},
            ({"normal": [rat_to_str(x) for x in h.normal],
              "offset": rat_to_str(h.offset)} for h in halfspaces))
    header = f"H-representation\nbegin\n {count} {dim + 1} rational\n"
    rows = (" " + " ".join(map(rat_to_str, (h.offset, *(-x for x in h.normal))))
            + "\n" for h in halfspaces)
    return chain([header], rows, ["end\n"])


def verify_lines(result: VerifyResult, fmt: str) -> Iterator[str]:
    """Each method's degree and whether they agree, as text or JSON."""
    values = {m: rat_to_str(v) for m, v in result.values}
    if fmt == "json":
        yield dumps({"kind": "verify", "group": result.group.name,
                     "n": result.n, "values": values,
                     "consistent": result.consistent})
        return
    yield f"group={result.group.name} n={result.n}\n"
    yield from (f"{m}: {v}\n" for m, v in values.items())
    yield "consistent: " + ("yes" if result.consistent else "NO") + "\n"


def table_lines(group: Group, rows: Iterable[tuple[int, int]],
                fmt: str) -> Iterator[str]:
    """Rows (n, degree) as CSV with a header, text, or a JSON list."""
    if fmt == "json":
        return _json_listing([], ({"group": group.name, "n": n, "degree": deg}
                                  for n, deg in rows))
    sep = "," if fmt == "csv" else " "
    lines = (f"{group.name}{sep}{n}{sep}{deg}\n" for n, deg in rows)
    return chain(["group,n,degree\n"], lines) if fmt == "csv" else lines


def lemma_lines(records: Iterable[dict], fmt: str) -> Iterator[str]:
    """Claim records as a JSON list, or one text line each; a family with
    no instances writes ``[]`` in JSON and nothing in text."""
    if fmt == "json":
        return _json_listing([], records)
    return (f"{r['lemma']} {json.dumps(r['hypothesis'], sort_keys=True)} "
            f"expected={r['expected']} computed={r['computed']} {r['verdict']}\n"
            for r in records)
