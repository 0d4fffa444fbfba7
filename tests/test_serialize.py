"""Round trips and layout for the JSON and matrix-file formats."""

import json
from fractions import Fraction

import pytest

from clawvol.clawpoly import vertices
from clawvol.geometry import HPolytope, HalfSpace, VPolytope, vertex_enumeration
from clawvol.groups import GROUPS
from clawvol.serialize import (
    dumps,
    facet_lines,
    rat_to_str,
    vertex_lines,
)
from helpers import (
    facets,
    hpolytope_to_doc,
    rational_halfspace,
    rational_polytope,
    vpolytope_to_doc,
    write_ext,
    write_ine,
)

F = Fraction

CASES = [(g, n) for g in GROUPS.values() for n in (2, 3)]
CASE_IDS = [f"{g.name}-{n}" for g, n in CASES]

# The unit cube cut by 2(x + y + z) <= 3: four 0/1 corners and six vertices
# with a coordinate 1/2, so its rows are at scale 2.
CUT_CUBE = HPolytope(3, tuple(
    HalfSpace(tuple(sign * int(j == i) for j in range(3)), int(sign > 0))
    for i in range(3) for sign in (-1, 1)) + (HalfSpace((2, 2, 2), 3),))


def parse_doc(text):
    """The polytope a written JSON document describes, its p/q strings read
    as ``Fraction``s."""
    doc = json.loads(text)
    if doc["kind"] == "vpolytope":
        return rational_polytope(doc["dim"], tuple(tuple(map(F, v))
                                                   for v in doc["vertices"]))
    return HPolytope(doc["dim"], tuple(
        rational_halfspace(tuple(map(F, h["normal"])), F(h["offset"]))
        for h in doc["halfspaces"]))


def parse_block(text):
    """Header and rational rows of a written cdd-style block."""
    lines = text.splitlines()
    count, width, kind = lines[2].split()
    rows = [[F(tok) for tok in line.split()] for line in lines[3:-1]]
    assert lines[1] == "begin" and lines[-1] == "end" and kind == "rational"
    assert len(rows) == int(count)
    assert all(len(row) == int(width) for row in rows)
    return lines[0], rows


def test_rational_strings():
    assert rat_to_str(F(3)) == "3"
    assert rat_to_str(F(-7, 2)) == "-7/2"
    assert rat_to_str(F(0)) == "0"
    assert rat_to_str(3) == "3"
    assert rat_to_str(True) == "1"


@pytest.mark.parametrize("group,n", CASES, ids=CASE_IDS)
def test_json_round_trips(group, n):
    vp = vertices(group, n)
    hp = facets(group, n)
    assert parse_doc(dumps(vpolytope_to_doc(vp))) == vp
    assert parse_doc(dumps(hpolytope_to_doc(hp))) == hp


def test_round_trips_of_a_polytope_with_fractional_vertices():
    vp = vertex_enumeration(CUT_CUBE)
    assert vp.scale == 2 and len(vp.rows) == 10
    assert parse_doc(dumps(vpolytope_to_doc(vp))) == vp
    assert parse_doc(dumps(hpolytope_to_doc(CUT_CUBE))) == CUT_CUBE
    ext = write_ext(vp)
    assert "1/2" in ext
    _, rows = parse_block(ext)
    read_vp = rational_polytope(vp.dim, tuple(tuple(row[1:]) for row in rows))
    assert read_vp == vp and write_ext(read_vp) == ext


def test_json_text_is_canonical():
    vp = vertices(GROUPS["z2"], 3)
    text = dumps(vpolytope_to_doc(vp))
    assert text.endswith("\n")
    assert text == dumps(json.loads(text))
    # keys come out sorted regardless of construction order
    assert text.index('"dim"') < text.index('"kind"') < text.index('"vertices"')


def test_json_pieces_of_empty_lists():
    # json.dumps writes an empty list inline, as [].
    vp = VPolytope(2, ())
    hp = HPolytope(2, ())
    assert "".join(vertex_lines(vp, "json")) == dumps(vpolytope_to_doc(vp))
    assert "".join(facet_lines(hp.dim, hp.halfspaces, 0, "json")) == dumps(
        hpolytope_to_doc(hp))
    assert '"vertices": []' in "".join(vertex_lines(vp, "json"))


@pytest.mark.parametrize("group,n", CASES, ids=CASE_IDS)
def test_matrix_file_round_trips(group, n):
    vp = vertices(group, n)
    hp = facets(group, n)
    ext = write_ext(vp)
    ine = write_ine(hp)
    header, rows = parse_block(ext)
    assert header == "V-representation" and all(row[0] == 1 for row in rows)
    read_vp = rational_polytope(vp.dim, tuple(tuple(row[1:]) for row in rows))
    header, rows = parse_block(ine)
    assert header == "H-representation"
    read_hp = HPolytope(hp.dim, tuple(
        rational_halfspace(tuple(-x for x in row[1:]), row[0]) for row in rows))
    assert read_vp == vp
    assert read_hp == hp
    # writers are fixpoints on their own output
    assert write_ext(read_vp) == ext
    assert write_ine(read_hp) == ine


def test_ext_layout():
    vp = vertices(GROUPS["z2"], 2)
    lines = write_ext(vp).splitlines()
    assert lines[0] == "V-representation"
    assert lines[1] == "begin"
    assert lines[2] == " 2 3 rational"
    assert lines[-1] == "end"
    assert all(line.startswith(" 1 ") for line in lines[3:-1])
