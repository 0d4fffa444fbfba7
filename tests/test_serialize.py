"""Round trips and error handling for the JSON and matrix-file formats."""

from fractions import Fraction

import pytest

from clawvol.clawpoly import facets, vertices
from clawvol.groups import GROUPS
from clawvol.serialize import (
    FormatError,
    doc_to_hpolytope,
    doc_to_vpolytope,
    dumps,
    hpolytope_to_doc,
    loads,
    rat_to_str,
    read_ext,
    read_ine,
    str_to_rat,
    vpolytope_to_doc,
    write_ext,
    write_ine,
)

F = Fraction

CASES = [(g, n) for g in GROUPS.values() for n in (2, 3)]
CASE_IDS = [f"{g.name}-{n}" for g, n in CASES]


def test_rational_strings():
    assert rat_to_str(F(3)) == "3"
    assert rat_to_str(F(-7, 2)) == "-7/2"
    assert rat_to_str(F(0)) == "0"
    assert str_to_rat("5/3") == F(5, 3)
    assert str_to_rat("-4") == F(-4)
    for bad in ("", "1/0", "a/b", "1/2/3", "1.5"):
        with pytest.raises(FormatError):
            str_to_rat(bad)


@pytest.mark.parametrize("group,n", CASES, ids=CASE_IDS)
def test_json_round_trips(group, n):
    vp = vertices(group, n)
    hp = facets(group, n)
    assert doc_to_vpolytope(loads(dumps(vpolytope_to_doc(vp)))) == vp
    assert doc_to_hpolytope(loads(dumps(hpolytope_to_doc(hp)))) == hp


def test_json_text_is_canonical():
    vp = vertices(GROUPS["z2"], 3)
    text = dumps(vpolytope_to_doc(vp))
    assert text.endswith("\n")
    assert text == dumps(loads(text))
    # keys come out sorted regardless of construction order
    assert text.index('"dim"') < text.index('"kind"') < text.index('"vertices"')


@pytest.mark.parametrize("group,n", CASES, ids=CASE_IDS)
def test_matrix_file_round_trips(group, n):
    vp = vertices(group, n)
    hp = facets(group, n)
    ext = write_ext(vp)
    ine = write_ine(hp)
    assert read_ext(ext) == vp
    assert read_ine(ine) == hp
    # writers are fixpoints on their own output
    assert write_ext(read_ext(ext)) == ext
    assert write_ine(read_ine(ine)) == ine


def test_ext_layout():
    vp = vertices(GROUPS["z2"], 2)
    lines = write_ext(vp).splitlines()
    assert lines[0] == "V-representation"
    assert lines[1] == "begin"
    assert lines[2] == " 2 3 rational"
    assert lines[-1] == "end"
    assert all(line.startswith(" 1 ") for line in lines[3:-1])


def test_parse_errors():
    good = write_ext(vertices(GROUPS["z2"], 2))
    with pytest.raises(FormatError):
        read_ext(good.replace("V-representation", "H-representation"))
    with pytest.raises(FormatError):
        read_ext(good.replace(" 2 3 rational", " 5 3 rational"))
    with pytest.raises(FormatError):
        read_ext(good.replace("begin", "start"))
    # a leading 0 marks a ray, which the format does not allow
    with pytest.raises(FormatError):
        read_ext(good.replace(" 1 0 0", " 0 1 0", 1))
    with pytest.raises(FormatError):
        doc_to_vpolytope({"kind": "hpolytope", "dim": 1, "vertices": []})
