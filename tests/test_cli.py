"""End-to-end command behavior: output bytes, exit codes, guard rails."""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import clawvol
from clawvol import cli, clawpoly, cuts, geometry, serialize, verify
from clawvol.cli import main
from helpers import facets, hpolytope_to_doc, vpolytope_to_doc


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


def test_degree_defaults_to_formula(runner):
    result = invoke(runner, "degree", "--group", "z2", "--n", "4")
    assert result.exit_code == 0
    assert result.stdout == "8\n"


@pytest.mark.parametrize("method", ["formula", "inclusion-exclusion",
                                    "triangulation"])
def test_degree_methods_agree(runner, method):
    result = invoke(runner, "degree", "--group", "z3", "--n", "3",
                    "--method", method)
    assert result.exit_code == 0
    assert result.stdout == "9\n"


def test_volume_scales_by_lattice_index(runner):
    # z2 at n = 3 has degree 1 and index 2
    result = invoke(runner, "volume", "--group", "z2", "--n", "3")
    assert result.exit_code == 0
    assert result.stdout == "2\n"


def test_assemble_output(runner):
    result = invoke(runner, "assemble", "--group", "z2xz2", "--n", "3")
    assert result.exit_code == 0
    assert result.stdout == "96\n"


def test_vertices_text_frozen(runner):
    result = invoke(runner, "vertices", "--group", "z2", "--n", "3")
    assert result.exit_code == 0
    assert result.stdout == "0 0 0\n0 1 1\n1 0 1\n1 1 0\n"


def test_vertices_formats_parse_back(runner):
    as_json = invoke(runner, "vertices", "--group", "z3", "--n", "2",
                     "--format", "json")
    doc = json.loads(as_json.stdout)
    assert doc["kind"] == "vpolytope" and len(doc["vertices"]) == 3

    as_ext = invoke(runner, "vertices", "--group", "z3", "--n", "2",
                    "--format", "ext")
    lines = as_ext.stdout.splitlines()
    assert lines[0] == "V-representation" and lines[2] == " 3 5 rational"


def test_facets_text_and_ine(runner):
    text = invoke(runner, "facets", "--group", "z2", "--n", "2")
    assert text.exit_code == 0
    assert all(" <= " in line for line in text.stdout.splitlines())

    ine = invoke(runner, "facets", "--group", "z2", "--n", "2",
                 "--format", "ine")
    assert ine.stdout.splitlines()[0] == "H-representation"


def test_verify_text_and_json(runner):
    result = invoke(runner, "verify", "--group", "z2", "--n", "4")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "group=z2 n=4"
    assert "formula: 8" in lines
    assert lines[-1] == "consistent: yes"

    as_json = invoke(runner, "verify", "--group", "z2", "--n", "4",
                     "--format", "json")
    doc = json.loads(as_json.stdout)
    assert doc["kind"] == "verify" and doc["consistent"] is True
    assert doc["values"] == {
        "formula": "8", "inclusion-exclusion": "8", "triangulation": "8"}


def test_verify_subset_of_methods(runner):
    result = invoke(runner, "verify", "--group", "z3", "--n", "3",
                    "--method", "formula", "--method", "inclusion-exclusion")
    assert result.exit_code == 0
    assert "triangulation" not in result.stdout


def test_lemma_confirmed(runner):
    result = invoke(runner, "lemma", "--lemma", "z2-single-cut-simplex",
                    "--n", "3")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("confirmed") for line in lines)


def test_lemma_json_records(runner):
    result = invoke(runner, "lemma", "--lemma", "z3-single-cut-volume",
                    "--n", "2", "--format", "json")
    records = json.loads(result.stdout)
    assert len(records) == 18
    assert all(r["verdict"] == "confirmed" for r in records)


def test_lemma_family_without_instances_writes_nothing(runner):
    # z3-far-same-channel-flat has no instances at n = 2
    text = invoke(runner, "lemma", "--lemma", "z3-far-same-channel-flat",
                  "--n", "2")
    assert text.exit_code == 0
    assert text.stdout_bytes == b""
    as_json = invoke(runner, "lemma", "--lemma", "z3-far-same-channel-flat",
                     "--n", "2", "--format", "json")
    assert as_json.exit_code == 0
    assert as_json.stdout == "[]\n"


def test_lemma_group_mismatch_is_usage_error(runner):
    result = invoke(runner, "lemma", "--lemma", "z2-single-cut-simplex",
                    "--n", "3", "--group", "z3")
    assert result.exit_code == 2
    assert result.stderr.startswith("clawvol: error: usage:")


@pytest.mark.parametrize("lemma_id,n", [
    ("z2-single-cut-simplex", "1"),
    ("z3-single-cut-volume", "1"),
    ("z3-far-same-channel-flat", "0"),
    ("z2z2-cut-lattice-points", "-1"),
    ("z3-double-pair-flat", "-1"),
])
def test_lemma_refuses_n_below_2(runner, lemma_id, n):
    result = invoke(runner, "lemma", "--lemma", lemma_id, "--n", n)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"clawvol: error: usage: n must be >= 2, got {n}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lemma_refutations_exit_1(runner, monkeypatch, fmt):
    check = cuts.check_lemma
    checked = []

    def refute_second_and_fifth(claim):
        checked.append(claim)
        verdict = check(claim)
        return replace(verdict, confirmed=len(checked) not in (2, 5))

    monkeypatch.setattr(cuts, "check_lemma", refute_second_and_fifth)
    result = invoke(runner, "lemma", "--lemma", "z2-single-cut-simplex",
                    "--n", "3", "--format", fmt)
    assert result.exit_code == 1
    assert result.stderr == ("clawvol: error: lemma: 2 of 8 instances "
                             "refuted for z2-single-cut-simplex at n=3\n")
    if fmt == "json":
        verdicts = [r["verdict"] for r in json.loads(result.stdout)]
    else:
        verdicts = [line.split()[-1] for line in result.stdout.splitlines()]
    assert verdicts == ["confirmed", "refuted", "confirmed", "confirmed",
                        "refuted", "confirmed", "confirmed", "confirmed"]


class Pieces:
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lemma_writes_each_record_before_the_next_check(monkeypatch, fmt):
    assert isinstance(cuts.run_lemma("z2-single-cut-simplex", 3), Iterator)
    out = Pieces()
    check = cuts.check_lemma
    written_at_check = []

    def counting_check(claim):
        written_at_check.append(sum(p.count("confirmed") for p in out.pieces))
        return check(claim)

    monkeypatch.setattr(cuts, "check_lemma", counting_check)
    monkeypatch.setattr(sys, "stdout", out)
    main.main(["lemma", "--lemma", "z2-single-cut-simplex", "--n", "3",
               "--format", fmt], standalone_mode=False)
    # Claim k is checked only after the records of claims 0..k-1 are out.
    assert written_at_check == list(range(8))


@pytest.mark.parametrize("args, out", [
    (("vertices", "--group", "z2", "--n", "1"), "out"),
    (("vertices", "--group", "z9", "--n", "3", "--format", "json"), "out"),
    (("facets", "--group", "z2", "--n", "1", "--format", "ine"), "out"),
    (("facets", "--group", "z3", "--n", "0", "--format", "json"), "out"),
    (("lemma", "--lemma", "z2-single-cut-simplex", "--n", "1"), "out"),
    (("lemma", "--lemma", "z3-double-pair-flat", "--n", "0", "--format", "json"),
     "out"),
    (("lemma", "--lemma", "z3-single-cut-volume", "--n", "3", "--group", "z2"),
     "out"),
    (("table", "--group", "z2", "--n", "6..2"), "out"),
    (("table", "--group", "z3", "--n", "x", "--format", "json"), "out"),
    # Allowed by the guard rails, so only the missing output directory
    # stops it; the spies show that it stops before any library call.
    (("degree", "--group", "z3", "--n", "5", "--method", "triangulation"),
     "missing/out"),
], ids=["vertices-n1", "vertices-group", "facets-n1", "facets-n0", "lemma-n1",
        "lemma-n0", "lemma-group", "table-reversed", "table-bad-range",
        "missing-directory"])
def test_usage_error_writes_no_file(runner, request, tmp_path, args, out):
    target = tmp_path / out
    if out == "missing/out":
        request.getfixturevalue("spies")
    result = invoke(runner, *args, "--output", str(target))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("clawvol: error: usage:")
    if out == "missing/out":
        assert result.stderr == (
            f"clawvol: error: usage: cannot write {target}: {target.parent} "
            "is not a writable directory\n")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_existing_output_file_needs_no_writable_directory(runner, monkeypatch,
                                                          tmp_path):
    # /dev/null, /dev/stdout and /dev/fd/N sit in directories a user cannot
    # write; an existing file is written in place, so that must not matter.
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        not os.path.isdir(path) and access(path, mode, **kwargs)))
    existing = tmp_path / "out"
    existing.write_text("old\n")
    for path in (existing, os.devnull):
        result = invoke(runner, "degree", "--group", "z2", "--n", "3",
                        "--output", str(path))
        assert result.exit_code == 0
        assert result.stdout == result.stderr == ""
    assert existing.read_text() == "1\n"
    # A new file in the same directory is refused.
    new = invoke(runner, "degree", "--group", "z2", "--n", "3",
                 "--output", str(tmp_path / "new"))
    assert new.exit_code == 2
    assert list(tmp_path.iterdir()) == [existing]


def test_table_formats(runner):
    csv = invoke(runner, "table", "--group", "z2", "--n", "2..6")
    assert csv.stdout == ("group,n,degree\n"
                          "z2,2,0\nz2,3,1\nz2,4,8\nz2,5,52\nz2,6,344\n")

    as_json = invoke(runner, "table", "--group", "z3", "--n", "3",
                     "--format", "json")
    assert json.loads(as_json.stdout) == [{"degree": 9, "group": "z3", "n": 3}]

    text = invoke(runner, "table", "--group", "z2", "--n", "4",
                  "--format", "text")
    assert text.stdout == "z2 4 8\n"


def test_usage_errors_exit_2(runner):
    bad_group = invoke(runner, "degree", "--group", "z9", "--n", "3")
    assert bad_group.exit_code == 2
    assert bad_group.stderr == ("clawvol: error: usage: unknown group 'z9'; "
                                "expected one of: z2, z2xz2, z3\n")

    bad_n = invoke(runner, "degree", "--group", "z2", "--n", "1")
    assert bad_n.exit_code == 2

    bad_range = invoke(runner, "table", "--group", "z2", "--n", "4..2..9")
    assert bad_range.exit_code == 2
    assert "bad n range" in bad_range.stderr


def test_guard_rail_exit_3_and_overrides(runner):
    blocked = invoke(runner, "table", "--group", "z2", "--n", "2..25")
    assert blocked.exit_code == 3
    assert blocked.stderr.startswith("clawvol: error: guard-rail:")

    by_flag = invoke(runner, "table", "--group", "z2", "--n", "25",
                     "--override-guard")
    assert by_flag.exit_code == 0

    by_env = invoke(runner, "table", "--group", "z2", "--n", "25",
                    env={"CLAWVOL_OVERRIDE_GUARD": "1"})
    assert by_env.exit_code == 0
    assert by_env.stdout == by_flag.stdout


class Reached(Exception):
    """Raised by a spy: a refused request reached the library."""


@pytest.fixture
def spies(monkeypatch):
    """Make the first heavy call of each guarded route raise ``Reached``."""
    def spy(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(verify, "vertices", spy)
    monkeypatch.setattr(geometry, "vertex_rays", spy)
    # run_lemma builds its claims through this module binding.
    monkeypatch.setattr(cuts, "lemma_claims", spy)
    # The CLI's own bindings of formulas.degree_table and of
    # clawpoly.vertices and clawpoly.facet_halfspaces.
    monkeypatch.setattr(cli, "degree_table", spy)
    monkeypatch.setattr(cli, "claw_vertices", spy)
    monkeypatch.setattr(cli, "facet_halfspaces", spy)


TOO_MANY = "triangulation refused: 243 vertices exceed 200 (pass the override to force)"
TOO_HIGH = "triangulation refused: dimension {} exceeds 14 (pass the override to force)"


@pytest.mark.parametrize("args, message", [
    (("degree", "--group", "z3", "--n", "6", "--method", "triangulation"), TOO_MANY),
    (("volume", "--group", "z3", "--n", "6"), TOO_MANY),
    (("verify", "--group", "z3", "--n", "6"), TOO_MANY),
    (("degree", "--group", "z2", "--n", "15", "--method", "triangulation"),
     TOO_HIGH.format(15)),
    (("volume", "--group", "z2", "--n", "15"), TOO_HIGH.format(15)),
    (("verify", "--group", "z2", "--n", "15"), TOO_HIGH.format(15)),
    (("lemma", "--lemma", "z3-single-cut-volume", "--n", "8"), TOO_HIGH.format(16)),
    # 8^7 / 2 instances exceed the cap too; the dimension is checked first.
    (("lemma", "--lemma", "z2z2-triple-channel-volume", "--n", "7"),
     TOO_HIGH.format(21)),
    (("lemma", "--lemma", "z2-same-parity-pair-flat", "--n", "15"),
     "lemma refused: 268419072 instances exceed 131072 "
     "(pass the override to force)"),
    (("lemma", "--lemma", "z3-double-pair-flat", "--n", "5"),
     "lemma refused: 10497600 instances exceed 131072 "
     "(pass the override to force)"),
    (("table", "--group", "z2", "--n", "21"),
     "table range ends at 21 > 20; pass the override to force"),
    (("vertices", "--group", "z3", "--n", "30"),
     "listing refused: 68630377364883 vertices exceed 131072 "
     "(pass the override to force)"),
    (("vertices", "--group", "z2", "--n", "19"),
     "listing refused: 262144 vertices exceed 131072 (pass the override to force)"),
    (("facets", "--group", "z2", "--n", "40"),
     "listing refused: 549755813968 facets exceed 131072 "
     "(pass the override to force)"),
    (("facets", "--group", "z2", "--n", "18"),
     "listing refused: 131108 facets exceed 131072 (pass the override to force)"),
], ids=["degree-z3-6", "volume-z3-6", "verify-z3-6", "degree-z2-15",
        "volume-z2-15", "verify-z2-15", "lemma-z3-8", "lemma-z2z2-7",
        "lemma-flat-z2-15", "lemma-flat-z3-5", "table-21",
        "vertices-z3-30", "vertices-z2-19", "facets-z2-40", "facets-z2-18"])
def test_refusal_calls_no_library_code(runner, spies, args, message):
    refused = invoke(runner, *args)
    assert refused.exit_code == 3
    assert refused.stdout == ""
    assert refused.stderr == f"clawvol: error: guard-rail: {message}\n"
    # The override lets the same request through to a spy.
    forced = invoke(runner, *args, "--override-guard")
    assert isinstance(forced.exception, Reached)


@pytest.mark.parametrize("args, message", [
    (("table", "--group", "z2", "--n", "25..21"), "need 2 <= n_min <= n_max, got 25..21"),
    (("table", "--group", "z2", "--n", "1..25"), "need 2 <= n_min <= n_max, got 1..25"),
    (("lemma", "--lemma", "z3-single-cut-volume", "--n", "8", "--group", "z2"),
     "lemma z3-single-cut-volume concerns group z3, not z2"),
    (("degree", "--group", "z4", "--n", "30", "--method", "triangulation"),
     "unknown group 'z4'; expected one of: z2, z2xz2, z3"),
], ids=["table-reversed", "table-from-1", "lemma-group", "unknown-group"])
def test_usage_error_wins_over_refusal(runner, spies, args, message):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stderr == f"clawvol: error: usage: {message}\n"


# Each verb with the CLI's binding of its first library call.
VERB_CALLS = [
    (("vertices", "--group", "z2", "--n", "3"), "claw_vertices"),
    (("facets", "--group", "z2", "--n", "3"), "facet_halfspaces"),
    (("volume", "--group", "z2", "--n", "3"), "degree_by_method"),
    (("degree", "--group", "z2", "--n", "3"), "degree_by_method"),
    (("assemble", "--group", "z2", "--n", "3"), "degree_by_method"),
    (("verify", "--group", "z2", "--n", "3"), "verify_degree"),
    (("lemma", "--lemma", "z2-single-cut-simplex", "--n", "3"), "run_lemma"),
    (("table", "--group", "z2", "--n", "2..4"), "degree_table"),
]


@pytest.mark.parametrize("args, binding", VERB_CALLS,
                         ids=[args[0] for args, _ in VERB_CALLS])
def test_every_verb_maps_a_value_error_to_a_usage_error(runner, monkeypatch,
                                                        args, binding):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, binding, boom)
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "clawvol: error: usage: boom\n"


def test_listing_at_the_row_cap_is_not_refused(runner, spies):
    # 2^17 vertices is the cap itself; the request reaches the library.
    reached = invoke(runner, "vertices", "--group", "z2", "--n", "18")
    assert isinstance(reached.exception, Reached)


def test_lemma_below_the_instance_cap_is_not_refused(runner, spies):
    # 123201 instances, under 2^17: the request reaches the library.
    reached = invoke(runner, "lemma", "--lemma", "z3-double-pair-flat",
                     "--n", "4")
    assert isinstance(reached.exception, Reached)


@pytest.mark.parametrize("group_name", ["z2", "z2xz2", "z3"])
def test_listed_rows_match_the_library(group_name):
    group = clawvol.GROUPS[group_name]
    for n in range(2, 6):
        assert cli._listed_rows("vertices", group, n) == len(
            clawvol.vertices(group, n).vertices)
        assert cli._listed_rows("facets", group, n) == len(
            facets(group, n).halfspaces)


@pytest.mark.parametrize("group_name", ["z2", "z2xz2", "z3"])
def test_streamed_facets_match_the_polytope(group_name):
    group = clawvol.GROUPS[group_name]
    for n in range(2, 7):
        streamed = list(clawpoly.facet_halfspaces(group, n))
        assert streamed == list(facets(group, n).halfspaces)
        assert len(streamed) == cli._listed_rows("facets", group, n)
    # n is checked on the call, before an .ine header could be written.
    with pytest.raises(ValueError, match="n must be >= 2"):
        clawpoly.facet_halfspaces(group, 1)


def test_routes_that_do_not_triangulate_are_not_guarded(runner):
    result = invoke(runner, "verify", "--group", "z2", "--n", "15",
                    "--method", "formula", "--method", "inclusion-exclusion")
    assert result.exit_code == 0
    assert result.stdout.endswith("consistent: yes\n")


def run_cli_process(*args, timeout=None):
    """Run the CLI in a separate interpreter from this checkout's sources."""
    src = str(Path(clawvol.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "clawvol.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout)


def test_degree_beyond_default_digit_limit():
    # A separate interpreter, so this process keeps its own digit limit.
    done = run_cli_process("degree", "--group", "z2xz2", "--n", "566")
    assert done.returncode == 0, done.stderr
    digits = done.stdout.rstrip("\n")
    assert digits.isdigit() and len(digits) > 4300


@pytest.mark.parametrize("args, dim", [
    (("degree", "--group", "z3", "--n", "30", "--method", "triangulation"), 60),
    (("verify", "--group", "z2", "--n", "40"), 40),
], ids=["degree-z3-30", "verify-z2-40"])
def test_triangulation_refused_before_vertices_are_built(args, dim):
    # 3^29 and 2^39 vertices: building them first would never finish.
    done = run_cli_process(*args, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        f"clawvol: error: guard-rail: triangulation refused: dimension {dim} "
        "exceeds 14 (pass the override to force)\n")


def test_version_without_installed_metadata():
    # Run from the source tree: the version must not come from package metadata.
    done = run_cli_process("--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip("\n").endswith("version 0.1.0")


def test_pyproject_version_matches_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$',
                         pyproject.read_text(encoding="utf-8"), re.M)
    assert declared and declared.group(1) == clawvol.__version__


def test_every_public_name_resolves():
    assert [name for name in clawvol.__all__ if not hasattr(clawvol, name)] == []
    assert len(set(clawvol.__all__)) == len(clawvol.__all__)


def test_output_writes_file(runner, tmp_path):
    target = tmp_path / "table.csv"
    result = invoke(runner, "table", "--group", "z2", "--n", "2..4",
                    "--output", str(target))
    assert result.exit_code == 0
    assert result.stdout == ""
    assert target.read_text(encoding="utf-8") == (
        "group,n,degree\nz2,2,0\nz2,3,1\nz2,4,8\n")


def test_repeated_runs_are_byte_identical(runner):
    first = invoke(runner, "verify", "--group", "z2", "--n", "3",
                   "--format", "json")
    second = invoke(runner, "verify", "--group", "z2", "--n", "3",
                    "--format", "json")
    assert first.stdout == second.stdout


@pytest.mark.parametrize("group,n", [("z2", 6), ("z2xz2", 3), ("z3", 4)])
def test_streamed_json_matches_whole_document(runner, group, n):
    # The listings are written one row at a time; the bytes must be those
    # of the whole document.
    g = clawvol.GROUPS[group]
    expected = {
        "vertices": vpolytope_to_doc(clawvol.vertices(g, n)),
        "facets": hpolytope_to_doc(facets(g, n)),
    }
    for verb, doc in expected.items():
        result = invoke(runner, verb, "--group", group, "--n", str(n),
                        "--format", "json")
        assert result.exit_code == 0
        assert result.stdout == serialize.dumps(doc)


# sha256 of the stdout of each command, which must exit 0.  Output is
# deterministic, so any change to its bytes fails here: every lemma family
# at n=2 in both formats, every non-volume family at n=3 in text (and the
# z2 pairs at n=4), vertices and facets in every format at n=3, verify in
# both formats at n=3, and table in every format.
PINNED_STDOUT_SHA256 = {
    "lemma --lemma z2-single-cut-simplex --n 2 --format text":
        "26a7e01e38d0506117c03742f599e10a1dfd24e0d8b48a1906c857e788c8ff9c",
    "lemma --lemma z2-single-cut-simplex --n 2 --format json":
        "b0a356dd0cee65503847d17912b967d2e13dd0c31076bc0af79294458985e479",
    "lemma --lemma z2-same-parity-pair-flat --n 2 --format text":
        "c0d22a714d062ef470c23eff582ad76b676a1052c08964d5883d092a64ef23a6",
    "lemma --lemma z2-same-parity-pair-flat --n 2 --format json":
        "8a19c59b46723e6af8a39a35f12a022f58a100b5ea8a831ac50aed3499db5050",
    "lemma --lemma z2z2-same-channel-pair-flat --n 2 --format text":
        "e709dbe56e5a2068175169dea3f1e4b462b777f70e270c7079a59e056d905207",
    "lemma --lemma z2z2-same-channel-pair-flat --n 2 --format json":
        "a9de1ecf8db1a5004c0cb6228abe78b482be97d993321969a730d6404f19a608",
    "lemma --lemma z2z2-cut-lattice-points --n 2 --format text":
        "c1c0edfc8e8988fda12ecb0dec9caf192d736314fe3acb8a00d310142f94a845",
    "lemma --lemma z2z2-cut-lattice-points --n 2 --format json":
        "5d441af124b822ac814447b502af3eea6541cc2fff67a27f3a1ca5099ab78395",
    "lemma --lemma z2z2-single-cut-volume --n 2 --format text":
        "97da9e6caaccdda3559a2974981a164b900bb78bfba69bb870030c1d52026656",
    "lemma --lemma z2z2-single-cut-volume --n 2 --format json":
        "04a41056ac4f16cd4e34b358c4ebc2c6abf2d7d477322e1a8dd3eff2095041de",
    "lemma --lemma z2z2-cross-channel-pair-volume --n 2 --format text":
        "be72df643488504f338d90014fb421afa6b653c5404d634374068f3b8669776e",
    "lemma --lemma z2z2-cross-channel-pair-volume --n 2 --format json":
        "6201955586f74077f482f7e430684c32e4fddb469b0b6e4588d37cdae1263315",
    "lemma --lemma z2z2-triple-channel-volume --n 2 --format text":
        "ad89337ae43fd62d201c1ea709f6d3f1bfab124bd77d20df74526558c8e19c4d",
    "lemma --lemma z2z2-triple-channel-volume --n 2 --format json":
        "2a25813dec3c9db81d8eeae4335060d57c750383657f1b66c95339727d9531fb",
    "lemma --lemma z3-far-same-channel-flat --n 2 --format text":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "lemma --lemma z3-far-same-channel-flat --n 2 --format json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "lemma --lemma z3-near-same-channel-contained --n 2 --format text":
        "996fc1117d6c8ffb6c0a24da3ba25f419191bf4a843393abd3d0ffaa074dca73",
    "lemma --lemma z3-near-same-channel-contained --n 2 --format json":
        "33ad9b6b32819cf92356c5467d4dbc8ddbdca36d4bc5877f3b73248eb81fa691",
    "lemma --lemma z3-cross-channel-flat --n 2 --format text":
        "0430833ac3f6a68a65624f5923e2b7e574a93b9f7294299828a1d104bd28a1cc",
    "lemma --lemma z3-cross-channel-flat --n 2 --format json":
        "3bcc7173d7b598f62a23e554edbe05e2812d92bcea30ebdda6f115dd8a277b0c",
    "lemma --lemma z3-double-pair-flat --n 2 --format text":
        "83ea34130389745cb7184bc997331c48b5c1231e7403d44af1b937b2304da652",
    "lemma --lemma z3-double-pair-flat --n 2 --format json":
        "b13a4dea799987a74f629d1ea855161e37d777f16db4e897b593e4c637109042",
    "lemma --lemma z3-single-cut-volume --n 2 --format text":
        "f61536c13c92f4e26051882b52f28f4a7fbc78ddef2b43e7968d25b515583eac",
    "lemma --lemma z3-single-cut-volume --n 2 --format json":
        "94475467c0f7fa5d67fd52f346b905a29b3eca31bc463f51206fd010657b3635",
    "lemma --lemma z3-cross-channel-pair-volume --n 2 --format text":
        "48d535c2736205002710d3cdb57770b20030c3e2c22bbd05fd0ab575b78d99ae",
    "lemma --lemma z3-cross-channel-pair-volume --n 2 --format json":
        "6cc9a6bbcdc5f5a6c4d45e701851a58d847f3fb11242c6148e65ae04e5060822",
    "lemma --lemma z2-same-parity-pair-flat --n 3 --format text":
        "e08be766aaae6573d8d3fd7ef2f0e7eb59e9921b1facc8c409a403be9b82cb66",
    "lemma --lemma z2-same-parity-pair-flat --n 4 --format text":
        "f06f65ab9570df91560d408c02950c192b43478a0202e677cceb18f89c12b3d9",
    "lemma --lemma z2z2-same-channel-pair-flat --n 3 --format text":
        "8bc248809d0d30abb7983ad014a9477b9bfd28589a294c609f54230b1c520024",
    "lemma --lemma z2z2-cut-lattice-points --n 3 --format text":
        "1e615867cdd9940f0a650eebd0b96d6fd86887db0ceee62cdaf9fbbecbb4a8c9",
    # The only family with plus sides, which its json hypotheses list.
    "lemma --lemma z2z2-cut-lattice-points --n 3 --format json":
        "95a1a61ec74a08ef89ebd51ea203e08539a796bc064e6f5308fadea052686be6",
    "lemma --lemma z3-far-same-channel-flat --n 3 --format text":
        "87186eff6fa68ff02edc898b1ffb4efcb66911388304ae18844b22e26a7e6bbc",
    "lemma --lemma z3-near-same-channel-contained --n 3 --format text":
        "8735f2148b340fd7b65a227d5e25685c51a8674fc76d1e40ec26b8717529f6de",
    "lemma --lemma z3-cross-channel-flat --n 3 --format text":
        "7bfea019e78167fcfe48e40b0d679a0a1ea8cee9bd5fc85f5129c852826fd67d",
    "lemma --lemma z3-double-pair-flat --n 3 --format text":
        "3d80fe6dd4e86d439e904405b5b566b95f71e52d0e218db2d93fcbd488e91900",
    "vertices --group z2 --n 3 --format text":
        "46601f988ef00c7481c78ee97386dfbbf489863c54efef415222ef603a0eb342",
    "vertices --group z2 --n 3 --format json":
        "f023ab3576c967aff2a11c127964d4a3463514178438ffc7c2522c44353a703b",
    "vertices --group z2 --n 3 --format ext":
        "b711d38afcf1815581814d331f134705070bb1c62c35adc48208b7e198dbfe16",
    "facets --group z2 --n 3 --format text":
        "2c47509f01c84dd6374fa7a9de14843da54d8d846a69ce4498b2fe28f5147fe0",
    "facets --group z2 --n 3 --format json":
        "4cec0886eedd0d42e67ccc9b58caa6db8b532212f94d0d0e7aaf44f7f9a93061",
    "facets --group z2 --n 3 --format ine":
        "c6a795929715e40850f0a110192c82035f8e5fbc258e05011b98d5b42097ee1c",
    "vertices --group z2xz2 --n 3 --format text":
        "27210d8b1a99e9e78f2b373b15b58a46b81aff5d0e54a9ba872411f61762a768",
    "vertices --group z2xz2 --n 3 --format json":
        "b24d2fa2995f0c7424730107e9d4fab4925c379bc40bf796676c28af8f9a2376",
    "vertices --group z2xz2 --n 3 --format ext":
        "d3e59fc3e411ee7ef6d0ac0525738c840b4711d8e0e1917c702939948ef575da",
    "facets --group z2xz2 --n 3 --format text":
        "6fcdb2e22b5e01bc07d00b03789556f68da45523d32bf5cb6b3dc5e1cb0c51bb",
    "facets --group z2xz2 --n 3 --format json":
        "05b491456c3f6176e0caf8aefee51c62f32dac3d14eceaa96381019e57f7b2a3",
    "facets --group z2xz2 --n 3 --format ine":
        "63d89a699a2253c211333263dab07e48389d3994d3e713e735b9cfba6be3deeb",
    "vertices --group z3 --n 3 --format text":
        "f5e222b91025f59192b1f669de80d7e70e76a206407e01d938dafcac75a2f652",
    "vertices --group z3 --n 3 --format json":
        "a2bcb2c0e553d701793e3c592b070a531c7fdec0e250238808dda8064a37c93e",
    "vertices --group z3 --n 3 --format ext":
        "cce46c81dfbf40440ccf57790adce18977b7ee20f0dac290fc59c499bcad7c8a",
    "facets --group z3 --n 3 --format text":
        "aac281aff8cc0006344dc409e31d43446c7115b71a58ef35da1b1993053d397d",
    "facets --group z3 --n 3 --format json":
        "162a5f2a9ae1dae544db46aca23a6175bf79593fc8ca970cbaedf8e535c39aea",
    "facets --group z3 --n 3 --format ine":
        "e6421a5f43940773f4e629dfda2cd05cb4a4d53cfee92f697ce3effd6be8a219",
    "verify --group z2 --n 3 --format json":
        "1060f9bc4564c334e28c64445af0eab05ec96a9d6f2ad4a1160a8c7d32b00061",
    "verify --group z2xz2 --n 3 --format json":
        "f3a22f4398dbdba501226180867918c204e5ae6b3592b7dc83893ade6164dbb3",
    "verify --group z3 --n 3 --format json":
        "6ed59a4c5bdf9d960b9fa599bc6ec939f804837169a772eb958307352de68554",
    "verify --group z2 --n 3 --format text":
        "c4f835d1084c5206a417f3316392b77f54c75ecfbebce027202dd6c0893206d9",
    "verify --group z2xz2 --n 3 --format text":
        "b208ce27454ebab680c4e75ce3c2ca0d5e877f30d2c86bfb24b7408a642362f3",
    "verify --group z3 --n 3 --format text":
        "85fb0fdcd013ea1e1fdff37f68deca3fc900d0d7a07cd6881dc91204b2372460",
    "table --group z2 --n 2..6 --format csv":
        "232160e19b14448688645d16ae975db9a6c8db90d65729a53ade4a1548d1380b",
    "table --group z2 --n 2..6 --format text":
        "de3d31e0e76f217e8953958e65c14c51b0f4d38acdcb476d9365dd6c79d1edbc",
    "table --group z2 --n 2..6 --format json":
        "a66c1d8d3d68e09102564478d4a24ed5a6cf164cd5188be234f1a5f575f2b898",
}


def test_stdout_pinned(runner):
    changed = []
    for command, digest in PINNED_STDOUT_SHA256.items():
        result = invoke(runner, *command.split())
        if (result.exit_code != 0
                or hashlib.sha256(result.stdout_bytes).hexdigest() != digest):
            changed.append(command)
    assert not changed
