"""End-to-end command behavior: output bytes, exit codes, guard rails."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import clawvol
from clawvol.cli import main


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


def test_lemma_group_mismatch_is_usage_error(runner):
    result = invoke(runner, "lemma", "--lemma", "z2-single-cut-simplex",
                    "--n", "3", "--group", "z3")
    assert result.exit_code == 2
    assert result.stderr.startswith("clawvol: error: usage:")


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
