"""Command-line front end.

Verbs: vertices, facets, volume, degree, assemble, verify, lemma, table.
Output is deterministic; identical commands give byte-identical results.
Every format lives in ``serialize``: a verb hands ``_emit`` the pieces its
writer makes, and they are written as they come, so no listing and no list
of claim records is held whole.  Only the one-number line of ``degree``,
``volume`` and ``assemble`` is written here.

Exit codes: 0 success, 1 verification failure (a refuted claim or a
cross-check mismatch), 2 usage error, 3 guard-rail refusal.  Every guard
rail is decided in ``_guard`` from the request alone, before any library
call; the library computes whatever it is asked.  Guard rails can be lifted
with --override-guard or the CLAWVOL_OVERRIDE_GUARD environment variable.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from collections.abc import Iterable

import click

from . import __version__, serialize
from .clawpoly import ambient_dim, facet_halfspaces, model_lattice_index
from .clawpoly import vertices as claw_vertices
from .cuts import LEMMA_FAMILIES, LEMMA_GROUPS, LEMMA_IDS, VOLUME, run_lemma
from .formulas import degree_table
from .groups import Z3, Group, group_by_name
from .serialize import rat_to_str
from .verify import METHODS, TRIANGULATION, degree_by_method, verify_degree

GUARD_ENV = "CLAWVOL_OVERRIDE_GUARD"
MAX_DIM = 14
MAX_VERTICES = 200
MAX_TABLE_N = 20
MAX_ROWS = 2 ** 17


def _fail(code: int, kind: str, message: str) -> None:
    message = " ".join(str(message).split())
    sys.stderr.write(f"clawvol: error: {kind}: {message}\n")
    sys.exit(code)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            _fail(2, "usage", str(exc))

    return wrapper


def _listed_rows(verb: str, group: Group, n: int) -> int:
    """Lines ``vertices`` or ``facets`` would print: |G|^(n-1) vertices, or
    the d + n ambient bounds and each channel's 2^(n-1) (Z2, Z2xZ2) or
    3^(n-1) (Z3) facet cuts."""
    if verb == "vertices":
        return group.order ** (n - 1)
    per_channel = (3 if group is Z3 else 2) ** (n - 1)
    return ambient_dim(group, n) + n + len(group.nonzero) * per_channel


def _guard(override: bool, verb: str, group: Group, n: int, *,
           methods: tuple[str, ...] = (), lemma_id: str | None = None) -> None:
    """Exit 3 when a request is too big to run by default.

    Triangulating the polytope (``degree``, ``volume`` or ``verify`` with
    the triangulation among ``methods``) is refused above MAX_DIM
    dimensions, then above MAX_VERTICES of its |G|^(n-1) vertices.  A
    claim family (``lemma``) is refused above MAX_ROWS instances, counted
    by the family's closed form; a volume family is first held to the
    dimension check, since inside it no piece has more than 80 vertices.
    ``table`` is capped at MAX_TABLE_N, n being the end of its range, and
    ``vertices`` and ``facets`` at MAX_ROWS listed rows.  Nothing else is
    refused, and an n below 2 is left to the library's usage error.
    """
    if override or n < 2:
        return
    if verb in ("vertices", "facets"):
        count = _listed_rows(verb, group, n)
        if count > MAX_ROWS:
            _fail(3, "guard-rail", f"listing refused: {count} {verb} exceed "
                  f"{MAX_ROWS} (pass the override to force)")
        return
    if verb == "table":
        if n > MAX_TABLE_N:
            _fail(3, "guard-rail", f"table range ends at {n} > {MAX_TABLE_N}; "
                  "pass the override to force")
        return
    if verb == "lemma":
        _, kind, _, instance_count = LEMMA_FAMILIES[lemma_id]
        if kind == VOLUME:
            _guard_dimension(group, n)
        count = instance_count(n)
        if count > MAX_ROWS:
            _fail(3, "guard-rail", f"lemma refused: {count} instances exceed "
                  f"{MAX_ROWS} (pass the override to force)")
        return
    if TRIANGULATION not in methods:
        return
    _guard_dimension(group, n)
    count = group.order ** (n - 1)
    if count > MAX_VERTICES:
        _fail(3, "guard-rail", f"triangulation refused: {count} vertices "
              f"exceed {MAX_VERTICES} (pass the override to force)")


def _guard_dimension(group: Group, n: int) -> None:
    dim = ambient_dim(group, n)
    if dim > MAX_DIM:
        _fail(3, "guard-rail", f"triangulation refused: dimension {dim} "
              f"exceeds {MAX_DIM} (pass the override to force)")


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces in order, so a listing is never held whole."""
    if output:
        with open(output, "w", encoding="utf-8") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


_group_option = click.option(
    "--group", "group_name", required=True,
    help="Group: z2, z2xz2, or z3.")
_n_option = click.option("--n", "n", type=int, required=True,
                         help="Number of leaves (n >= 2).")
_output_option = click.option("--output", "output", default=None,
                              type=click.Path(dir_okay=False, writable=True),
                              help="Write to this file instead of stdout.")
_guard_option = click.option(
    "--override-guard", "override_guard", is_flag=True, envvar=GUARD_ENV,
    help="Lift the size guard rails on geometric computations.")


@click.group()
@click.version_option(version=__version__)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Exact lattice volumes and degrees for claw-tree model polytopes."""
    # Exact degrees outgrow Python's default limit on int-to-str digits; lift
    # it for this command and put it back when the command ends.
    if hasattr(sys, "set_int_max_str_digits"):
        ctx.call_on_close(functools.partial(sys.set_int_max_str_digits,
                                            sys.get_int_max_str_digits()))
        sys.set_int_max_str_digits(0)


@main.command("vertices")
@_group_option
@_n_option
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "json", "ext"]))
@_output_option
@_guard_option
@_handle_errors
def vertices_cmd(group_name: str, n: int, fmt: str, output: str | None,
                 override_guard: bool) -> None:
    """List the polytope's vertices."""
    group = group_by_name(group_name)
    _guard(override_guard, "vertices", group, n)
    _emit(serialize.vertex_lines(claw_vertices(group, n), fmt), output)


@main.command("facets")
@_group_option
@_n_option
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "json", "ine"]))
@_output_option
@_guard_option
@_handle_errors
def facets_cmd(group_name: str, n: int, fmt: str, output: str | None,
               override_guard: bool) -> None:
    """List the facet inequalities <a, x> <= b."""
    group = group_by_name(group_name)
    _guard(override_guard, "facets", group, n)
    rows = facet_halfspaces(group, n)
    _emit(serialize.facet_lines(ambient_dim(group, n), rows,
                                _listed_rows("facets", group, n), fmt), output)


@main.command("volume")
@_group_option
@_n_option
@click.option("--method", "method", default="triangulation",
              type=click.Choice(list(METHODS)))
@_output_option
@_guard_option
@_handle_errors
def volume_cmd(group_name: str, n: int, method: str, output: str | None,
               override_guard: bool) -> None:
    """Lattice volume of the polytope in the standard lattice Z^d."""
    group = group_by_name(group_name)
    _guard(override_guard, "volume", group, n, methods=(method,))
    value = degree_by_method(group, n, method)
    value *= model_lattice_index(group)
    _emit([rat_to_str(value) + "\n"], output)


@main.command("degree")
@_group_option
@_n_option
@click.option("--method", "method", default="formula",
              type=click.Choice(list(METHODS)))
@_output_option
@_guard_option
@_handle_errors
def degree_cmd(group_name: str, n: int, method: str, output: str | None,
               override_guard: bool) -> None:
    """Degree: the volume measured in the model lattice."""
    group = group_by_name(group_name)
    _guard(override_guard, "degree", group, n, methods=(method,))
    value = degree_by_method(group, n, method)
    _emit([rat_to_str(value) + "\n"], output)


@main.command("assemble")
@_group_option
@_n_option
@_output_option
@_handle_errors
def assemble_cmd(group_name: str, n: int, output: str | None) -> None:
    """Degree by the arithmetic inclusion-exclusion route."""
    group = group_by_name(group_name)
    value = degree_by_method(group, n, "inclusion-exclusion")
    _emit([rat_to_str(value) + "\n"], output)


@main.command("verify")
@_group_option
@_n_option
@click.option("--method", "methods", multiple=True, default=("all",),
              type=click.Choice(["all", *METHODS]))
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "json"]))
@_output_option
@_guard_option
@_handle_errors
def verify_cmd(group_name: str, n: int, methods: tuple[str, ...], fmt: str,
               output: str | None, override_guard: bool) -> None:
    """Cross-check the degree by independent methods; exit 1 on mismatch."""
    group = group_by_name(group_name)
    selected: tuple[str, ...] = ()
    for m in methods:
        picked = METHODS if m == "all" else (m,)
        selected += tuple(p for p in picked if p not in selected)
    _guard(override_guard, "verify", group, n, methods=selected)
    result = verify_degree(group, n, selected)
    _emit(serialize.verify_lines(result, fmt), output)
    if not result.consistent:
        _fail(1, "verify", f"methods disagree for group={group.name} n={n}")


@main.command("lemma")
@click.option("--lemma", "lemma_id", required=True,
              type=click.Choice(list(LEMMA_IDS)))
@_n_option
@click.option("--group", "group_name", default=None,
              help="Optional; must match the lemma's group.")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "json"]))
@_output_option
@_guard_option
@_handle_errors
def lemma_cmd(lemma_id: str, n: int, group_name: str | None, fmt: str,
              output: str | None, override_guard: bool) -> None:
    """Check every instance of one claim family; exit 1 on any refutation."""
    expected_group = LEMMA_GROUPS[lemma_id]
    if group_name is not None and group_by_name(group_name) is not expected_group:
        raise ValueError(
            f"lemma {lemma_id} concerns group {expected_group.name}, "
            f"not {group_name}")
    _guard(override_guard, "lemma", expected_group, n, lemma_id=lemma_id)
    # Called before the output is opened, so a usage error writes no file.
    records = run_lemma(lemma_id, n)
    verdicts: Counter[str] = Counter()

    def counted() -> Iterable[dict]:
        for record in records:
            verdicts[record["verdict"]] += 1
            yield record

    _emit(serialize.lemma_lines(counted(), fmt), output)
    if verdicts["refuted"]:
        _fail(1, "lemma",
              f"{verdicts['refuted']} of {sum(verdicts.values())} instances "
              f"refuted for {lemma_id} at n={n}")


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad n range {text!r}; use N or N..M") from None
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= n_min <= n_max, got {lo}..{hi}")
    return lo, hi


@main.command("table")
@_group_option
@click.option("--n", "n_range", required=True,
              help="Single n or inclusive range N..M.")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["text", "json", "csv"]))
@_output_option
@_guard_option
@_handle_errors
def table_cmd(group_name: str, n_range: str, fmt: str, output: str | None,
              override_guard: bool) -> None:
    """Tabulate degrees over a range of n."""
    group = group_by_name(group_name)
    lo, hi = _parse_n_range(n_range)
    _guard(override_guard, "table", group, hi)
    _emit(serialize.table_lines(group, degree_table(group, lo, hi), fmt), output)


if __name__ == "__main__":
    main()
