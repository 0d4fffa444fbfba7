"""Recorded mutants of clawvol that the tests must kill.

Each entry changes one exact piece of text in one file of ``src/``, runs the
entry's target tests on that copy, and counts the mutant killed when they
fail.  Every mutant runs in its own copy of ``src/`` and ``tests/`` under a
temporary directory; the working tree is never written.

Run from the root of a checkout, with the test dependencies installed:

    python tests/mutants.py          # every entry
    python tests/mutants.py 1 4      # entries 1 and 4 only

First the union of the targets runs once on the unmutated copy, so a
target that already fails cannot pass for a kill.  The script prints one
line per entry and exits 0 when every mutant is killed, 1 when one
survives, when the unmutated targets fail, or when an entry's old text does
not occur exactly once in its file.  That last case means the code moved
on: the entry is then updated to the new text, or retired with a reason in
``CHANGES.md``.  It uses only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str       # relative to the root of the checkout
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest targets, relative to the root
    note: str


MUTANTS = (
    Mutant("src/clawvol/clawpoly.py",
           "row[i], row[i % width] = 1, -1",
           "row[i], row[i % width] = 1, 1",
           ("tests/test_clawpoly.py",),
           "a + sign in the model lattice's rule for blocks after the first"),
    Mutant("src/clawvol/volume.py",
           "        todo.sort(key=itemgetter(0))\n",
           "",
           ("tests/test_volume.py",),
           "visible boundary simplices coned in facet order, not serial order"),
    Mutant("src/clawvol/volume.py",
           "full_bits = key_bits | 1 << i",
           "full_bits = key_bits",
           ("tests/test_volume.py",),
           "a new boundary record without the new point's bit"),
    Mutant("src/clawvol/clawpoly.py",
           "        for channel in (1, 2):\n",
           "        for channel in (2, 1):\n",
           ("tests/test_clawpoly.py",),
           "the Z3 facet cuts walked channel 2 first"),
    Mutant("src/clawvol/volume.py",
           'lines.append("    p0 = hidden")',
           'lines.append("    p0 = -1")',
           ("tests/test_volume.py",),
           "ridge masks whose prefix starts from every bit, not the hidden facets"),
    Mutant("src/clawvol/volume.py",
           "if key[-1] < i:",
           "if key[-1] > i:",
           ("tests/test_volume.py",),
           "the append-at-the-end path taken for keys with a seed vertex above i"),
    Mutant("src/clawvol/cli.py",
           "except ValueError as exc:",
           "except TypeError as exc:",
           ("tests/test_cli.py",),
           "the CLI's error boundary catching the wrong exception"),
    Mutant("src/clawvol/cuts.py",
           "    @cache\n",
           "",
           ("tests/test_cuts.py",),
           "every claim of a list building its own cuts"),
    Mutant("src/clawvol/cli.py",
           "                              callback=_writable_output,\n",
           "",
           ("tests/test_cli.py",),
           "--output written without checking its directory first"),
)

IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _copy_tree(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=IGNORE)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(root: Path, targets: tuple[str, ...]) -> int:
    """Run the targets with ``-x`` in the copy at ``root``; the exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *targets],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def _mutate(root: Path, mutant: Mutant) -> str | None:
    """Apply the mutant in the copy; an error message if its text is stale."""
    path = root / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text occurs {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    entries = [(k, MUTANTS[k - 1]) for k in chosen]
    targets = tuple(sorted({t for _, m in entries for t in m.tests}))
    with tempfile.TemporaryDirectory(prefix="clawvol-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        if _pytest(clean, targets):
            print(f"the unmutated targets fail: {' '.join(targets)}")
            return 1
        bad = 0
        for k, mutant in entries:
            copy = Path(tmp) / f"mutant-{k}"
            _copy_tree(copy)
            start = time.perf_counter()
            error = _mutate(copy, mutant)
            if error is None:
                code = _pytest(copy, mutant.tests)
                verdict = "killed" if code else "SURVIVED"
            else:
                verdict = f"STALE: {error}"
            bad += verdict != "killed"
            print(f"{k:3d} {verdict:8s} {time.perf_counter() - start:5.1f} s  "
                  f"{mutant.file}: {mutant.note}")
            shutil.rmtree(copy)
    print(f"{len(entries) - bad} of {len(entries)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
