"""In-memory spans around clawvol's public functions, for the traced run.

The package binds names with from-imports, so a function is reachable
under the same object from several modules (``cuts.vertex_enumeration``
is ``geometry.vertex_enumeration``).  ``Tracer.install`` replaces every
such binding in every loaded ``clawvol`` module with one wrapper, and
``uninstall`` puts the originals back.  Spans are kept in a list while the
run goes and summarised (or written out) once it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span


def _count_vertices(counts, args, result):
    counts["vertices"] += len(result.vertices)
    counts["nonempty"] += not result.is_empty()


def _count_simplices(counts, args, result):
    counts["simplices"] += len(result.simplices)
    counts["input_vertices"] += len(args[0].vertices)


# Counters the hooks above add, by layer.
HOOK_COUNTERS = {
    "geometry.vertex_enumeration": ("vertices", "nonempty"),
    "volume.triangulate": ("simplices", "input_vertices"),
}

# (defining module, function, counter hook): one layer per module.
TARGETS = (
    ("geometry", "vertex_enumeration", _count_vertices),
    ("geometry", "affine_dim", None),
    ("geometry", "lattice_index", None),
    ("volume", "triangulate", _count_simplices),
    ("volume", "triangulation_lattice_volume", None),
    ("volume", "lattice_volume", None),
    ("formulas", "degree_rational", None),
    ("formulas", "cut_formula", None),
    ("cuts", "assemble", None),
    ("cuts", "cut_piece", None),
    ("cuts", "lemma_claims", None),
    ("cuts", "check_lemma", None),
    ("clawpoly", "vertices", None),
    ("clawpoly", "lattice", None),
    ("verify", "verify_degree", None),
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # counters[(phase, layer name)][counter] -> total
    counters: dict[tuple[str, str], Counter] = field(default_factory=dict)
    phase: str = "setup"
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.phase, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            counts = self.counters.setdefault((self.phase, name), Counter())
            counts["calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding of each target in every loaded clawvol module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "clawvol" or key.startswith("clawvol."))]
        for module_name, attr, hook in TARGETS:
            original = getattr(sys.modules["clawvol." + module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One tab-separated line per span: index, parent, phase, name, start, end."""
        with open(path, "w") as out:
            out.write("index\tparent\tphase\tname\tstart\tend\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s.parent}\t{s.phase}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so the children of a span
    never overlap and their durations simply add up.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def self_time_by(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Total self time per (phase, name)."""
    totals: dict[tuple[str, str], float] = {}
    for s, own in zip(spans, self_times(spans)):
        key = (s.phase, s.name)
        totals[key] = totals.get(key, 0.0) + own
    return totals
