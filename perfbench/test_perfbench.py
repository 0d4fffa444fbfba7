"""Self-tests for the benchmark's own oracles and span arithmetic.

    python3 -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from spans import Span, Tracer, self_time_by, self_times  # noqa: E402

from clawvol.cuts import LEMMA_IDS, check_lemma, lemma_claims  # noqa: E402


def test_degrees_reproduce_the_paper_table():
    table = {"z2": [0, 1, 8, 52, 344], "z3": [0, 9, 660], "z2xz2": [0, 96]}
    for group, degrees in table.items():
        assert [oracles.degree(group, n) for n in range(2, 2 + len(degrees))] == degrees


def test_alternating_sum_matches_its_definition():
    from math import comb, factorial
    for n in range(1, 12):
        direct = sum(Fraction((-2) ** i * comb(n, i) * factorial(3 * n), factorial(2 * n + i))
                     for i in range(n + 1))
        assert oracles.alternating_sum(n) == direct


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_instance_counts_match_the_listed_claims(lemma):
    sizes = (2, 3) if lemma == "z3-double-pair-flat" else (2, 3, 4)
    for n in sizes:
        assert oracles.instance_count(lemma, n) == len(lemma_claims(lemma, n))


def test_lemma_volumes_match_the_claims_at_n2():
    for lemma in LEMMA_IDS:
        for claim in lemma_claims(lemma, 2):
            if claim.kind != "volume":
                continue
            subsets = [c.subset for c in claim.spec.cuts]
            assert oracles.lemma_volume(lemma, 2, subsets) == claim.expected
            assert check_lemma(claim).computed == str(claim.expected)


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 7]
    spans = [
        Span("root", "p", 0.0, 10.0, -1),
        Span("a", "p", 1.0, 4.0, 0),
        Span("a1", "p", 2.0, 3.0, 1),
        Span("b", "p", 5.0, 7.0, 0),
        Span("a", "q", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.5]
    assert self_time_by(spans) == {("p", "root"): 5.0, ("p", "a"): 2.0,
                                   ("p", "a1"): 1.0, ("p", "b"): 2.0, ("q", "a"): 1.5}
    assert sum(self_times(spans[:4])) == spans[0].end - spans[0].start


def test_tracer_wraps_every_binding_and_restores_it():
    import clawvol
    from clawvol import cuts, geometry
    original = geometry.vertex_enumeration
    claim = lemma_claims("z3-single-cut-volume", 2)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert cuts.vertex_enumeration is geometry.vertex_enumeration is clawvol.vertex_enumeration
        assert geometry.vertex_enumeration is not original
        tracer.phase = "round1"
        cuts.check_lemma(claim)
    finally:
        tracer.uninstall()
    assert cuts.vertex_enumeration is original and clawvol.vertex_enumeration is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cuts.check_lemma" and "geometry.vertex_enumeration" in names
    assert tracer.counters[("round1", "volume.triangulate")]["calls"] == 1
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_tail_leaves_ten_items_beyond_it():
    import run
    values = [float(v) for v in range(40, 0, -1)]
    assert run.tail(values) == 30.0
    assert sum(v > run.tail(values) for v in values) == 10


def test_block_tail_takes_the_median_over_blocks_of_forty_items():
    import run

    def rounds(n_items, values):
        return [run.Round([v] * n_items, [v] * n_items, [1.0], 0.0, False) for v in values]

    # 24-item rounds: blocks {0, 1} and {2, 3, 4}, the short last block merged
    assert run.block_tail(rounds(24, [0.0, 1.0, 2.0, 3.0, 4.0])) == (1.0 + 4.0) / 2
    # 3-item rounds: 60 items make one block, whose tail is the 11th largest
    assert run.block_tail(rounds(3, [float(v) for v in range(20)])) == 16.0


def test_report_zero_fills_only_layers_that_can_go_uncalled():
    import run
    values = dict.fromkeys(run.ZERO_WHEN_UNCALLED, 0)
    spec = [{"name": "volume.triangulate.calls", "unit": "count"},
            {"name": "volume.triangulate.simplices", "unit": "count"},
            {"name": "geometry.affine_dim.self_s", "unit": "s"}]
    assert run.report(spec, values) == {e["name"]: {"value": 0, "unit": e["unit"]} for e in spec}
    for missing in ("volume.triangulate.simplex", "bench.trace_overhead", "wall_ref"):
        with pytest.raises(SystemExit):
            run.report([{"name": missing, "unit": "count"}], values)
