"""The shipping checklist: one test and one printed line per criterion.

Every comparison here is exact; no tolerances appear anywhere.  Each test
prints a single PASS or FAIL line outside pytest's capture so a full run
reads as a checklist, and the criteria carry hard wall-time budgets.
"""

import contextlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from click.testing import CliRunner

import clawvol.verify
from clawvol.cli import main as cli_main
from clawvol.clawpoly import lattice, vertices
from clawvol.cuts import LEMMA_GROUPS, LEMMA_IDS, run_lemma
from clawvol.formulas import degree_rational
from clawvol.geometry import VPolytope, lattice_index
from clawvol.groups import GROUPS, Z2, Z2xZ2, Z3
from clawvol.verify import METHODS, degree_by_method
from clawvol.volume import lattice_volume
from helpers import (
    count_singleton_delta_triples,
    facets,
    random_symmetry,
    vh_consistent,
)
from joins import join_product_many


@contextlib.contextmanager
def criterion(capsys, label):
    """Print exactly one checklist line for the enclosed block."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: PASS")


def three_way(group, n):
    return {m: degree_by_method(group, n, m) for m in METHODS}


def test_criterion_01_z2_three_way_agreement(capsys):
    label = "criterion 01 (z2 degrees agree three ways, n=2..6)"
    with criterion(capsys, label):
        start = time.perf_counter()
        expected = {2: 0, 3: 1, 4: 8, 5: 52, 6: 344}
        for n, value in expected.items():
            assert set(three_way(Z2, n).values()) == {Fraction(value)}
        assert time.perf_counter() - start < 60


def test_criterion_02_z3_three_way_agreement(capsys):
    label = "criterion 02 (z3 degrees agree three ways, n=2..4)"
    with criterion(capsys, label):
        start = time.perf_counter()
        expected = {2: 0, 3: 9, 4: 660}
        for n, value in expected.items():
            assert set(three_way(Z3, n).values()) == {Fraction(value)}
        assert time.perf_counter() - start < 300


def test_criterion_03_z2xz2_three_way_agreement(capsys):
    label = "criterion 03 (z2xz2 degrees agree three ways, n=2..3)"
    with criterion(capsys, label):
        start = time.perf_counter()
        expected = {2: 0, 3: 96}
        for n, value in expected.items():
            assert set(three_way(Z2xZ2, n).values()) == {Fraction(value)}
        assert time.perf_counter() - start < 900


def test_criterion_04_formula_vs_assembly_pure_arithmetic(capsys):
    label = "criterion 04 (formula equals assembly, all groups, n=2..8)"
    with criterion(capsys, label):
        start = time.perf_counter()
        for group in GROUPS.values():
            for n in range(2, 9):
                assert degree_rational(group, n) == degree_by_method(
                    group, n, "inclusion-exclusion")
        assert time.perf_counter() - start < 1


def test_criterion_05_lemma_suite_zero_refutations(capsys):
    label = "criterion 05 (all 13 claim families exhaustively confirmed)"
    with criterion(capsys, label):
        checked = 0
        for lemma_id in LEMMA_IDS:
            sizes = (2, 3, 4) if LEMMA_GROUPS[lemma_id] is Z2 else (2, 3)
            for n in sizes:
                records = list(run_lemma(lemma_id, n))
                assert all(r["verdict"] == "confirmed" for r in records)
                checked += len(records)
        assert checked == 2530  # frozen exhaustive instance total


def test_criterion_06_vertex_facet_consistency(capsys):
    label = "criterion 06 (vertex and facet descriptions agree)"
    with criterion(capsys, label):
        ranges = {Z2: (2, 3, 4, 5), Z3: (2, 3), Z2xZ2: (2, 3)}
        for group, sizes in ranges.items():
            for n in sizes:
                assert vh_consistent(vertices(group, n), facets(group, n))


def test_criterion_07_lattice_indices(capsys):
    label = "criterion 07 (model lattice indices 2/4/3 at n=2..4)"
    with criterion(capsys, label):
        expected = {Z2: 2, Z2xZ2: 4, Z3: 3}
        for group, index in expected.items():
            for n in (2, 3, 4):
                assert lattice_index(lattice(group, n)) == index


def test_criterion_08_symmetries_permute_vertices(capsys):
    label = "criterion 08 (50 random symmetries per group fix the vertex set)"
    with criterion(capsys, label):
        rng = random.Random(20260813)
        for group in GROUPS.values():
            verts = set(vertices(group, 3).vertices)
            for _ in range(50):
                action = random_symmetry(group, 3, rng)
                assert {action(v) for v in verts} == verts


def _random_factor(rng):
    dim = rng.randint(1, 3)
    count = rng.randint(dim + 1, 8)
    points = {tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(count)}
    points.add((0,) * dim)
    return VPolytope(dim, tuple(sorted(points)))


def test_criterion_09_join_volume_is_multiplicative(capsys):
    label = "criterion 09 (join volumes multiply; block join gives 2^n)"
    with criterion(capsys, label):
        rng = random.Random(1729)
        for _ in range(100):
            factors = [_random_factor(rng) for _ in range(rng.randint(1, 3))]
            product = math.prod((lattice_volume(f) for f in factors),
                                start=Fraction(1))
            assert lattice_volume(join_product_many(factors)) == product

        # the three-coordinate block conv{0, e2, e3, e1+e2, e1+e3}
        block = VPolytope(3, (
            (0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)))
        assert lattice_volume(block) == 2
        for n in (2, 3):
            assert lattice_volume(join_product_many([block] * n)) == 2 ** n


def test_criterion_10_singleton_difference_count(capsys):
    label = "criterion 10 (singleton-difference triples number n*4^(n-1))"
    with criterion(capsys, label):
        for n in range(2, 6):
            assert count_singleton_delta_triples(n) == n * 4 ** (n - 1)


def test_criterion_11_determinism_and_fault_injection(capsys, monkeypatch):
    label = "criterion 11 (byte-identical verify; injected fault exits 1)"
    with criterion(capsys, label):
        command = [sys.executable, "-m", "clawvol.cli", "verify",
                   "--group", "z2", "--n", "3", "--format", "json"]
        outputs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            done = subprocess.run(command, capture_output=True, env=env,
                                  check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

        monkeypatch.setattr(clawvol.verify, "degree_rational",
                            lambda group, n: Fraction(999))
        broken = CliRunner().invoke(cli_main,
                                    ["verify", "--group", "z2", "--n", "3"])
        assert broken.exit_code == 1
        assert "consistent: NO" in broken.stdout
