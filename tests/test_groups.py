"""Group tables and zero-sum tuples."""

import pytest

from clawvol.groups import GROUPS, Z2xZ2, Z3, group_by_name, zero_sum_tuples


def test_group_axioms_brute_force():
    for group in GROUPS.values():
        add = group.add_table
        k = group.order
        for a in range(k):
            assert add[a][0] == a
            assert add[a][group.neg(a)] == 0
            for b in range(k):
                assert add[a][b] == add[b][a]
                for c in range(k):
                    assert add[add[a][b]][c] == add[a][add[b][c]]


def test_z2xz2_is_xor():
    for a in range(4):
        for b in range(4):
            assert Z2xZ2.add_table[a][b] == a ^ b


def test_element_names():
    assert Z2xZ2.element_name(0) == "0"
    assert [Z2xZ2.element_name(g) for g in Z2xZ2.nonzero] == ["a", "b", "c"]
    assert Z3.element_name(2) == "2"


def test_group_by_name():
    assert group_by_name("z3") is Z3
    with pytest.raises(ValueError, match="unknown group"):
        group_by_name("z4")


def test_zero_sum_tuples_counts_and_sums():
    for group in GROUPS.values():
        for n in (1, 2, 3, 4):
            tuples = list(zero_sum_tuples(group, n))
            assert len(tuples) == group.order ** (n - 1)
            assert tuples == sorted(tuples)
            assert len(set(tuples)) == len(tuples)
            for t in tuples:
                assert group.tuple_sum(t) == 0
