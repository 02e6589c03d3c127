from itertools import combinations
from math import comb

import pytest

from multiobserver import ConfigurationError, SubsetIndex, bank_index, enumerate_subsets
from multiobserver.combinatorics import parse_label


def test_bank_sizes_match_binomials():
    # (p, q) -> expected total observer count C(p, p-q) + C(p, p-2q)
    for p, q, expected in [(3, 1, 6), (5, 2, 15), (4, 1, 10)]:
        idx = bank_index(p, q)
        assert len(idx.j_subsets) == comb(p, p - q)
        assert len(idx.s_subsets) == comb(p, p - 2 * q)
        assert len(idx.all_subsets) == expected


def test_subset_classes_have_declared_cardinalities():
    idx = bank_index(5, 2)
    assert all(len(J) == 3 for J in idx.j_subsets)
    assert all(len(S) == 1 for S in idx.s_subsets)
    idx = bank_index(7, 3)
    assert all(len(J) == 4 for J in idx.j_subsets)
    assert all(len(S) == 1 for S in idx.s_subsets)


def test_enumeration_is_lexicographic_and_complete():
    subsets = enumerate_subsets(5, 3)
    assert subsets == sorted(subsets)
    assert len(subsets) == comb(5, 3)
    assert len(set(subsets)) == len(subsets)
    assert all(len(m) == 3 and all(1 <= i <= 5 for i in m) for m in subsets)


def test_containment_lists_every_subset_of_j():
    idx = bank_index(5, 2)
    for J in idx.j_subsets:
        inner = idx.contained[J]
        assert {S.members for S in inner} == set(combinations(J.members, 1))
        assert all(S.role == "S" for S in inner)
    # each S appears in exactly C(p - s_size, j_size - s_size) J's
    counts = {S: 0 for S in idx.s_subsets}
    for J in idx.j_subsets:
        for S in idx.contained[J]:
            counts[S] += 1
    assert set(counts.values()) == {comb(4, 2)}


def test_label_round_trip():
    for sub in bank_index(5, 2).all_subsets:
        assert parse_label(sub.label) == sub
    assert parse_label("J:1,3,4") == SubsetIndex("J", (1, 3, 4))
    assert SubsetIndex("S", (2,)).label == "S:2"


def test_malformed_labels_rejected():
    for bad in ["J1,2", "X:1,2", "J:2,1", "J:1,1", "J:0,2", "J:a,b"]:
        with pytest.raises((ConfigurationError, ValueError)):
            parse_label(bad)


def test_subset_index_enforces_canonical_members():
    with pytest.raises(ValueError):
        SubsetIndex("J", (3, 1))
    with pytest.raises(ValueError):
        SubsetIndex("J", (1, 1, 2))
    with pytest.raises(ValueError):
        SubsetIndex("Q", (1, 2))


def test_membership_mask_and_ordering():
    sub = SubsetIndex("J", (1, 3, 4))
    assert 3 in sub.members and 2 not in sub.members
    assert SubsetIndex("J", (1, 2)) < SubsetIndex("J", (1, 3))
    assert SubsetIndex("J", (1, 2)) < SubsetIndex("S", (1, 2))


def test_redundancy_requirement_enforced():
    with pytest.raises(ConfigurationError):
        bank_index(4, 2)  # q >= p/2
    with pytest.raises(ConfigurationError):
        bank_index(3, -1)
    idx = bank_index(3, 0)  # degenerate but legal: J = S = the full set
    assert idx.j_subsets == idx.s_subsets or [J.members for J in idx.j_subsets] == [
        S.members for S in idx.s_subsets
    ]
