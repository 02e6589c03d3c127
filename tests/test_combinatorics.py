from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest
from _brute import bank_geometry

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


@pytest.mark.parametrize("p, q", [(5, 2), (13, 6)])
def test_member_bits_pack_each_sensors_candidates(p, q):
    idx = bank_index(p, q)
    n_j = len(idx.j_subsets)
    bits = idx.member_bits
    assert bits.dtype == np.uint8 and bits.shape == (p, ceil(n_j / 8))
    unpacked = np.unpackbits(bits, axis=1)
    assert not unpacked[:, n_j:].any()  # the padding bits are clear
    want = [[s in J.members for J in idx.j_subsets] for s in range(1, p + 1)]
    assert unpacked[:, :n_j].astype(bool).tolist() == want
    assert idx.member_bits is bits  # built once per bank


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


# (70, 1): binomials C(n, r) past int64 lie in the rank table's unread corner
@pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 14) for q in range((p + 1) // 2)]
                         + [(70, 1)])
def test_geometry_equals_direct_enumeration(p, q):
    j_class, s_class, inside = bank_geometry(p, q)
    idx = bank_index(p, q)
    assert [(J.role, J.members) for J in idx.j_subsets] == [("J", m) for m in j_class]
    assert [(S.role, S.members) for S in idx.s_subsets] == [("S", m) for m in s_class]
    assert list(idx.contained) == list(idx.j_subsets)
    subsets = idx.all_subsets
    assert [idx.contained[J] for J in idx.j_subsets] == [
        tuple(subsets[i] for i in row) for row in inside]
    pos = idx.cross_check_pos
    assert pos.dtype.kind == "i" and pos.tolist() == inside
    want = [[s in jm for jm in j_class] for s in range(1, p + 1)]
    assert np.unpackbits(idx.member_bits, axis=1, count=len(j_class)).astype(bool).tolist() == want


def test_subsets_from_separate_banks_are_interchangeable():
    first, second = bank_index(7, 3), bank_index(7, 3)
    for a, b in zip(first.all_subsets, second.all_subsets):
        assert a == b and hash(a) == hash(b) and a is not b
        assert SubsetIndex(a.role, a.members) == a
        assert hash(SubsetIndex(a.role, a.members)) == hash(a)
    keyed = {sub: i for i, sub in enumerate(first.all_subsets)}
    assert [keyed[sub] for sub in second.all_subsets] == list(range(len(keyed)))
    assert second.contained == first.contained


def test_subset_equality_is_by_role_and_members_and_leaves_the_order():
    # q = 0 gives a J and an S with the same members, which must differ
    j, s = bank_index(3, 0).all_subsets
    assert j.members == s.members and j != s and not j == s
    for a, b in [(SubsetIndex("J", (1, 3)), SubsetIndex("J", (1, 3))),
                 (SubsetIndex("S", ()), SubsetIndex("S", ()))]:
        assert a == b and not a != b and a is not b
    for other in [SubsetIndex("J", (1, 2)), SubsetIndex("J", (1, 3, 4)), ("J", (1, 3)), (1, 3)]:
        assert SubsetIndex("J", (1, 3)) != other and not SubsetIndex("J", (1, 3)) == other
    subsets = list(bank_index(7, 2).all_subsets)
    shuffled = [subsets[i] for i in np.random.default_rng(5).permutation(len(subsets))]
    assert sorted(shuffled) == sorted(subsets, key=lambda sub: (sub.role, sub.members))
