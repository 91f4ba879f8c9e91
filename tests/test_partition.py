import pytest
from hypothesis import given, strategies as st

from eulerparts import partition
from eulerparts.enumeration import BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET
from eulerparts.partition import EMPTY_TEXT, MAX_TEXT_WEIGHT, Partition

import oracles


part_lists = st.lists(st.integers(min_value=1, max_value=40), max_size=12)


def test_constructor_sorts_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition([]).parts == ()
    assert Partition((5, 5, 5)).parts == (5, 5, 5)
    with pytest.raises(ValueError):
        Partition([0])
    with pytest.raises(ValueError):
        Partition([3, -1])
    with pytest.raises(ValueError):
        Partition([2.5])


@pytest.mark.parametrize(
    "text, parts",
    (
        ("7,2,1", (7, 2, 1)),
        ("1, 2, 3", (3, 2, 1)),
        ("2^5,4^4", (4, 4, 4, 4, 2, 2, 2, 2, 2)),
        ("(2^2,1^3)", (2, 2, 1, 1, 1)),
        ("", ()),
        ("∅", ()),
        ("  ∅  ", ()),
    ),
)
def test_parse(text, parts):
    assert Partition.parse(text).parts == parts


@pytest.mark.parametrize("bad", ("x", "3,0,1", "2^", "^3", "1,,2", "2^-1",
                                 # heavier than MAX_TEXT_WEIGHT
                                 "1^3000000", "1^99999999999", "2,1^99999", "50000,50001"))
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        Partition.parse(bad)


def test_parse_accepts_text_at_the_limit():
    # anything heavier is rejected from the running weight, before the
    # shorthand is expanded
    assert len(Partition.parse("1^%d" % MAX_TEXT_WEIGHT).parts) == MAX_TEXT_WEIGHT
    assert Partition.parse("%d" % MAX_TEXT_WEIGHT).parts == (MAX_TEXT_WEIGHT,)


def test_text_round_trip():
    p = Partition([7, 2, 1])
    assert str(p) == "7,2,1"
    assert repr(p) == "Partition([7, 2, 1])"
    assert str(Partition([])) == EMPTY_TEXT
    # the text of a parts tuple, which the library passes around
    assert partition.plain_form((7, 2, 1)) == "7,2,1"
    assert partition.plain_form(()) == EMPTY_TEXT
    assert partition.exponent_form(p.parts) == "(7,2,1)"
    assert partition.exponent_form((2, 2, 1, 1, 1)) == "(2^2,1^3)"
    assert partition.exponent_form(()) == EMPTY_TEXT


@given(part_lists)
def test_parse_inverts_str(parts):
    p = Partition(parts)
    assert Partition.parse(str(p)) == p
    assert Partition.parse(partition.exponent_form(p.parts)) == p


def test_container_protocol():
    p = Partition([3, 1, 1])
    assert len(p.parts) == 3
    assert list(p.parts) == [3, 1, 1]
    assert p == Partition([1, 3, 1])
    assert p != Partition([3, 2])
    assert p != (3, 1, 1)
    assert hash(p) == hash(Partition([1, 1, 3]))
    # parts tuples order as the text listings sort them
    assert (2, 1) < (3,)
    assert sorted([(3,), (2, 1)]) == [(2, 1), (3,)]


# Statistics on a worked example: 7,4,4,3 has alternating sum
# 7-4+4-3 = 4, two odd parts, conjugate 4,4,4,3,1,1,1.
def test_statistics_worked_example():
    p = (7, 4, 4, 3)
    assert sum(p) == 18
    assert partition.alt_sum(p) == 4
    assert partition.odd_count(p) == 2
    assert oracles.conjugate(p) == (4, 4, 4, 3, 1, 1, 1)
    assert partition.multiplicities(p) == {7: 1, 4: 2, 3: 1}
    assert Partition(p).multiplicities() == {7: 1, 4: 2, 3: 1}
    assert partition.largest_odd_part(p) == 7
    assert partition.largest_odd_multiplicity_part(p) == 7


def test_statistics_edge_cases():
    empty = ()
    assert sum(empty) == 0
    assert partition.alt_sum(empty) == 0
    assert partition.odd_count(empty) == 0
    assert oracles.conjugate(empty) == ()
    assert partition.largest_odd_part(empty) == 0
    assert partition.largest_odd_multiplicity_part(empty) == 0
    evens = (4, 2, 2)
    assert partition.largest_odd_part(evens) == 0
    assert partition.largest_odd_multiplicity_part(evens) == 4
    assert partition.largest_odd_multiplicity_part((4, 4, 2)) == 2
    assert partition.largest_odd_multiplicity_part((4, 4, 2, 2)) == 0


@given(part_lists)
def test_statistics_match_oracle(parts):
    p = Partition(parts)
    assert sum(p.parts) == sum(parts)
    assert partition.alt_sum(p.parts) == oracles.alternating_sum(p.parts)
    assert partition.odd_count(p.parts) == oracles.odd_part_count(p.parts)
    assert p.multiplicities() == dict(oracles.multiplicity_table(parts))


@given(part_lists)
def test_tuple_statistics_match_oracle(parts):
    # the statistics the exchange checks compare run on parts tuples
    desc = tuple(sorted(parts, reverse=True))
    table = oracles.multiplicity_table(parts)
    assert partition.alt_sum(desc) == oracles.alternating_sum(desc)
    assert partition.odd_count(desc) == oracles.odd_part_count(desc)
    assert partition.multiplicities(desc) == dict(table)
    assert list(partition.multiplicities(desc)) == sorted(table, reverse=True)
    assert partition.largest_odd_part(desc) == max((v for v in parts if v % 2), default=0)
    assert partition.largest_odd_multiplicity_part(desc) == max(
        (v for v, k in table.items() if k % 2), default=0)
    by_size = sorted(table.items(), reverse=True)
    # each family's profile, from its per-size rule, against the table
    assert PAIRING_SOURCE.profile(desc) == tuple(v for v, k in by_size for _ in range(k // 2))
    assert PAIRING_TARGET.profile(desc) == tuple(
        v // 2 for v, k in by_size if v % 2 == 0 for _ in range(k))
    assert BINARY_FAMILY.profile(desc) == tuple(
        v // 2 for v, k in by_size if v % 2 == 0 for _ in range(k // 2))


def test_profiles_worked_example():
    # the refined check's profiles: one part of each pair on a source, the
    # even parts halved on a target; the binary family keeps one of each
    # pair of even parts, halved
    assert PAIRING_SOURCE.profile((3, 2, 1)) == ()
    assert PAIRING_SOURCE.profile((3, 1, 1, 1)) == (1,)
    assert PAIRING_SOURCE.profile((4, 4, 4, 4, 4, 1, 1)) == (4, 4, 1)
    assert PAIRING_TARGET.profile((5, 3, 1)) == ()
    assert PAIRING_TARGET.profile((8, 4, 4, 3, 2)) == (4, 2, 2, 1)
    assert BINARY_FAMILY.profile((8, 4, 4, 4, 3, 2, 2)) == (2, 1)
    assert PAIRING_SOURCE.profile(()) == PAIRING_TARGET.profile(()) == ()
    assert BINARY_FAMILY.profile(()) == ()


def test_largest_odd_multiplicity_part_matches_the_table_up_to_20():
    # the refined check's source statistic, a scan of the runs, against the
    # oracle's multiplicity table on every partition of n <= 20
    for n in range(21):
        for parts in oracles.descending_partitions(n):
            table = oracles.multiplicity_table(parts)
            assert partition.largest_odd_multiplicity_part(parts) == max(
                (v for v, k in table.items() if k % 2), default=0), parts


@given(part_lists)
def test_conjugate_involution(parts):
    p = Partition(parts).parts
    q = oracles.conjugate(p)
    assert oracles.conjugate(q) == p
    assert sum(q) == sum(p)
    if parts:
        assert len(q) == max(parts)
        assert q[0] == len(p)


@given(part_lists)
def test_alt_sum_counts_odd_columns(parts):
    # Classical: the alternating sum equals the number of odd parts of the
    # conjugate (columns of odd height).
    p = Partition(parts).parts
    assert partition.alt_sum(p) == oracles.odd_part_count(oracles.conjugate(p))
    assert partition.alt_sum(p) >= 0


def test_multiplicities_ordered_descending():
    m = Partition([2, 5, 2, 9]).multiplicities()
    assert list(m) == [9, 5, 2]
