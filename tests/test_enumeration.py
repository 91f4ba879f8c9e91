import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from eulerparts.enumeration import (
    BINARY_FAMILY,
    PAIRING_SOURCE,
    PAIRING_TARGET,
    UNBOUNDED,
    BoundSequence,
    CongruenceFilter,
    bounded_partitions,
    count_by_statistic,
    count_total,
    parse_bounds,
    parse_filter,
    parse_phi,
)
from eulerparts import enumeration
from eulerparts.partition import alt_sum, multiplicities, odd_count
from eulerparts.series import (FOUR_PARAM, ROW_TOTALS, enumerated_series, half_cells_product,
                               row_totals_product)

import oracles


PARTITION_COUNTS = oracles.pentagonal_counts(60)


def test_unbounded_counts_match_pentagonal_recurrence():
    # up to p(60) = 966467, where the tails of the walk reach remainder 30
    for n in range(61):
        assert count_total(n) == PARTITION_COUNTS[n], n


def test_unbounded_matches_independent_generator():
    for n in range(13):
        ours = set(bounded_partitions(n))
        assert ours == set(oracles.descending_partitions(n))


def test_order_is_descending_lexicographic():
    got = list(bounded_partitions(6))
    assert got == sorted(got, reverse=True)
    assert got[0] == (6,)
    assert got[-1] == (1, 1, 1, 1, 1, 1)
    # repeat runs are identical
    assert got == list(bounded_partitions(6))


def _count_yields(monkeypatch, limit):
    """The parts of every partition the walk yields from now on.  Yielding
    one past ``limit`` fails at once, so an eager walk stops instead of
    listing a family of millions."""
    yielded = []
    walk = enumeration._walk

    def counted(*args):
        for parts in walk(*args):
            yielded.append(tuple(parts))
            if len(yielded) > limit:
                raise AssertionError("yielded more partitions than were taken")
            yield parts

    monkeypatch.setattr(enumeration, "_walk", counted)
    return yielded


def _peak_bytes(take):
    """``take()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return take(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_partition_comes_without_listing_the_family(monkeypatch):
    yielded = _count_yields(monkeypatch, 1)
    first, peak = _peak_bytes(lambda: next(iter(bounded_partitions(200))))
    assert first == (200,)
    assert yielded == [(200,)]
    assert peak < 100_000


def test_a_prefix_of_the_walk_is_the_start_of_the_order(monkeypatch):
    yielded = _count_yields(monkeypatch, 5)
    head, peak = _peak_bytes(lambda: list(itertools.islice(
        bounded_partitions(70, parse_bounds("all:inf")), 5)))
    assert head == [(70,), (69, 1), (68, 2), (68, 1, 1), (67, 3)]
    assert len(yielded) == 5
    assert peak < 100_000


def test_zero_and_negative():
    assert list(bounded_partitions(0)) == [()]
    assert list(bounded_partitions(0, parse_bounds("all:0"))) == [()]
    with pytest.raises(ValueError):
        list(bounded_partitions(-1))


# -- caps vs an independent DP ------------------------------------------

CAP_SPECS = (
    "all:1",
    "all:2",
    "all:3",
    "even:1",
    "odd:inf,even:0",
    "1:0",
    "2:0,5:3",
    "phi:i",
    "phi:2*i+1",
)


@pytest.mark.parametrize("spec", CAP_SPECS)
def test_bounded_counts_match_dp(spec):
    bounds = parse_bounds(spec)

    def cap_of(size):
        b = bounds.bound(size)
        return None if b is UNBOUNDED else b

    for n in range(15):
        assert count_total(n, bounds) == oracles.bounded_count_dp(n, cap_of), (spec, n)


@pytest.mark.parametrize("spec", CAP_SPECS)
def test_enumerated_partitions_obey_caps(spec):
    bounds = parse_bounds(spec)
    for n in range(11):
        for p in bounded_partitions(n, bounds):
            assert oracles.within_caps(p, bounds), (spec, p)


def test_euler_distinct_equals_odd():
    distinct = parse_bounds("all:1")
    odd_only = parse_bounds("odd:inf,even:0")
    for n in range(26):
        assert count_total(n, distinct) == count_total(n, odd_only), n


# -- statistics histograms ----------------------------------------------

def test_count_by_statistic_matches_brute_force():
    bounds = parse_bounds("all:3")
    for n in range(11):
        got = count_by_statistic(n, alt_sum, bounds)
        want = oracles.brute_distribution(
            n, oracles.alternating_sum, oracles.max_multiplicity_at_most(3)
        )
        assert got == want, n
        got = count_by_statistic(n, odd_count, parse_bounds("even:1"))
        want = oracles.brute_distribution(
            n, oracles.odd_part_count, oracles.even_multiplicity_at_most(1)
        )
        assert got == want, n


def test_histogram_keys_ascending():
    hist = count_by_statistic(9, alt_sum)
    assert list(hist) == sorted(hist)


def test_seven_by_alternating_sum_with_cap_three():
    hist = count_by_statistic(7, alt_sum, parse_bounds("all:3"))
    assert hist == {1: 5, 3: 4, 5: 2, 7: 1}


def test_seven_by_odd_count_with_even_cap_one():
    hist = count_by_statistic(7, odd_count, parse_bounds("even:1"))
    assert hist == {1: 5, 3: 4, 5: 2, 7: 1}


# -- BoundSequence behaviour ---------------------------------------------

def test_bound_lookup_and_allows():
    b = parse_bounds("odd:inf,even:2")
    assert b.bound(3) is UNBOUNDED
    assert b.bound(4) == 2
    assert oracles.within_caps((4, 4, 3, 3, 3), b)
    assert not oracles.within_caps((4, 4, 4), b)
    with pytest.raises(ValueError):
        b.bound(0)


def test_bound_rejects_bad_function_values():
    b = BoundSequence(lambda s: -1, "phi:<custom>")
    with pytest.raises(ValueError):
        b.bound(2)


def test_strict_products():
    # all:3 allows at most 3 copies, so 4 copies of size i is the first
    # excluded product: 4i.
    assert parse_bounds("all:3").strict_products(17) == [4, 8, 12, 16]
    assert parse_bounds("even:1").strict_products(13) == [4, 8, 12]
    assert parse_bounds("all:inf").strict_products(50) == []
    mixed = parse_bounds("1:1,3:1,default:inf")
    assert mixed.strict_products(10) == [2, 6]


def test_cap_families_validate_m_once():
    assert PAIRING_SOURCE.bounds(1).spec == "all:3"
    assert PAIRING_TARGET.bounds(2).spec == "even:2"
    assert BINARY_FAMILY.bounds(0).spec == "even:1"
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        PAIRING_SOURCE.bounds(-1)
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match="^m must be a non-negative integer, got %r$" % bad):
            PAIRING_SOURCE.bounds(bad)


@pytest.mark.parametrize("m", (UNBOUNDED, float("inf")))
def test_cap_families_at_m_inf_are_uncapped(m):
    for family, spec in ((PAIRING_SOURCE, "all:inf"), (PAIRING_TARGET, "even:inf"),
                         (BINARY_FAMILY, "even:inf")):
        bounds = family.bounds(m)
        assert bounds.spec == spec
        assert all(bounds.bound(size) == UNBOUNDED for size in range(1, 30))


def test_spec_strings_round_trip():
    for spec in ("all:3", "even:1", "odd:inf,even:0", "2:0,5:3", "phi:2*i+1"):
        b = parse_bounds(spec)
        b2 = parse_bounds(b.spec)
        for size in range(1, 25):
            assert b.bound(size) == b2.bound(size), (spec, size)


# -- the bound DSL --------------------------------------------------------

def test_parse_bounds_strict_suffix():
    # "fewer than 4 copies" is the same cap as "at most 3 copies"
    a = parse_bounds("all:4s")
    b = parse_bounds("all:3")
    assert [a.bound(s) for s in range(1, 10)] == [b.bound(s) for s in range(1, 10)]
    assert parse_bounds("even:1s").bound(2) == 0
    assert parse_bounds("even:1s").bound(3) is UNBOUNDED


def test_parse_bounds_precedence():
    b = parse_bounds("4:9,odd:1,all:5")
    assert b.bound(4) == 9     # explicit size wins
    assert b.bound(3) == 1     # parity next
    assert b.bound(2) == 5     # default last
    assert b.bound(7) == 1


@pytest.mark.parametrize(
    "bad",
    ("", "all", "all:x", "part:3", "all:-1", "0:2", "all:0s", "all:3,all:4", "phi:2-i",
     "all:3,default:4", "odd:1,odd:2", "even:1,even:inf", "7:1,7:2", "7:1,07:2"),
)
def test_parse_bounds_rejects(bad):
    with pytest.raises(ValueError):
        parse_bounds(bad)


@pytest.mark.parametrize(
    "expr, values",
    (
        ("1", [1, 1, 1, 1]),
        ("i", [1, 2, 3, 4]),
        ("2*i+1", [3, 5, 7, 9]),
        ("(i+1)*2", [4, 6, 8, 10]),
        ("i*i+i", [2, 6, 12, 20]),
        pytest.param("+".join(["i"] * 5000), [5000, 10000, 15000, 20000],
                     id="long-sum"),
        pytest.param("(" * 50 + "i" + ")" * 50, [1, 2, 3, 4], id="nested-50"),
    ),
)
def test_parse_phi(expr, values):
    fn = parse_phi(expr)
    assert [fn(i) for i in range(1, 5)] == values


@pytest.mark.parametrize("bad", ("", "i i", "2-i", "i+", "(i", "j",
                                 pytest.param("(" * 400 + "i" + ")" * 400,
                                              id="nested-400")))
def test_parse_phi_rejects(bad):
    with pytest.raises(ValueError):
        parse_phi(bad)


@pytest.mark.parametrize("bad", ("i+*2", "()", "*i"))
def test_parse_phi_names_an_unexpected_token(bad):
    with pytest.raises(ValueError, match="unexpected token"):
        parse_phi(bad)


def test_bound_sequence_repr():
    assert repr(parse_bounds("all:3")) == "BoundSequence('all:3')"


def test_phi_bounds_in_enumeration():
    # part i at most i times: 1 once, 2 twice, ...
    bounds = parse_bounds("phi:i")
    for n in range(12):
        for p in bounded_partitions(n, bounds):
            for size, mult in multiplicities(p).items():
                assert mult <= size


# -- congruence filters ---------------------------------------------------

def test_filter_validation():
    with pytest.raises(ValueError):
        CongruenceFilter(0, 0)
    with pytest.raises(ValueError):
        CongruenceFilter(3, 3)
    with pytest.raises(ValueError):
        CongruenceFilter(2, -1)


def test_parse_filter():
    f = parse_filter("mod:3,res:2,even-length,first-once")
    assert (f.modulus, f.residue, f.even_length, f.first_part_once) == (3, 2, True, True)


@pytest.mark.parametrize(
    "bad",
    ("mod:3,res", "shape:3", "mod:3,mod:2,res:1", "res:1,res:0",
     "even-length,even-length", "mod:2,first-once,first-once"),
)
def test_parse_filter_rejects(bad):
    with pytest.raises(ValueError):
        parse_filter(bad)


def test_filter_restricts_part_sizes():
    f = CongruenceFilter(3, 2)
    for n in range(14):
        got = set(bounded_partitions(n, None, f))
        want = {
            parts
            for parts in oracles.descending_partitions(n)
            if all(v % 3 == 2 for v in parts)
        }
        assert got == want, n


def test_filter_even_length_and_first_once():
    f = CongruenceFilter(2, 1, even_length=True, first_part_once=True)
    for n in range(12):
        got = set(bounded_partitions(n, None, f))
        want = {
            parts
            for parts in oracles.descending_partitions(n)
            if all(v % 2 == 1 for v in parts)
            and len(parts) % 2 == 0
            and Counter(parts)[1] <= 1
        }
        assert got == want, n
        for p in bounded_partitions(n, None, f):
            assert oracles.passes_filter(p, f)


def test_filter_admits_rejects():
    f = CongruenceFilter(2, 1, even_length=True)
    assert oracles.passes_filter((3, 1), f)
    assert not oracles.passes_filter((3,), f)          # odd length
    assert not oracles.passes_filter((2, 2, 1, 1), f)  # even parts


# -- the exact sequence, against accelAsc -----------------------------------

# Each cap spec with the same caps as a plain function of the size (None for
# no cap), and each filter spec with the same test as a predicate on the parts.
SEQUENCE_CAPS = (
    (None, lambda s: None),
    ("all:2", lambda s: 2),
    ("even:1", lambda s: 1 if s % 2 == 0 else None),
    ("1:3,3:0", lambda s: {1: 3, 3: 0}.get(s)),
    ("phi:i", lambda s: s),
)
SEQUENCE_FILTERS = (
    (None, lambda parts: True),
    ("mod:3,res:0", lambda parts: all(v % 3 == 0 for v in parts)),
    ("mod:2,res:1,first-once",
     lambda parts: all(v % 2 == 1 for v in parts) and parts.count(1) <= 1),
    ("mod:3,res:2,even-length,first-once",
     lambda parts: all(v % 3 == 2 for v in parts) and len(parts) % 2 == 0
     and parts.count(2) <= 1),
    ("even-length", lambda parts: len(parts) % 2 == 0),
)


@pytest.mark.parametrize("cap_spec, cap_of", SEQUENCE_CAPS)
@pytest.mark.parametrize("filter_spec, keep", SEQUENCE_FILTERS)
def test_bounded_partitions_sequence_matches_accel_asc(cap_spec, cap_of, filter_spec, keep):
    bounds = parse_bounds(cap_spec) if cap_spec else None
    filt = parse_filter(filter_spec) if filter_spec else None
    for n in range(27):
        want = sorted((parts for parts in oracles.descending_partitions(n)
                       if keep(parts) and all(cap_of(s) is None or c <= cap_of(s)
                                              for s, c in Counter(parts).items())),
                      reverse=True)
        got = list(bounded_partitions(n, bounds, filt))
        assert got == want, (cap_spec, filter_spec, n)


@pytest.mark.parametrize("cap_spec, cap_of", SEQUENCE_CAPS)
@pytest.mark.parametrize("filter_spec, keep", SEQUENCE_FILTERS)
def test_count_total_matches_accel_asc(cap_spec, cap_of, filter_spec, keep):
    # count_total counts the walk's (head, tail) pairs without joining them
    bounds = parse_bounds(cap_spec) if cap_spec else None
    filt = parse_filter(filter_spec) if filter_spec else None
    for n in range(27):
        want = sum(1 for parts in oracles.descending_partitions(n)
                   if keep(parts) and all(cap_of(s) is None or c <= cap_of(s)
                                          for s, c in Counter(parts).items()))
        assert count_total(n, bounds, filt) == want, (cap_spec, filter_spec, n)


def test_invalid_cap_names_the_same_size_in_both_paths():
    # caps are read in ascending size by the enumeration and the DP alike
    bad = BoundSequence(lambda s: -1 if s >= 3 else 2, "phi:<custom>")
    message = "^bound for part 3 must be a non-negative integer, got -1$"
    with pytest.raises(ValueError, match=message):
        list(bounded_partitions(8, bad))
    with pytest.raises(ValueError, match=message):
        enumerated_series(8, FOUR_PARAM, bad)


# -- a float infinity is no cap ---------------------------------------------

# "2:1" written as a cap function whose other caps are float("inf"), a float
# equal to UNBOUNDED but not the same object
INF_CAPS = BoundSequence(lambda s: 1 if s == 2 else float("inf"), "custom")


@pytest.mark.parametrize("read", (
    lambda bounds: [list(bounded_partitions(n, bounds)) for n in range(13)],
    lambda bounds: [count_total(n, bounds) for n in range(13)],
    lambda bounds: enumerated_series(12, ROW_TOTALS, bounds),
    lambda bounds: bounds.strict_products(30),
    lambda bounds: row_totals_product(bounds, 12),
    lambda bounds: half_cells_product(bounds, 12),
), ids=("bounded_partitions", "count_total", "enumerated_series", "strict_products",
        "row_totals_product", "half_cells_product"))
def test_a_float_infinity_is_no_cap(read):
    assert read(INF_CAPS) == read(parse_bounds("2:1"))


# -- the per-size rules of the exchange families ----------------------------

FAMILIES = (PAIRING_SOURCE, PAIRING_TARGET, BINARY_FAMILY)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES),
       st.integers(min_value=0, max_value=18), st.integers(min_value=0, max_value=6))
def test_level_is_the_least_m_whose_caps_admit_the_partition(family, n, m):
    # the rule's level against the family's DSL caps, on accelAsc's
    # partitions: the caps at m admit a partition exactly when its level is
    # at most m, so the caps at its level admit it and those one below do not
    bounds = family.bounds(m)
    caps = [family.bounds(k) for k in range(n + 1)]  # a level is at most n
    for alpha in oracles.descending_partitions(n):
        level = family.level(alpha)
        assert (level <= m) == oracles.within_caps(alpha, bounds), alpha
        assert oracles.within_caps(alpha, caps[level]), alpha
        assert level == 0 or not oracles.within_caps(alpha, caps[level - 1]), alpha


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=16),
       st.sampled_from(("0", "1", "i", "2*i+1", "i*i")))
def test_the_caps_at_phi_admit_exactly_the_profiles_within_phi(family, n, spec):
    # the rule's caps at phi against its profile, on accelAsc's partitions:
    # the caps admit a partition exactly when its profile holds each i at
    # most phi(i) times; and at a constant phi = m the caps are those at m,
    # on every size up to 30
    phi = parse_phi(spec)
    bounds = family.bounds_phi(phi, spec)
    for alpha in oracles.descending_partitions(n):
        held = Counter(family.profile(alpha))
        assert oracles.within_caps(alpha, bounds) == all(
            k <= phi(i) for i, k in held.items()), alpha
    for m in (0, 1, 2, 3, 4, 5, UNBOUNDED):
        at_m, at_phi = family.bounds(m), family.bounds_phi(lambda i: m, str(m))
        assert [at_m.bound(s) for s in range(1, 31)] == [at_phi.bound(s) for s in range(1, 31)]


# -- randomized agreement -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=13),
    st.dictionaries(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=4),
        max_size=4,
    ),
)
def test_random_cap_tables_match_dp(n, items):
    bounds = BoundSequence(lambda size: items.get(size, UNBOUNDED), "phi:<custom>")
    assert count_total(n, bounds) == oracles.bounded_count_dp(n, items.get)
