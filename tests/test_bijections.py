import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from eulerparts import bijections
from eulerparts.bijections import (
    BijectionTrace,
    DomainError,
    binary_contract,
    binary_expand,
    binary_inverse,
    binary_inverse_trace,
    binary_map,
    merge_distinct_even,
    merge_pairs,
    pairing_inverse,
    pairing_inverse_trace,
    pairing_map,
    split_distinct_even,
    split_pairs,
    sylvester_distinct_to_odd,
    sylvester_odd_to_distinct,
)
from eulerparts.enumeration import (PAIRING_SOURCE, PAIRING_TARGET, bounded_partitions,
                                   parse_bounds)
from eulerparts.partition import (alt_sum, largest_odd_multiplicity_part, largest_odd_part,
                                  multiplicities, odd_count)

import oracles


def desc(parts):
    """``parts`` as a parts tuple: sorted non-increasing."""
    return tuple(sorted(parts, reverse=True))

part_lists = st.lists(st.integers(min_value=1, max_value=30), max_size=14)

# size -> half multiplicity; doubled below so every multiplicity is even
even_mult_tables = st.dictionaries(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=5),
    max_size=6,
)


def paired(table):
    return desc([s for s, h in table.items() for _ in range(2 * h)])


# -- the fishhook bijection ------------------------------------------------

# Worked out on center-justified diagrams; e.g. 5,5,3,1 dissects into hooks
# of sizes 6, 4, 3, 1.
FISHHOOK_PAIRS = (
    ((), ()),
    ((1,), (1,)),
    ((1, 1), (2,)),
    ((7,), (4, 3)),
    ((3, 3, 1, 1, 1, 1), (7, 2, 1)),
    ((5, 5, 3, 1), (6, 4, 3, 1)),
    ((9, 5, 5, 3, 1, 1, 1), (11, 7, 4, 2, 1)),
)


@pytest.mark.parametrize("odd, distinct", FISHHOOK_PAIRS)
def test_fishhook_known_pairs(odd, distinct):
    assert sylvester_odd_to_distinct(odd) == distinct
    assert sylvester_distinct_to_odd(distinct) == odd


def test_fishhook_is_a_bijection_on_small_weights():
    for n in range(26):
        odd = list(bounded_partitions(n, parse_bounds("even:0")))
        distinct = set(bounded_partitions(n, parse_bounds("all:1")))
        images = set()
        for tau in odd:
            lam = sylvester_odd_to_distinct(tau)
            assert sum(lam) == n
            assert sylvester_distinct_to_odd(lam) == tau
            images.add(lam)
        assert images == distinct, n


def test_fishhook_hook_lengths_and_alternating_sum():
    # For distinct lam with odd image tau: the first part of lam is the size
    # of the first hook, len(tau) + (tau_1 - 1)/2, and the alternating sum
    # of lam counts the odd parts of tau.
    for n in range(1, 21):
        for lam in bounded_partitions(n, parse_bounds("all:1")):
            tau = sylvester_distinct_to_odd(lam)
            assert lam[0] == len(tau) + (tau[0] - 1) // 2
            assert alt_sum(lam) == odd_count(tau)


def test_fishhook_matches_the_cell_oracle():
    # Both directions against hooks read off an explicit cell set; the
    # partitions come from accelAsc, not from the library's walk.
    for n in range(31):
        everything = oracles.descending_partitions(n)
        odd = [parts for parts in everything if all(p % 2 == 1 for p in parts)]
        distinct = {parts for parts in everything if len(set(parts)) == len(parts)}
        preimage = {}
        for tau in odd:
            lam = oracles.fishhook_sizes(tau)
            assert sylvester_odd_to_distinct(tau) == lam, tau
            preimage[lam] = tau
        assert set(preimage) == distinct, n
        for lam, tau in preimage.items():
            assert sylvester_distinct_to_odd(lam) == tau, lam


def test_fishhook_domain_errors():
    with pytest.raises(DomainError, match="even"):
        sylvester_odd_to_distinct((2, 1))
    with pytest.raises(DomainError, match="distinct"):
        sylvester_distinct_to_odd((3, 3))


# -- multiplicity halves ---------------------------------------------------

def test_split_distinct_even_rule():
    lam, mu = split_distinct_even((7, 7, 7, 4, 4, 2, 2, 2, 1))
    assert lam == (7, 2, 1)
    assert mu == (7, 7, 4, 4, 2, 2)
    assert split_distinct_even(()) == ((), ())


@given(part_lists)
def test_split_then_merge_round_trip(parts):
    alpha = desc(parts)
    lam, mu = split_distinct_even(alpha)
    assert len(set(lam)) == len(lam)
    assert all(m % 2 == 0 for m in multiplicities(mu).values())
    assert merge_distinct_even(lam, mu) == alpha


def test_merge_distinct_even_rejects_bad_halves():
    with pytest.raises(DomainError, match="repeats"):
        merge_distinct_even((3, 3), ())
    with pytest.raises(DomainError, match="odd multiplicity"):
        merge_distinct_even((), (2, 2, 2))


def test_merge_distinct_even_names_a_repeat_that_is_not_adjacent():
    with pytest.raises(DomainError, match="part 3 repeats in the distinct half"):
        merge_distinct_even((3, 1, 3), ())


@pytest.mark.parametrize("merge, half, where", (
    (lambda mu: merge_distinct_even((1,), mu), (1, 2, 2, 1), " in the even half"),
    (merge_pairs, (1, 2, 2, 1), ""),
    (binary_expand, (1, 2, 2, 1), ""),
))
def test_an_out_of_order_half_with_even_multiplicities_is_a_domain_error(merge, half, where):
    # every multiplicity is even, so no part has an odd one to name; the
    # error names the first part that follows a smaller one
    p, q = next((p, q) for p, q in zip(half, half[1:]) if q > p)
    with pytest.raises(DomainError, match="^part %d follows the smaller part %d%s$" % (q, p, where)):
        merge(half)


def test_merge_and_split_pairs():
    assert merge_pairs((7, 7, 4, 4, 4, 4, 2, 2, 2, 2)) == (14, 8, 8, 4, 4)
    assert split_pairs((14, 8, 8, 4, 4)) == (7, 7, 4, 4, 4, 4, 2, 2, 2, 2)
    with pytest.raises(DomainError, match="odd multiplicity"):
        merge_pairs((3,))
    with pytest.raises(DomainError, match="odd"):
        split_pairs((3, 2))


@given(even_mult_tables)
def test_merge_pairs_round_trip(table):
    mu = paired(table)
    assert split_pairs(merge_pairs(mu)) == mu


def test_binary_expand_examples():
    # odd part 3 six times: 6 = 2 + 4, so parts 6 and 12
    assert binary_expand((3,) * 6) == (12, 6)
    assert binary_expand((5,) * 6) == (20, 10)
    # even parts pass through untouched
    assert binary_expand((6, 6, 3, 3, 1, 1)) == (6, 6, 6, 2)
    assert binary_contract((6, 6, 6, 2)) == (6, 6, 3, 3, 1, 1)
    with pytest.raises(DomainError, match="odd multiplicity"):
        binary_expand((3, 3, 3))
    with pytest.raises(DomainError, match="odd"):
        binary_contract((4, 3))


@given(even_mult_tables)
def test_binary_expand_round_trip(table):
    mu = paired(table)
    nu = binary_expand(mu)
    assert all(v % 2 == 0 for v in nu)
    assert sum(nu) == sum(mu)
    assert binary_contract(nu) == mu


@given(st.lists(st.integers(min_value=1, max_value=15), max_size=10))
def test_binary_contract_round_trip(halves):
    nu = desc([2 * v for v in halves])
    mu = binary_contract(nu)
    assert all(m % 2 == 0 for m in multiplicities(mu).values())
    assert binary_expand(mu) == nu


# -- the pairing map -------------------------------------------------------

def test_pairing_map_worked_example():
    alpha = (7, 7, 7, 4, 4, 4, 4, 2, 2, 2, 2, 2, 1)
    beta, trace = pairing_map(alpha, m=2)
    assert trace.lambda_part == (7, 2, 1)
    assert trace.mu_part == (7, 7, 4, 4, 4, 4, 2, 2, 2, 2)
    assert trace.tau_part == (3, 3, 1, 1, 1, 1)
    assert trace.nu_part == (14, 8, 8, 4, 4)
    assert beta == (14, 8, 8, 4, 4, 3, 3, 1, 1, 1, 1)
    assert trace.source == alpha and trace.image == beta

    back, inv_trace = pairing_inverse_trace(beta, m=2)
    assert back == alpha
    assert inv_trace.tau_part == trace.tau_part
    assert inv_trace.nu_part == trace.nu_part


def test_pairing_map_empty():
    beta, trace = pairing_map((), m=0)
    assert beta == ()
    assert trace == BijectionTrace((), (), (), (), (), ())


@pytest.mark.parametrize("m", (0, 1, 2))
def test_pairing_map_is_a_statistic_preserving_bijection(m):
    for n in range(17):
        domain = list(bounded_partitions(n, parse_bounds("all:%d" % (2 * m + 1))))
        target = set(bounded_partitions(n, parse_bounds("even:%d" % m)))
        images = set()
        for alpha in domain:
            beta, _ = pairing_map(alpha, m)
            assert sum(beta) == n
            assert alt_sum(alpha) == odd_count(beta)
            assert beta in target
            assert pairing_inverse(beta, m) == alpha
            images.add(beta)
        assert images == target, (n, m)


def test_pairing_map_caps():
    with pytest.raises(DomainError, match="at most 2m\\+1"):
        pairing_map((1, 1, 1, 1), m=1)
    with pytest.raises(DomainError, match="at most m"):
        pairing_inverse((2, 2), m=1)
    # unbounded skips the cap check entirely
    assert pairing_map((1, 1, 1, 1))[0] == (2, 2)
    # and so does any float infinity, not only the UNBOUNDED object
    for alpha in ((1, 1, 1, 1), (3, 3, 3, 3), (5, 4, 4, 4, 2, 2, 1), ()):
        assert pairing_map(alpha, m=float("inf")) == pairing_map(alpha)


@pytest.mark.parametrize("bad", (-1, 1.5, True))
def test_pairing_map_rejects_bad_m(bad):
    with pytest.raises(ValueError):
        pairing_map((1,), bad)


@pytest.mark.parametrize("run", (pairing_map, pairing_inverse, binary_map, binary_inverse))
@pytest.mark.parametrize("bad", ([2, 1], (1, 2), (2, 0), (2, 1.0), (True,)))
def test_maps_reject_what_is_not_a_parts_tuple(run, bad):
    with pytest.raises(ValueError, match="^a partition is a non-increasing tuple"):
        run(bad, 1)


def test_bad_m_is_rejected_before_the_map_runs(monkeypatch):
    # "%d" % 1.5 is "1" and "%d" % True is "1": an m checked only after its
    # caps are written would let these maps run under caps nobody asked for
    def ran(p):
        raise AssertionError("the map ran")

    monkeypatch.setattr(bijections, "sylvester_distinct_to_odd", ran)
    monkeypatch.setattr(bijections, "sylvester_odd_to_distinct", ran)
    with pytest.raises(ValueError, match="^m must be a non-negative integer, got 1.5$"):
        pairing_map((2, 1), m=1.5)
    with pytest.raises(ValueError, match="^m must be a non-negative integer, got True$"):
        binary_inverse((3,), m=True)


@given(part_lists)
def test_pairing_round_trip_unbounded(parts):
    alpha = desc(parts)
    beta, _ = pairing_map(alpha)
    assert sum(beta) == sum(alpha)
    assert alt_sum(alpha) == odd_count(beta)
    assert pairing_inverse(beta) == alpha


@given(part_lists)
def test_pairing_inverse_round_trip_unbounded(parts):
    beta = desc(parts)
    alpha = pairing_inverse(beta)
    assert pairing_map(alpha)[0] == beta


# -- the binary-decomposition map -----------------------------------------

def test_binary_map_small_example():
    beta, trace = binary_map((3, 3, 2, 1, 1), m=0)
    assert trace.lambda_part == (2,)
    assert trace.mu_part == (3, 3, 1, 1)
    assert trace.tau_part == (1, 1)
    assert trace.nu_part == (6, 2)
    assert beta == (6, 2, 1, 1)
    assert binary_inverse(beta, m=0) == (3, 3, 2, 1, 1)


@pytest.mark.parametrize("m", (0, 1, 2))
def test_binary_map_preserves_the_even_cap_family(m):
    spec = parse_bounds("even:%d" % (2 * m + 1))
    for n in range(17):
        family = list(bounded_partitions(n, spec))
        family_set = set(family)
        images = set()
        for alpha in family:
            beta, _ = binary_map(alpha, m)
            assert sum(beta) == n
            assert alt_sum(alpha) == odd_count(beta)
            assert beta in family_set
            assert binary_inverse(beta, m) == alpha
            images.add(beta)
        assert images == family_set, (n, m)


def test_binary_map_caps():
    with pytest.raises(DomainError, match="even parts"):
        binary_map((2, 2), m=0)
    with pytest.raises(DomainError, match="even parts"):
        binary_inverse((2, 2), m=0)
    # odd parts are never capped
    assert binary_map((1,) * 9, m=0)[0] == (8, 1)


@given(part_lists)
def test_binary_round_trip_unbounded(parts):
    alpha = desc(parts)
    beta, _ = binary_map(alpha)
    assert alt_sum(alpha) == odd_count(beta)
    assert binary_inverse(beta) == alpha
    assert binary_map(binary_inverse(alpha))[0] == alpha


# -- the maps compose the public stages ----------------------------------

@given(part_lists)
def test_traces_are_the_public_stages_composed(parts):
    # each trace, both ways, is the public tuple stages composed by hand, so
    # the maps and the exchange checks share one implementation per stage;
    # the parts are read once as a source and once as a target
    p = desc(parts)
    lam, mu = split_distinct_even(p)
    tau = sylvester_distinct_to_odd(lam)
    odd = tuple(v for v in p if v % 2 == 1)
    even = tuple(v for v in p if v % 2 == 0)
    back_lam = sylvester_odd_to_distinct(odd)
    for map_trace, inverse_trace, encode, decode in (
            (pairing_map, pairing_inverse_trace, merge_pairs, split_pairs),
            (binary_map, binary_inverse_trace, binary_expand, binary_contract)):
        nu = encode(mu)
        image = tuple(sorted(tau + nu, reverse=True))
        assert map_trace(p)[1] == (p, lam, mu, tau, nu, image)
        back_mu = decode(even)
        source = merge_distinct_even(back_lam, back_mu)
        assert inverse_trace(p)[1] == (p, back_lam, back_mu, odd, even, source)


# -- the refined statistic ------------------------------------------------

def test_refined_statistics_worked_example():
    # Largest part with odd multiplicity on the source side; on the image
    # side the odd-part count plus (largest odd part - 1)/2 recovers it.
    alpha = (7, 7, 7, 4, 4, 4, 4, 2, 2, 2, 2, 2, 1)
    assert largest_odd_multiplicity_part(alpha) == 7
    assert alt_sum(alpha) == 6
    beta, _ = pairing_map(alpha, m=2)
    assert odd_count(beta) == 6
    assert largest_odd_part(beta) == 3
    assert odd_count(beta) + (largest_odd_part(beta) - 1) // 2 == 7


@settings(max_examples=60)
@given(part_lists)
def test_refined_statistics_hold_generally(parts):
    alpha = desc(parts)
    q = largest_odd_multiplicity_part(alpha)
    if q == 0:
        return  # outside the refinement
    beta, _ = pairing_map(alpha)
    p = largest_odd_part(beta)
    assert p % 2 == 1
    assert odd_count(beta) + (p - 1) // 2 == q


def test_pairing_map_carries_the_profile():
    # the pairs of each part i become the copies of 2i, and the fishhook
    # adds only odd parts, so the refined check's profile is carried, on
    # every partition of n <= 14
    source, target = PAIRING_SOURCE, PAIRING_TARGET
    for n in range(15):
        for alpha in oracles.descending_partitions(n):
            assert target.profile(pairing_map(alpha)[0]) == source.profile(alpha), alpha


# -- invariant checks -------------------------------------------------------

def test_broken_stage_raises(monkeypatch):
    # the maps compose the stages, which run on parts tuples
    monkeypatch.setattr(bijections, "merge_pairs", lambda mu: ())
    with pytest.raises(AssertionError, match="weight preserved"):
        pairing_map((2, 2))


@pytest.mark.parametrize("name, public_map, m", (
    ("merge_pairs", pairing_map, 1),
    ("binary_expand", binary_map, 0),
))
def test_public_maps_check_l_a_equals_l_o(monkeypatch, name, public_map, m):
    # the even half's stage as the identity keeps the weight but not the
    # parity: 1,1 maps to itself, l_a 0 against l_o 2
    monkeypatch.setattr(bijections, name, lambda mu: mu)
    with pytest.raises(AssertionError) as raised:
        public_map((1, 1), m=m)
    assert str(raised.value) == "invariant broken: l_a of the input = l_o of the image"


def test_broken_stage_raises_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "%s::test_broken_stage_raises" % __file__],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
