import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eulerparts import series
from eulerparts.enumeration import UNBOUNDED, CongruenceFilter, parse_bounds, parse_filter
from eulerparts.series import (
    ABCD,
    ALT_BY_WEIGHT,
    AB,
    FOUR_PARAM,
    HALF_CELLS,
    ODD_BY_WEIGHT,
    ROW_TOTALS,
    WEIGHTS,
    WeightVariant,
    XQ,
    Series,
    SeriesComparison,
    binary_gf,
    boulet_product,
    enumerated_series,
    half_cells_product,
    pairing_gf,
    partition_gf,
    product_series,
    restricted_boulet_product,
    row_totals_product,
    series_equal,
)

import oracles


def naive_product(s1, s2):
    """Full convolution, then truncate — the reference for __mul__."""
    out = {}
    for e1, c1 in s1.terms.items():
        for e2, c2 in s2.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return Series(s1.names, s1.trunc, out, s1.degree_index)


@st.composite
def series_tuples(draw, count):
    """Draw ``count`` series sharing one truncation metric; the q-only metric
    additionally allows negative x exponents."""
    by_q = draw(st.booleans())
    exps = st.tuples(st.integers(-4 if by_q else 0, 7), st.integers(0, 7))
    terms = st.dictionaries(exps, st.integers(-5, 5), max_size=8)
    index = 1 if by_q else None
    return tuple(Series(XQ, 6, draw(terms), index) for _ in range(count))


# -- layering ----------------------------------------------------------------

def test_series_imports_nothing_from_the_maps():
    # the generating functions read their cap families from enumeration, so
    # they stay independent of the bijections they are checked against
    imported = []
    for node in ast.walk(ast.parse(Path(series.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "bijections" in name]


# -- core arithmetic -------------------------------------------------------

def test_construction_truncates_and_drops_zeros():
    s = Series(XQ, 3, {(1, 1): 2, (2, 2): 5, (0, 0): 0})
    assert s.terms == {(1, 1): 2}
    assert s.coefficient((2, 2)) == 0
    assert s.coefficient((1, 1)) == 2


def test_construction_validates():
    with pytest.raises(ValueError):
        Series(XQ, -1)
    with pytest.raises(ValueError):
        Series(XQ, 4, {(1,): 1})
    with pytest.raises(ValueError):
        Series(XQ, 4, {(-1, 0): 1})  # negative total degree
    with pytest.raises(ValueError):
        Series(XQ, 4, None, degree_index=2)
    # negative x is fine when only q is the truncation metric
    s = Series(XQ, 4, {(-3, 2): 1}, degree_index=1)
    assert s.coefficient((-3, 2)) == 1


def test_zero_one_and_scalars():
    one = Series.one(XQ, 5)
    zero = Series.zero(XQ, 5)
    assert one.coefficient((0, 0)) == 1
    assert zero.terms == {}
    s = Series(XQ, 5, {(1, 2): 3})
    assert oracles.series_add(s, 0) == s
    assert oracles.series_add(s, 1).coefficient((0, 0)) == 1
    assert s * 1 == s
    assert (s * 0) == zero
    assert 2 * s == oracles.series_add(s, s)


def test_incompatible_series_raise():
    with pytest.raises(ValueError):
        oracles.series_add(Series(XQ, 5), Series(XQ, 6))
    with pytest.raises(ValueError):
        Series(XQ, 5) * Series(AB, 5)
    with pytest.raises(ValueError):
        oracles.series_add(Series(XQ, 5), Series(XQ, 5, None, degree_index=1))


def test_items_sorted_by_total_degree_then_lex():
    s = Series(XQ, 9, {(3, 0): 1, (0, 2): 2, (1, 1): 3, (0, 0): 4})
    assert [e for e, _ in s.items()] == [(0, 0), (0, 2), (1, 1), (3, 0)]


def test_str_smoke():
    s = Series(XQ, 5, {(0, 0): 1, (1, 2): -2})
    text = oracles.series_str(s)
    assert "1" in text and "x^1*q^2" in text
    assert oracles.series_str(Series.zero(XQ, 5)) == "0"


@given(series_tuples(2))
def test_multiplication_matches_naive_convolution(pair):
    s1, s2 = pair
    assert s1 * s2 == naive_product(s1, s2)


@given(series_tuples(3))
def test_ring_axioms(triple):
    s1, s2, s3 = triple
    add, sub, neg = oracles.series_add, oracles.series_sub, oracles.series_neg
    assert add(s1, s2) == add(s2, s1)
    assert add(add(s1, s2), s3) == add(s1, add(s2, s3))
    assert s1 * s2 == s2 * s1
    assert (s1 * s2) * s3 == s1 * (s2 * s3)
    assert s1 * add(s2, s3) == add(s1 * s2, s1 * s3)
    assert sub(s1, s1) == Series.zero(s1.names, s1.trunc, s1.degree_index)
    assert neg(neg(s1)) == s1
    one = Series.one(s1.names, s1.trunc, s1.degree_index)
    assert s1 * one == s1


# -- comparison ------------------------------------------------------------

def test_series_equal_reports_first_difference():
    s1 = Series(XQ, 9, {(0, 0): 1, (1, 1): 2, (0, 3): 7})
    s2 = Series(XQ, 9, {(0, 0): 1, (1, 1): 5, (0, 3): 9})
    cmp = series_equal(s1, s2)
    assert not cmp
    assert cmp == SeriesComparison(False, (1, 1), 2, 5)
    assert bool(series_equal(s1, s1))
    assert series_equal(s1, s1).exponents is None


def test_series_equal_ignores_stored_zeros():
    # builders assign ``.terms`` directly, so a zero coefficient can be stored
    plain = Series(XQ, 5, {(1, 1): 2})
    stored_zero = Series(XQ, 5)
    stored_zero.terms = {(1, 1): 2, (2, 2): 0}
    assert series_equal(stored_zero, plain) == SeriesComparison(True)
    assert series_equal(plain, stored_zero) == SeriesComparison(True)


def test_series_repr():
    s = Series(XQ, 5, {(0, 0): 1, (1, 1): 2}, degree_index=1)
    assert repr(s) == "Series(2 terms, vars=('x', 'q'), trunc=5)"


@given(st.data())
def test_series_equal_matches_a_sorted_scan(data):
    (s1,) = data.draw(series_tuples(1))
    exps = st.tuples(st.integers(-4 if s1.degree_index else 0, 7), st.integers(0, 7))
    if s1.terms:
        exps = st.one_of(exps, st.sampled_from(sorted(s1.terms)))
    # plant changed, added and removed (coefficient 0) terms
    planted = data.draw(st.dictionaries(exps, st.integers(-5, 5), max_size=3))
    s2 = Series(s1.names, s1.trunc, {**s1.terms, **planted}, s1.degree_index)
    for left, right in ((s1, s2), (s2, s1)):
        keys = sorted(set(left.terms) | set(right.terms), key=lambda e: (sum(e), e))
        first = [SeriesComparison(False, e, left.coefficient(e), right.coefficient(e))
                 for e in keys if left.coefficient(e) != right.coefficient(e)]
        assert series_equal(left, right) == (first[0] if first else SeriesComparison(True))


# -- weights ----------------------------------------------------------------

def weight_of(p, weight):
    """The single monomial ``weight`` gives the partition ``p``."""
    four = Series(ABCD, sum(p), {oracles.four_param_weight(p): 1})
    (exps,) = oracles.substitute(four, weight.images, weight.names, weight.degree_index).terms
    return exps


def test_weight_functions_worked_example():
    p = (5, 4, 4, 3, 2)
    assert oracles.four_param_weight(p) == (6, 5, 4, 3)
    assert weight_of(p, FOUR_PARAM) == (6, 5, 4, 3)
    assert weight_of(p, ROW_TOTALS) == (11, 7)
    assert weight_of(p, HALF_CELLS) == (10, 8)
    assert weight_of(p, ALT_BY_WEIGHT) == (4, 18)
    assert weight_of(p, ODD_BY_WEIGHT) == (2, 18)
    empty = ()
    for w in WEIGHTS.values():
        assert weight_of(empty, w) == (0,) * len(w.names)


@given(st.lists(st.integers(min_value=1, max_value=25), max_size=10))
def test_weight_exponents_sum_to_weight(parts):
    p = tuple(sorted(parts, reverse=True))
    n = sum(p)
    assert sum(oracles.four_param_weight(p)) == n
    assert sum(weight_of(p, ROW_TOTALS)) == n
    assert sum(weight_of(p, HALF_CELLS)) == n
    assert weight_of(p, ALT_BY_WEIGHT)[1] == n
    assert weight_of(p, ODD_BY_WEIGHT)[1] == n


# -- enumerated series -------------------------------------------------------

def test_enumerated_series_counts_partitions():
    counts = oracles.pentagonal_counts(100)
    s = enumerated_series(100, ALT_BY_WEIGHT)
    at_x_one = [0] * 101
    for (x, q), c in s.terms.items():
        at_x_one[q] += c
    assert at_x_one == counts
    assert s.coefficient((0, 0)) == 1


def test_enumerated_series_matches_independent_generator():
    bounds = parse_bounds("all:3")
    want = {}
    for n in range(11):
        for parts in oracles.descending_partitions(n):
            if not oracles.within_caps(parts, bounds):
                continue
            e = oracles.four_param_weight(parts)
            want[e] = want.get(e, 0) + 1
    got = enumerated_series(10, FOUR_PARAM, bounds)
    assert got.terms == want


# Caps and filters as plain functions of the parts, so that the tallies
# share no code with BoundSequence or CongruenceFilter.
TALLY_CAPS = {
    None: lambda size: None,
    "all:3": lambda size: 3,
    "even:1": lambda size: 1 if size % 2 == 0 else None,
    # the distinct and the odd-part families, the two sides of bessenrodt
    "all:1": lambda size: 1,
    "even:0": lambda size: 0 if size % 2 == 0 else None,
    "1:1,3:5": {1: 1, 3: 5}.get,
    "2:0,5:3": {2: 0, 5: 3}.get,
    "phi:i": lambda size: size,
}
# (modulus, residue, even length, residue part at most once)
TALLY_FILTERS = {
    None: (1, 0, False, False),
    "mod:2,res:1": (2, 1, False, False),
    "mod:3,res:2,even-length,first-once": (3, 2, True, True),
}


def direct_tallies(N, cap_of, modulus, residue, even_length, once):
    """Every weight's monomial counts over the admissible partitions of
    0..N, tallied straight from the parts of the accelAsc generator."""
    tallies = {name: {} for name in WEIGHTS}
    for n in range(N + 1):
        for parts in oracles.descending_partitions(n):
            mult = oracles.multiplicity_table(parts)
            if (any(cap_of(v) is not None and c > cap_of(v) for v, c in mult.items())
                    or any(v % modulus != residue for v in parts)
                    or even_length and len(parts) % 2
                    or once and mult[residue] > 1):
                continue
            odd_rows, even_rows = parts[0::2], parts[1::2]
            monomials = {
                "abcd": (sum((v + 1) // 2 for v in odd_rows), sum(v // 2 for v in odd_rows),
                         sum((v + 1) // 2 for v in even_rows), sum(v // 2 for v in even_rows)),
                "rows": (sum(odd_rows), sum(even_rows)),
                "halves": (sum((v + 1) // 2 for v in parts), sum(v // 2 for v in parts)),
                "la": (oracles.alternating_sum(parts), n),
                "lo": (oracles.odd_part_count(parts), n),
            }
            for name, exps in monomials.items():
                tallies[name][exps] = tallies[name].get(exps, 0) + 1
    return tallies


@pytest.mark.parametrize("filt", TALLY_FILTERS)
@pytest.mark.parametrize("spec", TALLY_CAPS)
def test_weights_match_direct_tallies(spec, filt):
    N = 14
    tallies = direct_tallies(N, TALLY_CAPS[spec], *TALLY_FILTERS[filt])
    bounds = parse_bounds(spec) if spec else None
    cfilt = parse_filter(filt) if filt else None
    for name, want in tallies.items():
        assert enumerated_series(N, WEIGHTS[name], bounds, cfilt).terms == want, name


def test_substitution_validates_images():
    # the oracle's substitution and the weights' image map alike
    four = enumerated_series(4, FOUR_PARAM)
    for images, message in (({"a": (1, 1)}, "no image"),
                            ({v: (0, 2) for v in ABCD}, "degree 1"),
                            ({v: (1, 1, 0) for v in ABCD}, "arity")):
        with pytest.raises(ValueError, match=message):
            oracles.substitute(four, images, XQ, 1)
        with pytest.raises(ValueError, match=message):
            enumerated_series(4, WeightVariant("bad", XQ, 1, images))


# -- products ----------------------------------------------------------------

def test_partition_gf_matches_recurrence():
    counts = oracles.pentagonal_counts(20)
    s = partition_gf(20)
    for n in range(21):
        assert s.coefficient((0, n)) == counts[n], n


def test_euler_function_expansion():
    # (q; q)_inf = sum (-1)^k q^(k(3k+-1)/2): sparse pentagonal signs
    s = product_series([(-1, (0, j), False) for j in range(1, 16)], XQ, 15, degree_index=1)
    want = {(0, 0): 1, (0, 1): -1, (0, 2): -1, (0, 5): 1, (0, 7): 1,
            (0, 12): -1, (0, 15): -1}
    assert s.terms == want


def test_distinct_parts_product():
    # (-q; q)_inf counts partitions into distinct parts
    s = product_series([(1, (0, j), False) for j in range(1, 15)], XQ, 14, degree_index=1)
    bounds = parse_bounds("all:1")
    for n in range(15):
        assert s.coefficient((0, n)) == oracles.bounded_count_dp(
            n, lambda size: 1), n


@st.composite
def layout_cases(draw):
    """A ``_Layout``'s bounding monomials, its series and terms inside its
    bounds: products of the monomials whose degrees sum to at most trunc.
    Under the total degree the last variable is recovered from the degree;
    under a degree index that variable is fixed and may sit anywhere."""
    width = draw(st.integers(1, 4))
    index = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    series_ = Series.zero(tuple("abcd"[:width]), draw(st.integers(0, 9)), index)
    exps = st.tuples(*[st.integers(-3, 3)] * width).filter(lambda e: series_.degree(e) >= 1)
    monomials = draw(st.lists(exps, min_size=1, max_size=4))
    terms = {}
    for picks in draw(st.lists(st.lists(st.sampled_from(monomials), max_size=9), max_size=12)):
        term, degree = (0,) * width, 0
        for m in picks:
            degree += series_.degree(m)
            if degree > series_.trunc:
                break
            term = tuple(map(sum, zip(term, m)))
        terms[term] = draw(st.integers(-9, 9).filter(bool))
    return monomials, series_, terms


@given(layout_cases())
def test_layout_round_trip(case):
    monomials, series_, terms = case
    layout = series._Layout(monomials, series_)
    buckets = [{} for _ in range(series_.trunc + 1)]
    for exps, c in terms.items():
        key = layout.origin + layout.delta(exps)
        assert key >= 0 and key not in buckets[series_.degree(exps)]
        buckets[series_.degree(exps)][key] = c
    assert layout.unpack(buckets) == terms


def term_by_term(layout, buckets):
    """The layout's terms decoded one key at a time: digit i of a key is
    key // place % base + lo, and the fixed variable is read from the
    bucket index."""
    terms = {}
    for g, bucket in enumerate(buckets):
        for key, c in bucket.items():
            exps = [key // place % base + lo for _, place, base, lo in layout.digits]
            exps.insert(layout.fixed, g - sum(exps) if layout.total else g)
            terms[tuple(exps)] = c
    return terms


# name: (variables, degree_index, monomials), with 0, 1 and 3 packed digits
# under the total degree and under a degree index; mixed signs give digits
# with lo < 0 and keys whose top digit is not 0
UNPACK_CASES = {
    "q, total": (("q",), None, [(1,), (2,)]),
    "q, by q": (("q",), 0, [(1,), (3,)]),
    "ab, total": (AB, None, [(1, 0), (0, 1), (2, -1)]),
    "xq, by q": (XQ, 1, [(1, 1), (-2, 1), (0, 2)]),
    "abcd, total": (ABCD, None, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                 (1, -1, 0, 1)]),
    "abcd, by c": (ABCD, 2, [(1, 0, 1, 0), (-1, 2, 1, -1), (0, 0, 1, 3)]),
}


@pytest.mark.parametrize("case", UNPACK_CASES)
def test_unpack_matches_a_term_by_term_decode(case):
    names, index, monomials = UNPACK_CASES[case]
    trunc = 8
    # every product of the monomials of degree <= trunc, with its count
    want = reference_product([(-1, monomials, True)], names, trunc, index)
    layout = series._Layout(monomials, want)
    assert len(layout.digits) == len(names) - 1
    buckets = [{} for _ in range(trunc + 1)]
    for exps, c in want.terms.items():
        buckets[want.degree(exps)][layout.origin + layout.delta(exps)] = c
    assert layout.unpack(buckets) == term_by_term(layout, buckets) == want.terms
    assert layout.unpack([{} for _ in range(trunc + 1)]) == {}


def test_product_series_validation():
    with pytest.raises(ValueError, match="sign"):
        product_series([(2, (0, 1), False)], XQ, 5, degree_index=1)
    with pytest.raises(ValueError, match="positive degree"):
        product_series([(1, (0, 0), False)], XQ, 5, degree_index=1)
    with pytest.raises(ValueError, match="expected 2 exponents"):
        product_series([(1, (1,), False)], ("a", "b"), 5)
    with pytest.raises(ValueError, match="expected 2 exponents"):
        product_series([(1, (0, 1, 2), False)], XQ, 5, degree_index=1)
    # no factors is just 1
    assert product_series([], XQ, 5, degree_index=1) == Series.one(XQ, 5, 1)
    # a factor above the truncation is skipped, and the ones after it still apply
    got = product_series([(1, (0, 9), False), (1, (0, 2), False)], XQ, 5, degree_index=1)
    assert got.terms == {(0, 0): 1, (0, 2): 1}


def reference_product(families, names, trunc, degree_index=None):
    """Multiply explicit truncated factors with ``Series.__mul__``: a
    denominator becomes its geometric series sum_t (-sign X^e)^t."""
    acc = Series.one(names, trunc, degree_index)
    for sign, exps_list, denominator in families:
        for exps in exps_list:
            d = acc.degree(exps)
            if d > trunc:
                continue
            if denominator:
                terms = {tuple(t * e for e in exps): (-sign) ** t
                         for t in range(trunc // d + 1)}
            else:
                terms = {(0,) * len(names): 1, tuple(exps): sign}
            acc = acc * Series(names, trunc, terms, degree_index)
    return acc


def sweep_product(families, names, trunc, degree_index=None):
    """``product_series`` on the families' factors, one triple each."""
    factors = [(sign, exps, denominator)
               for sign, exps_list, denominator in families for exps in exps_list]
    return product_series(factors, names, trunc, degree_index)


@st.composite
def factor_families(draw):
    """Factor families over (x, q) truncated in q, with x exponents of
    either sign; over (a, b, c, d) truncated by total degree; or with wide
    exponent ranges: mixed signs under the total degree, or x/q ratios up
    to 6 under the q degree."""
    case = draw(st.sampled_from(("by q", "total", "wide")))
    if case == "by q":
        names, trunc, index = XQ, 8, 1
        exps = st.tuples(st.integers(-3, 3), st.integers(1, 5))
    elif case == "total":
        names, trunc, index = ABCD, 7, None
        exps = st.tuples(*[st.integers(0, 2)] * 4).filter(any)
    elif draw(st.booleans()):
        names, trunc, index = ("a", "b", "c"), 10, None
        exps = st.tuples(*[st.integers(-2, 3)] * 3).filter(lambda e: sum(e) >= 1)
    else:
        names, trunc, index = XQ, 10, 1
        exps = st.tuples(st.integers(-6, 6), st.integers(1, 2))
    family = st.tuples(st.sampled_from((1, -1)),
                       st.lists(exps, min_size=1, max_size=3),
                       st.booleans())
    families = draw(st.lists(family, min_size=1, max_size=4))
    return families, names, trunc, index


@given(factor_families())
def test_sweep_matches_truncated_factor_multiplication(case):
    families, names, trunc, index = case
    got = sweep_product(families, names, trunc, index)
    assert got == reference_product(families, names, trunc, index)
    assert 0 not in got.terms.values()


@given(factor_families(), st.data())
def test_product_series_is_independent_of_factor_order(case, data):
    # the factors in any order, and with a numerator and the denominator it
    # cancels inserted anywhere, give the terms of the reference product
    families, names, trunc, index = case
    factors = [(sign, exps, denominator)
               for sign, exps_list, denominator in families for exps in exps_list]
    want = reference_product(families, names, trunc, index)
    shuffled = data.draw(st.permutations(factors))
    assert product_series(shuffled, names, trunc, index) == want
    sign, exps, _ = data.draw(st.sampled_from(factors))
    paired = list(shuffled)
    for denominator in data.draw(st.permutations((False, True))):
        paired.insert(data.draw(st.integers(0, len(paired))), (sign, exps, denominator))
    assert product_series(paired, names, trunc, index) == want


def test_factors_arrive_highest_degree_first_and_cancelled_pairs_never(monkeypatch):
    arrived = []

    def spy(buckets, sign, d, delta, denominator):
        arrived.append((sign, d, denominator))
        apply(buckets, sign, d, delta, denominator)

    apply = series._apply_factor
    monkeypatch.setattr(series, "_apply_factor", spy)
    factors = [(1, (0, 1), False), (-1, (0, 2), False), (1, (1, 3), True),
               (-1, (0, 2), True), (-1, (0, 2), False), (1, (0, 4), True),
               (1, (1, 3), False)]
    got = product_series(factors, XQ, 10, 1)
    # (1 + x q^3) and (1 - q^2) cancel once each; the second (1 - q^2) stays
    assert arrived == [(1, 4, True), (-1, 2, False), (1, 1, False)]
    kept = [(1, [(0, 1)], False), (-1, [(0, 2)], False), (1, [(0, 4)], True)]
    assert got == reference_product(kept, XQ, 10, 1)
    # pairing_gf at m = 0: the caps (1 - q^(2s)) cancel (q^2; q^2)
    arrived.clear()
    pairing_gf(0, 20)
    assert [d for _, d, _ in arrived] == sorted((d for _, d, _ in arrived), reverse=True)
    assert sorted(arrived) == sorted([(1, 2 * j - 1, False) for j in range(1, 11)]
                                     + [(-1, 4 * j - 2, True) for j in range(1, 6)])


@pytest.mark.parametrize("trunc", (0, 1, 2, 7))
def test_sweep_reaches_every_exponent_bound(trunc):
    # Each variable reaches both ends of its range [trunc * min(0, e/d),
    # trunc * max(0, e/d)] over the factors X^e of degree d: the powers of
    # one factor, or of its mirror, reach them.
    abc = ("a", "b", "c")
    total = [(1, [(2, -1, 0)], True), (-1, [(-1, 0, 2)], True), (1, [(3, -1, 0)], False)]
    by_q = [(-1, [(6, 1)], True), (1, [(-6, 1)], True), (-1, [(-6, 2)], False)]
    cases = ((total, abc, None, {(2 * trunc, -trunc, 0), (-trunc, 0, 2 * trunc)}),
             (by_q, XQ, 1, {(6 * trunc, trunc), (-6 * trunc, trunc)}))
    for families, names, index, extremes in cases:
        got = sweep_product(families, names, trunc, index)
        assert got == reference_product(families, names, trunc, index)
        assert all(got.coefficient(e) for e in extremes)
    assert sweep_product(total, abc, 0) == Series.one(abc, 0)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("denominator", (False, True))
def test_sweep_single_factor(sign, denominator):
    # (1 + sign q), and 1 / (1 + sign q) = sum (-sign q)^t
    got = sweep_product([(sign, [(0, 1)], denominator)], XQ, 6, 1)
    if denominator:
        assert got.terms == {(0, t): (-sign) ** t for t in range(7)}
    else:
        assert got.terms == {(0, 0): 1, (0, 1): sign}


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("den_first", (False, True))
def test_sweep_cancels_to_one(sign, den_first):
    num = (sign, [(1, 1), (0, 2)], False)
    den = (sign, [(1, 1), (0, 2)], True)
    families = [den, num] if den_first else [num, den]
    got = sweep_product(families, XQ, 9, 1)
    assert got.terms == {(0, 0): 1}


@pytest.mark.parametrize("sign", (1, -1))
def test_sweep_divides_along_gapped_chains(sign):
    e = (1, 0, 1, 0)
    two_e, three_e = (2, 0, 2, 0), (3, 0, 3, 0)
    # 1 + X^{2e}: the chain from 1 must carry through the empty X^e slot
    gapped = [(1, [two_e], False), (sign, [e], True)]
    assert sweep_product(gapped, ABCD, 12) == reference_product(gapped, ABCD, 12)
    # (1 + sX^e)(1 + X^{3e}) / (1 + sX^e) = 1 + X^{3e}: the first chain dies at
    # X^e and the walk must restart at X^{3e}
    restart = [(sign, [e], False), (1, [three_e], False), (sign, [e], True)]
    assert sweep_product(restart, ABCD, 12).terms == {(0, 0, 0, 0): 1, three_e: 1}


# name: (variables, degree_index, a factor monomial of degree d, a monomial
# of degree 1 apart from it)
DEGREE_D_FACTORS = {
    "x q^d": (XQ, 1, lambda d: (1, d), (0, 1)),
    "x^-1 q^d": (XQ, 1, lambda d: (-1, d), (0, 1)),
    "abcd": (ABCD, None, lambda d: (d - d // 2, 0, d // 2, 0), (0, 1, 0, 0)),
}


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("d", (1, 2, 3, 5))
@pytest.mark.parametrize("kind", DEGREE_D_FACTORS)
def test_sweep_squaring_boundaries(kind, d, sign):
    # 1 / (1 + sign X^e) is one sweep up the degrees, h[g] = f[g] - sign X^e
    # h[g - d] for g = d .. trunc.  At trunc = 2^k d - 1, 2^k d and
    # 2^k d + 1 the chain d, 2d, 3d, ... from the constant term ends one
    # below, on, or one above the top degree, which the sweep must reach
    # and not pass; alone and after a numerator of degree 1.
    names, index, exps_of, other = DEGREE_D_FACTORS[kind]
    den = (sign, [exps_of(d)], True)
    for k in range(5):
        for trunc in (2 ** k * d - 1, 2 ** k * d, 2 ** k * d + 1):
            for families in ([den], [(1, [other], False), den]):
                want = reference_product(families, names, trunc, index)
                assert sweep_product(families, names, trunc, index) == want, (trunc, families)


def test_boulet_product_matches_enumeration():
    N = 10
    assert boulet_product(N) == enumerated_series(N, FOUR_PARAM)


@pytest.mark.parametrize("spec", ("all:3", "even:1", "1:1,3:5"))
def test_row_totals_product_matches_enumeration(spec):
    N = 12
    bounds = parse_bounds(spec)
    assert row_totals_product(bounds, N) == enumerated_series(N, ROW_TOTALS, bounds)


def test_row_totals_product_needs_even_strict_caps():
    with pytest.raises(ValueError, match="even caps"):
        row_totals_product(parse_bounds("all:2"), 10)


@pytest.mark.parametrize("spec", ("even:1", "all:2", "2:0,5:3", "all:0"))
def test_half_cells_product_matches_enumeration(spec):
    N = 12
    bounds = parse_bounds(spec)
    assert half_cells_product(bounds, N) == enumerated_series(N, HALF_CELLS, bounds)


# -- the substituted products against their documented closed forms ---------

def strict_caps(spec, trunc):
    """(size, strict cap) for every size up to ``trunc`` that ``spec`` caps."""
    bounds = parse_bounds(spec)
    return [(v, bounds.bound(v) + 1) for v in range(1, trunc + 1)
            if bounds.bound(v) is not UNBOUNDED]


@pytest.mark.parametrize("m", (0, 1, 2))
def test_exchange_gfs_match_their_closed_forms(m):
    # (-xq; q^2) (q^s; q^s) / [(q^2; q^2) (x^2 q^2; q^4)], s = 2m+2 or 4m+4
    N = 14
    js = range(1, N + 1)

    def closed(step):
        return [(1, [(1, 2 * j - 1) for j in js], False),
                (-1, [(0, step * j) for j in js], False),
                (-1, [(0, 2 * j) for j in js], True),
                (-1, [(2, 4 * j - 2) for j in js], True)]

    assert pairing_gf(m, N) == reference_product(closed(2 * m + 2), XQ, N, 1)
    assert binary_gf(m, N) == reference_product(closed(4 * m + 4), XQ, N, 1)


@pytest.mark.parametrize("N", (0, 1, 10))
def test_boulet_product_matches_closed_form(N):
    # Boulet's five factor families, stated apart from the capped product
    js = range(1, N + 1)
    families = [(1, [(j, j - 1, j - 1, j - 1) for j in js], False),
                (1, [(j, j, j, j - 1) for j in js], False),
                (-1, [(j, j, j, j) for j in js], True),
                (-1, [(j, j, j - 1, j - 1) for j in js], True),
                (-1, [(j, j - 1, j, j - 1) for j in js], True)]
    assert boulet_product(N) == reference_product(families, ABCD, N)


@pytest.mark.parametrize("spec", ("all:3", "1:1,3:5", "odd:3,even:5"))
def test_row_totals_product_matches_closed_form(spec):
    N = 12
    js = range(1, N + 1)
    caps = sorted(size * strict // 2 for size, strict in strict_caps(spec, N))
    families = [(1, [(j, j - 1) for j in js], False),
                (-1, [(j, j) for j in js], True),
                (-1, [(2 * j, 2 * j - 2) for j in js], True),
                (-1, [(c, c) for c in caps], False)]
    assert row_totals_product(parse_bounds(spec), N) == reference_product(families, AB, N)


@pytest.mark.parametrize("spec", ("even:1", "all:2", "2:0,5:3"))
def test_half_cells_product_matches_closed_form(spec):
    N = 12
    js = range(1, N + 1)
    caps = sorted((((size + 1) // 2 * strict, size // 2 * strict)
                   for size, strict in strict_caps(spec, N)), key=sum)
    families = [(1, [(j, j - 1) for j in js], False),
                (-1, [(2 * ((j + 1) // 2), 2 * (j // 2)) for j in js], True),
                (-1, [(2 * j - 1, 2 * j - 1) for j in js], True),
                (-1, caps, False)]
    assert half_cells_product(parse_bounds(spec), N) == reference_product(families, AB, N)


@pytest.mark.parametrize("weight", (FOUR_PARAM, ROW_TOTALS, HALF_CELLS, ALT_BY_WEIGHT))
@pytest.mark.parametrize("i, k", ((0, 1), (0, 2), (1, 2), (2, 3)))
def test_capped_product_builds_only_the_factors_it_keeps(monkeypatch, weight, i, k):
    # the three j-families stop at their last factor of degree <= trunc
    built = []
    monkeypatch.setattr(series, "product_series",
                        lambda factors, *args: built.extend(factors) or Series.one(*args))
    for trunc in (0, 1, 2, 5, 12):
        built.clear()
        series._capped_product(i, k, parse_bounds("all:inf"), trunc, weight)
        js = range(1, trunc + 1)
        every = ([(1, weight.cells(j * k + i, (j - 1) * k + i), False) for j in js]
                 + [(-1, weight.cells(j * k + i, j * k + i), True) for j in js]
                 + [(-1, weight.cells(2 * j * k, 2 * (j - 1) * k), True) for j in js])
        probe = Series.zero(weight.names, trunc, weight.degree_index)
        assert built == [f for f in every if probe.degree(f[1]) <= trunc], trunc


# -- the progression-restricted product --------------------------------------

def test_restricted_product_validates():
    with pytest.raises(ValueError):
        restricted_boulet_product(2, 2, parse_bounds("all:inf"), 8)
    with pytest.raises(ValueError, match="outside the progression"):
        restricted_boulet_product(1, 2, parse_bounds("2:1"), 8)
    with pytest.raises(ValueError, match="even caps"):
        restricted_boulet_product(0, 1, parse_bounds("1:2"), 8)


@pytest.mark.parametrize("k, spec", ((1, "1:1,2:3"), (1, "all:1"), (2, "2:1"), (3, "3:3")))
def test_restricted_product_exact_for_residue_zero(k, spec):
    N = 14
    bounds = parse_bounds(spec)
    filt = CongruenceFilter(k, 0)
    enum = enumerated_series(N, FOUR_PARAM, bounds, filt)
    assert series_equal(enum, restricted_boulet_product(0, k, bounds, N))


@pytest.mark.parametrize(
    "i, k, spec, first_diff",
    (
        (1, 2, "3:1,5:3", (2, 2, 0, 0)),
        (2, 3, "5:1,8:1", (3, 3, 0, 0)),
    ),
)
def test_restricted_product_off_by_shift_factor_for_nonzero_residue(i, k, spec, first_diff):
    # The product side carries a spurious (ab)^k monomial that no partition
    # in the enumerated family can produce.
    N = 12
    bounds = parse_bounds(spec)
    filt = CongruenceFilter(k, i, even_length=True, first_part_once=True)
    enum = enumerated_series(N, FOUR_PARAM, bounds, filt)
    cmp = series_equal(enum, restricted_boulet_product(i, k, bounds, N))
    assert not cmp
    assert cmp.exponents == first_diff
    assert (cmp.left, cmp.right) == (0, 1)


def test_restricted_enumerated_side_matches_independent_generator():
    # the i != 0 family: parts = i (mod k), even length, part i at most once
    i, k = 1, 2
    bounds = parse_bounds("3:1,5:3")
    filt = CongruenceFilter(k, i, even_length=True, first_part_once=True)
    want = {}
    for n in range(11):
        for parts in oracles.descending_partitions(n):
            if not (oracles.within_caps(parts, bounds)
                    and oracles.passes_filter(parts, filt)):
                continue
            e = oracles.four_param_weight(parts)
            want[e] = want.get(e, 0) + 1
    assert enumerated_series(10, FOUR_PARAM, bounds, filt).terms == want


def _in_product_family(parts, i, k, lone_blocks=True):
    """Whether ``parts`` lies in C(i, k), the family the uncapped restricted
    product counts.  T holds the parts = i (mod k) and S the others, every
    one a positive multiple of 2k.  T has even size 2r; S is empty, or has
    odd size with s_2 = s_3, s_4 = s_5, ....  If r >= 1, T_2r >= s_1 + i
    (s_1 = 0 for an empty S), and not both T_2r - s_1 = i and
    T_(2r-1) = T_2r (mod 2k).  If r = 0, S needs nothing more, unless
    ``lone_blocks`` is false: then S must be empty too."""
    T = [p for p in parts if p % k == i]
    S = [p for p in parts if p % k != i]
    if any(s % (2 * k) for s in S) or len(T) % 2:
        return False
    if S and (len(S) % 2 == 0 or S[1::2] != S[2::2]):
        return False
    if not T:
        return lone_blocks or not S
    s1 = S[0] if S else 0
    return T[-1] >= s1 + i and not (T[-1] - s1 == i and (T[-2] - T[-1]) % (2 * k) == 0)


def test_uncapped_restricted_product_counts_its_pair_family():
    # Explains the boulet-restricted failure without touching the check:
    # the product is Boulet's pair decomposition, base pairs
    # (jk+i, (j-1)k+i) and (jk+i, jk+i) plus blocks of 2k columns of odd
    # height, and a block taller than the 2r rows of T spills into S.  So it
    # counts C(i, k), not the checked family (parts = i mod k, even length,
    # part i at most once).  At r = 0 a lone block of S is in the family:
    # requiring S empty there loses the (ab)^k monomial of the part 2k.
    N = 22
    by_weight = [oracles.descending_partitions(n) for n in range(N + 1)]

    def family_series(n, i, k, lone_blocks=True):
        out = {}
        for parts in (p for of_weight in by_weight[:n + 1] for p in of_weight):
            if _in_product_family(parts, i, k, lone_blocks):
                e = oracles.four_param_weight(parts)
                out[e] = out.get(e, 0) + 1
        return out

    uncapped = parse_bounds("all:inf")
    for i, k in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5)):
        assert restricted_boulet_product(i, k, uncapped, N).terms == family_series(N, i, k)
    for (i, k), lost in (((1, 2), 6), ((1, 3), 2), ((2, 3), 2), ((1, 4), 2)):
        product = restricted_boulet_product(i, k, uncapped, 16).terms
        strict = family_series(16, i, k, lone_blocks=False)
        differ = [e for e in product.keys() | strict.keys()
                  if product.get(e, 0) != strict.get(e, 0)]
        assert len(differ) == lost, (i, k)
        assert product[(k, k, 0, 0)] == 1 and (k, k, 0, 0) not in strict


# -- closed forms for the two bound-trading families --------------------------

@pytest.mark.parametrize("m, N", ((0, 12), (1, 12), (1, 100)))
def test_pairing_gf_three_ways(m, N):
    closed = pairing_gf(m, N)
    alt = enumerated_series(N, ALT_BY_WEIGHT, parse_bounds("all:%d" % (2 * m + 1)))
    odd = enumerated_series(N, ODD_BY_WEIGHT, parse_bounds("even:%d" % m))
    assert series_equal(closed, alt)
    assert series_equal(closed, odd)


@pytest.mark.parametrize("m, N", ((0, 12), (1, 12), (1, 100)))
def test_binary_gf_three_ways(m, N):
    closed = binary_gf(m, N)
    family = parse_bounds("even:%d" % (2 * m + 1))
    assert series_equal(closed, enumerated_series(N, ALT_BY_WEIGHT, family))
    assert series_equal(closed, enumerated_series(N, ODD_BY_WEIGHT, family))


def test_pairing_gf_known_coefficients():
    s = pairing_gf(1, 8)
    assert s.coefficient((0, 0)) == 1
    assert [s.coefficient((x, 7)) for x in (1, 3, 5, 7)] == [5, 4, 2, 1]
    with pytest.raises(ValueError):
        pairing_gf(-1, 8)
    with pytest.raises(ValueError):
        binary_gf(-1, 8)
