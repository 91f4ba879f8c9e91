"""Acceptance gate: the headline results, each at its stated scale and time
budget, printing one PASS/FAIL line per criterion (collected in the terminal
summary at the end of the run).

Criterion 8 deserves a word: the restricted four-parameter product is exact
for residue 0, but for the two nonzero-residue configurations the product
side carries a spurious monomial.  The requirement there is that any mismatch
be *fully reported* — first differing coefficient plus both readings of
whether the empty partition belongs to the family — and that is what the
assertions pin down.
"""

import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_LINES

from eulerparts.bijections import pairing_inverse_trace, pairing_map
from eulerparts.enumeration import bounded_partitions, parse_bounds
from eulerparts.partition import alt_sum, exponent_form, odd_count
from eulerparts.verify import (
    run_checks,
    runs_for,
    verify_andrews,
    verify_binary,
    verify_binary_gf,
    verify_boulet_restricted,
    verify_halves_product,
    verify_pairing,
    verify_pairing_gf,
    verify_pairing_refined,
    verify_partition_gf,
    verify_rows_product,
)

import oracles


@contextmanager
def criterion(num, limit_s, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append("FAIL criterion %d: %s" % (num, text))
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_s:
        ACCEPTANCE_LINES.append("FAIL criterion %d: %s [%d ms, over the %d s budget]"
                                % (num, text, elapsed * 1000, limit_s))
        raise AssertionError("criterion %d exceeded its %d s budget" % (num, limit_s))
    ACCEPTANCE_LINES.append("PASS criterion %d: %s [%d ms]" % (num, text, elapsed * 1000))


def table_rows(n, stat, bounds):
    rows = {}
    for p in bounded_partitions(n, parse_bounds(bounds)):
        rows.setdefault(stat(p), []).append(p)
    return {k: [exponent_form(q) for q in sorted(v)]
            for k, v in sorted(rows.items())}


DISTRIBUTION_AT_SEVEN = {1: 5, 3: 4, 5: 2, 7: 1}

ROWS_CAP3_BY_ALT = {
    1: ["(2^2,1^3)", "(2^3,1)", "(3,2,1^2)", "(3^2,1)", "(4,3)"],
    3: ["(3,2^2)", "(4,1^3)", "(4,2,1)", "(5,2)"],
    5: ["(5,1^2)", "(6,1)"],
    7: ["(7)"],
}

ROWS_EVEN1_BY_ODD = {
    1: ["(4,2,1)", "(4,3)", "(5,2)", "(6,1)", "(7)"],
    3: ["(3,2,1^2)", "(3^2,1)", "(4,1^3)", "(5,1^2)"],
    5: ["(2,1^5)", "(3,1^4)"],
    7: ["(1^7)"],
}

ROWS_EVEN1_BY_ALT = {
    1: ["(1^7)", "(2,1^5)", "(3,2,1^2)", "(3^2,1)", "(4,3)"],
    3: ["(3,1^4)", "(4,1^3)", "(4,2,1)", "(5,2)"],
    5: ["(5,1^2)", "(6,1)"],
    7: ["(7)"],
}


def test_criterion_1_reference_table_all_parts_capped():
    with criterion(1, 1, "n=7, every part at most 3 times: reference table "
                         "and distributions"):
        by_alt = table_rows(7, alt_sum, "all:3")
        by_odd = table_rows(7, odd_count, "even:1")
        assert by_alt == ROWS_CAP3_BY_ALT
        assert by_odd == ROWS_EVEN1_BY_ODD
        assert {k: len(v) for k, v in by_alt.items()} == DISTRIBUTION_AT_SEVEN
        assert {k: len(v) for k, v in by_odd.items()} == DISTRIBUTION_AT_SEVEN


def test_criterion_2_reference_table_even_parts_capped():
    with criterion(2, 1, "n=7, even parts at most once: reference table "
                         "and distributions"):
        by_alt = table_rows(7, alt_sum, "even:1")
        by_odd = table_rows(7, odd_count, "even:1")
        assert by_alt == ROWS_EVEN1_BY_ALT
        assert by_odd == ROWS_EVEN1_BY_ODD
        assert {k: len(v) for k, v in by_alt.items()} == DISTRIBUTION_AT_SEVEN
        assert {k: len(v) for k, v in by_odd.items()} == DISTRIBUTION_AT_SEVEN


def test_criterion_3_worked_example_trace():
    with criterion(3, 1, "worked pairing example at m=2, all stages and the "
                         "inverse"):
        alpha = (7, 7, 7, 4, 4, 4, 4, 2, 2, 2, 2, 2, 1)
        beta, trace = pairing_map(alpha, m=2)
        assert trace.lambda_part == (7, 2, 1)
        assert trace.mu_part == (7, 7, 4, 4, 4, 4, 2, 2, 2, 2)
        assert trace.tau_part == (3, 3, 1, 1, 1, 1)
        assert trace.nu_part == (14, 8, 8, 4, 4)
        assert beta == (14, 8, 8, 4, 4, 3, 3, 1, 1, 1, 1)
        back, _ = pairing_inverse_trace(beta, m=2)
        assert back == alpha


def test_criterion_4_pairing_exhaustive():
    with criterion(4, 60, "statistic exchange, every part capped: "
                          "exhaustive for n <= 22, m in {0,1,2,3}"):
        report = verify_pairing(max_n=22, ms=(0, 1, 2, 3))
        assert report.ok(), report.summary()


def test_criterion_5_binary_exhaustive():
    with criterion(5, 60, "statistic exchange, even parts capped: "
                          "exhaustive for n <= 22, m in {0,1,2,3}"):
        report = verify_binary(max_n=22, ms=(0, 1, 2, 3))
        assert report.ok(), report.summary()


def test_criterion_6_distinct_vs_odd_with_hook_properties():
    with criterion(6, 60, "distinct-by-alternating-sum vs odd-by-length to "
                          "n <= 30, fishhook properties to weight 25"):
        (report,) = run_checks(runs_for("bessenrodt", {"max_n": 30}, {}), 1)
        assert report.ok(), report.summary()
        (report,) = run_checks(runs_for("sylvester", {"max_n": 25}, {}), 1)
        assert report.ok(), report.summary()


def test_criterion_7_series_identities():
    with criterion(7, 120, "series identities: four-parameter to degree 16, "
                           "collapsed products and closed forms to degree 24"):
        assert run_checks(runs_for("boulet", {"trunc": 16}, {}), 1)[0].ok()
        for spec in ("all:3", "even:3", "1:1,3:5"):
            assert verify_rows_product(spec, trunc=24).ok(), spec
        for spec in ("even:1", "all:2", "2:0,5:3"):
            assert verify_halves_product(spec, trunc=24).ok(), spec
        assert verify_pairing_gf(ms=(0, 1, 2), trunc=24).ok()
        assert verify_binary_gf(ms=(0, 1, 2), trunc=24).ok()


def test_criterion_8_restricted_product_reporting():
    with criterion(8, 120, "restricted product: exact for residue 0; any "
                           "mismatch reported with first coefficient and "
                           "both empty-partition readings"):
        exact = verify_boulet_restricted(i=0, k=1, bounds="1:1,2:3", trunc=20)
        assert exact.ok(), exact.summary()

        for i, k, bounds, monomial in (
                (1, 2, "3:1,5:3", {"a": 2, "b": 2, "c": 0, "d": 0}),
                (2, 3, "5:1,8:1", {"a": 3, "b": 3, "c": 0, "d": 0})):
            report = verify_boulet_restricted(i=i, k=k, bounds=bounds, trunc=20)
            if report.ok():
                continue
            # the mismatch must be pinned to its first differing coefficient
            assert report.counterexample == {
                "monomial": monomial, "enumerated": 0, "product": 1}, report.summary()
            # ... and both readings of the empty partition must be on record
            assert any("empty partition" in note for note in report.notes)


def test_criterion_9_equivalent_bound_sequences():
    with criterion(9, 30, "strict cap 2m+2 on all parts vs strict m+1 on "
                          "even parts: products and counts to n <= 30"):
        for m in (0, 1, 2):
            report = verify_andrews("all:%ds" % (2 * m + 2),
                                    "even:%ds" % (m + 1),
                                    max_n=30, cutoff=31)
            assert report.ok(), report.summary()
            assert any("agree" in note for note in report.notes)


def test_criterion_10_refined_statistics():
    with criterion(10, 60, "refined triple (cap at i, alternating sum, "
                           "largest odd-multiplicity part) for n <= 20, "
                           "phi in {1, i}"):
        report = verify_pairing_refined(max_n=20, phi_specs=("1", "i"))
        assert report.ok(), report.summary()
        assert report.skipped > 0  # the skipped inputs are reported


def test_criterion_11_partition_gf_cross_oracle():
    with criterion(11, 60, "coefficients of the Euler product match raw "
                           "enumeration and the pentagonal recurrence, "
                           "n <= 30"):
        report = verify_partition_gf(max_n=30)
        assert report.ok(), report.summary()
        counts = oracles.pentagonal_counts(30)
        from eulerparts.series import partition_gf

        gf = partition_gf(30)
        for n in range(31):
            assert gf.coefficient((0, n)) == counts[n]
