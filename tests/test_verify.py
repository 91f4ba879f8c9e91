import functools
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from eulerparts.bijections import (DomainError, binary_contract, binary_expand,
                                   binary_inverse, merge_pairs, pairing_inverse,
                                   split_pairs, sylvester_distinct_to_odd,
                                   sylvester_odd_to_distinct)
from eulerparts.enumeration import (BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET,
                                   count_total, parse_bounds)
from eulerparts.partition import alt_sum, plain_form
from eulerparts.series import restricted_boulet_product
from eulerparts.verify import (
    REGISTRY,
    VerificationReport,
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


# -- report plumbing ---------------------------------------------------------

def test_report_pass_and_fail():
    r = VerificationReport("demo", {"n": 3})
    assert r.ok() and r.status == "pass"
    r.fail(n=5, left=1, right=2)
    assert not r.ok()
    assert r.counterexample == {"n": 5, "left": 1, "right": 2}
    # only the first counterexample is kept
    r.fail(n=9)
    assert r.counterexample["n"] == 5


def test_report_serialization_schema():
    r = VerificationReport("demo", {"n": 3}, elapsed_ms=7)
    assert r.to_dict() == {"theorem": "demo", "params": {"n": 3},
                           "status": "pass", "elapsed_ms": 7}
    r.skipped = 4
    r.notes.append("caveat")
    r.fail(n=1)
    d = r.to_dict()
    assert d["status"] == "fail"
    assert d["counterexample"] == {"n": 1}
    assert d["skipped"] == 4
    assert d["notes"] == ["caveat"]
    json.dumps(d)  # must be serializable as-is


def test_report_summary_text():
    r = VerificationReport("demo", {})
    assert r.summary().startswith("PASS demo")
    r.fail(n=2)
    r.notes.append("hm")
    text = r.summary()
    assert text.startswith("FAIL demo") and "counterexample" in text and "hm" in text


# -- the registry -------------------------------------------------------------

EXPECTED_IDS = {
    "bessenrodt", "sylvester", "andrews", "boulet", "boulet-restricted",
    "rows-product", "halves-product", "pairing", "binary", "pairing-gf",
    "binary-gf", "pairing-refined", "partition-gf",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_IDS
    for name, check in REGISTRY.items():
        assert callable(check.runner), name
        assert check.default_runs, name
        for run in check.default_runs:
            # each default run is in runner keywords, which a flag sets
            assert set(run) <= set(check.flags.values()), (name, run)
        assert not set(check.fixed) & set(check.flags.values()), name


def test_registry_default_runs_carry_their_params():
    report = REGISTRY["andrews"].runner(**REGISTRY["andrews"].default_runs[0])
    assert report.params["a"] == "all:2s"
    assert report.params["b"] == "even:1s"


@pytest.mark.parametrize("name, flags, host, kwargs", (
    ("sylvester", (), verify_pairing_refined, {"max_n": 25}),
    ("sylvester", ("--max-n", "6"), verify_pairing_refined, {"max_n": 6}),
    ("bessenrodt", (), verify_pairing_gf, {"trunc": 30}),
    ("bessenrodt", ("--max-n", "12"), verify_pairing_gf, {"trunc": 12}),
    ("boulet", (), verify_boulet_restricted, {"trunc": 16}),
    ("boulet", ("--trunc", "8"), verify_boulet_restricted, {"trunc": 8}),
))
def test_a_special_case_is_its_hosts_grid_point(name, flags, host, kwargs, capsys):
    # the paper's special cases run their host's runner at their fixed
    # keywords, and report under their own id
    from eulerparts.cli import main
    assert main(["verify", name, *flags, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = host(**REGISTRY[name].fixed, **kwargs).to_dict()
    assert expected["theorem"] != name
    expected = json.loads(json.dumps({**expected, "theorem": name}))
    for report in (got, expected):
        report.pop("elapsed_ms")
    assert got == expected


# -- every checker on a reduced grid ------------------------------------------

def point(name):
    """The registry check ``name`` as a runner that takes the keywords of
    its flags, as ``verify name`` does."""
    def run(**given):
        (report,) = run_checks(runs_for(name, given, dict(zip(given, given))), 1)
        return report
    run.__name__ = name
    return run


SMALL_RUNS = (
    (point("bessenrodt"), {"max_n": 12}),
    (point("sylvester"), {"max_n": 12}),
    (verify_pairing, {"max_n": 10, "ms": (0, 1)}),
    (verify_binary, {"max_n": 10, "ms": (0, 1)}),
    (verify_pairing_refined, {"max_n": 10, "phi_specs": ("1",)}),
    (verify_andrews, {"bounds_a": "all:2s", "bounds_b": "even:1s", "max_n": 12}),
    (verify_partition_gf, {"max_n": 15}),
    (point("boulet"), {"trunc": 8}),
    (verify_boulet_restricted, {"i": 0, "k": 1, "bounds": "1:1,2:3", "trunc": 10}),
    (verify_rows_product, {"bounds": "all:3", "trunc": 10}),
    (verify_halves_product, {"bounds": "even:1", "trunc": 10}),
    (verify_pairing_gf, {"ms": (0, 1), "trunc": 10}),
    (verify_binary_gf, {"ms": (0, 1), "trunc": 10}),
)


@pytest.mark.parametrize("runner, kwargs", SMALL_RUNS,
                         ids=[r.__name__ for r, _ in SMALL_RUNS])
def test_checker_passes_on_small_grid(runner, kwargs):
    report = runner(**kwargs)
    assert report.ok(), report.summary()
    assert report.counterexample is None
    json.dumps(report.to_dict())


@pytest.mark.parametrize("runner, kwargs", SMALL_RUNS,
                         ids=[r.__name__ for r, _ in SMALL_RUNS])
def test_checker_reports_are_deterministic(runner, kwargs):
    def stripped():
        d = runner(**kwargs).to_dict()
        d.pop("elapsed_ms")
        return d

    assert stripped() == stripped()


# -- failing paths -------------------------------------------------------------

def test_andrews_detects_inequivalent_caps():
    # fewer than 2 copies vs fewer than 3: already differs at n=2
    report = verify_andrews("all:2s", "all:3s", max_n=5)
    assert not report.ok()
    assert report.counterexample == {"n": 2, "count_a": 1, "count_b": 2}
    assert any("differ" in note for note in report.notes)


def test_andrews_counterexample_reproduces_through_enumeration():
    report = verify_andrews("all:2s", "all:3s", max_n=5)
    ce = report.counterexample
    assert count_total(ce["n"], parse_bounds("all:2s")) == ce["count_a"]
    assert count_total(ce["n"], parse_bounds("all:3s")) == ce["count_b"]


def test_andrews_difference_beyond_range():
    # counts agree trivially for n <= 1, so only the product check can tell
    report = verify_andrews("all:2s", "all:3s", max_n=1)
    assert not report.ok()
    assert "beyond max_n" in report.counterexample["detail"]


def test_andrews_equivalent_with_custom_cutoff():
    report = verify_andrews("all:4s", "even:2s", max_n=12, cutoff=13)
    assert report.ok()
    assert report.params["cutoff"] == 13


def test_andrews_rejects_a_cutoff_below_max_n(capsys):
    # all:3 and all:2 have no strict caps, so their products agree up to 2,
    # yet they count the partitions of 3 differently: agreeing products
    # prove nothing beyond the cutoff
    message = ("cutoff 2 is below max_n 10: products that agree up to "
               "the cutoff imply equal counts only up to it")
    with pytest.raises(ValueError, match="^%s$" % message):
        verify_andrews("all:3", "all:2", max_n=10, cutoff=2)
    from eulerparts.cli import main
    assert main(["verify", "andrews", "--a", "all:3", "--b", "all:2",
                 "--max-n", "10", "--cutoff", "2"]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert verify_andrews("all:3", "all:2", max_n=10, cutoff=10).counterexample == {
        "n": 3, "count_a": 3, "count_b": 2}


# Cap specs for the andrews pairs: equivalent and inequivalent sequences,
# strict caps, uncapped sizes and caps on single sizes.
ANDREWS_SPECS = ("all:1", "all:2", "all:3", "all:2s", "all:4s", "all:6s", "even:0",
                 "even:1", "even:2s", "even:3s", "odd:inf,even:1", "odd:1", "odd:0",
                 "1:0", "2:1,3:0", "3:2")


@functools.lru_cache(maxsize=None)
def _oracle_counts(spec: str, max_n: int) -> tuple[int, ...]:
    bounds = parse_bounds(spec)

    def cap_of(size):
        # the oracle reads an uncapped size as None
        cap = bounds.bound(size)
        return None if cap == math.inf else cap

    return tuple(oracles.bounded_count_dp(n, cap_of) for n in range(max_n + 1))


@pytest.mark.parametrize("a", ANDREWS_SPECS)
def test_andrews_counts_match_an_independent_oracle(a):
    # bounded_count_dp shares no code with the coefficient DP or the walk:
    # a failing report names the first n whose oracle counts differ, and
    # any other report needs equal oracle counts for every n <= 20
    counts_a = _oracle_counts(a, 20)
    for b in ANDREWS_SPECS:
        if b == a:
            continue
        counts_b = _oracle_counts(b, 20)
        report = verify_andrews(a, b, max_n=20)
        first = next((n for n in range(21) if counts_a[n] != counts_b[n]), None)
        named = {key: value for key, value in (report.counterexample or {}).items()
                 if key in ("n", "count_a", "count_b")}
        if first is None:
            assert named == {}, (a, b)
        else:
            assert named == {"n": first, "count_a": counts_a[first],
                             "count_b": counts_b[first]}, (a, b)
            assert report.status == "fail"


def test_andrews_reports_counts_that_differ_under_agreeing_products(monkeypatch):
    # Andrews' theorem rules this out; a faulty strict-product list shows it
    from eulerparts.enumeration import BoundSequence
    monkeypatch.setattr(BoundSequence, "strict_products", lambda self, cutoff: [])
    report = verify_andrews("all:3", "all:2", max_n=10)
    assert report.counterexample == {"detail": "products agree but counts differ",
                                     "n": 3, "count_a": 3, "count_b": 2}


def test_partition_gf_reports_the_first_count_that_differs(monkeypatch):
    from eulerparts import verify
    monkeypatch.setattr(verify, "count_total",
                        lambda n, count_total=count_total: count_total(n) + (n == 7))
    report = verify_partition_gf(max_n=12)
    assert report.status == "fail"
    assert report.counterexample == {"n": 7, "enumerated": 16, "coefficient": 15}


def test_bessenrodt_names_the_first_differing_monomial(monkeypatch):
    # 3 at most once on the odd-part side drops 3,3 (length 2) from n = 6,
    # the first of the partitions it drops in (total degree, exponents) order
    from eulerparts import verify
    monkeypatch.setattr(verify, "PAIRING_TARGET",
                        SimpleNamespace(bounds=lambda m: parse_bounds("even:%d,3:1" % m)))
    report = point("bessenrodt")(max_n=12)
    assert report.status == "fail"
    assert report.counterexample == {"m": 0, "other_side": "enumerated by odd parts",
                                     "monomial": {"x": 2, "q": 6},
                                     "enumerated_by_alt_sum": 2, "other": 1}
    assert point("bessenrodt")(max_n=5).ok()


def test_bessenrodt_lists_no_partition(monkeypatch):
    # both sides are coefficient DP series
    from eulerparts import enumeration, verify

    def refuse(*args):
        raise AssertionError("bessenrodt listed a partition")

    for module in (enumeration, verify):
        monkeypatch.setattr(module, "bounded_partitions", refuse)
    assert point("bessenrodt")(max_n=30).ok()


def test_restricted_product_passes_for_residue_zero():
    report = verify_boulet_restricted(0, 2, "2:1", trunc=12)
    assert report.ok()
    assert any("empty partition included" in n for n in report.notes)


@pytest.mark.parametrize(
    "i, k, bounds, monomial",
    (
        (1, 2, "3:1,5:3", {"a": 2, "b": 2, "c": 0, "d": 0}),
        (2, 3, "5:1,8:1", {"a": 3, "b": 3, "c": 0, "d": 0}),
    ),
)
def test_restricted_product_mismatch_is_fully_reported(i, k, bounds, monomial):
    report = verify_boulet_restricted(i, k, bounds, trunc=12)
    assert not report.ok()
    assert report.counterexample == {
        "monomial": monomial, "enumerated": 0, "product": 1}
    # both readings of the empty partition are covered
    assert any("excluded" in note and "0 vs 1" in note for note in report.notes)


def _constant_term(i, k, bounds, trunc=20):
    return restricted_boulet_product(i, k, parse_bounds(bounds), trunc).terms.get((0, 0, 0, 0))


@pytest.mark.parametrize("run", REGISTRY["boulet-restricted"].default_runs)
def test_every_registry_restricted_product_has_constant_term_one(run):
    # the enumerated series without the empty partition has no constant
    # term, so that reading of the check can never match
    assert _constant_term(**run) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, k - 1),
    st.dictionaries(st.integers(0, 5), st.sampled_from((1, 3, 5)), max_size=3),
    st.integers(0, 12))))
def test_every_restricted_product_has_constant_term_one(config):
    # caps on sizes of the progression, each strict cap even
    k, i, caps, trunc = config
    spec = ",".join("%d:%d" % (j * k + (i or k), b) for j, b in sorted(caps.items())) or "all:inf"
    assert _constant_term(i, k, spec, trunc) == 1


def test_refined_source_caps_are_bound_dsl(monkeypatch):
    # one spec: the source caps' spec parses back to the same caps; the
    # target caps have no DSL text, and their name does not parse as DSL.
    # Several specs: one run, whose caps are the largest of each spec's,
    # size by size.
    from eulerparts import verify
    seen, engine = [], verify._verify_exchange
    monkeypatch.setattr(verify, "_verify_exchange",
                        lambda report, stages, context, caps, *rest:
                        seen.append((context, caps))
                        or engine(report, stages, context, caps, *rest))
    sizes = range(1, 25)
    specs = ("1", "i", " 2 * i + 1 ")
    written = ["phi:2*(1)+1", "phi:2*(i)+1", "phi:2*(2*i+1)+1"]
    for spec, text in zip(specs, written):
        assert verify_pairing_refined(max_n=3, phi_specs=(spec,)).ok()
        context, (src, dst) = seen.pop()
        assert context == {"phi": spec} and src.spec == text
        again = parse_bounds(src.spec)
        assert again.spec == src.spec
        assert [again.bound(s) for s in sizes] == [src.bound(s) for s in sizes]
        with pytest.raises(ValueError):
            parse_bounds(dst.spec)
    assert verify_pairing_refined(max_n=3, phi_specs=specs).ok()
    (context, (src, dst)), = seen
    assert context == {"phi": list(specs)}
    assert [src.bound(s) for s in sizes] == [
        max(parse_bounds(text).bound(s) for text in written) for s in sizes]
    # phi(i) of each even part 2i, odd parts uncapped
    phis = [lambda i: 1, lambda i: i, lambda i: 2 * i + 1]
    assert [dst.bound(s) for s in sizes] == [
        max(phi(s // 2) for phi in phis) if s % 2 == 0 else math.inf for s in sizes]


def test_refined_pairing_reports_skipped_inputs():
    report = verify_pairing_refined(max_n=10, phi_specs=("1",))
    assert report.ok()
    assert report.skipped > 0
    assert report.to_dict()["skipped"] == report.skipped
    assert any("outside the refinement" in n for n in report.notes)


# -- a map whose own invariant breaks ------------------------------------------

@pytest.fixture
def lossy_merge_pairs(monkeypatch):
    # the broken stage of test_broken_stage_raises: the pairing map's merge
    # step drops every part, so the map's weight invariant fails.  The
    # exchange checks read each stage by its name in verify when they start.
    from eulerparts import verify
    monkeypatch.setattr(verify, "merge_pairs", lambda mu: ())


def test_exchange_check_reports_a_broken_map_invariant(lossy_merge_pairs):
    report = verify_pairing(max_n=4, ms=(1,))
    assert report.status == "fail"
    assert report.counterexample == {"m": 1, "n": 2, "input": "1,1",
                                     "detail": "invariant broken: weight preserved"}


def test_refined_check_reports_a_broken_map_invariant(lossy_merge_pairs):
    # inputs with all multiplicities even are mapped too, so 1,1 is the first
    report = verify_pairing_refined(max_n=4, phi_specs=("1",))
    assert report.status == "fail"
    assert report.counterexample == {"phi": "1", "n": 2, "input": "1,1",
                                     "detail": "invariant broken: weight preserved"}


# -- grids -----------------------------------------------------------------------

def test_a_one_shot_grid_is_checked_as_well_as_reported(lossy_merge_pairs, monkeypatch):
    # each runner reads its grid once, so an iterator is checked, not only
    # listed in the params
    from eulerparts import verify
    report = verify_pairing(max_n=4, ms=iter((1, 2)))
    assert report.params["m"] == [1, 2]
    assert report.counterexample == verify_pairing(max_n=4, ms=(1, 2)).counterexample
    report = verify_pairing_refined(max_n=4, phi_specs=iter(("1",)))
    assert report.params["phi"] == ["1"] and report.status == "fail"
    closed = []
    monkeypatch.setattr(verify, "pairing_gf",
                        lambda m, trunc, gf=verify.pairing_gf: closed.append(m) or gf(m, trunc))
    report = verify_pairing_gf(ms=iter((0, 1)), trunc=8)
    assert report.ok() and report.params["m"] == [0, 1]
    assert closed == [0, 1]


@pytest.mark.parametrize("runner, grid", (
    (verify_pairing, {"ms": ()}), (verify_binary, {"ms": ()}),
    (verify_pairing_gf, {"ms": ()}), (verify_binary_gf, {"ms": ()}),
    (verify_pairing_refined, {"phi_specs": ()}), (verify_pairing, {"ms": iter(())}),
))
def test_an_empty_grid_is_an_error(runner, grid):
    # a grid with no point would pass having checked nothing
    with pytest.raises(ValueError, match="grid is empty"):
        runner(**grid)


@pytest.mark.parametrize("runner, kwargs", (
    (point("sylvester"), {}), (verify_pairing, {}), (verify_binary, {"ms": (1,)}),
    (verify_pairing_refined, {}),
))
def test_an_exchange_check_rejects_a_negative_max_n(runner, kwargs):
    # with no n to check it would pass having checked nothing
    with pytest.raises(ValueError, match="^max_n must be >= 0$"):
        runner(max_n=-1, **kwargs)


@pytest.mark.parametrize("runner, grid, message", (
    (verify_pairing, {"ms": (1, 1)}, "the m grid repeats 1"),
    (verify_binary, {"ms": iter((0, 2, 0))}, "the m grid repeats 0"),
    (verify_pairing_gf, {"ms": (0, 0)}, "the m grid repeats 0"),
    (verify_binary_gf, {"ms": (2, 1, 2)}, "the m grid repeats 2"),
    (verify_pairing_refined, {"phi_specs": ("1", "1")}, "the phi grid repeats '1'"),
    # phi specs compare as parse_bounds writes them, without spaces
    (verify_pairing_refined, {"phi_specs": ("2*i+1", " 2 * i + 1")},
     r"the phi grid repeats '2\*i\+1'"),
))
def test_a_repeated_grid_point_is_an_error(runner, grid, message):
    # a repeated point would be checked and reported twice
    with pytest.raises(ValueError, match="^%s$" % message):
        runner(**grid)


def test_the_gf_checks_take_m_inf(monkeypatch):
    inf = float("inf")
    report = verify_pairing_gf(ms=(0, inf), trunc=24)
    assert report.ok() and report.params == {"m": [0, "inf"], "trunc": 24}
    # the closed form at m = inf is the uncapped product; a capped one fails
    # at q^4, and the report writes m as JSON can hold it
    from eulerparts import verify
    from eulerparts.series import binary_gf
    monkeypatch.setattr(verify, "binary_gf", lambda m, trunc: binary_gf(0, trunc))
    report = verify_binary_gf(ms=(inf,), trunc=8)
    assert report.params == {"m": ["inf"], "trunc": 8}
    assert report.counterexample["m"] == "inf"
    assert report.counterexample["monomial"]["q"] == 4
    json.dumps(report.to_dict(), allow_nan=False)


@pytest.mark.parametrize("argv, message", (
    (["pairing", "--max-n", "4", "--m", "1,1"], "the m grid repeats 1"),
    (["pairing-gf", "--m", "0,0"], "the m grid repeats 0"),
    (["pairing-refined", "--phi", "1, 1"], "the phi grid repeats '1'"),
    (["all", "--m", "1,1"], "the m grid repeats 1"),
))
def test_verify_cli_rejects_a_repeated_grid_point(argv, message, capsys):
    from eulerparts.cli import main
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_sylvester_check_reports_a_broken_map_invariant(monkeypatch):
    from eulerparts import verify

    def broken(lam):
        raise AssertionError("invariant broken: weight preserved")

    monkeypatch.setattr(verify, "sylvester_distinct_to_odd", broken)
    report = point("sylvester")(max_n=3)
    assert report.counterexample == {"phi": "0", "n": 0, "input": "∅",
                                     "detail": "invariant broken: weight preserved"}


def test_exchange_check_catches_a_stage_that_breaks_l_a_equals_l_o(monkeypatch):
    # merge_pairs as the identity keeps the weight but not the parity: 1,1
    # maps to itself, whose inverse is 2.  The map leaves l_a = l_o to the
    # check, whose round trip comes first.
    from eulerparts import verify
    monkeypatch.setattr(verify, "merge_pairs", lambda mu: mu)
    report = verify_pairing(max_n=4, ms=(1,))
    assert report.counterexample == {"m": 1, "n": 2, "input": "1,1", "image": "1,1",
                                     "detail": "inverse round trip failed"}


@pytest.fixture
def fishhook_backwards(monkeypatch):
    # the pairing map's fishhook runs the wrong way: it rejects the even part
    # of the distinct half of 2 with a DomainError
    from eulerparts import verify
    monkeypatch.setattr(verify, "sylvester_distinct_to_odd", verify.sylvester_odd_to_distinct)


def test_exchange_check_reports_a_stage_that_rejects_a_source_half(fishhook_backwards):
    report = verify_pairing(max_n=6)
    assert report.counterexample == {"m": "every", "n": 2, "input": "2",
                                     "detail": "part 2 is even; all parts must be odd"}


def test_verify_cli_reports_a_stage_that_rejects_a_source_half(fishhook_backwards, capsys):
    from eulerparts.cli import main
    assert main(["verify", "pairing", "--max-n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL pairing") and "'input': '2'" in out
    assert err == ""
    # every run still reports, the ones the broken stage does not reach pass
    assert main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    assert out.count("\nFAIL pairing ") == 1 and "PASS bessenrodt" in out
    assert err == ""


# -- the exchange engine: the stage memo ------------------------------------------

def record_calls(monkeypatch, name):
    # every parts tuple that verify's stage ``name`` is called on
    from eulerparts import verify
    seen, stage = [], getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda parts: seen.append(parts) or stage(parts))
    return seen


def test_the_stage_memo_lives_for_one_check(monkeypatch):
    # each check starts with an empty memo: a second check runs the fishhook
    # as often as the first, and a stage patched between two checks is what
    # the second runs
    from eulerparts import verify
    seen = record_calls(monkeypatch, "sylvester_distinct_to_odd")
    assert verify_pairing(max_n=4, ms=(1,)).ok()
    first = len(seen)
    assert first > 0
    assert verify_pairing(max_n=4, ms=(1,)).ok()
    assert len(seen) == 2 * first
    monkeypatch.setattr(verify, "merge_pairs", lambda mu: ())
    assert verify_pairing(max_n=4, ms=(1,)).counterexample == {
        "m": 1, "n": 2, "input": "1,1", "detail": "invariant broken: weight preserved"}


def test_each_fishhook_runs_once_per_distinct_input(monkeypatch):
    # the pairing check at m = 3 meets, as fishhook inputs, the parts of odd
    # multiplicity of its sources (every part at most 7 times) and the odd
    # parts of its images, which are its targets (even parts at most 3
    # times); both lists come from accelAsc and a multiplicity table
    import oracles
    to_odd = record_calls(monkeypatch, "sylvester_distinct_to_odd")
    to_distinct = record_calls(monkeypatch, "sylvester_odd_to_distinct")
    assert verify_pairing(max_n=12, ms=(3,)).ok()
    everything = [parts for n in range(13) for parts in oracles.descending_partitions(n)]
    halves = {tuple(sorted((v for v, k in oracles.multiplicity_table(parts).items() if k % 2),
                           reverse=True))
              for parts in filter(oracles.max_multiplicity_at_most(7), everything)}
    odd_parts = {tuple(v for v in parts if v % 2)
                 for parts in filter(oracles.even_multiplicity_at_most(3), everything)}
    assert sorted(to_odd) == sorted(halves)
    assert sorted(to_distinct) == sorted(odd_parts)
    assert len(to_odd) < sum(map(oracles.max_multiplicity_at_most(7), everything))


# -- the exchange engine: run order and check order ------------------------------

def patch_stage(monkeypatch, name, table):
    # the exchange checks run the composite maps over verify's stages,
    # looked up when a check starts; patch stage ``name`` to send each key
    # of ``table`` to its value, or raise it if it is an exception, and
    # every other input where it did
    from eulerparts import verify
    stage = getattr(verify, name)

    def patched(parts):
        if parts not in table:
            return stage(parts)
        if isinstance(table[parts], Exception):
            raise table[parts]
        return table[parts]

    monkeypatch.setattr(verify, name, patched)


def swap_stage_images(monkeypatch, stage, inverse, swap):
    # stage ``stage`` sends each key of ``swap`` where the genuine stage
    # sends its value, and ``inverse`` agrees, so the map stays a bijection
    # of the same weights: every partition whose half meets a key of
    # ``swap`` trades images with its partner.  Returns the swapped images.
    from eulerparts import bijections
    images = {half: getattr(bijections, stage)(other) for half, other in swap.items()}
    patch_stage(monkeypatch, stage, images)
    patch_stage(monkeypatch, inverse, {image: half for half, image in images.items()})
    return images


PAIRING_STAGES = (sylvester_distinct_to_odd, merge_pairs, sylvester_odd_to_distinct, split_pairs)
BINARY_STAGES = (sylvester_distinct_to_odd, binary_expand, sylvester_odd_to_distinct,
                 binary_contract)


@pytest.mark.parametrize("stages, inverse", (
    (PAIRING_STAGES, pairing_inverse), (BINARY_STAGES, binary_inverse)))
def test_the_engine_checks_the_map_that_eulerparts_map_prints(stages, inverse):
    # keyed by the partition itself on the source and by the public inverse
    # (``eulerparts map NAME inv PARTS``) of the image on the target,
    # an uncapped run passes only if every image the engine computes inline
    # is the public map's image: the public inverse is a bijection, so it
    # sends beta to alpha exactly when beta is alpha's image
    from eulerparts import verify
    report = VerificationReport("map", {})
    totals = verify._verify_exchange(report, stages, {}, (None, None), 16,
                                     (lambda alpha: alpha, inverse))
    assert report.ok()
    assert sum(totals.values()) == sum(count_total(n) for n in range(17))


def test_the_map_test_tells_the_two_maps_apart():
    # the pairing stages held to the binary map's inverse fail where the
    # maps first differ: 2,2 goes to 4 by pairing and to 2,2 by binary
    from eulerparts import verify
    report = VerificationReport("map", {})
    verify._verify_exchange(report, PAIRING_STAGES, {}, (None, None), 16,
                            (lambda alpha: alpha, binary_inverse))
    assert report.counterexample == {"n": 4, "input": "2,2", "image": "4",
                                     "detail": "statistic not carried over"}


def only_n(monkeypatch, n):
    # the checks list the partitions of n alone, so a check's first failure
    # is its first at n, whatever a smaller n would show first
    from eulerparts import verify
    walk = verify.bounded_partitions
    monkeypatch.setattr(verify, "bounded_partitions",
                        lambda k, caps: walk(k, caps) if k == n else iter(()))


# The image of 3 is 1,1,1, and 4 is the image of 2,2.  At n = 7 the first
# source whose image meets either half is 3,2,2, whose image is 4,1,1,1.
REPEATS = ("sylvester_odd_to_distinct", {(1, 1, 1): (1, 1, 1)})
UNPAIRED = ("split_pairs", {(4,): (2, 1, 1)})
RAISES = ("split_pairs", {(4,): DomainError("the decode stage rejects 4")})


@pytest.mark.parametrize("patches, n, counterexample", (
    ((REPEATS,), None,
     {"m": "every", "n": 3, "input": "3", "detail": "part 1 repeats in the distinct half"}),
    ((UNPAIRED,), None,
     {"m": "every", "n": 4, "input": "2,2",
      "detail": "part 2 has odd multiplicity 1 in the even half"}),
    # both halves bad: the distinct half's error comes first
    ((REPEATS, UNPAIRED), 7,
     {"m": "every", "n": 7, "input": "3,2,2", "detail": "part 1 repeats in the distinct half"}),
    ((UNPAIRED, REPEATS), 7,
     {"m": "every", "n": 7, "input": "3,2,2", "detail": "part 1 repeats in the distinct half"}),
    # a stage that raises comes before a stored verdict
    ((REPEATS, RAISES), 7,
     {"m": "every", "n": 7, "input": "3,2,2", "detail": "the decode stage rejects 4"}),
))
def test_the_inverse_half_reports_its_errors_in_order(monkeypatch, patches, n, counterexample):
    # the inverse fishhook, the decode stage, a repeated part in the
    # distinct half, an unpaired part in the even half
    for name, table in patches:
        patch_stage(monkeypatch, name, table)
    if n is not None:
        only_n(monkeypatch, n)
    assert verify_pairing(max_n=8).counterexample == counterexample


@pytest.mark.parametrize("patch", (REPEATS, UNPAIRED))
def test_a_half_verdict_lives_for_one_check(monkeypatch, patch):
    # a failing half is reported again by a second check, and a check after
    # the stage is mended passes: no verdict outlives its check
    patch_stage(monkeypatch, *patch)
    first = verify_pairing(max_n=6).counterexample
    assert first is not None
    assert verify_pairing(max_n=6).counterexample == first
    monkeypatch.undo()
    assert verify_pairing(max_n=6).ok()


@pytest.mark.parametrize("ms, m", (((1,), 1), (None, "every")))
def test_exchange_check_reports_an_inverse_that_breaks_the_weight(monkeypatch, ms, m):
    # the image of 1,1 is 2, which the decode stage sends to 2,2: the round
    # trip lands at weight 4, not 2, so the inverse breaks an invariant
    patch_stage(monkeypatch, "split_pairs", {(2,): (2, 2)})
    assert verify_pairing(max_n=4, ms=ms).counterexample == {
        "m": m, "n": 2, "input": "1,1", "detail": "invariant broken: weight preserved"}


# Each half's image is certified once per check: every part has the half's
# parity and the inverse stage sends the sorted image back to the half.
# Only a partition with an uncertified half goes through _backward.
@pytest.mark.parametrize("ms, m", (((1,), 1), (None, "every")))
@pytest.mark.parametrize("patches, counterexample", (
    # the fishhook sends 3 to 2,1, and the inverse fishhook sends 2,1 back:
    # the round trip of the half holds, but the image has an even part, so
    # _backward splits 2,1 by parity and sends it to 1,1,1
    ((("sylvester_distinct_to_odd", {(3,): (2, 1)}),
      ("sylvester_odd_to_distinct", {(2, 1): (3,)})),
     {"n": 3, "input": "3", "image": "2,1", "detail": "inverse round trip failed"}),
    # the decode stage sends 4,2, the image of 2,2,1,1, to its parts out of
    # order: equal to the half as a multiset, but no partition
    ((("split_pairs", {(4, 2): (1, 2, 1, 2)}),),
     {"n": 6, "input": "2,2,1,1", "detail": "part 2 follows the smaller part 1 in the even half"}),
    # merge_pairs sends 2,2,1,1 to 2,4, out of order, and the decode stage
    # sends 2,4 back but 4,2, the image joined and sorted, elsewhere
    ((("merge_pairs", {(2, 2, 1, 1): (2, 4)}),
      ("split_pairs", {(2, 4): (2, 2, 1, 1), (4, 2): (4, 1, 1)})),
     {"n": 6, "input": "2,2,1,1", "detail": "part 4 has odd multiplicity 1 in the even half"}),
))
def test_a_half_is_certified_only_by_its_sorted_image_of_one_parity(
        monkeypatch, patches, counterexample, ms, m):
    for name, table in patches:
        patch_stage(monkeypatch, name, table)
    assert verify_pairing(max_n=counterexample["n"], ms=ms).counterexample == {
        "m": m, **counterexample}


def count_backward(monkeypatch):
    # every image that the checks send through verify's _backward
    from eulerparts import verify
    images, backward = [], verify._backward
    monkeypatch.setattr(verify, "_backward",
                        lambda beta, *stages: images.append(beta) or backward(beta, *stages))
    return images


def test_genuine_stages_certify_every_half(monkeypatch):
    # verify all's exchange runs and the bijection-sweep benchmark's grid
    # round-trip every partition by its halves' certificates alone
    images = count_backward(monkeypatch)
    names = ("pairing", "binary", "pairing-refined", "sylvester")
    runs = [run for run in runs_for("all", {}, {}) if run[0] in names]
    assert sorted({name for name, _ in runs}) == sorted(names)
    assert all(report.ok() for report in run_checks(runs, 1))
    for runner in (verify_pairing, verify_binary):
        for m in range(4):
            assert runner(max_n=24, ms=(m,)).ok()
    assert images == []


@pytest.fixture
def broken_inverse(monkeypatch):
    # the inverse sends the images of 2,2 and 5, which are 4 and 1,1,1,1,1,
    # to other partitions of their weight: the decode stage sends 4 to
    # 1,1,1,1 and the inverse fishhook sends 1,1,1,1,1 to 4,1
    patch_stage(monkeypatch, "split_pairs", {(4,): (1, 1, 1, 1)})
    patch_stage(monkeypatch, "sylvester_odd_to_distinct", {(1,) * 5: (4, 1)})


@pytest.mark.parametrize("ms, m, n, text", (
    # a grid makes one run, at its top, so the first failure is by n:
    # 2,2 (level 1) before 5, whatever the order of the grid
    ((0, 1), [0, 1], 4, "2,2"),
    ((1, 0), [1, 0], 4, "2,2"),
    ((2, 1), [2, 1], 4, "2,2"),
    ((1,), 1, 4, "2,2"),
    ((0,), 0, 5, "5"),  # 2,2 is not in the family at m = 0
    ((float("inf"),), "inf", 4, "2,2"),  # written so that JSON can hold it
    ((0, float("inf")), [0, "inf"], 4, "2,2"),
))
def test_exchange_reports_the_first_failure_in_n_order(broken_inverse, ms, m, n, text):
    report = verify_pairing(max_n=8, ms=ms)
    ce = report.counterexample
    assert (ce["m"], ce["n"], ce["input"], ce["detail"]) == (
        m, n, text, "inverse round trip failed")


def test_a_broken_inverse_takes_the_slow_path(broken_inverse, monkeypatch):
    # the halves 2,2 and 5 are left uncertified, so their partitions go
    # through _backward, which reports the first of them
    images = count_backward(monkeypatch)
    assert verify_pairing(max_n=8).counterexample["input"] == "2,2"
    assert images


def test_refined_check_inverts_every_image(broken_inverse):
    report = verify_pairing_refined(max_n=8, phi_specs=("1", "i"))
    assert report.counterexample == {"phi": ["1", "i"], "n": 4, "input": "2,2",
                                     "image": "4", "detail": "inverse round trip failed"}
    # the skipped inputs are those the run checked up to its failure: the
    # empty partition, 1,1 and 2,2 (1,1,1,1 is above the caps)
    assert report.skipped == 3
    report = verify_pairing_refined(max_n=8, phi_specs=("1",))
    assert report.counterexample == {"phi": "1", "n": 4, "input": "2,2", "image": "4",
                                     "detail": "inverse round trip failed"}


@pytest.mark.parametrize("ms, m, n, text, image", (
    ((0,), 0, 3, "2,1", "1,1,1"),
    # the run at m = 1 lists 1,1, whose image 1,1 is already 2's
    ((0, 1), [0, 1], 2, "1,1", "1,1"),
))
def test_exchange_catches_a_map_that_misses_the_target(monkeypatch, ms, m, n, text, image):
    # every input of weight n goes to 1^n, inside the target family, so the
    # images miss the rest of it; the round trip fails, with no check that
    # the images exhaust the target.  Both forward stages send a half to
    # ones of its weight.
    from eulerparts import verify
    for name in ("sylvester_distinct_to_odd", "merge_pairs"):
        monkeypatch.setattr(verify, name, lambda half: (1,) * sum(half))
    report = verify_pairing(max_n=6, ms=ms)
    assert report.counterexample == {"m": m, "n": n, "input": text, "image": image,
                                     "detail": "inverse round trip failed"}


@pytest.mark.parametrize("m, left, right", (
    (0, {2: 1}, {0: 1, 2: 1}),
    (1, {0: 1, 2: 2, 4: 1}, {0: 2, 2: 2, 4: 1}),
    (2, {0: 2, 2: 5, 4: 2, 6: 1}, {0: 3, 2: 5, 4: 2, 6: 1}),
))
def test_exchange_fails_on_a_target_larger_than_the_image(m, left, right):
    # the pairing map into the target caps at m + 1: every image lies in the
    # target, the round trip holds and l_a goes to l_o, but the images miss
    # 2^(m+1), first at n = 2m + 2, so only the histograms show the fault
    from eulerparts import verify
    report = VerificationReport("pairing", {"max_n": 12, "m": [m]})
    verify._verify_exchange(
        report, PAIRING_STAGES, {"m": m},
        (PAIRING_SOURCE.bounds(m), PAIRING_TARGET.bounds(m + 1)), 12, verify._EXCHANGED)
    assert report.counterexample == {"m": m, "n": 2 * m + 2,
                                     "source_histogram": left, "target_histogram": right}


def test_exchange_checks_the_target_caps_of_every_m(monkeypatch):
    # 2,2 and 1,1,1,1, even halves all, swap images through merge_pairs;
    # the inverse agrees, so every round trip holds, and l_a = l_o
    # throughout.  m = 3 admits the image 2,2 of 2,2; m = 1 rejects it by
    # its caps.  The grid's run at 3 rejects it by its level: 2,2 is in the
    # family at 1, its image only from 2 on.
    swap_stage_images(monkeypatch, "merge_pairs", "split_pairs",
                      {(2, 2): (1, 1, 1, 1), (1, 1, 1, 1): (2, 2)})
    assert verify_pairing(max_n=6, ms=(1,)).counterexample == {
        "m": 1, "n": 4, "input": "2,2", "image": "2,2",
        "detail": "image violates the target caps"}
    assert verify_pairing(max_n=6, ms=(3,)).ok()
    assert verify_pairing(max_n=6, ms=(3, 1)).counterexample == {
        "m": [3, 1], "n": 4, "input": "2,2", "image": "2,2",
        "detail": "statistic not carried over"}


@pytest.fixture(params=(
    ("pairing", PAIRING_SOURCE, (3, 3) + (1,) * 8, (2, 2) + (1,) * 10),
    ("binary", BINARY_FAMILY, (2,) * 8 + (1,) * 4, (2,) * 10),
))
def swapped_levels(request, monkeypatch):
    # two sources of one n with equal l_a and levels 4 and 5 swap images,
    # and the inverse agrees: every image is a partition of n and carries
    # l_o = l_a, but each has the other source's level.  Both sources are
    # even halves, so the swap is one of the encode stage's images, which
    # no partition of a smaller n meets.  Returns the check, n, the source
    # the check meets first and the swapped images.
    from eulerparts import bijections
    name, family, low, high = request.param
    assert (family.level(low), family.level(high)) == (4, 5)
    assert sum(low) == sum(high) and alt_sum(low) == alt_sum(high)
    assert bijections.split_distinct_even(low)[0] == bijections.split_distinct_even(high)[0] == ()
    stages = {"pairing": ("merge_pairs", "split_pairs"),
              "binary": ("binary_expand", "binary_contract")}[name]
    forward = swap_stage_images(monkeypatch, *stages, {low: high, high: low})
    return REGISTRY[name].runner, sum(low), max(low, high), forward


def test_the_every_m_run_catches_a_map_that_moves_a_level(swapped_levels):
    runner, n, first, forward = swapped_levels
    assert runner(max_n=n).counterexample == {
        "m": "every", "n": n, "input": plain_form(first), "image": plain_form(forward[first]),
        "detail": "statistic not carried over"}
    # no family at m <= 3 holds a source or an image of level 4 or 5
    assert runner(max_n=n, ms=(0, 1, 2, 3)).ok()


def test_a_grid_run_catches_a_map_that_moves_a_level(swapped_levels):
    # the run at the top of a grid carries the level, so it sees the swap
    # that the family at 6 alone does not: the images stay in that family
    # and carry l_o = l_a, but the map would not send the family at 4 onto
    # its target
    runner, n, first, forward = swapped_levels
    assert runner(max_n=n, ms=(0, 6)).counterexample == {
        "m": [0, 6], "n": n, "input": plain_form(first), "image": plain_form(forward[first]),
        "detail": "statistic not carried over"}
    assert runner(max_n=n, ms=(6,)).ok()


def test_a_phi_grid_run_catches_a_map_that_moves_a_profile(monkeypatch):
    # 3,3 and 2,2,1,1 (n = 6, refined key (0, 0), profiles (3,) and (2, 1))
    # are even halves that swap images through merge_pairs, and the inverse
    # agrees: both lie in the sources and targets at phi = 1 and at phi = i,
    # and each image carries the refined key, but not the profile, so the
    # map would not send the family at phi = 0 onto its target
    low, high = (3, 3), (2, 2, 1, 1)
    forward = swap_stage_images(monkeypatch, "merge_pairs", "split_pairs",
                                {low: high, high: low})
    assert verify_pairing_refined(max_n=6, phi_specs=("1", "i")).counterexample == {
        "phi": ["1", "i"], "n": 6, "input": "3,3", "image": plain_form(forward[low]),
        "detail": "statistic not carried over"}
    assert verify_pairing_refined(max_n=6, phi_specs=("i",)).ok()


@pytest.mark.parametrize("ms, m", (((1,), 1), ((1, 2), [1, 2])))
def test_exchange_reports_a_statistic_not_carried_over(monkeypatch, ms, m):
    # the distinct halves 4 (l_a 4) and 3,1 (l_a 2) swap images through the
    # fishhook, 1,1,1,1 and 3,1 (l_o 4 and 2); the inverse agrees and both
    # images lie in the target, so only the statistic, read from the
    # target's table, shows the fault
    swap_stage_images(monkeypatch, "sylvester_distinct_to_odd", "sylvester_odd_to_distinct",
                      {(4,): (3, 1), (3, 1): (4,)})
    report = verify_pairing(max_n=6, ms=ms)
    assert report.counterexample == {"m": m, "n": 4, "input": "4", "image": "3,1",
                                     "detail": "statistic not carried over"}


@pytest.mark.parametrize("ms", ((2,), (0, 2)))
def test_exchange_takes_each_statistic_once(monkeypatch, ms):
    # per n of the one run, at the top of the grid: the source statistic
    # once per source partition and the target statistic once per target
    # partition, the images' included, since every image lies in the target
    from eulerparts import verify
    calls = []
    monkeypatch.setattr(verify, "_EXCHANGED", tuple(
        (lambda parts, stat=stat: calls.append(stat.__name__) or stat(parts))
        for stat in verify._EXCHANGED))
    assert verify_pairing(max_n=10, ms=ms).ok()
    for stat, family in (("alt_sum", PAIRING_SOURCE), ("odd_count", PAIRING_TARGET)):
        assert calls.count(stat) == sum(count_total(n, family.bounds(max(ms)))
                                        for n in range(11))


def count_forward(monkeypatch):
    # every source partition the checks map: the calls to verify's
    # split_distinct_even, the one stage that is not memoised
    from eulerparts import verify
    mapped, split = [], verify.split_distinct_even
    monkeypatch.setattr(verify, "split_distinct_even",
                        lambda alpha: mapped.append(alpha) or split(alpha))
    return mapped


@pytest.mark.parametrize("ms", ((0, 1, 2), (2, 0, 1), (2,)))
def test_exchange_maps_each_partition_once_per_check(monkeypatch, ms):
    # the one run lists the family at the top m, 2: each of its partitions
    # is mapped once, whatever the grid order
    mapped = count_forward(monkeypatch)
    assert verify_pairing(max_n=12, ms=ms).ok()
    assert len(mapped) == len(set(mapped)) == sum(
        count_total(n, PAIRING_SOURCE.bounds(2)) for n in range(13))


def test_refined_check_maps_each_partition_once(monkeypatch):
    # the one run lists the largest sources, those of phi = i
    mapped = count_forward(monkeypatch)
    assert verify_pairing_refined(max_n=12).ok()
    assert len(mapped) == sum(count_total(n, parse_bounds("phi:2*(i)+1")) for n in range(13))


@pytest.mark.parametrize("runner, ms, walks", (
    (verify_pairing, (0, 1), 2), (verify_binary, (0, 1), 1),
    (verify_pairing, None, 1), (verify_binary, None, 1),
))
def test_exchange_lists_a_shared_family_once(monkeypatch, runner, ms, walks):
    # a grid makes one run, at its top; binary's source and target are one
    # family, listed once per n; the every-m run lists one uncapped family
    # per n for either check
    from eulerparts import verify
    sizes = []
    walk = verify.bounded_partitions
    monkeypatch.setattr(verify, "bounded_partitions",
                        lambda n, bounds: sizes.append(n) or walk(n, bounds))
    assert runner(max_n=5, ms=ms).ok()
    assert len(sizes) == walks * 6


def test_sylvester_check_reports_an_even_image_part(monkeypatch):
    # the image 2,2 lies outside the inverse's domain; the caps report it,
    # and the inverse never sees it
    from eulerparts import verify
    fishhook = verify.sylvester_distinct_to_odd
    monkeypatch.setattr(verify, "sylvester_distinct_to_odd",
                        lambda lam: (2, 2) if lam == (4,) else fishhook(lam))
    inverted = record_calls(monkeypatch, "sylvester_odd_to_distinct")
    decoded = record_calls(monkeypatch, "split_pairs")
    report = point("sylvester")(max_n=6)
    assert report.counterexample == {"phi": "0", "n": 4, "input": "4", "image": "2,2",
                                     "detail": "image violates the target caps"}
    assert inverted and (2, 2) not in decoded


def test_sylvester_check_reports_a_statistic_not_carried_over(monkeypatch):
    # 5 and 4,1 swap images and the inverse agrees, so only the statistics
    # (first part 5, l_a 5 against hook 4, l_o 3) show the fault
    from eulerparts import verify
    swap = {(5,): (3, 1, 1), (4, 1): (1,) * 5}
    back = {image: parts for parts, image in swap.items()}
    fishhook, inverse = verify.sylvester_distinct_to_odd, verify.sylvester_odd_to_distinct
    monkeypatch.setattr(verify, "sylvester_distinct_to_odd",
                        lambda lam: swap.get(lam) or fishhook(lam))
    monkeypatch.setattr(verify, "sylvester_odd_to_distinct",
                        lambda tau: back.get(tau) or inverse(tau))
    report = point("sylvester")(max_n=6)
    assert report.counterexample == {"phi": "0", "n": 5, "input": "5", "image": "3,1,1",
                                     "detail": "statistic not carried over"}


def test_the_checks_build_no_partition(monkeypatch):
    # the checks run on parts tuples end to end; Partition is only the
    # command line's text codec
    from eulerparts.partition import Partition

    def refuse(self, parts=()):
        raise AssertionError("a check built a Partition")

    monkeypatch.setattr(Partition, "__init__", refuse)
    for name in ("sylvester", "pairing", "binary", "pairing-refined", "bessenrodt"):
        # through the registry, so that a check's fixed keywords apply
        assert point(name)().ok(), name


def test_verify_cli_reports_a_broken_map_invariant(lossy_merge_pairs, capsys):
    from eulerparts.cli import main
    assert main(["verify", "pairing", "--max-n", "4", "--m", "1"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL pairing") and "'input': '1,1'" in out
    assert err == ""
