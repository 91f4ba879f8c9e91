"""Finite-range verification of the partition identities.

Every checker computes both sides of an identity over an explicit grid and
returns a :class:`VerificationReport`; nothing is sampled, so a "pass" means
the identity holds everywhere on the grid.  The four bijection checks share
one engine, :func:`_verify_exchange`, which runs on parts tuples, checks
one run at a time, takes each statistic of a partition once per run and n,
and keeps no memo; the composite checks memoise each map stage, so a stage
runs once per distinct input in a check however many m or phi runs meet it.
A check over several m or phi reports its first failure in the order they
were given, then by n.  By default ``pairing`` and ``binary`` make one run
that covers every m (:func:`_verify_composite`).
The registry at the end plans and runs the grid of the ``verify`` command:
:func:`runs_for` picks the runs and :func:`run_checks` runs them.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass, field

# pairing_map, binary_map and their inverses are not called here; the
# benchmark's tracer (perfbench/spans.py) wraps them under these names.
from .bijections import (DomainError, _backward, _forward, binary_contract,
                         binary_expand, binary_inverse, binary_map,
                         merge_pairs, pairing_inverse, pairing_map,
                         split_pairs, sylvester_distinct_to_odd,
                         sylvester_odd_to_distinct)
from .enumeration import (BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET,
                          UNBOUNDED, BoundSequence, CongruenceFilter,
                          bounded_partitions, count_total, parse_bounds,
                          parse_phi)
from .partition import (alt_sum, largest_odd_multiplicity_part,
                        largest_odd_part, odd_count, plain_form)
from .series import (ALT_BY_WEIGHT, FOUR_PARAM, HALF_CELLS, ODD_BY_WEIGHT,
                     ROW_TOTALS, XQ, Series, WeightVariant, binary_gf,
                     boulet_product, enumerated_series, half_cells_product,
                     pairing_gf, partition_gf, restricted_boulet_product,
                     row_totals_product, series_equal)


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    Serialises to ``{theorem, params, status, counterexample?, elapsed_ms}``
    plus ``skipped`` and ``notes`` when they carry information.
    """

    theorem: str
    params: dict
    status: str = "pass"
    counterexample: dict | None = None
    elapsed_ms: int = 0
    skipped: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return self.status == "pass"

    def fail(self, **counterexample):
        self.status = "fail"
        if self.counterexample is None:
            self.counterexample = counterexample

    def to_dict(self) -> dict:
        out = {"theorem": self.theorem, "params": self.params,
               "status": self.status, "elapsed_ms": self.elapsed_ms}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.skipped:
            out["skipped"] = self.skipped
        if self.notes:
            out["notes"] = self.notes
        return out

    def summary(self) -> str:
        head = "%s %s (%d ms)" % (self.status.upper(), self.theorem, self.elapsed_ms)
        if self.counterexample is not None:
            head += "  counterexample: %s" % (self.counterexample,)
        for note in self.notes:
            head += "\n  note: %s" % note
        return head


# The process pool that runner bodies go to while ``run_checks`` has one open,
# else None.
_pool = None


def _run_body(name: str, args, kwargs) -> VerificationReport:
    return globals()[name].__wrapped__(*args, **kwargs)


def _timed(runner):
    """Set ``elapsed_ms`` on the report the runner returns to its wall time,
    which, while ``run_checks`` has a process pool open, includes the trip to
    the worker."""
    @functools.wraps(runner)
    def timed(*args, **kwargs) -> VerificationReport:
        started = time.perf_counter()
        if _pool is None:
            report = runner(*args, **kwargs)
        else:
            report = _pool.submit(_run_body, runner.__name__, args, kwargs).result()
        report.elapsed_ms = int((time.perf_counter() - started) * 1000)
        return report
    return timed


def _bounds(spec: BoundSequence | str) -> BoundSequence:
    return parse_bounds(spec) if isinstance(spec, str) else spec


def _compare(report: VerificationReport, lhs, rhs,
             left: str = "enumerated", right: str = "product", **context):
    """Compare two series.  ``None`` when they agree; otherwise fail
    ``report`` with ``context``, the first differing monomial (as a
    ``{variable: exponent}`` dict) and both coefficients, named ``left`` and
    ``right``, and return (monomial, left coefficient, right coefficient)."""
    cmp = series_equal(lhs, rhs)
    if cmp:
        return None
    monomial = dict(zip(lhs.names, cmp.exponents))
    report.fail(**context, monomial=monomial, **{left: cmp.left, right: cmp.right})
    return monomial, cmp.left, cmp.right


# -- statistic distributions and bijections ---------------------------------

@_timed
def verify_bessenrodt(max_n: int = 30) -> VerificationReport:
    """Distinct partitions counted by alternating sum match odd-part
    partitions counted by length, for every n up to ``max_n``: two
    coefficient DP series (``la`` and ``lo``), neither of them a product."""
    report = VerificationReport("bessenrodt", {"max_n": max_n})
    _compare(report, enumerated_series(max_n, ALT_BY_WEIGHT, PAIRING_SOURCE.bounds(0)),
             enumerated_series(max_n, ODD_BY_WEIGHT, PAIRING_TARGET.bounds(0)),
             "by_alt_sum", "by_length")
    return report


def _odd_hook(beta: tuple[int, ...]) -> tuple[int, int]:
    """(l_o, l_o + (largest odd part - 1)/2), or (0, 0) with no odd part."""
    k = odd_count(beta)
    return k, k + largest_odd_part(beta) // 2


# The statistics an exchange check compares on parts tuples, (on the source,
# on the image).  The refined pair adds the largest part of odd multiplicity,
# (0, 0) if none; at phi = 0 it is Sylvester's hook-size property together
# with l_a = l_o.
_EXCHANGED = (alt_sum, odd_count)
_REFINED = (lambda a: (alt_sum(a), largest_odd_multiplicity_part(a)), _odd_hook)


def _json_keys(hist: dict) -> dict:
    """``hist`` keyed ascending, with each tuple key written as text, so
    that it serialises."""
    return {str(k) if isinstance(k, tuple) else k: v for k, v in sorted(hist.items())}


def _verify_exchange(report: VerificationReport, forward, backward, runs,
                     max_n: int, stats) -> Counter:
    """Check a bijection for each of ``runs``, (context, source caps, target
    caps) triples, in order, and each n up to ``max_n``: the histograms of
    ``stats`` over the two families agree; each source partition's image is
    in the target family, the inverse undoes it and the statistic is carried
    over.  It stops at the first failure, so the counterexample is the first
    in run order, then n order, and starts with the run's context.  Returns
    the source histogram summed over the (run, n) pairs checked: each n of
    the runs before the failing one, and of the failing run up to its n.

    Each statistic of a partition is taken once per run and n.  The source
    statistic of each source partition gives both the left-hand histogram
    and the key its image must carry.  The target family is listed as a
    dict from each target partition to its statistic: it gives the
    right-hand histogram, answers target membership, and gives an image's
    statistic.  The caps are tested first, so an image outside them never
    reaches the inverse, and an image that passes them has its statistic in
    the dict.

    The check runs on parts tuples: ``forward`` and ``backward`` are the map
    and its inverse on them.  It keeps no memo, so a partition that two runs
    admit is mapped in each; the composite maps memoise their stages
    (:func:`_composite`).  The map does not check l_a = l_o itself: the
    statistic comparison is that check, or holds it as its first coordinate.

    These checks imply that the images exhaust the target family, so that is
    not checked apart.  Equal histograms give both families the same size
    (the enumeration yields distinct partitions); the round trip makes the
    map injective; and every image lies in the target.  An injection between
    finite sets of equal size is onto.  This holds only while the histogram
    check runs first: a check that compares no statistic must compare the
    sizes of the two families itself."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    source_stat, target_stat = stats
    totals: Counter = Counter()

    def check(n, src, dst):
        # The first failure of one run at n, or None.  A run whose target
        # caps are its source caps lists its family once.
        source = list(bounded_partitions(n, src))
        target = {beta: target_stat(beta)
                  for beta in (source if dst is src else bounded_partitions(n, dst))}
        keys = list(map(source_stat, source))
        left, right = Counter(keys), Counter(target.values())
        totals.update(left)
        if left != right:
            return {"by_alt_sum": _json_keys(left), "by_odd_count": _json_keys(right)}
        for alpha, key in zip(source, keys):
            try:
                beta = forward(alpha)
                if beta not in target:
                    detail = "image violates the target caps"
                elif backward(beta) != alpha:
                    detail = "inverse round trip failed"
                elif target[beta] != key:
                    detail = "statistic not carried over"
                else:
                    continue
            except (AssertionError, DomainError) as exc:
                # An invariant a map checks itself, or a stage that rejects a
                # half of a source partition or of an image.
                return {"input": plain_form(alpha), "detail": str(exc)}
            return {"input": plain_form(alpha), "image": plain_form(beta), "detail": detail}
        return None

    for context, src, dst in runs:
        for n in range(max_n + 1):
            failure = check(n, src, dst)
            if failure:
                report.fail(**context, n=n, **failure)
                return totals
    return totals


def _composite(compose, fishhook, code):
    """One direction of the pairing or binary map on parts tuples: ``compose``
    (``_forward`` or ``_backward``) with ``fishhook`` and ``code``, the stage
    of the even half, each memoised by its own ``functools.cache``: the only
    memos of an exchange check.  The runners call this each time they run,
    so a stage runs once per distinct input the check meets, whichever runs
    meet it, and its memo lives for one check; ``sylvester`` meets each
    input once and runs the fishhooks bare.

    A memo changes no verdict, as the ``bijections`` module argues: the
    stages are pure functions of their input tuple; ``functools.cache``
    stores nothing for a call that raises, so the stage raises again for
    every partition that meets that input; and every per-partition check
    still runs for every source partition (the split, the join, the map's
    weight check, the target caps, the round trip and the statistic)."""
    hook, coded = functools.cache(fishhook), functools.cache(code)
    return lambda parts: compose(parts, hook, coded)[-1]


@_timed
def verify_sylvester(max_n: int = 25) -> VerificationReport:
    """The fishhook map is a bijection distinct -> odd for every weight up
    to ``max_n``, inverts correctly, and satisfies

    * first part of the input = length of the image + (largest image part - 1)/2
    * alternating sum of the input = number of parts of the image (all of
      them odd), that is, l_a(input) = l_o(image).
    """
    report = VerificationReport("sylvester", {"max_n": max_n})
    runs = [({}, PAIRING_SOURCE.bounds(0), PAIRING_TARGET.bounds(0))]
    _verify_exchange(report, sylvester_distinct_to_odd, sylvester_odd_to_distinct,
                     runs, max_n, _REFINED)
    return report


def _grid(values, name: str, key=lambda point: point) -> tuple:
    """``values``, an m or phi grid, as a tuple, read once, so that a
    one-shot iterator is checked as well as reported.  An empty grid would
    pass having checked nothing, and a point repeated (its ``key`` repeated)
    would be checked and reported twice, so both are errors."""
    grid = tuple(values)
    if not grid:
        raise ValueError("the %s grid is empty: there is nothing to check" % name)
    keys = [key(point) for point in grid]
    for j, point in enumerate(keys):
        if point in keys[:j]:
            raise ValueError("the %s grid repeats %r" % (name, point))
    return grid


def _written(m):
    """m as a report writes it: ``"inf"`` for ``UNBOUNDED``, which JSON has
    no number for."""
    return "inf" if m == UNBOUNDED else m


def _m_runs(ms, source, target) -> list:
    """One run per m: its context and both families' caps at m, one caps
    object if the families are one, so the engine enumerates it once.  Every
    run is built, and so every m validated, before any work."""
    runs = []
    for m in ms:
        src = source.bounds(m)
        runs.append(({"m": _written(m)}, src, src if target is source else target.bounds(m)))
    return runs


def _verify_composite(theorem: str, max_n: int, ms, families, encode,
                      decode) -> VerificationReport:
    """Check the composite map whose even-half stages are ``encode`` and
    ``decode`` from the first of ``families`` onto the second: one run per m
    of ``ms``, or, when ``ms`` is None, one run that covers every m.

    The every-m run lists all partitions of n once, under caps of None (no
    caps) on both sides, and compares (l_a, source level) against (l_o,
    target level) (:attr:`CapFamily.level`).  Its checks make the map a
    bijection of the partitions of n onto themselves: equal histograms, the
    round trip, and every image a partition of n.  The statistic comparison
    makes it keep the level.  A family at m is its partitions of level at
    most m, so for every m, m = inf included, the map sends the source
    family at m onto the target family at m, with l_a -> l_o."""
    source, target = families
    if ms is None:
        la, lo = _EXCHANGED
        grid, runs = "every", [({"m": "every"}, None, None)]
        stats = (lambda a: (la(a), source.level(a)), lambda b: (lo(b), target.level(b)))
    else:
        ms = _grid(ms, "m")
        grid, runs, stats = list(map(_written, ms)), _m_runs(ms, source, target), _EXCHANGED
    report = VerificationReport(theorem, {"max_n": max_n, "m": grid})
    _verify_exchange(report, _composite(_forward, sylvester_distinct_to_odd, encode),
                     _composite(_backward, sylvester_odd_to_distinct, decode),
                     runs, max_n, stats)
    return report


@_timed
def verify_pairing(max_n: int = 22, ms=None) -> VerificationReport:
    """The pairing map is a statistic-exchanging bijection from "every part
    at most 2m+1 times" onto "even parts at most m times", for each m of
    ``ms`` or, by default, for every m at once (:func:`_verify_composite`)."""
    return _verify_composite("pairing", max_n, ms, (PAIRING_SOURCE, PAIRING_TARGET),
                             merge_pairs, split_pairs)


@_timed
def verify_binary(max_n: int = 22, ms=None) -> VerificationReport:
    """The binary map exchanges the statistics within the family "even parts
    at most 2m+1 times", for each m of ``ms`` or, by default, for every m
    at once (:func:`_verify_composite`)."""
    return _verify_composite("binary", max_n, ms, (BINARY_FAMILY, BINARY_FAMILY),
                             binary_expand, binary_contract)


@_timed
def verify_pairing_refined(max_n: int = 20, phi_specs=("1", "i")) -> VerificationReport:
    """Refinement of the pairing map under a size-dependent cap phi.

    Sources: every part i at most 2 phi(i) + 1 times, by (alternating sum,
    largest part of odd multiplicity).  Targets: even parts 2i at most
    phi(i) times, by (number of odd parts, that number + (largest odd part
    - 1)/2).  Inputs with no odd multiplicity (both statistics 0) fall
    outside the refinement; they are still mapped, and counted as skipped.
    """
    phi_specs = _grid(phi_specs, "phi", lambda spec: spec.replace(" ", ""))
    report = VerificationReport("pairing-refined",
                                {"max_n": max_n, "phi": list(phi_specs)})
    runs = []
    for spec in phi_specs:
        phi = parse_phi(spec)  # first, so a bad spec is named as given
        src = parse_bounds("phi:2*(%s)+1" % spec)
        # "even part 2i at most phi(i) times" has no bound-DSL text
        dst = BoundSequence(lambda s, phi=phi: phi(s // 2) if s % 2 == 0 else UNBOUNDED,
                            "at most phi(i) of each even part 2i, phi = %s" % spec)
        runs.append(({"phi": spec}, src, dst))
    totals = _verify_exchange(
        report, _composite(_forward, sylvester_distinct_to_odd, merge_pairs),
        _composite(_backward, sylvester_odd_to_distinct, split_pairs), runs, max_n, _REFINED)
    report.skipped = totals[(0, 0)]
    report.notes.append("inputs with all multiplicities even fall outside the refinement")
    return report


# -- equivalent bound sequences ---------------------------------------------

# Every cell to q: the coefficient of q^n counts the admissible partitions of n.
_BY_SIZE = WeightVariant("q", ("q",), None, dict.fromkeys("abcd", (1,)))


@_timed
def verify_andrews(bounds_a: BoundSequence | str | None = None,
                   bounds_b: BoundSequence | str | None = None,
                   max_n: int = 30, cutoff: int | None = None) -> VerificationReport:
    """Two cap sequences admit equally many partitions of every n iff their
    size * strict-cap products agree as multisets; check both statements up
    to ``max_n`` (products up to ``cutoff``, default ``max_n + 1``).
    Products that agree up to the cutoff imply equal counts only up to it,
    so a cutoff below ``max_n`` is an error, not a counterexample."""
    if bounds_a is None or bounds_b is None:
        raise ValueError("andrews needs two bound sequences (--a and --b)")
    a = _bounds(bounds_a)
    b = _bounds(bounds_b)
    if cutoff is None:
        cutoff = max_n + 1
    if cutoff < max_n:
        raise ValueError("cutoff %d is below max_n %d: products that agree up to "
                         "the cutoff imply equal counts only up to it" % (cutoff, max_n))
    report = VerificationReport(
        "andrews", {"a": a.spec, "b": b.spec, "max_n": max_n, "cutoff": cutoff})
    prod_a = a.strict_products(cutoff)
    prod_b = b.strict_products(cutoff)
    equivalent = prod_a == prod_b
    report.notes.append("products %s: %s vs %s"
                        % ("agree" if equivalent else "differ", prod_a, prod_b))
    # one variable, so the first differing monomial is the least n
    cmp = series_equal(enumerated_series(max_n, _BY_SIZE, a),
                       enumerated_series(max_n, _BY_SIZE, b))
    if not cmp:
        detail = {"detail": "products agree but counts differ"} if equivalent else {}
        report.fail(**detail, n=cmp.exponents[0], count_a=cmp.left, count_b=cmp.right)
    elif not equivalent:
        report.fail(detail="products differ; the first count difference lies beyond max_n")
    return report


# -- series identities --------------------------------------------------------

@_timed
def verify_partition_gf(max_n: int = 30) -> VerificationReport:
    """Coefficient of q^n in 1/(q;q)_inf equals the number of partitions."""
    report = VerificationReport("partition-gf", {"max_n": max_n})
    gf = partition_gf(max_n)
    counted = Series(XQ, max_n, {(0, n): count_total(n) for n in range(max_n + 1)},
                     degree_index=1)
    cmp = series_equal(counted, gf)
    if not cmp:
        report.fail(n=cmp.exponents[1], enumerated=cmp.left, coefficient=cmp.right)
    return report


@_timed
def verify_boulet(trunc: int = 16) -> VerificationReport:
    """Four-parameter weight sum over all partitions equals Boulet's product."""
    report = VerificationReport("boulet", {"trunc": trunc})
    _compare(report, enumerated_series(trunc, FOUR_PARAM), boulet_product(trunc))
    return report


@_timed
def verify_boulet_restricted(i: int = 0, k: int = 1,
                             bounds: BoundSequence | str = "1:1,2:3",
                             trunc: int = 20) -> VerificationReport:
    """Restricted four-parameter product against direct enumeration.

    For i != 0 the enumeration uses the side conditions (even length, part i
    at most once) and both readings of whether the empty partition belongs
    to the family are reported when they disagree.
    """
    bseq = _bounds(bounds)
    report = VerificationReport(
        "boulet-restricted",
        {"i": i, "k": k, "bounds": bseq.spec, "trunc": trunc})
    filt = CongruenceFilter(k, i, even_length=(i != 0), first_part_once=(i != 0))
    lhs = enumerated_series(trunc, FOUR_PARAM, bseq, filt)
    rhs = restricted_boulet_product(i, k, bseq, trunc)
    if _compare(report, lhs, rhs) is None:
        report.notes.append("matches with the empty partition included")
    elif i != 0:
        # The report keeps its first counterexample; this reading adds a note.
        # Only the empty partition has degree 0, so it is the constant term.
        bare = Series(lhs.names, trunc, {e: c for e, c in lhs.terms.items() if any(e)})
        diff = _compare(report, bare, rhs)
        if diff is None:
            report.notes.append("matches with the empty partition excluded")
        else:
            report.notes.append(
                "empty partition excluded: still differs at %s (%d vs %d)" % diff)
    return report


def _verify_collapse(theorem: str, weight, product, bounds, trunc: int) -> VerificationReport:
    """A two-parameter weight summed over the capped partitions against its
    product under the same caps."""
    bseq = _bounds(bounds)
    report = VerificationReport(theorem, {"bounds": bseq.spec, "trunc": trunc})
    _compare(report, enumerated_series(trunc, weight, bseq), product(bseq, trunc))
    return report


@_timed
def verify_rows_product(bounds: BoundSequence | str = "all:3",
                        trunc: int = 24) -> VerificationReport:
    """Row-totals weight sum under the caps equals its two-parameter product."""
    return _verify_collapse("rows-product", ROW_TOTALS, row_totals_product, bounds, trunc)


@_timed
def verify_halves_product(bounds: BoundSequence | str = "even:1",
                          trunc: int = 24) -> VerificationReport:
    """Half-cells weight sum under the caps equals its two-parameter product."""
    return _verify_collapse("halves-product", HALF_CELLS, half_cells_product, bounds, trunc)


def _verify_gf_triple(theorem: str, ms, trunc: int, families,
                      closed) -> VerificationReport:
    ms = _grid(ms, "m")
    report = VerificationReport(theorem, {"m": list(map(_written, ms)), "trunc": trunc})
    for m, (context, left, right) in zip(ms, _m_runs(ms, *families)):
        by_alt = enumerated_series(trunc, ALT_BY_WEIGHT, left)
        by_odd = enumerated_series(trunc, ODD_BY_WEIGHT, right)
        gf = closed(m, trunc)
        for tag, other in (("enumerated by odd parts", by_odd), ("closed form", gf)):
            if _compare(report, by_alt, other, "enumerated_by_alt_sum", "other",
                        **context, other_side=tag):
                return report
    return report


@_timed
def verify_pairing_gf(ms=(0, 1, 2), trunc: int = 24) -> VerificationReport:
    """Three-way identity: partitions with every part at most 2m+1 times by
    (alternating sum, weight) = partitions with even parts at most m times
    by (odd-part count, weight) = the closed-form product."""
    return _verify_gf_triple("pairing-gf", ms, trunc, (PAIRING_SOURCE, PAIRING_TARGET),
                             pairing_gf)


@_timed
def verify_binary_gf(ms=(0, 1, 2), trunc: int = 24) -> VerificationReport:
    """Three-way identity for the family "even parts at most 2m+1 times":
    by (alternating sum, weight) = by (odd-part count, weight) = closed form."""
    return _verify_gf_triple("binary-gf", ms, trunc, (BINARY_FAMILY, BINARY_FAMILY),
                             binary_gf)


# -- registry ------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """Registry entry: the runner, the grids ``verify all`` uses and the
    runner's keywords, which are the flags that apply to the check.  The
    keywords are stored, so a wrapper that replaces the runner keeps them."""

    runner: object
    default_runs: tuple[dict, ...]
    flags: tuple[str, ...]


def _check(runner, *default_runs: dict) -> Check:
    # ``_timed`` wraps the body with functools.wraps, so the signature is the
    # body's
    return Check(runner, default_runs or ({},),
                 tuple(inspect.signature(runner).parameters))


REGISTRY: dict[str, Check] = {
    "bessenrodt": _check(verify_bessenrodt),
    "sylvester": _check(verify_sylvester),
    "andrews": _check(verify_andrews,
                      {"bounds_a": "all:2s", "bounds_b": "even:1s"},
                      {"bounds_a": "all:4s", "bounds_b": "even:2s"},
                      {"bounds_a": "all:6s", "bounds_b": "even:3s"}),
    "boulet": _check(verify_boulet),
    "boulet-restricted": _check(verify_boulet_restricted,
                                {"i": 0, "k": 1, "bounds": "1:1,2:3"},
                                {"i": 1, "k": 2, "bounds": "3:1,5:3"},
                                {"i": 2, "k": 3, "bounds": "5:1,8:1"}),
    "rows-product": _check(verify_rows_product,
                           {"bounds": "all:3"}, {"bounds": "even:3"},
                           {"bounds": "1:1,3:5"}),
    "halves-product": _check(verify_halves_product,
                             {"bounds": "even:1"}, {"bounds": "all:2"},
                             {"bounds": "2:0,5:3"}),
    "pairing": _check(verify_pairing),
    "binary": _check(verify_binary),
    "pairing-gf": _check(verify_pairing_gf),
    "binary-gf": _check(verify_binary_gf),
    "pairing-refined": _check(verify_pairing_refined),
    "partition-gf": _check(verify_partition_gf),
}


def runs_for(theorem: str, given: dict, flags: dict) -> list[tuple[str, dict]]:
    """The (check id, keyword arguments) runs that ``verify theorem`` makes,
    given the runner keywords set on the command line and ``flags``, the
    flag that sets each keyword.  Each check lays the keywords it takes over
    every point of its default grid; a single check given any keyword makes
    one run, of those keywords alone, and a keyword it does not take is an
    error that names the flag typed."""
    if theorem != "all" and theorem not in REGISTRY:
        raise ValueError("unknown theorem id %r (known: %s)"
                         % (theorem, ", ".join(REGISTRY)))
    runs = []
    for name in REGISTRY if theorem == "all" else [theorem]:
        entry = REGISTRY[name]
        relevant = {kw: v for kw, v in given.items() if kw in entry.flags}
        if theorem != "all" and len(relevant) < len(given):
            raise ValueError("flags %s do not apply to %r"
                             % (sorted(flags[kw] for kw in given if kw not in relevant),
                                name))
        bases = entry.default_runs if theorem == "all" or not relevant else ({},)
        runs.extend((name, {**base, **relevant}) for base in bases)
    return runs


def run_checks(runs: list[tuple[str, dict]], jobs: int) -> list[VerificationReport]:
    """Call the registry runner of every run in this process and return the
    reports in the order of ``runs``.

    With more than one of min(jobs, runs, cores) workers, each call is made
    from a thread here, and its timed runner sends the body, by name and with
    its arguments, to a worker process and waits for the report; so runs
    compute in parallel while any wrapper on a ``REGISTRY`` entry stays here.
    """
    def execute(run):
        name, kwargs = run
        return REGISTRY[name].runner(**kwargs)

    workers = min(jobs, len(runs), os.cpu_count() or 1)
    if workers < 2:
        return [execute(run) for run in runs]
    global _pool
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    with ProcessPoolExecutor(workers) as pool:
        # under fork the first submit starts every worker; make it before
        # any thread starts here
        pool.submit(int)
        # set only now, so a forked worker runs the bodies it is sent itself
        _pool = pool
        try:
            with ThreadPoolExecutor(workers) as threads:
                return list(threads.map(execute, runs))
        finally:
            _pool = None
