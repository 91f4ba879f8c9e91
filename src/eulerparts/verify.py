"""Finite-range verification of the partition identities.

Every checker computes both sides of an identity over an explicit grid and
returns a :class:`VerificationReport`; nothing is sampled, so a "pass" means
the identity holds everywhere on the grid.  The three bijection checks share
one engine, :func:`_verify_exchange`, which runs on parts tuples under one
pair of caps, takes each statistic of a partition once per n and sends each
source partition once through the composite map, which it runs inline over
memoised stages; the inverse is certified once per half.
Each makes one run: an m or phi grid is checked at its top, every m by
default (:func:`_verify_composite`), and a failure is reported by n.
The registry at the end plans and runs the grid of the ``verify`` command:
:func:`runs_for` picks the runs and :func:`run_checks` runs them.  The
paper's special cases are registry points of the general checks:
``bessenrodt`` is ``pairing-gf`` at m = 0, ``sylvester`` is
``pairing-refined`` at phi = 0 (the fishhook map on distinct partitions) and
``boulet`` is ``boulet-restricted`` over all partitions.
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
from .bijections import (DomainError, _backward, binary_contract, binary_expand,
                         binary_inverse, binary_map, merge_pairs, pairing_inverse,
                         pairing_map, split_distinct_even, split_pairs,
                         sylvester_distinct_to_odd, sylvester_odd_to_distinct)
from .enumeration import (BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET,
                          UNBOUNDED, BoundSequence, CongruenceFilter,
                          bounded_partitions, count_total, parse_bounds,
                          parse_phi)
from .partition import (alt_sum, largest_odd_multiplicity_part, largest_odd_part,
                        odd_count, plain_form)
from .series import (ALT_BY_WEIGHT, FOUR_PARAM, HALF_CELLS, ODD_BY_WEIGHT,
                     ROW_TOTALS, XQ, Series, WeightVariant, binary_gf,
                     enumerated_series, half_cells_product, pairing_gf,
                     partition_gf, restricted_boulet_product, row_totals_product,
                     series_equal)


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


def _verify_exchange(report: VerificationReport, stages, context: dict, caps,
                     max_n: int, stats) -> Counter:
    """Check a bijection between the families under ``caps``, a (source
    caps, target caps) pair, for each n up to ``max_n``: the histograms of
    ``stats`` over the two families agree; each source partition's image is
    in the target family, the inverse undoes it and the statistic is carried
    over.  It stops at the first failure, so the counterexample is the first
    in n order, and starts with ``context``.  Returns the source histogram
    summed over the n checked, the failing n included.

    Each statistic of a partition is taken once per n.  The source
    statistic of each source partition gives both the left-hand histogram
    and the key its image must carry.  The target family is listed as a
    dict from each target partition to its statistic, which is never None:
    it gives the right-hand histogram, answers target membership, and gives
    an image's statistic, all in one lookup.  The caps are tested before
    the round trip, so an image outside them is reported as such.  Target
    caps that are the source caps list the family once.

    The map is :func:`~eulerparts.bijections._forward`, run inline over
    ``stages`` (fishhook, encode, inverse fishhook, decode), its two forward
    stages memoised in dicts that live for this call.  With each half's
    image the memo stores a certificate of the half's round trip, and only
    a partition with an uncertified half goes through ``_backward``, which
    raises in its own order; the ``bijections`` module docstring says why
    that is exact.  The certificate runs the inverse stage before the
    target lookup, so an inverse that raises other than ``AssertionError``
    or ``DomainError`` stops the check there, maybe before the caps report
    an image.  The map does not check l_a = l_o itself: the statistic
    comparison is that check, or holds it first.

    These checks imply that the images exhaust the target family, so that is
    not checked apart.  Equal histograms give both families the same size
    (the enumeration yields distinct partitions); the round trip makes the
    map injective; and every image lies in the target.  An injection between
    finite sets of equal size is onto.  This holds only while the histogram
    check runs first: a check that compares no statistic must compare the
    sizes of the two families itself.  A statistic that carries a level (or
    a profile) makes the argument hold for each smaller family it cuts out:
    one run at the top of a grid checks every point below it."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    src, dst = caps
    source_stat, target_stat = stats
    fishhook, encode, unhook, decode = stages
    hooked, encoded = {}, {}
    totals: Counter = Counter()

    def certify(memo, half, stage, inverse, parity):
        # the stage's image of ``half``, stored with whether every part of it
        # has ``parity`` and ``inverse`` sends it, sorted, back to ``half``
        image = stage(half)
        try:
            certified = (all(p % 2 == parity for p in image)
                         and inverse(tuple(sorted(image, reverse=True))) == half)
        except (AssertionError, DomainError):
            certified = False
        memo[half] = image, certified
        return image, certified

    def check(n):
        # the first failure at n, or None
        source = list(bounded_partitions(n, src))
        target = {beta: target_stat(beta)
                  for beta in (source if dst is src else bounded_partitions(n, dst))}
        keys = list(map(source_stat, source))
        left, right = Counter(keys), Counter(target.values())
        totals.update(left)
        if left != right:
            return {"source_histogram": _json_keys(left), "target_histogram": _json_keys(right)}
        try:
            for alpha, key in zip(source, keys):
                lam, mu = split_distinct_even(alpha)
                tau, lam_sure = hooked.get(lam) or certify(hooked, lam, fishhook, unhook, 1)
                nu, mu_sure = encoded.get(mu) or certify(encoded, mu, encode, decode, 0)
                beta = tuple(sorted(tau + nu, reverse=True))
                if sum(beta) != n:
                    raise AssertionError("invariant broken: weight preserved")
                stat = target.get(beta)
                if stat is None:
                    detail = "image violates the target caps"
                    break
                if not (lam_sure and mu_sure) and _backward(beta, unhook, decode)[-1] != alpha:
                    detail = "inverse round trip failed"
                    break
                if stat != key:
                    detail = "statistic not carried over"
                    break
            else:
                return None
        except (AssertionError, DomainError) as exc:
            # An invariant a map checks itself, a stage that rejects a half
            # of a source partition or of an image, or a half that the
            # inverse leaves outside its domain.
            return {"input": plain_form(alpha), "detail": str(exc)}
        return {"input": plain_form(alpha), "image": plain_form(beta), "detail": detail}

    for n in range(max_n + 1):
        failure = check(n)
        if failure:
            report.fail(**context, n=n, **failure)
            break
    return totals


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


def _verify_composite(theorem: str, max_n: int, ms, families, encode,
                      decode) -> VerificationReport:
    """Check the composite map whose even-half stages are ``encode`` and
    ``decode`` from the first of ``families`` onto the second, in one run
    that compares (l_a, source level) against (l_o, target level)
    (:meth:`CapFamily.level`).  A family at m is its partitions of level at
    most m.  Every image lies in the run's target family, the round trip
    makes the map injective, and the level is carried, so for every m up to
    the run's caps the map sends the source family at m onto the target
    family at m, with l_a -> l_o.

    When ``ms`` is None the run lists all partitions of n, under no caps
    (None), and so covers every m, m = inf included.  A grid of several m
    runs under the caps at its top m, which covers every m listed.  A
    one-point grid needs no level to tell points apart: it compares l_a
    against l_o under the caps at its m."""
    source, target = families
    la, lo = _EXCHANGED
    stats = (lambda a: (la(a), source.level(a)), lambda b: (lo(b), target.level(b)))
    if ms is None:
        grid = context = "every"
        src = dst = None
    else:
        ms = _grid(ms, "m")
        grid = context = list(map(_written, ms))
        src = {m: source.bounds(m) for m in ms}[max(ms)]  # validates every m
        dst = src if target is source else target.bounds(max(ms))
        if len(ms) == 1:
            context, stats = grid[0], _EXCHANGED
    report = VerificationReport(theorem, {"max_n": max_n, "m": grid})
    _verify_exchange(report, (sylvester_distinct_to_odd, encode,
                              sylvester_odd_to_distinct, decode),
                     {"m": context}, (src, dst), max_n, stats)
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

    A grid of several phi runs under the caps at their pointwise maximum
    and adds each family's :meth:`CapFamily.profile` to its statistic: each
    i floor(mult(i)/2) times on the source, mult(2i) times on the target, at
    most phi(i) times exactly in the family at phi.  As a level does for m
    (:func:`_verify_composite`), it makes the run check every phi listed.
    """
    phi_specs = _grid(phi_specs, "phi", lambda spec: spec.replace(" ", ""))
    report = VerificationReport("pairing-refined",
                                {"max_n": max_n, "phi": list(phi_specs)})
    phis = [parse_phi(spec) for spec in phi_specs]  # each first, so a bad spec is named as given
    names = [spec.replace(" ", "") for spec in phi_specs]
    name = names[0] if len(names) == 1 else "max(%s)" % ",".join(names)
    families = (PAIRING_SOURCE, PAIRING_TARGET)
    caps = [family.bounds_phi(lambda i: max(phi(i) for phi in phis), name) for family in families]
    context, stats = phi_specs[0], _REFINED
    if len(phi_specs) > 1:
        context = list(phi_specs)
        stats = tuple(lambda p, stat=stat, profile=family.profile: stat(p) + (profile(p),)
                      for stat, family in zip(_REFINED, families))
    totals = _verify_exchange(
        report, (sylvester_distinct_to_odd, merge_pairs, sylvester_odd_to_distinct, split_pairs),
        {"phi": context}, caps, max_n, stats)
    report.skipped = sum(count for key, count in totals.items() if key[:2] == (0, 0))
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
def verify_boulet_restricted(i: int = 0, k: int = 1,
                             bounds: BoundSequence | str = "1:1,2:3",
                             trunc: int = 20) -> VerificationReport:
    """Restricted four-parameter product against direct enumeration.

    For i != 0 the enumeration uses the side conditions (even length, part i
    at most once), and a failing run also notes where the reading without
    the empty partition differs: always at the constant term.
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
        # Without the empty partition there is no constant term; every product's is 1.
        bare = Series(lhs.names, trunc, {e: c for e, c in lhs.terms.items() if any(e)})
        report.notes.append("empty partition excluded: still differs at %s (%d vs %d)"
                            % _compare(report, bare, rhs))
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
    source, target = families
    caps = [(source.bounds(m), target.bounds(m)) for m in ms]  # every m valid before any work
    report = VerificationReport(theorem, {"m": list(map(_written, ms)), "trunc": trunc})
    for m, (left, right) in zip(ms, caps):
        by_alt = enumerated_series(trunc, ALT_BY_WEIGHT, left)
        by_odd = enumerated_series(trunc, ODD_BY_WEIGHT, right)
        gf = closed(m, trunc)
        for tag, other in (("enumerated by odd parts", by_odd), ("closed form", gf)):
            if _compare(report, by_alt, other, "enumerated_by_alt_sum", "other",
                        m=_written(m), other_side=tag):
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
    """Registry entry: the runner, the grids ``verify all`` uses, the flags
    that apply and the fixed keywords.  ``flags`` maps the keyword each flag
    sets to the runner keyword it sets, the same name but where a check
    renames one; it is stored, so a wrapper that replaces the runner keeps
    it.  ``fixed`` holds runner keywords that every run of the check passes
    and that no flag sets, so that the check is one point of its runner's
    grid."""

    runner: object
    default_runs: tuple[dict, ...]
    flags: dict[str, str]
    fixed: dict = field(default_factory=dict)


def _check(runner, *default_runs: dict, fixed: dict | None = None,
           renamed: dict | None = None) -> Check:
    # ``_timed`` wraps the body with functools.wraps, so the signature is the
    # body's; ``renamed`` maps a runner keyword to the keyword its flag sets
    fixed, renamed = fixed or {}, renamed or {}
    return Check(runner, default_runs or ({},),
                 {renamed.get(kw, kw): kw for kw in inspect.signature(runner).parameters
                  if kw not in fixed}, fixed)


REGISTRY: dict[str, Check] = {
    "bessenrodt": _check(verify_pairing_gf, {"trunc": 30}, fixed={"ms": (0,)},
                         renamed={"trunc": "max_n"}),
    "sylvester": _check(verify_pairing_refined, {"max_n": 25}, fixed={"phi_specs": ("0",)}),
    "andrews": _check(verify_andrews,
                      {"bounds_a": "all:2s", "bounds_b": "even:1s"},
                      {"bounds_a": "all:4s", "bounds_b": "even:2s"},
                      {"bounds_a": "all:6s", "bounds_b": "even:3s"}),
    "boulet": _check(verify_boulet_restricted, {"trunc": 16},
                     fixed={"i": 0, "k": 1, "bounds": "all:inf"}),
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
    """The (check id, runner keyword arguments) runs that ``verify theorem``
    makes, given the keywords that the command line's flags set and
    ``flags``, the flag that sets each keyword.  Each check takes the
    keywords of its own flags, as its runner's keywords, and lays them over
    every point of its default grid, over its fixed keywords; a single check
    given any keyword makes one run, of those keywords alone, and a keyword
    it does not take is an error that names the flag typed."""
    if theorem != "all" and theorem not in REGISTRY:
        raise ValueError("unknown theorem id %r (known: %s)"
                         % (theorem, ", ".join(REGISTRY)))
    runs = []
    for name in REGISTRY if theorem == "all" else [theorem]:
        entry = REGISTRY[name]
        relevant = {entry.flags[kw]: v for kw, v in given.items() if kw in entry.flags}
        if theorem != "all" and len(relevant) < len(given):
            raise ValueError("flags %s do not apply to %r"
                             % (sorted(flags[kw] for kw in given if kw not in entry.flags),
                                name))
        bases = entry.default_runs if theorem == "all" or not relevant else ({},)
        runs.extend((name, {**entry.fixed, **base, **relevant}) for base in bases)
    return runs


def run_checks(runs: list[tuple[str, dict]], jobs: int) -> list[VerificationReport]:
    """Call the registry runner of every run in this process and return the
    reports, each named by its check id, in the order of ``runs``.

    With more than one of min(jobs, runs, cores) workers, each call is made
    from a thread here, and its timed runner sends the body, by name and with
    its arguments, to a worker process and waits for the report; so runs
    compute in parallel while any wrapper on a ``REGISTRY`` entry stays here.
    """
    def execute(run):
        name, kwargs = run
        report = REGISTRY[name].runner(**kwargs)
        report.theorem = name  # a registry point reports under its own id
        return report

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
