"""Finite-range verification of the partition identities.

Every checker enumerates both sides of an identity over an explicit grid
and returns a :class:`VerificationReport`; nothing is sampled, so a "pass"
means the identity holds everywhere on the grid.  The registry at the end
drives the command line.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .bijections import (BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET,
                         binary_inverse, binary_map, pairing_inverse,
                         pairing_map, sylvester_distinct_to_odd,
                         sylvester_odd_to_distinct)
from .enumeration import (UNBOUNDED, BoundSequence, CongruenceFilter,
                          bounded_partitions, count_by_statistic, count_total,
                          histogram, parse_bounds, parse_phi)
from .partition import Partition
from .series import (ALT_BY_WEIGHT, FOUR_PARAM, HALF_CELLS, ODD_BY_WEIGHT,
                     ROW_TOTALS, WeightVariant, binary_gf, boulet_product,
                     enumerated_series, half_cells_product, pairing_gf,
                     partition_gf, restricted_boulet_product,
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


def _timed(runner):
    """Set ``elapsed_ms`` on the report the runner returns to its wall time."""
    @functools.wraps(runner)
    def timed(*args, **kwargs) -> VerificationReport:
        started = time.perf_counter()
        report = runner(*args, **kwargs)
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
    partitions counted by length, for every n up to ``max_n``."""
    report = VerificationReport("bessenrodt", {"max_n": max_n})
    distinct, odds = PAIRING_SOURCE.bounds(0), PAIRING_TARGET.bounds(0)
    for n in range(max_n + 1):
        left = count_by_statistic(n, Partition.alt_sum, distinct)
        right = count_by_statistic(n, Partition.odd_count, odds)
        if left != right:
            report.fail(n=n, by_alt_sum=left, by_length=right)
            break
    return report


@_timed
def verify_sylvester(max_n: int = 25) -> VerificationReport:
    """The fishhook map is a bijection distinct -> odd for every weight up
    to ``max_n``, inverts correctly, and satisfies

    * first part of the input = length of the image + (largest image part - 1)/2
    * alternating sum of the input = number of parts of the image (all of
      them odd), that is, l_a(input) = l_o(image).
    """
    report = VerificationReport("sylvester", {"max_n": max_n})
    distinct, odds = PAIRING_SOURCE.bounds(0), PAIRING_TARGET.bounds(0)
    for n in range(max_n + 1):
        images = []
        for lam in bounded_partitions(n, distinct):
            first = lam.parts[0] if lam.parts else 0
            try:
                tau = sylvester_distinct_to_odd(lam)
                expected = len(tau) + (tau.parts[0] - 1) // 2 if tau.parts else 0
                detail = (
                    "even part in image" if any(p % 2 == 0 for p in tau.parts) else
                    "round trip failed" if sylvester_odd_to_distinct(tau) != lam else
                    "hook size property failed" if first != expected else
                    "statistic property failed" if lam.alt_sum() != tau.odd_count() else
                    None)
            except AssertionError as exc:  # an invariant a map checks itself
                report.fail(n=n, input=str(lam), detail=str(exc))
                return report
            if detail:
                report.fail(n=n, input=str(lam), image=str(tau), detail=detail)
                return report
            images.append(tau)
        target = list(bounded_partitions(n, odds))
        if sorted(p.parts for p in images) != sorted(p.parts for p in target):
            report.fail(n=n, detail="images do not exhaust the odd partitions")
            return report
    return report


def _check_ms(ms):
    """Reject a negative m before any work, naming m rather than a cap."""
    if any(m < 0 for m in ms):
        raise ValueError("m must be >= 0")


def _verify_exchange(report: VerificationReport, mapper, inverse, families,
                     max_n: int, ms) -> VerificationReport:
    """Check ``mapper`` on every partition of the source family: the image
    lies in the target family, ``inverse`` undoes it, and the images exhaust
    the target (l_a becoming l_o is an invariant the map checks itself).
    Each family is enumerated once per (m, n), and the l_a and l_o
    histograms are taken from those lists.  The maps are called without m:
    only the caps depend on it, and they are checked here."""
    _check_ms(ms)
    source_family, target_family = families
    for m in ms:
        src = source_family.bounds(m)
        dst = target_family.bounds(m)
        for n in range(max_n + 1):
            source = list(bounded_partitions(n, src))
            target = list(bounded_partitions(n, dst))
            left = histogram(source, Partition.alt_sum)
            right = histogram(target, Partition.odd_count)
            if left != right:
                report.fail(m=m, n=n, by_alt_sum=left, by_odd_count=right)
                return report
            seen = set()
            for alpha in source:
                try:
                    beta, _ = mapper(alpha)
                    detail = (
                        "image violates the target caps" if not dst.admits(beta) else
                        "inverse round trip failed" if inverse(beta) != alpha else
                        None)
                except AssertionError as exc:  # an invariant a map checks itself
                    report.fail(m=m, n=n, input=str(alpha), detail=str(exc))
                    return report
                if detail:
                    report.fail(m=m, n=n, input=str(alpha), image=str(beta), detail=detail)
                    return report
                seen.add(beta)
            if len(seen) != len(source) or seen != set(target):
                report.fail(m=m, n=n, detail="images do not exhaust the target family")
                return report
    return report


@_timed
def verify_pairing(max_n: int = 22, ms=(0, 1, 2, 3)) -> VerificationReport:
    """The pairing map is a statistic-exchanging bijection from "every part
    at most 2m+1 times" onto "even parts at most m times"."""
    return _verify_exchange(
        VerificationReport("pairing", {"max_n": max_n, "m": list(ms)}),
        pairing_map, pairing_inverse, (PAIRING_SOURCE, PAIRING_TARGET), max_n, ms)


@_timed
def verify_binary(max_n: int = 22, ms=(0, 1, 2, 3)) -> VerificationReport:
    """The binary map exchanges the statistics within the family "even parts
    at most 2m+1 times"."""
    return _verify_exchange(
        VerificationReport("binary", {"max_n": max_n, "m": list(ms)}),
        binary_map, binary_inverse, (BINARY_FAMILY, BINARY_FAMILY), max_n, ms)


@_timed
def verify_pairing_refined(max_n: int = 20, phi_specs=("1", "i")) -> VerificationReport:
    """Refinement of the pairing map under a size-dependent cap phi.

    Sources: every part i at most 2 phi(i) + 1 times, grouped by
    (alternating sum, largest part of odd multiplicity).  Targets: even
    parts 2i at most phi(i) times, at least one odd part, grouped by
    (number of odd parts, that number + (largest odd part - 1)/2).
    Inputs with no odd multiplicity (so the second statistic is 0) fall
    outside the refinement and are counted as skipped.
    """
    report = VerificationReport("pairing-refined",
                                {"max_n": max_n, "phi": list(phi_specs)})
    for spec in phi_specs:
        phi = parse_phi(spec)
        src = BoundSequence.from_function(lambda s, phi=phi: 2 * phi(s) + 1,
                                          "phi:2*(%s)+1" % spec)
        dst = BoundSequence.from_function(
            lambda s, phi=phi: phi(s // 2) if s % 2 == 0 else UNBOUNDED,
            "even phi:%s" % spec)
        for n in range(max_n + 1):
            left: dict[tuple, int] = {}
            for alpha in bounded_partitions(n, src):
                t = alpha.largest_odd_multiplicity_part()
                if t == 0:
                    report.skipped += 1
                    continue
                key = (alpha.alt_sum(), t)
                left[key] = left.get(key, 0) + 1
                try:
                    beta, _ = pairing_map(alpha)
                except AssertionError as exc:  # an invariant a map checks itself
                    report.fail(phi=spec, n=n, input=str(alpha), detail=str(exc))
                    return report
                k = beta.odd_count()
                detail = (
                    "image violates the phi caps" if not dst.admits(beta) else
                    "refined statistics disagree"
                    if (k, k + (beta.largest_odd_part() - 1) // 2) != key else
                    None)
                if detail:
                    report.fail(phi=spec, n=n, input=str(alpha), image=str(beta),
                                detail=detail)
                    return report
            right: dict[tuple, int] = {}
            for beta in bounded_partitions(n, dst):
                k = beta.odd_count()
                if k == 0:
                    continue
                key = (k, k + (beta.largest_odd_part() - 1) // 2)
                right[key] = right.get(key, 0) + 1
            if left != right:
                report.fail(phi=spec, n=n, left=_str_keys(left), right=_str_keys(right))
                return report
    report.notes.append("inputs with all multiplicities even fall outside the refinement")
    return report


def _str_keys(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items())}


# -- equivalent bound sequences ---------------------------------------------

# Every cell to q: the coefficient of q^n counts the admissible partitions of n.
_BY_SIZE = WeightVariant("q", ("q",), None, dict.fromkeys("abcd", (1,)))


@_timed
def verify_andrews(bounds_a: BoundSequence | str | None = None,
                   bounds_b: BoundSequence | str | None = None,
                   max_n: int = 30, cutoff: int | None = None) -> VerificationReport:
    """Two cap sequences admit equally many partitions of every n iff their
    size * strict-cap products agree as multisets; check both statements up
    to ``max_n`` (products up to ``cutoff``, default ``max_n + 1``)."""
    if bounds_a is None or bounds_b is None:
        raise ValueError("andrews needs two bound sequences (--a and --b)")
    a = _bounds(bounds_a)
    b = _bounds(bounds_b)
    if cutoff is None:
        cutoff = max_n + 1
    report = VerificationReport(
        "andrews", {"a": a.spec, "b": b.spec, "max_n": max_n, "cutoff": cutoff})
    prod_a = a.strict_products(cutoff)
    prod_b = b.strict_products(cutoff)
    equivalent = prod_a == prod_b
    report.notes.append("products %s: %s vs %s"
                        % ("agree" if equivalent else "differ", prod_a, prod_b))
    mismatch = None
    by_size_a = enumerated_series(max_n, _BY_SIZE, a)
    by_size_b = enumerated_series(max_n, _BY_SIZE, b)
    for n in range(max_n + 1):
        ca = by_size_a.coefficient((n,))
        cb = by_size_b.coefficient((n,))
        if ca != cb:
            mismatch = {"n": n, "count_a": ca, "count_b": cb}
            break
    if equivalent and mismatch:
        report.fail(detail="products agree but counts differ", **mismatch)
    elif not equivalent:
        if mismatch:
            report.fail(**mismatch)
        else:
            report.fail(detail="products differ; the first count difference "
                               "lies beyond max_n")
    return report


# -- series identities --------------------------------------------------------

@_timed
def verify_partition_gf(max_n: int = 30) -> VerificationReport:
    """Coefficient of q^n in 1/(q;q)_inf equals the number of partitions."""
    report = VerificationReport("partition-gf", {"max_n": max_n})
    gf = partition_gf(max_n)
    for n in range(max_n + 1):
        counted = count_total(n)
        coeff = gf.coefficient((0, n))
        if counted != coeff:
            report.fail(n=n, enumerated=counted, coefficient=coeff)
            break
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
    rhs = restricted_boulet_product(i, k, bseq, trunc)
    if _compare(report, enumerated_series(trunc, FOUR_PARAM, bseq, filt), rhs) is None:
        report.notes.append("matches with the empty partition included")
    elif i != 0:
        # The report keeps its first counterexample; this reading adds a note.
        bare = enumerated_series(trunc, FOUR_PARAM, bseq, filt, include_empty=False)
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


def _verify_gf_triple(report: VerificationReport, ms, trunc: int,
                      families, closed) -> VerificationReport:
    _check_ms(ms)
    left_family, right_family = families
    for m in ms:
        by_alt = enumerated_series(trunc, ALT_BY_WEIGHT, left_family.bounds(m))
        by_odd = enumerated_series(trunc, ODD_BY_WEIGHT, right_family.bounds(m))
        gf = closed(m, trunc)
        for tag, other in (("enumerated by odd parts", by_odd), ("closed form", gf)):
            if _compare(report, by_alt, other, "enumerated_by_alt_sum", "other",
                        m=m, other_side=tag):
                return report
    return report


@_timed
def verify_pairing_gf(ms=(0, 1, 2), trunc: int = 24) -> VerificationReport:
    """Three-way identity: partitions with every part at most 2m+1 times by
    (alternating sum, weight) = partitions with even parts at most m times
    by (odd-part count, weight) = the closed-form product."""
    return _verify_gf_triple(
        VerificationReport("pairing-gf", {"m": list(ms), "trunc": trunc}), ms, trunc,
        (PAIRING_SOURCE, PAIRING_TARGET), pairing_gf)


@_timed
def verify_binary_gf(ms=(0, 1, 2), trunc: int = 24) -> VerificationReport:
    """Three-way identity for the family "even parts at most 2m+1 times":
    by (alternating sum, weight) = by (odd-part count, weight) = closed form."""
    return _verify_gf_triple(
        VerificationReport("binary-gf", {"m": list(ms), "trunc": trunc}), ms, trunc,
        (BINARY_FAMILY, BINARY_FAMILY), binary_gf)


# -- registry ------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """Registry entry: the runner plus the grids ``verify all`` uses."""

    runner: object
    default_runs: tuple[dict, ...]
    flags: tuple[str, ...]
    help: str


REGISTRY: dict[str, Check] = {
    "bessenrodt": Check(verify_bessenrodt, ({},), ("max_n",),
                        "distinct by alternating sum vs odd parts by length"),
    "sylvester": Check(verify_sylvester, ({},), ("max_n",),
                       "fishhook bijection, inverse and its two statistics"),
    "andrews": Check(verify_andrews,
                     ({"bounds_a": "all:2s", "bounds_b": "even:1s"},
                      {"bounds_a": "all:4s", "bounds_b": "even:2s"},
                      {"bounds_a": "all:6s", "bounds_b": "even:3s"}),
                     ("bounds_a", "bounds_b", "max_n", "cutoff"),
                     "equivalence of cap sequences via strict products"),
    "boulet": Check(verify_boulet, ({},), ("trunc",),
                    "four-parameter product over all partitions"),
    "boulet-restricted": Check(verify_boulet_restricted,
                               ({"i": 0, "k": 1, "bounds": "1:1,2:3"},
                                {"i": 1, "k": 2, "bounds": "3:1,5:3"},
                                {"i": 2, "k": 3, "bounds": "5:1,8:1"}),
                               ("i", "k", "bounds", "trunc"),
                               "four-parameter product over a progression with caps"),
    "rows-product": Check(verify_rows_product,
                          ({"bounds": "all:3"}, {"bounds": "even:3"},
                           {"bounds": "1:1,3:5"}),
                          ("bounds", "trunc"),
                          "two-parameter product for the row-totals weight"),
    "halves-product": Check(verify_halves_product,
                            ({"bounds": "even:1"}, {"bounds": "all:2"},
                             {"bounds": "2:0,5:3"}),
                            ("bounds", "trunc"),
                            "two-parameter product for the half-cells weight"),
    "pairing": Check(verify_pairing, ({},), ("max_n", "ms"),
                     "bound-trading bijection (all parts capped)"),
    "binary": Check(verify_binary, ({},), ("max_n", "ms"),
                    "bound-preserving bijection (even parts capped)"),
    "pairing-gf": Check(verify_pairing_gf, ({},), ("ms", "trunc"),
                        "three-way generating function identity (pairing)"),
    "binary-gf": Check(verify_binary_gf, ({},), ("ms", "trunc"),
                       "three-way generating function identity (binary)"),
    "pairing-refined": Check(verify_pairing_refined, ({},), ("max_n", "phi_specs"),
                             "refined pairing statistics under a cap function"),
    "partition-gf": Check(verify_partition_gf, ({},), ("max_n",),
                          "Euler product against raw enumeration"),
}
