"""Sparse truncated power series over exact integers.

Terms are exponent tuples mapped to ``int`` coefficients.  A series carries
its variable names, a truncation degree and a truncation metric: by default
the total degree, or the exponent of one designated variable (used for
``(x, q)`` series truncated in ``q`` only, where the ``x`` exponent may be
any integer).

The module also provides the partition weights, their generating
functions summed over capped partition families (``enumerated_series``),
and the infinite products of the identities, truncated to a given degree.

The four-parameter weight (the cells of a part in an odd or an even row,
``WeightVariant.cells``) and the capped four-parameter product are stated
once.  Every product except ``partition_gf`` comes from that one capped
product: Boulet's product is its uncapped case, and the two-parameter
weights (``rows``, ``halves``, ``la``, ``lo``) and their products
(``row_totals_product``, ``half_cells_product``, ``pairing_gf``,
``binary_gf``) are substitutions of the four-parameter ones: each variable
a, b, c, d is sent to a monomial of degree 1 in the new variables.

The two sides of each series identity are computed independently, and
share only the layout of their terms (``_Layout``): one dict per degree,
each term keyed by one integer that packs its exponents but the one the
degree fixes, unpacked to exponent tuples once, at the end.
``enumerated_series`` lists no partition: a coefficient DP over part
sizes, largest first, tracks whether an even or an odd number of rows is
filled so far, which decides whether the next copies of a size land in
(a, b) rows or (c, d) rows.  The products multiply out their factors and
never see a partition: ``product_series`` cancels the numerators that a
denominator undoes, then applies the other factors highest degree first,
each numerator as one sweep from the top degree down and each denominator
as one sweep from the bottom up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, floordiv, mod, mul, sub
from typing import Iterable, Sequence

from .enumeration import (BINARY_FAMILY, PAIRING_SOURCE, UNBOUNDED, BoundSequence,
                          CongruenceFilter, _size_caps, parse_bounds)

ABCD = ("a", "b", "c", "d")
AB = ("a", "b")
XQ = ("x", "q")


class Series:
    """A truncated formal power series with integer coefficients.

    ``degree_index`` selects the truncation metric: ``None`` truncates by
    total degree, an index truncates by that variable's exponent alone (all
    other exponents are then allowed to be negative).
    """

    __slots__ = ("names", "trunc", "degree_index", "terms")

    def __init__(self, names: Sequence[str], trunc: int,
                 terms: dict | None = None, degree_index: int | None = None):
        self.names = tuple(names)
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        self.trunc = trunc
        if degree_index is not None and not 0 <= degree_index < len(self.names):
            raise ValueError("degree_index out of range")
        self.degree_index = degree_index
        kept: dict[tuple, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != len(self.names):
                    raise ValueError("expected %d exponents, got %r" % (len(self.names), exps))
                d = self.degree(exps)
                if d < 0:
                    raise ValueError("negative truncation degree in %r" % (exps,))
                if d > trunc:
                    continue
                kept[exps] = coeff
        self.terms = kept

    def degree(self, exps: tuple) -> int:
        if self.degree_index is None:
            return sum(exps)
        return exps[self.degree_index]

    @classmethod
    def zero(cls, names: Sequence[str], trunc: int, degree_index: int | None = None) -> "Series":
        return cls(names, trunc, None, degree_index)

    @classmethod
    def one(cls, names: Sequence[str], trunc: int, degree_index: int | None = None) -> "Series":
        return cls(names, trunc, {(0,) * len(tuple(names)): 1}, degree_index)

    def _compatible(self, other: "Series"):
        if (self.names, self.trunc, self.degree_index) != (other.names, other.trunc, other.degree_index):
            raise ValueError("series mismatch: %r/%d vs %r/%d"
                             % (self.names, self.trunc, other.names, other.trunc))

    def coefficient(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def items(self) -> list[tuple[tuple, int]]:
        """Terms sorted by total degree, then lexicographically by exponents."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series)
                and (self.names, self.trunc, self.degree_index) ==
                    (other.names, other.trunc, other.degree_index)
                and self.terms == other.terms)

    def __mul__(self, other) -> "Series":
        res = Series.zero(self.names, self.trunc, self.degree_index)
        if isinstance(other, int):
            if other:
                res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        self._compatible(other)
        if not self.terms or not other.terms:
            return res
        left = sorted(self.terms.items(), key=lambda kv: self.degree(kv[0]))
        right = sorted(other.terms.items(), key=lambda kv: self.degree(kv[0]))
        rmin = self.degree(right[0][0])
        trunc = self.trunc
        out: dict[tuple, int] = {}
        for e1, c1 in left:
            d1 = self.degree(e1)
            if d1 + rmin > trunc:
                break  # left factors only grow from here
            for e2, c2 in right:
                if d1 + self.degree(e2) > trunc:
                    break
                key = tuple(map(sum, zip(e1, e2)))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "Series(%d terms, vars=%s, trunc=%d)" % (len(self.terms), self.names, self.trunc)


@dataclass(frozen=True)
class SeriesComparison:
    """Outcome of comparing two series; falsy when they differ."""

    equal: bool
    exponents: tuple | None = None
    left: int = 0
    right: int = 0

    def __bool__(self) -> bool:
        return self.equal


def series_equal(s1: Series, s2: Series) -> SeriesComparison:
    """Compare coefficientwise; on mismatch report the first differing
    monomial in (total degree, exponents) order."""
    s1._compatible(s2)
    t1, t2 = s1.terms, s2.terms
    if t1 == t2:
        return SeriesComparison(True)
    differ = [e for e, c in t1.items() if t2.get(e, 0) != c]
    differ += [e for e, c in t2.items() if c and e not in t1]
    if not differ:  # the dicts differ only in stored zero coefficients
        return SeriesComparison(True)
    exps = min(differ, key=lambda e: (sum(e), e))
    return SeriesComparison(False, exps, t1.get(exps, 0), t2.get(exps, 0))


# -- partition weights ------------------------------------------------------

@dataclass(frozen=True)
class WeightVariant:
    """A named partition weight: the four-parameter weight with a, b, c, d
    sent to the monomials ``images`` in the variables ``names``, truncated by
    ``degree_index`` as in :class:`Series`.  Each image must have truncation
    degree 1, so a partition's weight monomial has its size as degree.
    """

    name: str
    names: tuple[str, ...]
    degree_index: int | None
    images: dict[str, tuple[int, ...]]
    # the images' transposed columns: column i holds the i-th exponent of
    # the images of a, b, c and d
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probe = Series.zero(self.names, 0, self.degree_index)
        vecs = []
        for v in ABCD:
            if v not in self.images:
                raise ValueError("no image for variable %r" % v)
            img = tuple(self.images[v])
            if len(img) != len(self.names):
                raise ValueError("image for %r has wrong arity" % v)
            if probe.degree(img) != 1:
                raise ValueError("image for %r must have truncation degree 1" % v)
            vecs.append(img)
        object.__setattr__(self, "_columns", tuple(zip(*vecs)))

    def cells(self, odd: int, even: int) -> tuple:
        """The image of X(odd, even) = a^ceil(odd/2) b^floor(odd/2)
        c^ceil(even/2) d^floor(even/2): the cells of a part ``odd`` in an
        odd-indexed row and of a part ``even`` in an even-indexed row."""
        x = ((odd + 1) // 2, odd // 2, (even + 1) // 2, even // 2)
        return tuple(sum(map(mul, x, col)) for col in self._columns)


# The two degree-1 specialisations of the four-parameter weight:
# x^(alternating sum) q^weight and x^(odd parts) q^weight.
TO_ALT = {"a": (1, 1), "b": (1, 1), "c": (-1, 1), "d": (-1, 1)}
TO_ODD = {"a": (1, 1), "b": (-1, 1), "c": (1, 1), "d": (-1, 1)}

FOUR_PARAM = WeightVariant("abcd", ABCD, None,
                           {"a": (1, 0, 0, 0), "b": (0, 1, 0, 0),
                            "c": (0, 0, 1, 0), "d": (0, 0, 0, 1)})
# the collapses a=b, c=d (row totals) and a=c, b=d (half cells)
ROW_TOTALS = WeightVariant("rows", AB, None,
                           {"a": (1, 0), "b": (1, 0), "c": (0, 1), "d": (0, 1)})
HALF_CELLS = WeightVariant("halves", AB, None,
                           {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)})
ALT_BY_WEIGHT = WeightVariant("la", XQ, 1, TO_ALT)
ODD_BY_WEIGHT = WeightVariant("lo", XQ, 1, TO_ODD)

WEIGHTS = {w.name: w for w in
           (FOUR_PARAM, ROW_TOTALS, HALF_CELLS, ALT_BY_WEIGHT, ODD_BY_WEIGHT)}


# -- the builders' layout ---------------------------------------------------

class _Layout:
    """The packed, degree-bucketed layout of the series builders.

    A builder keeps its terms in one dict per degree 0..trunc, and keys
    each term by one integer.  The bucket index fixes one variable: the
    ``degree_index`` one, or under the total degree the last one, which is
    then the degree less the sum of the others.  The key packs the other
    variables.  ``monomials`` bound the terms: every term must be a product
    of them whose degrees sum to at most ``trunc``.  So variable i lies in
    [lo_i, hi_i], with lo_i the floor of trunc * min(0, e_i/d) and hi_i the
    ceiling of trunc * max(0, e_i/d) over the monomials X^e of degree d.
    The key holds each exponent, less lo_i, as a digit of base
    hi_i - lo_i + 1, so multiplying by X^e adds ``delta(e)`` to the key and
    d to the degree.  The keys are unpacked to exponent tuples once, at the
    end.  ``series`` gives the variables, ``trunc`` and the truncation
    metric.
    """

    __slots__ = ("fixed", "total", "digits", "origin")

    def __init__(self, monomials: Sequence[Sequence[int]], series: Series):
        width, trunc = len(series.names), series.trunc
        self.total = series.degree_index is None
        self.fixed = width - 1 if self.total else series.degree_index
        bounded = [(exps, series.degree(exps)) for exps in monomials]
        # (variable, place, base, lo): the place is the product of the
        # bases below
        self.digits = []
        place = 1
        for i in range(width):
            if i == self.fixed:
                continue
            lo = min([0] + [trunc * exps[i] // d for exps, d in bounded])
            base = max([0] + [-(-trunc * exps[i] // d) for exps, d in bounded]) - lo + 1
            self.digits.append((i, place, base, lo))
            place *= base
        self.origin = -sum(place * lo for _, place, _, lo in self.digits)

    def delta(self, exps: Sequence[int]) -> int:
        """The packed exponents of X^exps, the key step of multiplying by it."""
        return sum(place * exps[i] for i, place, _, _ in self.digits)

    def unpack(self, buckets: list[dict]) -> dict[tuple, int]:
        """The exponent tuples of the bucketed terms, with their coefficients.

        The keys of all buckets are decoded a variable at a time, each
        packed variable's column by ``map`` over the one key list, and the
        columns are zipped into tuples.  The fixed variable's column is each
        key's bucket index, less the other columns under the total degree.
        A step that changes no digit is left out: the division at place 1,
        the remainder of the top digit (a key is below place * base there),
        and the shift when lo is 0.
        """
        keys = list(chain.from_iterable(buckets))
        fixed = chain.from_iterable(repeat(g, len(bucket)) for g, bucket in enumerate(buckets))
        columns = []
        top = len(self.digits) - 1
        for j, (_, place, base, lo) in enumerate(self.digits):
            column = keys if place == 1 else map(floordiv, keys, repeat(place))
            if j < top:
                column = map(mod, column, repeat(base))
            column = list(map(add, column, repeat(lo)) if lo else column)
            columns.append(column)
            if self.total:
                fixed = map(sub, fixed, column)
        columns.insert(self.fixed, fixed)
        return dict(zip(zip(*columns), chain.from_iterable(map(dict.values, buckets))))


def enumerated_series(trunc: int, weight: WeightVariant = FOUR_PARAM,
                      bounds: BoundSequence | None = None,
                      filt: CongruenceFilter | None = None) -> Series:
    """Sum the weight monomials of every admissible partition of 0..trunc.

    No partition is listed.  A coefficient DP takes the admissible part
    sizes largest first, because a part's row is its rank: row 1 holds the
    largest part.  It keeps the terms for an even and for an odd number of
    rows so far apart.  Taking ``c`` copies of a size from parity ``p``
    fills ``c`` rows alternately with the size's odd-row monomial (a, b) and
    even-row monomial (c, d), starting with the one for ``p``, and moves the
    term to parity ``p ^ (c & 1)``.

    The DP runs in the weight's own variables, since its substitution is a
    monomial map, and truncates by their degree, which equals the
    partition's weight; so the result is the exact truncation of the full
    generating function.  The terms sit in one dict per degree and parity,
    packed by ``_Layout`` from the weight's four images: every term is a sum
    of at most ``trunc`` of them.  Each step "c copies of the size from
    parity p" is one precomputed integer, added to the key, and c * size is
    added to the degree.  A size is applied in place, walking the degrees g
    from trunc - size down to 0 and both parities at each g, so every
    bucket is read before a copy of this size lands in it.  The caps and the
    filter's sizes are read once per call, from the size table
    :func:`bounded_partitions` walks too (``_size_caps``); ``filt``'s even
    length keeps only the even parity.
    """
    out = Series.zero(weight.names, trunc, weight.degree_index)
    layout = _Layout([weight.images[v] for v in ABCD], out)
    states = ([{} for _ in range(trunc + 1)], [{} for _ in range(trunc + 1)])
    states[0][0][layout.origin] = 1
    for size, cap in reversed(_size_caps(trunc, bounds, filt)):
        rows = (layout.delta(weight.cells(size, 0)), layout.delta(weight.cells(0, size)))
        # steps[p][c - 1]: the target parity's buckets, the degree and the
        # packed monomial of c copies placed from parity p
        steps = ([], [])
        for p in (0, 1):
            delta = 0
            for c in range(1, cap + 1):
                delta += rows[(p + c - 1) % 2]
                steps[p].append((states[p ^ (c & 1)], c * size, delta))
        for g in range(trunc - size, -1, -1):
            room = (trunc - g) // size
            for p in (0, 1):
                source = states[p][g]
                if not source:
                    continue
                for target, d, delta in steps[p][:room]:
                    target = target[g + d]
                    for key, coeff in source.items():
                        key += delta
                        target[key] = target.get(key, 0) + coeff

    buckets = states[0]
    if not (filt and filt.even_length):
        for even, odd in zip(buckets, states[1]):
            for key, coeff in odd.items():
                even[key] = even.get(key, 0) + coeff
    out.terms = layout.unpack(buckets)
    return out


# -- products ---------------------------------------------------------------

def _apply_factor(buckets: list[dict], sign: int, d: int, delta: int,
                  denominator: bool) -> None:
    """Multiply the bucketed terms in place by ``(1 + sign * X^e)``, or
    divide them by it if ``denominator``, where ``d`` is the degree of X^e
    and ``delta`` its packed exponents.

    Either way each bucket g takes X^e times bucket g - d, in one sweep.  A
    product is new[g][k + delta] = old[g][k + delta] + sign * old[g - d][k],
    so g is walked from trunc down to d: every bucket is read before any
    term of this factor lands in it.  A quotient h of f satisfies
    h + sign * X^e h = f, so h[g][k + delta] = f[g][k + delta]
    - sign * h[g - d][k], and g is walked from d up to trunc: bucket g - d
    already holds the quotient when bucket g reads it.  The buckets below
    d, which the factor cannot change, are never visited.
    """
    top = len(buckets) - 1
    if denominator:
        sign, degrees = -sign, range(d, top + 1)
    else:
        degrees = range(top, d - 1, -1)
    for g in degrees:
        target = buckets[g]
        for k, c in buckets[g - d].items():
            key = k + delta
            c = target.get(key, 0) + sign * c
            if c:
                target[key] = c
            else:
                del target[key]


def product_series(factors: Iterable[tuple[int, Sequence[int], bool]],
                   names: Sequence[str], trunc: int,
                   degree_index: int | None = None) -> Series:
    """Multiply out ``(sign, exps, denominator)`` factors, truncating exactly.

    Each triple is the factor ``(1 + sign * X^exps)``, or its inverse when
    ``denominator`` is true; ``sign`` is +1 or -1 and ``X^exps`` must have
    positive truncation degree, which gives a denominator the unit constant
    term its division needs.  A factor of degree above ``trunc`` is 1 at
    this truncation and is skipped.  Each numerator that equals a
    denominator (the same sign and exponents) is dropped together with one
    copy of it, since the two multiply to 1.  The factors left are applied
    highest degree first, each as one sweep (``_apply_factor``) over the
    terms of ``_Layout`` bounded by them: a numerator from the top degree
    down, a denominator from the bottom up.  A factor of high degree then
    meets a series that is still sparse.

    The order changes no term: the truncated series form a commutative
    ring, and every term of every partial product is a product of the
    factors' monomials of degree at most ``trunc``, so it lies inside the
    layout's bounds whatever the order.
    """
    acc = Series.one(names, trunc, degree_index)
    width = len(acc.names)
    # the (sign, exps, degree) multisets of the numerators and denominators
    numerators, denominators = Counter(), Counter()
    for sign, exps, denominator in factors:
        if sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")
        exps = tuple(exps)
        if len(exps) != width:
            raise ValueError("expected %d exponents, got %r" % (width, exps))
        d = acc.degree(exps)
        if d < 1:
            raise ValueError("factor monomial must have positive degree: %r" % (exps,))
        if d <= trunc:
            side = denominators if denominator else numerators
            side[sign, exps, d] += 1

    matched = numerators & denominators
    numerators -= matched
    denominators -= matched
    applied = [(*factor, False) for factor in numerators.elements()]
    applied += [(*factor, True) for factor in denominators.elements()]
    applied.sort(key=lambda factor: factor[2], reverse=True)

    layout = _Layout([exps for _, exps, _, _ in applied], acc)
    buckets = [{} for _ in range(trunc + 1)]
    buckets[0][layout.origin] = 1
    for sign, exps, d, denominator in applied:
        _apply_factor(buckets, sign, d, layout.delta(exps), denominator)
    acc.terms = layout.unpack(buckets)
    return acc


def _bound_factor_list(bounds: BoundSequence, trunc: int,
                       weight: WeightVariant, i: int, k: int) -> list[tuple]:
    """Cap factor exponents, one per capped size up to ``trunc``; sizes
    outside the progression i (mod k) must stay uncapped.

    A cap forbids blocks of ``strict`` (= cap + 1) copies of a size.  The
    block's weight is fixed if ``weight`` sends a part in an odd row and one
    in an even row alike (then it is ``strict`` times that), or if
    ``strict`` is even (``strict/2`` parts in rows of each parity).
    """
    out = []
    for size in range(1, trunc + 1):
        b = bounds.bound(size)
        if b == UNBOUNDED:
            continue
        if size % k != i:
            raise ValueError("cap on part %d, which lies outside the progression" % size)
        strict = b + 1
        odd_row, even_row = weight.cells(size, 0), weight.cells(0, size)
        if odd_row == even_row:
            out.append(tuple(strict * e for e in odd_row))
        elif strict % 2 == 0:
            out.append(tuple(strict // 2 * (o + e) for o, e in zip(odd_row, even_row)))
        else:
            raise ValueError("part %d has strict cap %d; this identity needs even caps"
                             % (size, strict))
    return out


def _capped_product(i: int, k: int, bounds: BoundSequence, trunc: int,
                    weight: WeightVariant) -> Series:
    """The four-parameter product over parts = i (mod k) with the caps of
    ``bounds``, every factor's a, b, c, d sent through ``weight``'s images.

    With X(h, l) = a^ceil(h/2) b^floor(h/2) c^ceil(l/2) d^floor(l/2), the
    cells of a part h in an odd row and a part l in an even row
    (:meth:`WeightVariant.cells`), it is

    prod_j (1 + X(jk+i, (j-1)k+i)) / [(1 - X(jk+i, jk+i)) (1 - X(2jk, 2(j-1)k))]

    times (1 - X^block) for each capped size, a block being ``strict``
    copies of the size (``_bound_factor_list``).  X(h, l) has degree h + l
    under every weight, so each family's j stops at its last factor of
    degree at most ``trunc``.
    """
    if k < 1 or not 0 <= i < k:
        raise ValueError("need 0 <= i < k and k >= 1")

    def js(first: int, step: int) -> range:
        # the j >= 1 whose degree, first + (j - 1) * step, is at most trunc
        return range(1, (trunc - first) // step + 2)

    factors = [(1, weight.cells(j * k + i, (j - 1) * k + i), False)
               for j in js(k + 2 * i, 2 * k)]
    factors += [(-1, exps, False) for exps in _bound_factor_list(bounds, trunc, weight, i, k)]
    factors += [(-1, weight.cells(j * k + i, j * k + i), True) for j in js(2 * (k + i), 2 * k)]
    factors += [(-1, weight.cells(2 * j * k, 2 * (j - 1) * k), True) for j in js(2 * k, 4 * k)]
    return product_series(factors, weight.names, trunc, weight.degree_index)


def boulet_product(trunc: int) -> Series:
    """Boulet's four-parameter product over all partitions, the capped
    product with i = 0, k = 1 and no caps:

    prod_j (1 + a^j b^(j-1) c^(j-1) d^(j-1)) (1 + a^j b^j c^j d^(j-1))
         / [(1 - (abcd)^j) (1 - a^j b^j c^(j-1) d^(j-1)) (1 - a^j b^(j-1) c^j d^(j-1))]
    """
    return _capped_product(0, 1, parse_bounds("all:inf"), trunc, FOUR_PARAM)


def restricted_boulet_product(i: int, k: int, bounds: BoundSequence, trunc: int) -> Series:
    """The four-parameter product for partitions with parts = i (mod k) and
    capped multiplicities on the sizes ``bounds`` restricts.

    For i != 0 the matching enumeration carries the side conditions "even
    length" and "the part i appears at most once".  Caps must sit on sizes
    inside the progression and their strict versions must be even.
    """
    return _capped_product(i, k, bounds, trunc, FOUR_PARAM)


def row_totals_product(bounds: BoundSequence, trunc: int) -> Series:
    """Two-parameter product matching the row-totals weight (a=b, c=d).

    prod_j (1 + a^j b^(j-1)) / [(1 - a^j b^j) (1 - a^(2j) b^(2j-2))]
    times prod (1 - (ab)^(size*strict/2)) over the capped sizes; every
    strict cap must be even.
    """
    return _capped_product(0, 1, bounds, trunc, ROW_TOTALS)


def half_cells_product(bounds: BoundSequence, trunc: int) -> Series:
    """Two-parameter product matching the half-cells weight (a=c, b=d).

    prod_j (1 + a^j b^(j-1)) / [(1 - a^(2 ceil(j/2)) b^(2 floor(j/2))) (1 - (ab)^(2j-1))]
    times prod (1 - a^(ceil(size/2) strict) b^(floor(size/2) strict)) over the
    capped sizes; here any cap >= 0 is legal.
    """
    return _capped_product(0, 1, bounds, trunc, HALF_CELLS)


def pairing_gf(m: int, trunc: int) -> Series:
    """Closed form for partitions with every part at most ``2m+1`` times,
    counted by x^(alternating sum) q^weight:

    (-xq; q^2)_inf (q^(2m+2); q^(2m+2))_inf / [(q^2; q^2)_inf (x^2 q^2; q^4)_inf]
    """
    return _capped_product(0, 1, PAIRING_SOURCE.bounds(m), trunc, ALT_BY_WEIGHT)


def binary_gf(m: int, trunc: int) -> Series:
    """Closed form for partitions whose even parts appear at most ``2m+1``
    times, counted by either statistic:

    (-xq; q^2)_inf (q^(4m+4); q^(4m+4))_inf / [(q^2; q^2)_inf (x^2 q^2; q^4)_inf]
    """
    return _capped_product(0, 1, BINARY_FAMILY.bounds(m), trunc, ALT_BY_WEIGHT)


def partition_gf(trunc: int) -> Series:
    """1 / (q; q)_inf as an (x, q) series: the coefficient of q^n counts all
    partitions of n."""
    factors = [(-1, (0, j), True) for j in range(1, trunc + 1)]
    return product_series(factors, XQ, trunc, degree_index=1)
