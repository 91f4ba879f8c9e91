"""Sparse truncated power series over exact integers.

Terms are exponent tuples mapped to ``int`` coefficients.  A series carries
its variable names, a truncation degree and a truncation metric: by default
the total degree, or the exponent of one designated variable (used for
``(x, q)`` series truncated in ``q`` only, where the ``x`` exponent may be
any integer).

The module also provides the partition weights, their generating
functions summed over capped partition families (``enumerated_series``),
and factor-family machinery for assembling infinite products such as
Boulet's four-parameter identity truncated to a given degree.

The four-parameter weight and the capped four-parameter product are stated
once.  The two-parameter weights (``rows``, ``halves``, ``la``, ``lo``) and
their products (``row_totals_product``, ``half_cells_product``,
``pairing_gf``, ``binary_gf``) are substitutions of them: each variable
a, b, c, d is sent to a monomial of degree 1 in the new variables.

The two sides of each series identity are computed independently.
``enumerated_series`` lists no partition: a coefficient DP over part
sizes, largest first, tracks whether an even or an odd number of rows is
filled so far, which decides whether the next copies of a size land in
(a, b) rows or (c, d) rows.  The products multiply out factor families and
never see a partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Sequence

from .bijections import BINARY_FAMILY, PAIRING_SOURCE
from .enumeration import UNBOUNDED, BoundSequence, CongruenceFilter, _size_caps
from .partition import Partition

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

    def _blank(self) -> "Series":
        return Series(self.names, self.trunc, None, self.degree_index)

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

    def __neg__(self) -> "Series":
        out = self._blank()
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other) -> "Series":
        if isinstance(other, int):
            other = Series(self.names, self.trunc,
                           {(0,) * len(self.names): other}, self.degree_index)
        self._compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = self._blank()
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return self + (-other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, int):
            out = self._blank()
            if other:
                out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._compatible(other)
        res = self._blank()
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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.items()[:14]:
            mono = "*".join("%s^%d" % (n, e) for n, e in zip(self.names, exps) if e)
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(mono)
            else:
                chunks.append("%d*%s" % (coeff, mono))
        tail = " + ..." if len(self.terms) > 14 else ""
        return " + ".join(chunks) + tail


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
    keys = set(s1.terms) | set(s2.terms)
    for exps in sorted(keys, key=lambda e: (sum(e), e)):
        a = s1.terms.get(exps, 0)
        b = s2.terms.get(exps, 0)
        if a != b:
            return SeriesComparison(False, exps, a, b)
    return SeriesComparison(True)


def substitute(series: Series, images: dict[str, Sequence[int]],
               names: Sequence[str], degree_index: int | None = None) -> Series:
    """Map every variable to a monomial in new variables.

    Each image must have degree exactly 1 under the *target* metric, so the
    truncation degree of every term is preserved and the result is exact.
    """
    target = Series.zero(names, series.trunc, degree_index)
    image = _monomial_map(images, series.names, target)
    out: dict[tuple, int] = {}
    for exps, coeff in series.terms.items():
        new = image(exps)
        s = out.get(new, 0) + coeff
        if s:
            out[new] = s
        else:
            out.pop(new, None)
    target.terms = out
    return target


def _monomial_map(images: dict[str, Sequence[int]], source: Sequence[str],
                  target: Series) -> Callable[[tuple], tuple]:
    """The exponent map sending each variable ``v`` of ``source`` to the
    monomial ``images[v]`` of truncation degree 1 in ``target``."""
    vecs = []
    for v in source:
        if v not in images:
            raise ValueError("no image for variable %r" % v)
        img = tuple(images[v])
        if len(img) != len(target.names):
            raise ValueError("image for %r has wrong arity" % v)
        if target.degree(img) != 1:
            raise ValueError("image for %r must have truncation degree 1" % v)
        vecs.append(img)
    columns = tuple(zip(*vecs))

    def image(exps: tuple) -> tuple:
        return tuple(sum(map(mul, exps, col)) for col in columns)

    return image


# -- partition weights ------------------------------------------------------

def four_param_weight(p: Partition) -> tuple[int, int, int, int]:
    """Exponents of the four-parameter weight a^.. b^.. c^.. d^..

    Odd-indexed rows contribute their cells to (a, b) — ceilings to a,
    floors to b — and even-indexed rows likewise to (c, d).
    """
    ea = eb = ec = ed = 0
    for i, part in enumerate(p.parts):
        if i % 2 == 0:
            ea += (part + 1) // 2
            eb += part // 2
        else:
            ec += (part + 1) // 2
            ed += part // 2
    return (ea, eb, ec, ed)


def _half_up(x: int) -> int:
    return (x + 1) // 2


def _row_monomials(size: int, image: Callable[[tuple], tuple]) -> tuple[tuple, tuple]:
    """The images of a part ``size`` in an odd-indexed row (cells to a, b)
    and in an even-indexed row (cells to c, d)."""
    return (image((_half_up(size), size // 2, 0, 0)),
            image((0, 0, _half_up(size), size // 2)))


@dataclass(frozen=True)
class WeightVariant:
    """A named partition weight: the four-parameter weight with a, b, c, d
    sent to the monomials ``images`` in the variables ``names`` (``None``
    keeps a, b, c, d), truncated by ``degree_index`` as in :class:`Series`.
    """

    name: str
    names: tuple[str, ...]
    degree_index: int | None
    images: dict[str, tuple[int, ...]] | None = None


# The two degree-1 specialisations of the four-parameter weight:
# x^(alternating sum) q^weight and x^(odd parts) q^weight.
TO_ALT = {"a": (1, 1), "b": (1, 1), "c": (-1, 1), "d": (-1, 1)}
TO_ODD = {"a": (1, 1), "b": (-1, 1), "c": (1, 1), "d": (-1, 1)}

FOUR_PARAM = WeightVariant("abcd", ABCD, None)
# the collapses a=b, c=d (row totals) and a=c, b=d (half cells)
ROW_TOTALS = WeightVariant("rows", AB, None,
                           {"a": (1, 0), "b": (1, 0), "c": (0, 1), "d": (0, 1)})
HALF_CELLS = WeightVariant("halves", AB, None,
                           {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)})
ALT_BY_WEIGHT = WeightVariant("la", XQ, 1, TO_ALT)
ODD_BY_WEIGHT = WeightVariant("lo", XQ, 1, TO_ODD)

WEIGHTS = {w.name: w for w in
           (FOUR_PARAM, ROW_TOTALS, HALF_CELLS, ALT_BY_WEIGHT, ODD_BY_WEIGHT)}


def _weight_image(weight: WeightVariant, target: Series) -> Callable[[tuple], tuple]:
    """The exponent map sending a four-parameter monomial to ``weight``'s
    monomial in ``target``'s variables."""
    if weight.images is None:
        return tuple
    return _monomial_map(weight.images, ABCD, target)


def enumerated_series(trunc: int, weight: WeightVariant = FOUR_PARAM,
                      bounds: BoundSequence | None = None,
                      filt: CongruenceFilter | None = None,
                      include_empty: bool = True) -> Series:
    """Sum the weight monomials of every admissible partition of 0..trunc.

    No partition is listed.  A coefficient DP takes the admissible part
    sizes largest first, because a part's row is its rank: row 1 holds the
    largest part.  It keeps one term dict for an even and one for an odd
    number of rows so far.  Taking ``c`` copies of a size from parity ``p``
    fills ``c`` rows alternately with the size's odd-row monomial (a, b) and
    even-row monomial (c, d), starting with the one for ``p``, and moves the
    term to parity ``p ^ (c & 1)``.

    The DP runs in the weight's own variables, since its substitution is a
    monomial map, and truncates by their degree, which equals the
    partition's weight; so the result is the exact truncation of the full
    generating function.  The caps and the filter's sizes are read once per
    call, from the size table :func:`bounded_partitions` walks too
    (``_size_caps``); ``filt``'s even length reads only the even dict.
    """
    out = Series.zero(weight.names, trunc, weight.degree_index)
    image = _weight_image(weight, out)
    degree = sum if out.degree_index is None else itemgetter(out.degree_index)
    zero = (0,) * len(out.names)
    states = ({zero: 1}, {})
    for size, cap in reversed(_size_caps(trunc, bounds, filt)):
        rows = _row_monomials(size, image)
        # steps[p][c]: the monomial of c copies placed from parity p
        steps = []
        for p in (0, 1):
            step = [zero]
            for c in range(cap):
                step.append(tuple(map(add, step[-1], rows[(p + c) % 2])))
            steps.append(step)
        new = (dict(states[0]), dict(states[1]))
        for p, state in enumerate(states):
            step = steps[p]
            for exps, coeff in state.items():
                for c in range(1, min(cap, (trunc - degree(exps)) // size) + 1):
                    key = tuple(map(add, exps, step[c]))
                    target = new[p ^ (c & 1)]
                    target[key] = target.get(key, 0) + coeff
        states = new

    terms = states[0]
    if not (filt and filt.even_length):
        for exps, coeff in states[1].items():
            terms[exps] = terms.get(exps, 0) + coeff
    if not include_empty:  # only the empty partition has degree 0
        if terms[zero] == 1:
            del terms[zero]
        else:
            terms[zero] -= 1
    out.terms = terms
    return out


# -- factor families and products -------------------------------------------

@dataclass(frozen=True)
class FactorSpec:
    """One product family: factors ``(1 + sign * X^exps(j))`` for j = 1, 2, ...

    ``exps`` returns the exponent tuple of the j-th factor, or ``None`` when
    the family is exhausted.  Families must have non-decreasing truncation
    degree in j; assembly stops at the first factor beyond the truncation.
    Factors with ``denominator=True`` are divided out in place: the
    accumulated coefficients are rewritten along each chain k, k + e,
    k + 2e, ... as ``new[k] = old[k] - sign * new[k - e]``.  That division
    needs a unit constant term, which the positive degree requirement
    guarantees.
    """

    sign: int
    exps: Callable[[int], tuple[int, ...] | None]
    denominator: bool = False


def finite_factors(sign: int, exps_list: Iterable[Sequence[int]],
                   denominator: bool = False) -> FactorSpec:
    """Wrap an explicit factor list (already ordered by degree)."""
    table = [tuple(e) for e in exps_list]

    def fn(j: int):
        return table[j - 1] if j <= len(table) else None

    return FactorSpec(sign, fn, denominator)


def _apply_factor(acc: Series, sign: int, exps: tuple, d: int, denominator: bool) -> None:
    """Multiply ``acc`` in place by ``(1 + sign * X^exps)``, or divide it by
    that factor, where ``d`` is the factor's truncation degree (>= 1)."""
    terms = acc.terms
    limit = acc.trunc - d
    index = acc.degree_index
    degree = sum if index is None else itemgetter(index)
    if not denominator:
        # new[k + e] = old[k + e] + sign * old[k]: each target has one source,
        # so reading the sources from a snapshot makes the order irrelevant
        sources = [(k, c) for k, c in terms.items() if degree(k) <= limit]
        for k, c in sources:
            key = tuple(map(add, k, exps))
            c = terms.get(key, 0) + sign * c
            if c:
                terms[key] = c
            else:
                del terms[key]
        return
    # new[k] = old[k] - sign * new[k - e], walked along each chain k, k + e,
    # k + 2e, ... until the carry dies.  Keys are taken in ascending degree,
    # so a key that no walk has reached has new[k - e] = 0 and starts a chain.
    walked = set()
    for key in sorted(terms, key=degree):
        if key in walked:
            continue
        deg = degree(key)
        carry = 0
        while True:
            walked.add(key)
            carry = terms.get(key, 0) - sign * carry
            if not carry:
                terms.pop(key, None)
                break
            terms[key] = carry
            if deg > limit:
                break
            key = tuple(map(add, key, exps))
            deg += d


def product_series(specs: Iterable[FactorSpec], names: Sequence[str], trunc: int,
                   degree_index: int | None = None) -> Series:
    """Multiply out factor families, truncating exactly.

    Each factor updates the accumulated terms in place with one sweep over
    them (``_apply_factor``).
    """
    acc = Series.one(names, trunc, degree_index)
    for spec in specs:
        if spec.sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")
        j = 1
        prev = 0
        while True:
            exps = spec.exps(j)
            if exps is None:
                break
            exps = tuple(exps)
            d = acc.degree(exps)
            if d < 1:
                raise ValueError("factor monomial must have positive degree: %r" % (exps,))
            if d < prev:
                raise ValueError("factor degrees decreased at j=%d" % j)
            prev = d
            if d > trunc:
                break
            _apply_factor(acc, spec.sign, exps, d, spec.denominator)
            j += 1
    return acc


def _bound_factor_list(bounds: BoundSequence, trunc: int,
                       image: Callable[[tuple], tuple], i: int, k: int) -> list[tuple]:
    """Cap factor exponents in ascending degree; sizes outside the
    progression i (mod k) must stay uncapped.

    A cap forbids blocks of ``strict`` (= cap + 1) copies of a size.  The
    block's weight is fixed if ``image`` sends a part in an odd row and one
    in an even row alike (then it is ``strict`` times that), or if
    ``strict`` is even (``strict/2`` parts in rows of each parity).
    """
    out = []
    for size in range(1, trunc + 1):
        b = bounds.bound(size)
        if size % k != i:
            if b is not UNBOUNDED:
                raise ValueError("cap on part %d, which lies outside the progression" % size)
            continue
        if b is UNBOUNDED:
            continue
        strict = b + 1
        odd_row, even_row = _row_monomials(size, image)
        if odd_row == even_row:
            exps = tuple(strict * e for e in odd_row)
        elif strict % 2 == 0:
            exps = tuple(strict // 2 * (o + e) for o, e in zip(odd_row, even_row))
        else:
            raise ValueError("part %d has strict cap %d; this identity needs even caps"
                             % (size, strict))
        if size * strict <= trunc:  # the degree of every image of the block
            out.append((size * strict, exps))
    return [exps for _, exps in sorted(out, key=itemgetter(0))]


def _capped_product(i: int, k: int, bounds: BoundSequence, trunc: int,
                    weight: WeightVariant) -> Series:
    """The four-parameter product over parts = i (mod k) with the caps of
    ``bounds``, every factor's a, b, c, d sent through ``weight``'s images.

    The caps are applied before the two denominators, while the accumulated
    series is still small, so each sweep touches fewer terms.
    """
    if k < 1 or not 0 <= i < k:
        raise ValueError("need 0 <= i < k and k >= 1")
    image = _weight_image(weight, Series.zero(weight.names, trunc, weight.degree_index))

    def num(j):
        hi = j * k + i
        lo = (j - 1) * k + i
        return image((_half_up(hi), hi // 2, _half_up(lo), lo // 2))

    def den_pair(j):
        hi = j * k + i
        return image((_half_up(hi), hi // 2, _half_up(hi), hi // 2))

    def den_shift(j):
        return image((j * k, j * k, (j - 1) * k, (j - 1) * k))

    specs = [
        FactorSpec(1, num),
        finite_factors(-1, _bound_factor_list(bounds, trunc, image, i, k)),
        FactorSpec(-1, den_pair, True),
        FactorSpec(-1, den_shift, True),
    ]
    return product_series(specs, weight.names, trunc, weight.degree_index)


def boulet_product(trunc: int) -> Series:
    """Boulet's four-parameter product over all partitions.

    prod_j (1 + a^j b^(j-1) c^(j-1) d^(j-1)) (1 + a^j b^j c^j d^(j-1))
         / [(1 - (abcd)^j) (1 - a^j b^j c^(j-1) d^(j-1)) (1 - a^j b^(j-1) c^j d^(j-1))]
    """
    specs = [
        FactorSpec(1, lambda j: (j, j - 1, j - 1, j - 1)),
        FactorSpec(1, lambda j: (j, j, j, j - 1)),
        FactorSpec(-1, lambda j: (j, j, j, j), True),
        FactorSpec(-1, lambda j: (j, j, j - 1, j - 1), True),
        FactorSpec(-1, lambda j: (j, j - 1, j, j - 1), True),
    ]
    return product_series(specs, ABCD, trunc)


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
    if m < 0:
        raise ValueError("m must be >= 0")
    return _capped_product(0, 1, PAIRING_SOURCE.bounds(m), trunc, ALT_BY_WEIGHT)


def binary_gf(m: int, trunc: int) -> Series:
    """Closed form for partitions whose even parts appear at most ``2m+1``
    times, counted by either statistic:

    (-xq; q^2)_inf (q^(4m+4); q^(4m+4))_inf / [(q^2; q^2)_inf (x^2 q^2; q^4)_inf]
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return _capped_product(0, 1, BINARY_FAMILY.bounds(m), trunc, ALT_BY_WEIGHT)


def partition_gf(trunc: int) -> Series:
    """1 / (q; q)_inf as an (x, q) series: the coefficient of q^n counts all
    partitions of n."""
    specs = [FactorSpec(-1, lambda j: (0, j), True)]
    return product_series(specs, XQ, trunc, degree_index=1)
