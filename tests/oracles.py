"""Independent reference implementations used to cross-check the library.

Everything here deliberately uses a *different* algorithm than the code under
test: ascending-composition generation (Kelleher's accelAsc) instead of the
library's descending walk, Euler's pentagonal-number recurrence instead
of products or enumeration, plain filter-and-count instead of bounded
search, and Sylvester's fishhooks read off the cells of a diagram instead of
the library's arm and leg sums.  Agreement between the two sides is then
meaningful evidence.  The four-parameter weight is read off the parts one
by one, and the substitution of monomials for variables is written out
variable by variable; neither shares code with the library's coefficient DP
or its products.  Series addition, negation and printing, the conjugate, and
the cap and filter tests on a finished partition, which only the tests need,
are plain functions here over ``Series.terms`` or a parts tuple.
"""

from collections import Counter

from eulerparts.enumeration import UNBOUNDED
from eulerparts.series import Series


def ascending_partitions(n):
    """Yield every partition of n as an ascending list (accelAsc)."""
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        length = k + 1
        while x <= y:
            a[k] = x
            a[length] = y
            yield a[: k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[: k + 1]


def descending_partitions(n):
    """Every partition of n as a descending tuple, in no particular order."""
    return [tuple(reversed(p)) for p in ascending_partitions(n)]


def pentagonal_counts(max_n):
    """p(0..max_n) via Euler's pentagonal-number recurrence."""
    p = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            g2 = k * (3 * k + 1) // 2
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def bounded_count_dp(n, cap_of):
    """Count partitions of n where size s appears at most cap_of(s) times.

    cap_of returns an int cap or None for "no cap".  Plain coefficient DP over
    one size at a time; shares nothing with the library's enumeration walk.
    """
    coeff = [1] + [0] * n
    for size in range(1, n + 1):
        cap = cap_of(size)
        if cap is None:
            cap = n // size
        if cap == 0:
            continue
        nxt = [0] * (n + 1)
        for base, c in enumerate(coeff):
            if c == 0:
                continue
            top = min(cap, (n - base) // size)
            for j in range(top + 1):
                nxt[base + j * size] += c
        coeff = nxt
    return coeff[n]


def brute_distribution(n, stat, allow=None):
    """Counter {stat value: count} over all partitions of n passing allow."""
    out = Counter()
    for asc in ascending_partitions(n):
        parts = tuple(reversed(asc))
        if allow is not None and not allow(parts):
            continue
        out[stat(parts)] += 1
    return dict(out)


def alternating_sum(parts):
    """lambda_1 - lambda_2 + lambda_3 - ... over a descending tuple."""
    return sum(v if i % 2 == 0 else -v for i, v in enumerate(parts))


def odd_part_count(parts):
    return sum(1 for v in parts if v % 2 == 1)


def multiplicity_table(parts):
    return Counter(parts)


def conjugate(parts):
    """Transpose of the diagram of a descending parts tuple: column c holds
    one cell for each part of size at least c."""
    return tuple(sum(1 for v in parts if v >= col)
                 for col in range(1, (parts[0] if parts else 0) + 1))


def within_caps(parts, bounds):
    """Every size occurs in ``parts`` at most ``bounds.bound(size)`` times."""
    for size, count in Counter(parts).items():
        cap = bounds.bound(size)
        if cap is not UNBOUNDED and count > cap:
            return False
    return True


def passes_filter(parts, filt):
    """``parts`` lies in the class of a ``CongruenceFilter``: every part is
    ``residue`` mod ``modulus``, the length is even if asked, and a positive
    residue occurs at most once as a part if asked."""
    if filt.even_length and len(parts) % 2 == 1:
        return False
    if filt.first_part_once and filt.residue >= 1 and parts.count(filt.residue) > 1:
        return False
    return all(v % filt.modulus == filt.residue for v in parts)


def max_multiplicity_at_most(cap):
    """Predicate: every part appears at most cap times."""

    def allow(parts):
        return all(c <= cap for c in Counter(parts).values())

    return allow


def even_multiplicity_at_most(cap):
    """Predicate: every even part appears at most cap times."""

    def allow(parts):
        return all(v % 2 == 1 or c <= cap for v, c in Counter(parts).items())

    return allow


def fishhook_sizes(odd_parts):
    """Sylvester's map from odd parts to distinct parts, read off the cells.

    Row r of the centred diagram holds the cells (r, c) for |c| <= (part - 1)/2.
    Hooks alternate right and left: hook 2k - 1 is row k from column k - 1
    rightwards plus column k - 1 below row k, and hook 2k is row k from
    column -k leftwards plus column -k below row k.  Each cell is put in its
    hook, and the hook sizes, in hook order, are the distinct parts; an empty
    hook before a full one would show as a 0.
    """
    cells = {(row, col) for row, part in enumerate(odd_parts, 1)
             for col in range(-(part // 2), part // 2 + 1)}
    hooks = Counter()
    for row, col in cells:
        if col >= 0:
            hooks[2 * min(row, col + 1) - 1] += 1
        else:
            hooks[2 * min(row, -col)] += 1
    return tuple(hooks[h] for h in range(1, len(hooks) + 1))


def four_param_weight(parts):
    """Exponents of the four-parameter weight a^.. b^.. c^.. d^.. of a
    descending parts tuple.

    Odd-indexed rows contribute their cells to (a, b) — ceilings to a,
    floors to b — and even-indexed rows likewise to (c, d).
    """
    ea = eb = ec = ed = 0
    for i, part in enumerate(parts):
        if i % 2 == 0:
            ea += (part + 1) // 2
            eb += part // 2
        else:
            ec += (part + 1) // 2
            ed += part // 2
    return (ea, eb, ec, ed)


def substitute(series, images, names, degree_index=None):
    """Map every variable of ``series`` to the monomial ``images[v]`` in the
    variables ``names``.

    Each image must have degree exactly 1 under the target metric (the total
    degree, or the exponent at ``degree_index``), so the truncation degree
    of every term is preserved and the result is exact.
    """
    rows = []
    for v in series.names:
        if v not in images:
            raise ValueError("no image for variable %r" % v)
        img = tuple(images[v])
        if len(img) != len(names):
            raise ValueError("image for %r has wrong arity" % v)
        if (sum(img) if degree_index is None else img[degree_index]) != 1:
            raise ValueError("image for %r must have truncation degree 1" % v)
        rows.append(img)
    out = Counter()
    for exps, coeff in series.terms.items():
        new = [0] * len(names)
        for e, img in zip(exps, rows):
            for j, x in enumerate(img):
                new[j] += e * x
        out[tuple(new)] += coeff
    return Series(names, series.trunc, dict(out), degree_index)


def _same_ring(s1, s2):
    if (s1.names, s1.trunc, s1.degree_index) != (s2.names, s2.trunc, s2.degree_index):
        raise ValueError("series mismatch: %r/%d vs %r/%d"
                         % (s1.names, s1.trunc, s2.names, s2.trunc))


def series_add(s1, s2):
    """s1 + s2 coefficientwise; an int ``s2`` is a constant term."""
    if isinstance(s2, int):
        s2 = Series(s1.names, s1.trunc, {(0,) * len(s1.names): s2}, s1.degree_index)
    _same_ring(s1, s2)
    out = Counter(s1.terms)
    out.update(s2.terms)  # Counter.update adds, and the constructor drops zeros
    return Series(s1.names, s1.trunc, dict(out), s1.degree_index)


def series_neg(s):
    return Series(s.names, s.trunc, {e: -c for e, c in s.terms.items()}, s.degree_index)


def series_sub(s1, s2):
    return series_add(s1, series_neg(s2))


def series_str(s):
    """The first 14 terms in ``Series.items`` order, as in
    ``3*x^1*q^2 + ...``; the zero series is ``0``."""
    if not s.terms:
        return "0"
    chunks = []
    for exps, coeff in s.items()[:14]:
        mono = "*".join("%s^%d" % (n, e) for n, e in zip(s.names, exps) if e)
        if not mono:
            chunks.append(str(coeff))
        elif coeff == 1:
            chunks.append(mono)
        else:
            chunks.append("%d*%s" % (coeff, mono))
    tail = " + ..." if len(s.terms) > 14 else ""
    return " + ".join(chunks) + tail
