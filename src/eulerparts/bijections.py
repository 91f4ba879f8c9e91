"""Weight-preserving partition bijections.

The building blocks:

* ``split_distinct_even`` / ``merge_distinct_even`` — peel one copy of every
  part with odd multiplicity, leaving a distinct partition and a partition
  in which every multiplicity is even;
* ``sylvester_distinct_to_odd`` / ``sylvester_odd_to_distinct`` — Sylvester's
  fishhook bijection between distinct-part and odd-part partitions;
* ``merge_pairs`` / ``split_pairs`` — trade two copies of ``t`` for one ``2t``;
* ``binary_expand`` / ``binary_contract`` — trade an even multiplicity of an
  odd part for a set of distinct even parts via its binary digits.

From these, two correspondences between multiplicity-bounded families:

* ``pairing_map`` sends partitions whose every part appears at most ``2m+1``
  times to partitions whose even parts appear at most ``m`` times, turning
  the alternating sum into the number of odd parts;
* ``binary_map`` does the same statistic exchange on partitions whose even
  parts appear at most ``2m+1`` times, preserving that family.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .enumeration import UNBOUNDED, BoundSequence
from .partition import Partition


class DomainError(ValueError):
    """The input lies outside a map's domain (a violated bound or parity)."""


def _ensure(holds: bool, invariant: str):
    """Raise on a broken invariant; unlike ``assert`` this survives ``python -O``."""
    if not holds:
        raise AssertionError("invariant broken: " + invariant)


@dataclass(frozen=True)
class BijectionTrace:
    """Intermediate stages of a composite map.

    ``lambda_part`` is distinct, ``mu_part`` has all multiplicities even,
    ``tau_part`` has all parts odd and ``nu_part`` all parts even, whichever
    direction the map was run in.
    """

    source: Partition
    lambda_part: Partition
    mu_part: Partition
    tau_part: Partition
    nu_part: Partition
    image: Partition


# -- splitting off the odd multiplicities ---------------------------------

def split_distinct_even(alpha: Partition) -> tuple[Partition, Partition]:
    """Peel one copy of every odd-multiplicity part.

    Returns ``(lam, mu)``: ``lam`` has the parts of odd multiplicity, once
    each (so it is distinct), and ``mu`` keeps everything else, so each of
    its multiplicities is even.
    """
    lam = []
    mu = []
    for size, mult in alpha.multiplicities().items():
        if mult % 2 == 1:
            lam.append(size)
            mult -= 1
        mu.extend([size] * mult)
    return Partition._raw(tuple(lam)), Partition._raw(tuple(mu))


def merge_distinct_even(lam: Partition, mu: Partition) -> Partition:
    """Inverse of :func:`split_distinct_even`; validates both halves."""
    seen = set()
    for p in lam.parts:
        if p in seen:
            raise DomainError("part %d repeats in the distinct half" % p)
        seen.add(p)
    for size, mult in mu.multiplicities().items():
        if mult % 2 == 1:
            raise DomainError("part %d has odd multiplicity %d in the even half" % (size, mult))
    return Partition(lam.parts + mu.parts)


# -- Sylvester's fishhook bijection ---------------------------------------

def sylvester_odd_to_distinct(tau: Partition) -> Partition:
    """Map a partition with all parts odd to one with all parts distinct.

    Rows are written as centred hooks of half-width ``b_k = (tau_k - 1) / 2``.
    The k-th pair of output parts comes from the k-th fishhook: with
    ``l_k`` counting the rows from the k-th down that still reach width
    ``2k - 1`` and ``d_k = max(b_k - k + 1, 0)`` the protruding arm, the
    parts are ``d_k + l_k`` and ``d_k + l_{k+1}``.
    """
    parts = tau.parts
    for p in parts:
        if p % 2 == 0:
            raise DomainError("part %d is even; all parts must be odd" % p)
    total = len(parts)
    ascending = parts[::-1]

    def rows_at_least(width: int) -> int:
        return total - bisect_left(ascending, width)

    def ell(k: int) -> int:
        return max(rows_at_least(2 * k - 1) - (k - 1), 0)

    out = []
    k = 1
    while True:
        if k <= total:
            d = max((parts[k - 1] - 1) // 2 - (k - 1), 0)
        else:
            d = 0
        first = d + ell(k)
        if first == 0:
            break
        out.append(first)
        second = d + ell(k + 1)
        if second:
            out.append(second)
        k += 1

    lam = Partition._raw(tuple(out))
    _ensure(lam.weight() == tau.weight(), "weight preserved")
    return lam


def sylvester_distinct_to_odd(lam: Partition) -> Partition:
    """Inverse fishhook map: distinct parts back to odd parts.

    Reading the input in consecutive pairs recovers the arm lengths
    ``d_k = sum_{j>=k} (lam_{2j} - lam_{2j+1})`` and leg counts
    ``l_k = sum_{j>=k} (lam_{2j-1} - lam_{2j})``.  Rows with a protruding
    arm have half-width ``d_k + k - 1``; the remaining half-widths are read
    off column-wise, column ``j`` reaching down ``l_{j+1} + j`` rows.
    """
    parts = lam.parts
    if len(set(parts)) != len(parts):
        raise DomainError("parts must be distinct")
    size = len(parts)

    def at(idx: int) -> int:
        return parts[idx - 1] if idx <= size else 0

    kmax = size // 2 + 1
    d = [0] * (kmax + 2)
    ell = [0] * (kmax + 3)
    for k in range(kmax, 0, -1):
        d[k] = d[k + 1] + at(2 * k) - at(2 * k + 1)
        ell[k] = ell[k + 1] + at(2 * k - 1) - at(2 * k)

    rows = ell[1]
    hooked = 0
    while hooked < kmax and d[hooked + 1] > 0:
        hooked += 1

    half = [0] * rows
    for k in range(1, hooked + 1):
        half[k - 1] = d[k] + k - 1
    for k in range(hooked + 1, rows + 1):
        width = 0
        j = 1
        while j + 1 <= kmax + 1 and ell[j + 1] > 0:
            if ell[j + 1] + j >= k:
                width += 1
            j += 1
        half[k - 1] = width

    tau = Partition._raw(tuple(2 * b + 1 for b in half))
    _ensure(tau.weight() == lam.weight(), "weight preserved")
    return tau


# -- doubling and binary steps --------------------------------------------

def merge_pairs(mu: Partition) -> Partition:
    """Replace every two copies of ``t`` by one ``2t``.

    Requires all multiplicities even; the image has only even parts.
    """
    out = []
    for size, mult in mu.multiplicities().items():
        if mult % 2 == 1:
            raise DomainError("part %d has odd multiplicity %d" % (size, mult))
        out.extend([2 * size] * (mult // 2))
    return Partition(out)


def split_pairs(nu: Partition) -> Partition:
    """Inverse of :func:`merge_pairs`: each ``2t`` becomes two copies of ``t``."""
    out = []
    for p in nu.parts:
        if p % 2 == 1:
            raise DomainError("part %d is odd; all parts must be even" % p)
        out.extend([p // 2, p // 2])
    return Partition(out)


def binary_expand(mu: Partition) -> Partition:
    """Trade each odd part's (even) multiplicity for distinct even parts.

    An odd part ``t`` appearing ``m = sum_j a_j 2^j`` times (``a_j`` binary
    digits, ``j >= 1``) becomes one part ``2^j t`` for each digit ``a_j = 1``;
    even parts pass through unchanged.  Requires all multiplicities even.
    """
    out = []
    for size, mult in mu.multiplicities().items():
        if mult % 2 == 1:
            raise DomainError("part %d has odd multiplicity %d" % (size, mult))
        if size % 2 == 0:
            out.extend([size] * mult)
        else:
            j = 1
            while (1 << j) <= mult:
                if mult & (1 << j):
                    out.append(size << j)
                j += 1
    return Partition(out)


def binary_contract(nu: Partition) -> Partition:
    """Inverse of :func:`binary_expand`.

    For each even part ``v = 2^j t`` (``t`` odd) of odd multiplicity, one
    copy of ``v`` dissolves into ``2^j`` copies of ``t``; even multiplicities
    stay as they are.  Requires all parts even.
    """
    out = []
    for size, mult in nu.multiplicities().items():
        if size % 2 == 1:
            raise DomainError("part %d is odd; all parts must be even" % size)
        if mult % 2 == 1:
            low = size & -size
            out.extend([size // low] * low)
            mult -= 1
        out.extend([size] * mult)
    return Partition(out)


# -- the two bound-trading maps -------------------------------------------

# A family cut out by multiplicity caps: its caps as a function of m, and the
# text that names them in a DomainError.  The two maps trade between these
# families; the maps do not depend on m, only the caps do.
CapFamily = NamedTuple("CapFamily", [("bounds", Callable[[int], BoundSequence]),
                                     ("what", str)])
PAIRING_SOURCE = CapFamily(lambda m: BoundSequence.constant(2 * m + 1),
                           "every part, at most 2m+1 times")
PAIRING_TARGET = CapFamily(BoundSequence.evens_only, "even parts, at most m times")
BINARY_FAMILY = CapFamily(lambda m: BoundSequence.evens_only(2 * m + 1),
                          "even parts, at most 2m+1 times")


def _check_cap(p: Partition, m, family: CapFamily):
    """Validate ``m`` and, unless it is ``UNBOUNDED``, that ``p`` is in ``family``."""
    if m is UNBOUNDED:
        return
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError("m must be a non-negative integer or UNBOUNDED, got %r" % (m,))
    bounds = family.bounds(m)
    for size, mult in p.multiplicities().items():
        if not bounds.allows(size, mult):
            raise DomainError("part %d appears %d times, above the cap of %d (%s)"
                              % (size, mult, bounds.bound(size), family.what))


def _forward(alpha: Partition, m, family, encode) -> tuple[Partition, BijectionTrace]:
    """Split ``alpha`` by multiplicity parity, send the distinct half through
    the fishhook and the even half through ``encode``, and join the images."""
    _check_cap(alpha, m, family)
    lam, mu = split_distinct_even(alpha)
    tau = sylvester_distinct_to_odd(lam)
    nu = encode(mu)
    beta = Partition(tau.parts + nu.parts)
    _ensure(beta.weight() == alpha.weight(), "weight preserved")
    _ensure(alpha.alt_sum() == beta.odd_count(), "l_a of the input = l_o of the image")
    return beta, BijectionTrace(alpha, lam, mu, tau, nu, beta)


def _backward(beta: Partition, m, family, decode) -> tuple[Partition, BijectionTrace]:
    """Inverse of :func:`_forward`: odd parts go back through the fishhook,
    even parts through ``decode``."""
    _check_cap(beta, m, family)
    tau = Partition._raw(tuple(p for p in beta.parts if p % 2 == 1))
    nu = Partition._raw(tuple(p for p in beta.parts if p % 2 == 0))
    lam = sylvester_odd_to_distinct(tau)
    mu = decode(nu)
    alpha = merge_distinct_even(lam, mu)
    _ensure(alpha.weight() == beta.weight(), "weight preserved")
    return alpha, BijectionTrace(beta, lam, mu, tau, nu, alpha)


def pairing_map(alpha: Partition, m=UNBOUNDED) -> tuple[Partition, BijectionTrace]:
    """Send a partition with every multiplicity at most ``2m+1`` to one whose
    even parts appear at most ``m`` times.

    The alternating sum of the input equals the number of odd parts of the
    image, and the weight is preserved.  With ``m = UNBOUNDED`` no caps are
    checked and the map is the general multiplicity-parity correspondence.
    """
    return _forward(alpha, m, PAIRING_SOURCE, merge_pairs)


def pairing_inverse_trace(beta: Partition, m=UNBOUNDED) -> tuple[Partition, BijectionTrace]:
    """Inverse of :func:`pairing_map`, with the intermediate stages."""
    return _backward(beta, m, PAIRING_TARGET, split_pairs)


def pairing_inverse(beta: Partition, m=UNBOUNDED) -> Partition:
    return pairing_inverse_trace(beta, m)[0]


def binary_map(alpha: Partition, m=UNBOUNDED) -> tuple[Partition, BijectionTrace]:
    """Statistic exchange within the family "even parts at most ``2m+1`` times".

    Works like :func:`pairing_map` but the even-multiplicity half goes
    through :func:`binary_expand`, so the image again has its even parts
    capped at ``2m+1``.  Alternating sum maps to odd-part count.
    """
    return _forward(alpha, m, BINARY_FAMILY, binary_expand)


def binary_inverse_trace(beta: Partition, m=UNBOUNDED) -> tuple[Partition, BijectionTrace]:
    """Inverse of :func:`binary_map`, with the intermediate stages."""
    return _backward(beta, m, BINARY_FAMILY, binary_contract)


def binary_inverse(beta: Partition, m=UNBOUNDED) -> Partition:
    return binary_inverse_trace(beta, m)[0]
