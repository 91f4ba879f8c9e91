"""Weight-preserving partition bijections.

The building blocks:

* ``split_distinct_even`` / ``merge_distinct_even`` — peel one copy of every
  part with odd multiplicity, leaving a distinct partition and a partition
  in which every multiplicity is even (the split is re-exported from ``partition``);
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

Each stage and each composite map is one function on parts tuples: its
input is a non-increasing tuple of positive ints, as ``bounded_partitions``
yields, and so is its output (the split returns two).  The public composite
maps check that their input is one; the stages do not.  A stage finds
multiplicities as runs of equal neighbours and raises :class:`DomainError`
outside its domain.  Each stage, the two fishhooks included, runs in time
linear in the number of parts it reads and writes, and sorts only when its
output can come out of order: ``merge_distinct_even``, ``binary_expand``,
``binary_contract`` and the join of the two halves.  :func:`_forward` and
:func:`_backward` compose the stages of the two composite maps, taking the
fishhook and the even half's stage as arguments.  They are the maps that
the public functions run and trace.  The exchange checks in ``verify`` run
``_forward``'s composition inline and call ``_backward`` for a partition
whose halves they cannot certify; both are the reference those checks are
tested against.

Those checks memoise the two forward stages for the life of one check and
stay exact:

* each stage is a pure function of its input tuple, so a stored image is
  the image it would compute again;
* an input on which a stage raises is never stored, so the stage raises
  for every partition whose split meets that input;
* with each half's image the check stores one certificate: every part of
  the image has the half's parity (odd after the fishhook, even after the
  encode stage), and the inverse stage sends the image, sorted, back to
  the half (an ``AssertionError`` or ``DomainError`` there leaves the half
  uncertified).  When both halves of a partition are certified, the parity
  split in :func:`_backward` gives the two sorted images, the inverse
  stages give back the two halves, and :func:`merge_distinct_even` joins
  them with no error, since the split made one half distinct and the
  other evenly paired.  So :func:`_backward` would return the partition,
  and only a partition with an uncertified half is sent through it;
* the split, the join and the forward weight check are not memoised: they
  run for every partition a check meets, and a check meets each partition
  once.

l_a = l_o is not checked by :func:`_forward` but by the public maps
:func:`pairing_map` and :func:`binary_map`; an exchange check compares
exactly that equality as its statistic, so it too runs once for every
partition.

The families the maps trade between are :class:`~eulerparts.enumeration.CapFamily`
values: one per-size rule each gives the caps at m, the level and the profile.
"""

from __future__ import annotations

from typing import NamedTuple

from .enumeration import (BINARY_FAMILY, PAIRING_SOURCE, PAIRING_TARGET,
                          UNBOUNDED, CapFamily)
from .partition import alt_sum, multiplicities, odd_count, split_distinct_even


class DomainError(ValueError):
    """The input lies outside a map's domain (a violated bound or parity)."""


def _ensure(holds: bool, invariant: str):
    """Raise on a broken invariant; unlike ``assert`` this survives ``python -O``."""
    if not holds:
        raise AssertionError("invariant broken: " + invariant)


class BijectionTrace(NamedTuple):
    """Intermediate stages of a composite map.

    ``lambda_part`` is distinct, ``mu_part`` has all multiplicities even,
    ``tau_part`` has all parts odd and ``nu_part`` all parts even, whichever
    direction the map was run in.
    """

    source: tuple[int, ...]
    lambda_part: tuple[int, ...]
    mu_part: tuple[int, ...]
    tau_part: tuple[int, ...]
    nu_part: tuple[int, ...]
    image: tuple[int, ...]


# -- run lengths on a descending parts tuple --------------------------------

def _evenly_paired(parts: tuple[int, ...]) -> bool:
    """True when every multiplicity is even: the parts pair off as neighbours."""
    return parts[::2] == parts[1::2]


def _unpaired(parts: tuple[int, ...], where: str = "") -> DomainError:
    """The error for ``parts`` that do not pair off as neighbours: the
    largest part of odd multiplicity, or, when every multiplicity is even,
    the first part that follows a smaller one.  Non-increasing parts with
    even multiplicities do pair off, so one of the two is there."""
    for size, mult in multiplicities(parts).items():
        if mult % 2 == 1:
            return DomainError("part %d has odd multiplicity %d%s" % (size, mult, where))
    p, q = next((p, q) for p, q in zip(parts, parts[1:]) if q > p)
    return DomainError("part %d follows the smaller part %d%s" % (q, p, where))


def _all_even(parts: tuple[int, ...]):
    """Raise unless every part is even."""
    for p in parts:
        if p % 2 == 1:
            raise DomainError("part %d is odd; all parts must be even" % p)


# -- joining the distinct and even halves --------------------------------

def _repeated(lam: tuple[int, ...]) -> DomainError | None:
    """The error for a distinct half in which a part repeats, maybe not as a
    neighbour (it names the first repeat), or None when the parts are distinct."""
    if len(set(lam)) == len(lam):
        return None
    return DomainError("part %d repeats in the distinct half"
                       % next(p for i, p in enumerate(lam) if p in lam[:i]))


def _unpaired_half(mu: tuple[int, ...]) -> DomainError | None:
    """The error for an even half whose parts do not pair off, or None when they do."""
    return None if _evenly_paired(mu) else _unpaired(mu, " in the even half")


def merge_distinct_even(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`split_distinct_even`; validates both halves, the
    distinct one first."""
    error = _repeated(lam) or _unpaired_half(mu)
    if error:
        raise error
    return tuple(sorted(lam + mu, reverse=True))


# -- Sylvester's fishhook bijection ---------------------------------------

def sylvester_odd_to_distinct(tau: tuple[int, ...]) -> tuple[int, ...]:
    """Map a partition with all parts odd to one with all parts distinct.

    Rows are written as centred hooks of half-width ``b_k = (tau_k - 1) / 2``.
    The k-th pair of output parts comes from the k-th fishhook: with
    ``l_k`` counting the rows from the k-th down that still reach width
    ``2k - 1`` and ``d_k = max(b_k - k + 1, 0)`` the protruding arm, the
    parts are ``d_k + l_k`` and ``d_k + l_{k+1}``.  The rows that reach a
    width are a prefix, shorter for each wider width, so one pointer walks
    down the rows once for all k.
    """
    for p in tau:
        if p % 2 == 0:
            raise DomainError("part %d is even; all parts must be odd" % p)
    total = len(tau)
    reach = ell = total  # rows reaching width 2k - 1, and l_k
    out = []
    k = 1
    while True:
        d = (tau[k - 1] - 1) // 2 - k + 1 if k <= total else 0
        if d < 0:
            d = 0
        while reach and tau[reach - 1] <= 2 * k:
            reach -= 1
        ell_next = reach - k if reach > k else 0
        first = d + ell
        if not first:
            break
        out.append(first)
        second = d + ell_next
        if second:
            out.append(second)
        ell = ell_next
        k += 1

    _ensure(sum(out) == sum(tau), "weight preserved")
    return tuple(out)


def sylvester_distinct_to_odd(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse fishhook map: distinct parts back to odd parts.

    Reading the input in consecutive pairs recovers the arm lengths
    ``d_k = sum_{j>=k} (lam_{2j} - lam_{2j+1})`` and leg counts
    ``l_k = sum_{j>=k} (lam_{2j-1} - lam_{2j})``.  Rows with a protruding
    arm have half-width ``d_k + k - 1``; the remaining half-widths are read
    off column-wise, column ``j`` reaching down ``l_{j+1} + j`` rows.  One
    walk over the pairs, from the last one up, builds both sums and meets
    the columns shortest first, so the half-widths of the rows they reach
    fill in as one run of rows per column.
    """
    if len(set(lam)) != len(lam):
        raise DomainError("parts must be distinct")
    padded = lam + (0, 0, 0)
    hooked = []  # odd parts of the rows with an arm, last row first
    columns = []  # half-widths of rows 1, 2, ... as the columns reach them
    d = ell = reached = 0
    for k in range(len(lam) // 2 + 1, 0, -1):
        if ell:  # ell = l_{k+1}
            columns += [k] * (ell + k - reached)
            reached = ell + k
        d += padded[2 * k - 1] - padded[2 * k]
        ell += padded[2 * k - 2] - padded[2 * k - 1]
        if d:
            hooked.append(2 * (d + k) - 1)
    hooked.reverse()
    columns += [0] * (ell - reached)  # ell = l_1, the number of rows
    out = hooked + [2 * b + 1 for b in columns[len(hooked):]]

    _ensure(sum(out) == sum(lam), "weight preserved")
    return tuple(out)


# -- doubling and binary steps --------------------------------------------

def merge_pairs(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Replace every two copies of ``t`` by one ``2t``.

    Requires all multiplicities even; the image has only even parts.
    """
    if not _evenly_paired(mu):
        raise _unpaired(mu)
    return tuple([2 * p for p in mu[::2]])


def split_pairs(nu: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`merge_pairs`: each ``2t`` becomes two copies of ``t``."""
    _all_even(nu)
    return tuple([p // 2 for p in nu for _ in (0, 1)])


def binary_expand(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Trade each odd part's (even) multiplicity for distinct even parts.

    An odd part ``t`` appearing ``m = sum_j a_j 2^j`` times (``a_j`` binary
    digits, ``j >= 1``) becomes one part ``2^j t`` for each digit ``a_j = 1``;
    even parts pass through unchanged.  Requires all multiplicities even.
    """
    if not _evenly_paired(mu):
        raise _unpaired(mu)
    out = []
    for size, mult in multiplicities(mu).items():
        if size % 2 == 0:
            out += [size] * mult
        else:
            for j in range(1, mult.bit_length()):
                if mult >> j & 1:
                    out.append(size << j)
    return tuple(sorted(out, reverse=True))


def binary_contract(nu: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`binary_expand`.

    For each even part ``v = 2^j t`` (``t`` odd) of odd multiplicity, one
    copy of ``v`` dissolves into ``2^j`` copies of ``t``; even multiplicities
    stay as they are.  Requires all parts even.
    """
    _all_even(nu)
    singles, pairs = split_distinct_even(nu)
    out = list(pairs)
    for v in singles:
        low = v & -v
        out += [v // low] * low
    return tuple(sorted(out, reverse=True))


# -- the two bound-trading maps -------------------------------------------

def _check_domain(parts: tuple[int, ...], m, family: CapFamily):
    """Check that ``parts`` is a parts tuple and, unless ``m`` is
    ``UNBOUNDED`` (or a float equal to it), that it is in ``family`` at
    ``m`` (which :meth:`CapFamily.bounds` validates)."""
    if not (isinstance(parts, tuple)
            and all(isinstance(p, int) and not isinstance(p, bool) and p >= 1 for p in parts)
            and all(p >= q for p, q in zip(parts, parts[1:]))):
        raise ValueError("a partition is a non-increasing tuple of positive ints, got %r"
                         % (parts,))
    if m == UNBOUNDED:
        return
    bounds = family.bounds(m)
    for size, mult in multiplicities(parts).items():
        b = bounds.bound(size)
        if mult > b:
            raise DomainError("part %d appears %d times, above the cap of %d (%s)"
                              % (size, mult, b, family.what))


def _forward(alpha: tuple[int, ...], fishhook, encode) -> tuple[tuple[int, ...], ...]:
    """The stages ``(lam, mu, tau, nu, beta)`` of a composite map on the
    parts tuple ``alpha``: split it by multiplicity parity, send the distinct
    half through ``fishhook`` and the even half through ``encode``, and join
    the images.  The weight is checked here on every call, whatever the two
    stages are; l_a = l_o is left to the caller (:func:`_mapped` for
    the public maps, or an exchange check's statistic comparison)."""
    lam, mu = split_distinct_even(alpha)
    tau = fishhook(lam)
    nu = encode(mu)
    beta = tuple(sorted(tau + nu, reverse=True))
    _ensure(sum(beta) == sum(alpha), "weight preserved")
    return lam, mu, tau, nu, beta


def _backward(beta: tuple[int, ...], fishhook, decode) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`_forward`, with the stages in the same order
    ``(lam, mu, tau, nu, alpha)``: odd parts go back through ``fishhook``,
    even parts through ``decode``, and the halves are joined."""
    tau = tuple([p for p in beta if p & 1])
    nu = tuple([p for p in beta if not p & 1])
    lam = fishhook(tau)
    mu = decode(nu)
    alpha = merge_distinct_even(lam, mu)
    _ensure(sum(alpha) == sum(beta), "weight preserved")
    return lam, mu, tau, nu, alpha


_ImageAndTrace = tuple[tuple[int, ...], BijectionTrace]  # what a composite map returns


def _mapped(alpha: tuple[int, ...], m, family, encode) -> _ImageAndTrace:
    """A public composite map: check that ``alpha`` is in ``family`` at
    ``m``, run :func:`_forward` with ``encode`` as the even half's stage,
    and check that l_a of the input = l_o of the image."""
    _check_domain(alpha, m, family)
    trace = BijectionTrace(alpha, *_forward(alpha, sylvester_distinct_to_odd, encode))
    _ensure(alt_sum(alpha) == odd_count(trace.image), "l_a of the input = l_o of the image")
    return trace.image, trace


def pairing_map(alpha: tuple[int, ...], m=UNBOUNDED) -> _ImageAndTrace:
    """Send a partition with every multiplicity at most ``2m+1`` to one whose
    even parts appear at most ``m`` times.

    The alternating sum of the input equals the number of odd parts of the
    image, and the weight is preserved; both are checked on every call.
    With ``m = UNBOUNDED`` (the default, ``math.inf``) no caps are checked
    and the map is the general multiplicity-parity correspondence.
    """
    return _mapped(alpha, m, PAIRING_SOURCE, merge_pairs)


def pairing_inverse_trace(beta: tuple[int, ...], m=UNBOUNDED) -> _ImageAndTrace:
    """Inverse of :func:`pairing_map`, with the intermediate stages."""
    _check_domain(beta, m, PAIRING_TARGET)
    trace = BijectionTrace(beta, *_backward(beta, sylvester_odd_to_distinct, split_pairs))
    return trace.image, trace


def pairing_inverse(beta: tuple[int, ...], m=UNBOUNDED) -> tuple[int, ...]:
    return pairing_inverse_trace(beta, m)[0]


def binary_map(alpha: tuple[int, ...], m=UNBOUNDED) -> _ImageAndTrace:
    """Statistic exchange within the family "even parts at most ``2m+1`` times".

    Works like :func:`pairing_map` but the even-multiplicity half goes
    through :func:`binary_expand`, so the image again has its even parts
    capped at ``2m+1``.  Alternating sum maps to odd-part count, which
    is checked on every call.
    """
    return _mapped(alpha, m, BINARY_FAMILY, binary_expand)


def binary_inverse_trace(beta: tuple[int, ...], m=UNBOUNDED) -> _ImageAndTrace:
    """Inverse of :func:`binary_map`, with the intermediate stages."""
    _check_domain(beta, m, BINARY_FAMILY)
    trace = BijectionTrace(beta, *_backward(beta, sylvester_odd_to_distinct, binary_contract))
    return trace.image, trace


def binary_inverse(beta: tuple[int, ...], m=UNBOUNDED) -> tuple[int, ...]:
    return binary_inverse_trace(beta, m)[0]
