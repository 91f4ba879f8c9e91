"""Integer partitions: parts tuples, their statistics and their text.

A partition is a non-increasing tuple of positive parts; the empty tuple is
the (unique) partition of 0.  The whole library passes partitions as these
parts tuples.  Each statistic is one function of the tuple, and so are the
two ways to print it, :func:`plain_form` and :func:`exponent_form`.
:func:`split_distinct_even` pairs off equal parts for the bijections, the
largest part of odd multiplicity and each cap family's profile.
:class:`Partition` is the validated parser the command line reads its input
through.
"""

from __future__ import annotations

from typing import Iterable

EMPTY_TEXT = "∅"  # how the empty partition prints: "∅"

MAX_TEXT_WEIGHT = 100_000  # the heaviest partition ``Partition.parse`` accepts


class Partition:
    """A validated partition read from text or a list of parts; ``parts``
    holds its parts tuple.

    Input order does not matter; ``Partition([2, 7, 1])`` stores ``(7, 2, 1)``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        vals = sorted(parts, reverse=True)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError("parts must be positive integers, got %r" % (v,))
        self.parts = tuple(vals)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse ``"7,2,1"`` or exponent shorthand ``"2^5,4^4"``.

        Surrounding whitespace and one pair of parentheses are tolerated, so
        table entries such as ``"(2^2,1^3)"`` round-trip.  The empty string
        and "∅" both give the empty partition.  Text for a partition of more
        than ``MAX_TEXT_WEIGHT`` (so also of more parts than that) is
        rejected before its parts are listed.
        """
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1].strip()
        if s in ("", EMPTY_TEXT):
            return cls()
        parts = []
        weight = 0
        for token in s.split(","):
            token = token.strip()
            if not token:
                raise ValueError("empty entry in partition %r" % (text,))
            base, sep, exp = token.partition("^")
            try:
                size = int(base)
                mult = int(exp) if sep else 1
            except ValueError:
                raise ValueError("bad partition entry %r" % (token,)) from None
            if size < 1:
                raise ValueError("parts must be positive, got %d" % size)
            if mult < 1:
                raise ValueError("multiplicity must be positive in %r" % (token,))
            weight += size * mult
            if weight > MAX_TEXT_WEIGHT:
                raise ValueError("partition text weighs more than %d" % MAX_TEXT_WEIGHT)
            parts.extend([size] * mult)
        return cls(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "Partition(%s)" % (list(self.parts),)

    def __str__(self) -> str:
        return plain_form(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Sizes to multiplicities, largest first: :func:`multiplicities`."""
        return multiplicities(self.parts)


# -- text of a non-increasing parts tuple ------------------------------------

def plain_form(parts: tuple[int, ...]) -> str:
    """The parts joined by commas, e.g. ``7,2,1``; "∅" when there are none."""
    return ",".join(map(str, parts)) if parts else EMPTY_TEXT


def exponent_form(parts: tuple[int, ...]) -> str:
    """Multiplicities written as exponents, e.g. ``(2^2,1^3)``; "∅" when
    there are no parts."""
    if not parts:
        return EMPTY_TEXT
    return "(%s)" % ",".join(str(size) if mult == 1 else "%d^%d" % (size, mult)
                             for size, mult in multiplicities(parts).items())


# -- statistics of a non-increasing parts tuple ------------------------------

def alt_sum(parts: tuple[int, ...]) -> int:
    """Alternating sum of the parts: first - second + third - ...

    Always non-negative because the parts are non-increasing.
    """
    return sum(parts[::2]) - sum(parts[1::2])


def odd_count(parts: tuple[int, ...]) -> int:
    """How many parts are odd (counted with multiplicity)."""
    return len([p for p in parts if p & 1])


def multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    """Part sizes mapped to their multiplicities, largest size first."""
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def largest_odd_part(parts: tuple[int, ...]) -> int:
    """The largest odd part, or 0 when every part is even (or none)."""
    for p in parts:
        if p % 2 == 1:
            return p
    return 0


def split_distinct_even(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Peel one copy of every odd-multiplicity part.

    Returns ``(lam, mu)``: ``lam`` has the parts of odd multiplicity, once
    each (so it is distinct), and ``mu`` keeps everything else, so each of
    its multiplicities is even.  Equal neighbours pair off along each run,
    so a run of odd length leaves one part over.
    """
    lam: list[int] = []
    mu: list[int] = []
    prev = 0
    for p in alpha:
        if p == prev:
            mu += (p, p)
            prev = 0
        else:
            if prev:
                lam.append(prev)
            prev = p
    if prev:
        lam.append(prev)
    return tuple(lam), tuple(mu)


def largest_odd_multiplicity_part(parts: tuple[int, ...]) -> int:
    """The largest part occurring an odd number of times, 0 if none: the
    first part of :func:`split_distinct_even`'s distinct half."""
    lam = split_distinct_even(parts)[0]
    return lam[0] if lam else 0
