"""Multiplicity-bounded partition enumeration.

A :class:`BoundSequence` caps how often each part size may occur (the cap is
inclusive: "at most b times").  Enumeration can further be restricted to a
congruence class of part sizes, to even length, and to at most one copy of
the class representative.  Both restrictions have a small text DSL so they
can be passed on a command line.

The exchange families (:class:`CapFamily`) live here too: each writes its
caps in the bound DSL as a function of m, so the maps that trade between
them and the generating functions that count them read the same caps.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import inf, prod
from typing import Callable, Iterable, Iterator, NamedTuple


# "No cap": a number, so that cap arithmetic needs no branch for it.
UNBOUNDED = inf


class BoundSequence:
    """Per-size multiplicity caps: part ``i`` may appear at most ``bound(i)`` times.

    Caps are inclusive non-negative ints, 0 forbids the size, and
    ``UNBOUNDED`` (``math.inf``, or a float equal to it) lifts the cap.
    ``spec``, kept for reports, is the DSL text when :func:`parse_bounds`
    built the caps, and otherwise the name given by whoever built them.
    """

    __slots__ = ("_fn", "spec")

    def __init__(self, fn: Callable[[int], object], spec: str):
        self._fn = fn
        self.spec = spec

    def __repr__(self) -> str:
        return "BoundSequence(%r)" % self.spec

    def bound(self, size: int):
        if size < 1:
            raise ValueError("part sizes start at 1, got %d" % size)
        b = self._fn(size)
        if b != UNBOUNDED and (not isinstance(b, int) or b < 0):
            raise ValueError("bound for part %d must be a non-negative integer, got %r" % (size, b))
        return b

    def strict_products(self, cutoff: int) -> list[int]:
        """Sorted multiset of ``size * (bound + 1)`` values up to ``cutoff``.

        ``bound + 1`` is the strict (excluded) multiplicity, so these are the
        products that decide whether two bound sequences are equivalent.  An
        uncapped size has an infinite product, so it never makes the list.
        """
        out = []
        for size in range(1, cutoff + 1):
            b = self.bound(size)
            product = size * (b + 1)
            if product <= cutoff:
                out.append(product)
        return sorted(out)


@dataclass(frozen=True)
class CongruenceFilter:
    """Keep partitions whose parts are ``residue`` mod ``modulus``.

    ``even_length`` further requires an even number of parts, and
    ``first_part_once`` allows at most one copy of the part equal to
    ``residue`` (meaningful only when the residue is a valid part size).
    """

    modulus: int = 1
    residue: int = 0
    even_length: bool = False
    first_part_once: bool = False

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must satisfy 0 <= residue < modulus")


# -- the DSLs -----------------------------------------------------------

_PHI_TOKEN = re.compile(r"\d+|[i+*()]")
_PHI_MAX_DEPTH = 50  # parentheses; keeps parsing and evaluation off the recursion limit


def parse_phi(expr: str) -> Callable[[int], int]:
    """Parse a tiny arithmetic expression in ``i``: integers, ``+``, ``*``, parens.

    Returns a function of the part size, e.g. ``"2*i+1"``.
    """
    text = expr.replace(" ", "")
    tokens = _PHI_TOKEN.findall(text)
    if "".join(tokens) != text or not tokens:
        raise ValueError("bad expression %r (allowed: integers, i, +, *, parentheses)" % expr)

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom(depth):
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression in %r" % expr)
        if tok == "(":
            if depth == _PHI_MAX_DEPTH:
                raise ValueError("parentheses nested deeper than %d in %r"
                                 % (_PHI_MAX_DEPTH, expr))
            take()
            node = sum_expr(depth + 1)
            if peek() != ")":
                raise ValueError("unbalanced parentheses in %r" % expr)
            take()
            return node
        take()
        if tok == "i":
            return lambda i: i
        if tok.isdigit():
            val = int(tok)
            return lambda i: val
        raise ValueError("unexpected token %r in %r" % (tok, expr))

    # A chain of * or + becomes one flat node, so its length does not
    # deepen the evaluation.
    def term(depth):
        factors = [atom(depth)]
        while peek() == "*":
            take()
            factors.append(atom(depth))
        return factors[0] if len(factors) == 1 else lambda i: prod(f(i) for f in factors)

    def sum_expr(depth):
        terms = [term(depth)]
        while peek() == "+":
            take()
            terms.append(term(depth))
        return terms[0] if len(terms) == 1 else lambda i: sum(t(i) for t in terms)

    fn = sum_expr(0)
    if pos != len(tokens):
        raise ValueError("trailing tokens in %r" % expr)
    return fn


def _parse_bound_value(text: str):
    """A bound value: "inf", an inclusive integer, or "Ns" for a strict cap N."""
    t = text.strip()
    if t == "inf":
        return UNBOUNDED
    strict = t.endswith("s")
    if strict:
        t = t[:-1]
    if not t.isdecimal():
        raise ValueError("bad bound value %r" % text)
    val = int(t)
    if strict:
        if val < 1:
            raise ValueError("strict bound must be >= 1 in %r" % text)
        val -= 1
    return val


def parse_bounds(text: str) -> BoundSequence:
    """Parse the bound DSL.

    Examples: ``all:3``, ``even:1``, ``odd:inf,even:3``, ``1:3,2:5,default:inf``,
    ``phi:2*i+1``.  A trailing ``s`` marks a strict cap ("fewer than N"), so
    ``all:4s`` equals ``all:3``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty bound spec")
    if s.startswith("phi:"):
        expr = s[len("phi:"):]
        fn = parse_phi(expr)
        return BoundSequence(fn, "phi:%s" % expr.replace(" ", ""))

    caps: dict[object, object] = {}  # "default", "odd", "even" or a size
    for entry in s.split(","):
        key, sep, value = entry.partition(":")
        key = key.strip()
        if not sep:
            raise ValueError("bad bound entry %r (expected key:value)" % entry)
        val = _parse_bound_value(value)
        if key in ("all", "default"):
            slot = "default"
        elif key in ("odd", "even"):
            slot = key
        elif key.isdecimal() and int(key) >= 1:
            slot = int(key)
        else:
            raise ValueError("bad bound key %r" % key)
        if slot in caps:
            raise ValueError("duplicate %s in %r" % (slot, text))
        caps[slot] = val

    base = caps.pop("default", UNBOUNDED)
    odd_cap = caps.pop("odd", base)
    even_cap = caps.pop("even", base)

    def fn(size, sizes=caps, odd_cap=odd_cap, even_cap=even_cap):
        if size in sizes:
            return sizes[size]
        return odd_cap if size % 2 == 1 else even_cap

    return BoundSequence(fn, s.replace(" ", ""))


def parse_filter(text: str) -> CongruenceFilter:
    """Parse the filter DSL: ``mod:k,res:i[,even-length][,first-once]``."""
    fields: dict[str, object] = {}
    for entry in text.strip().split(","):
        key, sep, value = entry.partition(":")
        key = key.strip()
        if key in ("mod", "res") and value.strip().isdecimal():
            val = int(value)
        elif key in ("even-length", "first-once") and not sep:
            val = True
        else:
            raise ValueError("bad filter entry %r" % entry)
        if key in fields:
            raise ValueError("duplicate %s in %r" % (key, text))
        fields[key] = val
    return CongruenceFilter(fields.get("mod", 1), fields.get("res", 0),
                            "even-length" in fields, "first-once" in fields)


# -- the exchange families ------------------------------------------------

class CapFamily(NamedTuple):
    """A family cut out by multiplicity caps: ``spec`` writes its caps at
    ``m`` in the bound DSL, ``what`` names them in a map's DomainError, and
    ``level`` gives a partition's level, the least m whose caps admit it,
    so that a partition is in the family at m exactly when its level is at
    most m.  The exchange maps trade between these families; the maps do
    not depend on m, only the caps do."""

    spec: Callable[[int], str]
    what: str
    level: Callable[[tuple[int, ...]], int]

    def bounds(self, m: int) -> BoundSequence:
        """The family's caps at ``m``, a non-negative integer, or no caps at
        ``m = UNBOUNDED`` (or a float equal to it)."""
        # checked before formatting, which would read m = True as 1 and
        # turn m = 1.5 into a bound DSL error that does not name m
        if m != UNBOUNDED and (not isinstance(m, int) or isinstance(m, bool)):
            raise ValueError("m must be a non-negative integer, got %r" % (m,))
        if m < 0:
            raise ValueError("m must be >= 0")
        return parse_bounds(self.spec(m))


def _largest_multiplicity(parts: Iterable[int]) -> int:
    """The largest multiplicity among non-increasing ``parts``: their longest
    run of equal parts, 0 when there are none."""
    best = run = prev = 0
    for p in parts:
        run = run + 1 if p == prev else 1
        if run > best:
            best = run
        prev = p
    return best


def _even_parts(parts: tuple[int, ...]) -> list[int]:
    return [p for p in parts if not p & 1]


# Each level is the least m whose caps admit the largest multiplicity the
# caps read: M <= 2m+1 from m = M // 2 on, and M <= m from m = M on.
# At m = inf each cap is inf, which "%s" writes as the bound DSL does.
PAIRING_SOURCE = CapFamily(lambda m: "all:%s" % (2 * m + 1), "every part, at most 2m+1 times",
                           lambda parts: _largest_multiplicity(parts) // 2)
PAIRING_TARGET = CapFamily(lambda m: "even:%s" % m, "even parts, at most m times",
                           lambda parts: _largest_multiplicity(_even_parts(parts)))
BINARY_FAMILY = CapFamily(lambda m: "even:%s" % (2 * m + 1), "even parts, at most 2m+1 times",
                          lambda parts: _largest_multiplicity(_even_parts(parts)) // 2)


# -- enumeration ---------------------------------------------------------

def _size_caps(n: int, bounds: BoundSequence | None,
               filt: CongruenceFilter | None) -> list[tuple[int, int]]:
    """The admissible part sizes up to ``n``, ascending, each with how many
    copies a partition of ``n`` may hold: ``n // size``, lowered to the
    size's cap and, for the ``first-once`` size, to 1.  Sizes that may not
    occur are dropped.  Caps are read in ascending size, so an invalid cap
    is reported for the smallest size that has one."""
    filt = filt or CongruenceFilter()
    once_size = filt.residue if filt.first_part_once else 0
    table = []
    for size in range(filt.residue or filt.modulus, n + 1, filt.modulus):
        b = UNBOUNDED if bounds is None else bounds.bound(size)
        cap = min(n // size, b, 1 if size == once_size else n)
        if cap:
            table.append((size, cap))
    return table


def _walk(n: int, table: list[tuple[int, int]], need_even: bool) -> Iterator[list[int]]:
    """Walk the partitions of ``n`` built from ``table``, a :func:`_size_caps`
    table, in descending lexicographic order, yielding the one parts list
    the walk fills; a caller copies it before the next step.

    The walk keeps one block per distinct part: a table index and a count.
    It places as many copies of the largest size that fits as it may, and so
    on down.  To step on, it takes one copy off the last block and refills
    the rest from the sizes below that block's.  ``room[i]``, the most that
    the sizes ``table[:i]`` can hold, prunes the walk: a block is lowered
    only while the sizes below it have room for the rest, and otherwise goes
    whole, so no branch is entered whose rest is too heavy for its sizes.
    """
    sizes = [size for size, _ in table]
    caps = [cap for _, cap in table]
    room = [0]
    for size, cap in table:
        room.append(room[-1] + size * cap)
    if n > room[-1]:
        return
    acc: list[int] = []
    blocks: list[int] = []  # the table index of each distinct part
    counts: list[int] = []  # and its number of copies
    remaining, top = n, len(table)  # fill ``remaining`` from table[:top]
    while True:
        while remaining:
            i = bisect_right(sizes, remaining, 0, top) - 1
            if i < 0:
                break
            size = sizes[i]
            count = min(caps[i], remaining // size)
            acc += [size] * count
            blocks.append(i)
            counts.append(count)
            remaining -= size * count
            top = i
            if remaining > room[i]:
                break
        else:
            if not (need_even and len(acc) % 2):
                yield acc
        while blocks:
            top = blocks[-1]
            size = sizes[top]
            if remaining + size <= room[top]:
                break
            count = counts.pop()
            blocks.pop()
            remaining += size * count
            del acc[-count:]
        else:
            return
        remaining += size
        acc.pop()
        if counts[-1] == 1:
            blocks.pop()
            counts.pop()
        else:
            counts[-1] -= 1


def _leaves(n: int, bounds: BoundSequence | None,
            filt: CongruenceFilter | None) -> Iterator[list[int]]:
    """The walk over the partitions of ``n`` within the caps.  The caps and
    the filter's sizes are read here, once, into the table of
    :func:`_size_caps`, before the walk starts."""
    if n < 0:
        raise ValueError("cannot partition a negative number")
    return _walk(n, _size_caps(n, bounds, filt), filt is not None and filt.even_length)


def bounded_partitions(n: int, bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the parts tuple of every partition of ``n`` within the caps,
    lazily, in descending lexicographic order (largest first part first,
    ties broken by the next part, and so on).  The order is deterministic.

    The caps are read once, when this is called (:func:`_leaves`).  ``n = 0``
    yields exactly the empty partition whatever the caps are.
    """
    return map(tuple, _leaves(n, bounds, filt))


def count_total(n: int, bounds: BoundSequence | None = None,
                filt: CongruenceFilter | None = None) -> int:
    """How many partitions :func:`bounded_partitions` yields, counted on the
    walk's leaves without building them."""
    return sum(1 for _ in _leaves(n, bounds, filt))


def count_by_statistic(n: int, stat: Callable[[tuple[int, ...]], int],
                       bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> dict[int, int]:
    """Histogram of ``stat`` over the enumerated partitions, keyed ascending."""
    return dict(sorted(Counter(map(stat, bounded_partitions(n, bounds, filt))).items()))
