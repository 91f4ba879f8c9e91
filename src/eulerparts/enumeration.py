"""Multiplicity-bounded partition enumeration.

A :class:`BoundSequence` caps how often each part size may occur (the cap is
inclusive: "at most b times").  Enumeration can further be restricted to a
congruence class of part sizes, to even length, and to at most one copy of
the class representative.  Both restrictions have a small text DSL so they
can be passed on a command line.

The exchange families (:class:`CapFamily`) live here too: each is one
per-size rule, which gives its caps at m and at phi, a partition's level and
its profile, so the maps, the checks and the generating functions agree.
A halving family's profile reads :func:`~eulerparts.partition.split_distinct_even`,
from ``partition``, since ``bijections`` imports this module.

The enumeration walks a partition's head, its largest parts, only while
the remainder exceeds ``n // 2``.  The partitions of each remainder up to
``n // 2`` are listed once, in a memo, and every partition that ends in
one of them is its head joined to it.  The memo lives as long as one
listing or count, and it holds every partition of every remainder up to
``n // 2`` that the walk reaches.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import inf, prod
from typing import Callable, Iterator

from .partition import split_distinct_even


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

class CapFamily:
    """One per-size rule, an upper bound sequence in Andrews' sense: it
    indexes every size s as s or, when ``even``, each even size 2i as i, and
    c copies of an indexed size force c // 2 when it ``halves``, else c.  The
    family at phi (a cap per index) holds the partitions in which no index
    forces more than phi of it, and at m, those at phi = m.  The caps, level,
    profile and ``what`` (the caps' name in a map's DomainError) follow from it."""

    __slots__ = ("even", "halves", "what")  # the rule is read per partition: slots read fast

    def __init__(self, even: bool, halves: bool):
        self.even, self.halves = even, halves
        self.what = "%s, at most %s times" % (("every part", "even parts")[even],
                                              ("m", "2m+1")[halves])

    def _most(self, value):
        # the most copies of an indexed size that force at most value
        return 2 * value + 1 if self.halves else value

    def bounds(self, m: int) -> BoundSequence:
        """The caps at ``m``, an int >= 0 or (a float equal to) UNBOUNDED, in bound DSL."""
        # checked before formatting, which would read m = True as 1 and
        # turn m = 1.5 into a bound DSL error that does not name m
        if m != UNBOUNDED and (not isinstance(m, int) or isinstance(m, bool)):
            raise ValueError("m must be a non-negative integer, got %r" % (m,))
        if m < 0:
            raise ValueError("m must be >= 0")
        # at m = inf the cap is inf, which "%s" writes as the bound DSL does
        return parse_bounds("%s:%s" % (("all", "even")[self.even], self._most(m)))

    def bounds_phi(self, phi: Callable[[int], object], name: str) -> BoundSequence:
        """The family's caps at ``phi``, a function of the index written
        ``name``.  Caps on every size are bound DSL text; on even sizes, not."""
        most, shift = self._most, 1 if self.even else 0  # 2i is index i
        cap = ("2*(%s)+1" if self.halves else "%s") % ("phi(i)" if self.even else name)
        spec = ("at most %s of each even part 2i, phi = %s" % (cap, name) if self.even
                else "phi:" + cap)
        return BoundSequence(lambda s: UNBOUNDED if s & shift else most(phi(s >> shift)), spec)

    def level(self, parts: tuple[int, ...]) -> int:
        """The most that an index of the non-increasing ``parts`` forces, the
        least m whose caps admit them; each run of equal parts counts at its end."""
        odd = 1 if self.even else 0  # p & odd: a part the rule does not index
        best = run = prev = 0
        for p in parts:
            if p == prev:
                run += 1
            else:
                if run > best and not prev & odd:
                    best = run
                prev, run = p, 1
        if run > best and not prev & odd:
            best = run
        return best // 2 if self.halves else best

    def profile(self, parts: tuple[int, ...]) -> tuple[int, ...]:
        """Each index in the non-increasing ``parts`` as often as its copies
        force, largest first: each i at most phi(i) times exactly at phi.  A
        halving family keeps one index of each pair in the split's even half."""
        indices = tuple([p >> 1 for p in parts if not p & 1]) if self.even else parts
        return split_distinct_even(indices)[1][::2] if self.halves else indices


PAIRING_SOURCE = CapFamily(even=False, halves=True)  # every part at most 2m+1 times
PAIRING_TARGET = CapFamily(even=True, halves=False)  # even parts at most m times
BINARY_FAMILY = CapFamily(even=True, halves=True)    # even parts at most 2m+1 times


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


def _blocks(n: int, table: list[tuple[int, int]],
            need_even: bool) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]], int]]:
    """The partitions of ``n`` built from ``table``, a :func:`_size_caps`
    table, as (head, listed, start) blocks in descending lexicographic
    order: ``head + tail`` for each tail of ``listed[start:]`` is one
    partition, and the blocks give every partition once.

    The head is walked one block of equal parts at a time, the largest part
    that fits first and as many copies as may be first, while the remainder
    exceeds ``n // 2``.  Once a block brings it to r <= n // 2, the rest of
    the partition is a tail: a partition of r whose parts lie below the
    head's last part.  ``tails[r]`` lists the partitions of r once, in
    descending lexicographic order, so grouped by largest part, largest
    first, with ``starts[j]``, where the tails whose parts all lie below
    ``table[j]`` start.  So a head's tails are one suffix of that list.
    ``tails[r]`` is built the first time a head needs it, each of its
    partitions by one tuple concatenation onto a tail of a smaller
    remainder, so ``tails``, which lives as long as the walk, never holds
    a partition of more than ``n // 2``.

    ``room[i]``, the most that the sizes ``table[:i]`` can hold, prunes the
    walk: a block is lowered only while the sizes below it have room for
    the rest.  With ``need_even``, a head keeps the tails that make the
    length even.
    """
    sizes = [size for size, _ in table]
    caps = [cap for _, cap in table]
    room = [0]
    for size, cap in table:
        room.append(room[-1] + size * cap)
    if n > room[-1]:
        return
    half = n // 2
    # the one tail of 0 is the empty partition, below every size
    tails = {0: ([()], [0] * (len(table) + 1))}

    def listed(r):
        # tails[r], built from the tails of smaller remainders
        block, starts = [], [0] * (len(table) + 1)
        for j in range(bisect_right(sizes, r) - 1, -1, -1):
            size = sizes[j]
            for count in range(min(caps[j], r // size), 0, -1):
                rest = r - size * count
                if rest > room[j]:
                    break  # fewer copies leave still more
                below, below_starts = tails.get(rest) or listed(rest)
                block += map(((size,) * count).__add__, below[below_starts[j]:])
            starts[j] = len(block)
        entry = tails[r] = block, starts
        return entry

    def heads(head, remaining, top):
        # the blocks that extend ``head``, with ``remaining`` > n // 2 left
        # to fill from table[:top]
        for i in range(bisect_right(sizes, remaining, 0, top) - 1, -1, -1):
            if remaining > room[i + 1]:
                return
            size = sizes[i]
            for count in range(min(caps[i], remaining // size), 0, -1):
                rest = remaining - size * count
                if rest > room[i]:
                    break
                if rest > half:
                    yield from heads(head + (size,) * count, rest, i)
                else:
                    block, starts = tails.get(rest) or listed(rest)
                    yield head + (size,) * count, block, starts[i]

    walk = heads((), n, len(table)) if n else [((), [()], 0)]
    if not need_even:
        yield from walk
        return
    for head, block, start in walk:
        odd = len(head) & 1
        yield head, [tail for tail in block[start:] if len(tail) & 1 == odd], 0


def _walk(n: int, table: list[tuple[int, int]], need_even: bool) -> Iterator[tuple[int, ...]]:
    """The partitions of ``n`` that :func:`_blocks` lists, one tuple at a
    time: each head joined, by tuple concatenation, to each of its tails."""
    for head, block, start in _blocks(n, table, need_even):
        yield from map(head.__add__, block[start:])


def _setup(n: int, bounds: BoundSequence | None,
           filt: CongruenceFilter | None) -> tuple[int, list[tuple[int, int]], bool]:
    """The arguments of a walk over the partitions of ``n`` within the caps.
    The caps and the filter's sizes are read here, once, into the table of
    :func:`_size_caps`, before the walk starts."""
    if n < 0:
        raise ValueError("cannot partition a negative number")
    return n, _size_caps(n, bounds, filt), filt is not None and filt.even_length


def bounded_partitions(n: int, bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the parts tuple of every partition of ``n`` within the caps,
    lazily, in descending lexicographic order (largest first part first,
    ties broken by the next part, and so on).  The order is deterministic.

    The caps are read once, when this is called (:func:`_setup`).  ``n = 0``
    yields exactly the empty partition whatever the caps are.

    The walk lists the partitions of each remainder up to ``n // 2`` once,
    in a memo (:func:`_blocks`), and builds the others from them.  The memo
    lives as long as the iterator, so its memory grows with the number of
    partitions of ``n // 2`` and of the remainders below it: uncapped, it
    adds about 3.5 MB to the peak at n = 60 and 29 MB at n = 80.
    """
    return _walk(*_setup(n, bounds, filt))


def count_total(n: int, bounds: BoundSequence | None = None,
                filt: CongruenceFilter | None = None) -> int:
    """How many partitions :func:`bounded_partitions` yields: the number of
    (head, listed tail) pairs of its walk, counted without joining them.
    Every tail is a partition listed in the memo, not a count, so this is
    raw enumeration.  The memo lives for the call and grows as in
    :func:`bounded_partitions`, with the partitions of ``n // 2``."""
    blocks = _blocks(*_setup(n, bounds, filt))
    return sum(len(block) - start for _, block, start in blocks)


def count_by_statistic(n: int, stat: Callable[[tuple[int, ...]], int],
                       bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> dict[int, int]:
    """Histogram of ``stat`` over the enumerated partitions, keyed ascending."""
    return dict(sorted(Counter(map(stat, bounded_partitions(n, bounds, filt))).items()))
