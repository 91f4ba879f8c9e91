"""Multiplicity-bounded partition enumeration.

A :class:`BoundSequence` caps how often each part size may occur (the cap is
inclusive: "at most b times").  Enumeration can further be restricted to a
congruence class of part sizes, to even length, and to at most one copy of
the class representative.  Both restrictions have a small text DSL so they
can be passed on a command line.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Iterator

from .partition import Partition


class _UnboundedType:
    """Singleton marking a part size with no multiplicity cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _UnboundedType()


class BoundSequence:
    """Per-size multiplicity caps: part ``i`` may appear at most ``bound(i)`` times.

    Caps are inclusive; 0 forbids the size entirely and ``UNBOUNDED`` lifts
    the cap.  ``spec`` is the canonical DSL text, kept for reports.
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
        if b is UNBOUNDED:
            return b
        if not isinstance(b, int) or b < 0:
            raise ValueError("bound for part %d must be a non-negative integer, got %r" % (size, b))
        return b

    def allows(self, size: int, mult: int) -> bool:
        b = self.bound(size)
        return b is UNBOUNDED or mult <= b

    def admits(self, p: Partition) -> bool:
        """True when every multiplicity of ``p`` is within its cap."""
        return all(self.allows(s, m) for s, m in p.multiplicities().items())

    def strict_products(self, cutoff: int) -> list[int]:
        """Sorted multiset of ``size * (bound + 1)`` values up to ``cutoff``.

        ``bound + 1`` is the strict (excluded) multiplicity, so these are the
        products that decide whether two bound sequences are equivalent.
        """
        out = []
        for size in range(1, cutoff + 1):
            b = self.bound(size)
            if b is UNBOUNDED:
                continue
            prod = size * (b + 1)
            if prod <= cutoff:
                out.append(prod)
        return sorted(out)

    # -- constructors ---------------------------------------------------

    @classmethod
    def unbounded(cls) -> "BoundSequence":
        return cls(lambda s: UNBOUNDED, "all:inf")

    @classmethod
    def constant(cls, cap: int) -> "BoundSequence":
        return cls(lambda s: cap, "all:%d" % cap)

    @classmethod
    def evens_only(cls, cap: int) -> "BoundSequence":
        """Cap only the even sizes; odd sizes stay unbounded."""
        return cls(lambda s: cap if s % 2 == 0 else UNBOUNDED, "even:%d" % cap)

    @classmethod
    def odds_evens(cls, odd_cap, even_cap) -> "BoundSequence":
        spec = "odd:%s,even:%s" % (_fmt_bound(odd_cap), _fmt_bound(even_cap))
        return cls(lambda s: odd_cap if s % 2 == 1 else even_cap, spec)

    @classmethod
    def from_items(cls, items: dict[int, object], default=UNBOUNDED) -> "BoundSequence":
        table = dict(items)
        chunks = ["%d:%s" % (s, _fmt_bound(b)) for s, b in sorted(table.items())]
        chunks.append("default:%s" % _fmt_bound(default))
        return cls(lambda s: table.get(s, default), ",".join(chunks))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], spec: str = "phi:<custom>") -> "BoundSequence":
        return cls(fn, spec)


def _fmt_bound(b) -> str:
    return "inf" if b is UNBOUNDED else str(b)


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

    def admits_size(self, size: int) -> bool:
        return size % self.modulus == self.residue

    def admits(self, p: Partition) -> bool:
        if self.even_length and len(p) % 2 == 1:
            return False
        if self.first_part_once and self.residue >= 1 and p.multiplicity(self.residue) > 1:
            return False
        return all(self.admits_size(s) for s in p.parts)

    @property
    def spec(self) -> str:
        chunks = ["mod:%d" % self.modulus, "res:%d" % self.residue]
        if self.even_length:
            chunks.append("even-length")
        if self.first_part_once:
            chunks.append("first-once")
        return ",".join(chunks)


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
    if not t.isdigit():
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
        return BoundSequence.from_function(fn, "phi:%s" % expr.replace(" ", ""))

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
        elif key.isdigit() and int(key) >= 1:
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
        if key in ("mod", "res") and sep:
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
        cap = min(n // size, n if b is UNBOUNDED else b, 1 if size == once_size else n)
        if cap:
            table.append((size, cap))
    return table


def bounded_partitions(n: int, bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> Iterator[Partition]:
    """Yield all partitions of ``n`` within the caps, in descending
    lexicographic order (largest first part first, ties broken by the next
    part, and so on).  The order is deterministic.

    The caps and the filter's sizes are read once per call, into the table
    of :func:`_size_caps`; the recursion walks that table.  ``n = 0``
    yields exactly the empty partition whatever the caps are.
    """
    if n < 0:
        raise ValueError("cannot partition a negative number")
    table = _size_caps(n, bounds, filt)
    sizes = [size for size, _ in table]
    need_even = filt is not None and filt.even_length
    acc: list[int] = []

    def gen(remaining: int, top: int):  # fill remaining from table[:top]
        if remaining == 0:
            if not need_even or len(acc) % 2 == 0:
                yield Partition._raw(tuple(acc))
            return
        for i in range(bisect_right(sizes, remaining, 0, top) - 1, -1, -1):
            size, cap = table[i]
            for count in range(min(cap, remaining // size), 0, -1):
                acc.extend([size] * count)
                yield from gen(remaining - size * count, i)
                del acc[-count:]

    return gen(n, len(table))


def count_total(n: int, bounds: BoundSequence | None = None,
                filt: CongruenceFilter | None = None) -> int:
    return sum(1 for _ in bounded_partitions(n, bounds, filt))


def histogram(partitions: Iterable[Partition],
              stat: Callable[[Partition], int]) -> dict[int, int]:
    """Histogram of ``stat`` over ``partitions``, keyed ascending."""
    return dict(sorted(Counter(map(stat, partitions)).items()))


def count_by_statistic(n: int, stat: Callable[[Partition], int],
                       bounds: BoundSequence | None = None,
                       filt: CongruenceFilter | None = None) -> dict[int, int]:
    """Histogram of ``stat`` over the enumerated partitions, keyed ascending."""
    return histogram(bounded_partitions(n, bounds, filt), stat)
