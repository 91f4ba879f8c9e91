"""Reference values for the product builds, computed without eulerparts.

Nothing here imports the package under test.  Two dynamic programmes over
part sizes supply what the benchmark checks a built product against:

* ``capped_counts`` counts partitions of every n under per-size multiplicity
  caps.  It gives each product's collapse (x = 1, or every variable = q),
  whose coefficient of q^n is the size of the family at weight n.
* ``term_count`` tracks which exponent vectors occur, as bitmasks over the
  weight, carrying the parity of the number of rows placed so far.  The
  number of vectors it finds is the number of terms the product must have,
  since every coefficient of these series counts partitions and is positive.

``pentagonal_counts`` gives p(n) by Euler's pentagonal recurrence, a second
algorithm for ``partition_gf``.
"""

from __future__ import annotations


def parse_caps(spec: str):
    """Inclusive cap per part size from the subset of the bound DSL the
    workloads use: ``all:``, ``odd:``, ``even:`` and single sizes, with
    integer values.  Precedence is size > parity > all.  Returns a function
    of the size giving the cap, or None for no cap."""
    base = odd = even = None
    sizes: dict[int, int] = {}
    for entry in spec.split(","):
        key, _, value = entry.partition(":")
        cap = int(value)
        if key == "all":
            base = cap
        elif key == "odd":
            odd = cap
        elif key == "even":
            even = cap
        else:
            sizes[int(key)] = cap

    def cap_of(size: int):
        if size in sizes:
            return sizes[size]
        parity_cap = odd if size % 2 else even
        return base if parity_cap is None else parity_cap

    return cap_of


def capped_counts(trunc: int, cap_of=lambda size: None) -> list[int]:
    """Number of partitions of n = 0..trunc in which size s appears at most
    ``cap_of(s)`` times (None: any number of times)."""
    counts = [1] + [0] * trunc
    for size in range(1, trunc + 1):
        cap = cap_of(size)
        most = trunc // size if cap is None else min(cap, trunc // size)
        new = counts[:]
        for copies in range(1, most + 1):
            shift = size * copies
            for n in range(shift, trunc + 1):
                new[n] += counts[n - shift]
        counts = new
    return counts


def pentagonal_counts(trunc: int) -> list[int]:
    """p(0..trunc) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


# Exponent changes from placing ``copies`` rows of length ``size`` when the
# number of rows already placed has parity ``parity``.  Rows are placed
# largest part first, so row j (from 0) is the j-th largest part.  The
# weight is carried separately, which fixes the last exponent of each
# vector; these functions return the others.

def _rows_first(copies: int, parity: int) -> int:
    """How many of the new rows sit at an even index (first, third, ...)."""
    return (copies + 1) // 2 if parity == 0 else copies // 2


def alt_sum_step(size, copies, parity):
    """(x exponent,) for x^(alternating sum) q^weight."""
    if copies % 2 == 0:
        return (0,)
    return (size if parity == 0 else -size,)


def rows_step(size, copies, parity):
    """(a exponent,) for the row-totals weight: a collects even-index rows."""
    return (size * _rows_first(copies, parity),)


def halves_step(size, copies, parity):
    """(a exponent,) for the half-cells weight: a collects ceil(part/2)."""
    return (copies * ((size + 1) // 2),)


def four_param_step(size, copies, parity):
    """(a, b, c) exponents of the four-parameter weight; d follows from the
    weight."""
    first = _rows_first(copies, parity)
    second = copies - first
    return (first * ((size + 1) // 2), first * (size // 2),
            second * ((size + 1) // 2))


def term_count(trunc: int, step, width: int, cap_of=lambda size: None) -> int:
    """Number of distinct exponent vectors over partitions of weight at most
    ``trunc`` under the caps, for the weight whose other exponents ``step``
    gives (``width`` of them)."""
    full = (1 << (trunc + 1)) - 1
    states: dict[tuple, int] = {(0, (0,) * width): 1}
    for size in range(trunc, 0, -1):
        cap = cap_of(size)
        most = trunc // size if cap is None else min(cap, trunc // size)
        if most == 0:
            continue
        new: dict[tuple, int] = dict(states)
        for (parity, exps), mask in states.items():
            for copies in range(1, most + 1):
                delta = step(size, copies, parity)
                key = ((parity + copies) % 2,
                       tuple(e + d for e, d in zip(exps, delta)))
                moved = (mask << (size * copies)) & full
                if moved:
                    new[key] = new.get(key, 0) | moved
        states = new
    merged: dict[tuple, int] = {}
    for (_, exps), mask in states.items():
        merged[exps] = merged.get(exps, 0) | mask
    return sum(bin(mask).count("1") for mask in merged.values())


def product_reference(builder: str, args: list) -> dict:
    """Expected ``{"collapse": [...], "terms": n}`` for one product build."""
    if builder in ("pairing_gf", "binary_gf"):
        m, trunc = args
        if builder == "pairing_gf":
            def cap_of(size):
                return 2 * m + 1
        else:
            def cap_of(size):
                return 2 * m + 1 if size % 2 == 0 else None
        return {"collapse": capped_counts(trunc, cap_of),
                "terms": term_count(trunc, alt_sum_step, 1, cap_of)}
    if builder in ("row_totals_product", "half_cells_product"):
        spec, trunc = args
        cap_of = parse_caps(spec)
        step = rows_step if builder == "row_totals_product" else halves_step
        return {"collapse": capped_counts(trunc, cap_of),
                "terms": term_count(trunc, step, 1, cap_of)}
    if builder == "boulet_product":
        (trunc,) = args
        return {"collapse": capped_counts(trunc),
                "terms": term_count(trunc, four_param_step, 3)}
    if builder == "partition_gf":
        (trunc,) = args
        return {"collapse": pentagonal_counts(trunc), "terms": trunc + 1}
    raise ValueError("no reference for builder %r" % builder)
