"""Command-line interface.

Subcommands: ``enumerate``, ``stats``, ``map``, ``series``, ``verify`` and
``table``.  Exit codes: 0 on success, 1 when a verification fails, 2 for
usage errors (including inputs outside a map's domain).  All output is
deterministic for a given invocation.  Each subcommand computes its result
once and prints it through :func:`_print`, the only code that writes a result,
and a flag that the chosen ``series`` builder or ``map`` does not read is a
usage error, as in ``verify``.  A reader that closes the output pipe early
leaves the exit code as it would be, whether stdout is buffered or not: the
result and argparse's ``--help`` are both written under one guard,
:func:`_guarded`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bijections import (binary_inverse_trace, binary_map,
                         pairing_inverse_trace, pairing_map,
                         sylvester_distinct_to_odd, sylvester_odd_to_distinct)
from .enumeration import (UNBOUNDED, bounded_partitions, count_by_statistic,
                          count_total, parse_bounds, parse_filter)
from .partition import Partition, alt_sum, exponent_form, odd_count, plain_form
from .series import (WEIGHTS, binary_gf, boulet_product,
                     enumerated_series, half_cells_product, pairing_gf,
                     partition_gf, restricted_boulet_product,
                     row_totals_product)
from .verify import REGISTRY, run_checks, runs_for

STATS = {"la": alt_sum, "lo": odd_count}


def _bounds_arg(args):
    return None if args.bounds is None else parse_bounds(args.bounds)


def _filter_arg(args):
    return None if args.filter is None else parse_filter(args.filter)


def _m(flag: str, text: str):
    """``text`` as a cap parameter m: ``inf`` (``UNBOUNDED``, no caps) or an
    integer, else a ValueError that names ``flag``."""
    if text == "inf":
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s: %r is not an integer" % (flag, text)) from None


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _guarded(call):
    """Return ``call()``, a step that may write to stdout, once stdout is
    flushed, also when the step ends by raising, as argparse does after it
    prints ``--help``.  If the reader has gone, the step returns None and
    what is still buffered goes, at exit, to the null device, so the
    command ends with its own status."""
    try:
        try:
            return call()
        finally:
            sys.stdout.flush()  # a closed pipe fails here, not at the exit flush
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return None


def _print(args, payload, header, rows, lines):
    """Print a command's result in ``args.format``: ``payload()`` as JSON,
    ``header`` and ``rows()`` as CSV, or ``lines()`` as text, one line at a
    time, under :func:`_guarded`.  The views are zero-argument functions, so
    only the printed one is built, and a CSV or text view that yields lazily
    is never held whole."""
    def write():
        if args.format == "json":
            sys.stdout.write(_json(payload()) + "\n")
        elif args.format == "csv":
            out = csv.writer(sys.stdout, lineterminator="\n")
            out.writerow(header)
            out.writerows(rows())
        else:
            sys.stdout.writelines(text + "\n" for text in lines())

    _guarded(write)


def _given_or(value, default):
    """A flag's value, or ``default`` when argparse left it None (not given)."""
    return default if value is None else value


def _reject(args, name: str, flags) -> None:
    """A usage error, worded as ``verify``'s, if any of ``flags``, which
    ``name`` does not read, was given."""
    given = sorted(f for f in flags if getattr(args, f.lstrip("-")) is not None)
    if given:
        raise ValueError("flags %s do not apply to %r" % (given, name))


# -- enumerate ----------------------------------------------------------------

def cmd_enumerate(args) -> int:
    bounds, filt = _bounds_arg(args), _filter_arg(args)
    if args.count:  # every view is the bare count
        count = count_total(args.n, bounds, filt)
        _print(args, lambda: count, [count], tuple, lambda: [str(count)])
        return 0

    def family():  # the text and CSV views stream it; JSON lists it
        return bounded_partitions(args.n, bounds, filt)

    _print(args, lambda: [list(p) for p in family()],
           ["parts"], lambda: ([" ".join(map(str, p))] for p in family()),
           lambda: map(plain_form, family()))
    return 0


# -- stats ---------------------------------------------------------------------

def cmd_stats(args) -> int:
    hist = count_by_statistic(args.n, STATS[args.stat],
                              _bounds_arg(args), _filter_arg(args))
    total = sum(hist.values())
    _print(args, lambda: {"n": args.n, "stat": args.stat, "total": total,
                          "counts": {str(k): v for k, v in hist.items()}},
           [args.stat, "count"], hist.items,
           lambda: ["%d: %d" % kv for kv in hist.items()] + ["total: %d" % total])
    return 0


# -- map -------------------------------------------------------------------------

EXCHANGE_MAPS = {("pairing", "fwd"): pairing_map, ("pairing", "inv"): pairing_inverse_trace,
                 ("binary", "fwd"): binary_map, ("binary", "inv"): binary_inverse_trace}


def cmd_map(args) -> int:
    p = Partition.parse(args.partition).parts
    if args.name == "sylvester":
        _reject(args, args.name, ["-m"])
        if args.direction == "fwd":
            stages = [("τ", p), ("λ", sylvester_odd_to_distinct(p))]
        else:
            stages = [("λ", p), ("τ", sylvester_distinct_to_odd(p))]
    else:
        m = UNBOUNDED if args.m is None else _m("-m", args.m)
        image, trace = EXCHANGE_MAPS[args.name, args.direction](p, m)
        first, last = ("α", "β") if args.direction == "fwd" else ("β", "α")
        stages = [(first, p), ("λ", trace.lambda_part), ("μ", trace.mu_part),
                  ("τ", trace.tau_part), ("ν", trace.nu_part), (last, image)]
    _print(args, lambda: {"map": args.name, "direction": args.direction,
                          "stages": [{"label": lab, "parts": list(q)}
                                     for lab, q in stages]},
           ["stage", "parts"], lambda: ([lab, " ".join(map(str, q))] for lab, q in stages),
           lambda: ("%s: %s" % (lab, plain_form(q)) for lab, q in stages))
    return 0


# -- series ------------------------------------------------------------------------

def _required_bounds(args):
    if args.bounds is None:
        raise ValueError("%s needs --bounds" % args.name)
    return parse_bounds(args.bounds)


# Each ``series`` name, in the order ``--help`` lists them: the flags its
# builder reads besides -N and --format, and the builder.
SERIES = {
    "partition-gf": ((), lambda args: partition_gf(args.N)),
    "pairing-gf": (("-m",), lambda args: pairing_gf(_m("-m", _given_or(args.m, "0")), args.N)),
    "binary-gf": (("-m",), lambda args: binary_gf(_m("-m", _given_or(args.m, "0")), args.N)),
    "boulet": ((), lambda args: boulet_product(args.N)),
    "restricted-boulet": (("--i", "--k", "--bounds"), lambda args: restricted_boulet_product(
        _given_or(args.i, 0), _given_or(args.k, 1), _required_bounds(args), args.N)),
    "rows": (("--bounds",), lambda args: row_totals_product(_required_bounds(args), args.N)),
    "halves": (("--bounds",), lambda args: half_cells_product(_required_bounds(args), args.N)),
    "enumerated": (("--bounds", "--filter", "--weight"), lambda args: enumerated_series(
        args.N, WEIGHTS[_given_or(args.weight, "abcd")], _bounds_arg(args), _filter_arg(args))),
}
SERIES_FLAGS = ("-m", "--i", "--k", "--bounds", "--filter", "--weight")


def cmd_series(args) -> int:
    reads, build = SERIES[args.name]
    _reject(args, args.name, [f for f in SERIES_FLAGS if f not in reads])
    series = build(args)
    names, items = list(series.names), series.items()
    _print(args, lambda: {"vars": names, "trunc": series.trunc,
                          "terms": [[list(e), c] for e, c in items]},
           names + ["coeff"], lambda: (list(e) + [c] for e, c in items),
           lambda: ("%s\t%d" % ("*".join("%s^%d" % (n, x) for n, x in zip(names, e) if x)
                                 or "1", c) for e, c in items))
    return 0


# -- verify -------------------------------------------------------------------------

def _non_negative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError("%s must be >= 0" % flag)
    return value


def _m_list(flag: str, text: str) -> tuple:
    return tuple(_m(flag, x) for x in text.split(","))


def _text_list(flag: str, text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


# The grid flags of ``verify``: the option, the runner keyword it sets, its
# argparse type, the conversion of its value (None: used as given; a
# conversion may reject the value) and its help text.
VERIFY_FLAGS = (
    ("--max-n", "max_n", int, _non_negative, None),
    ("--trunc", "trunc", int, _non_negative, None),
    ("--cutoff", "cutoff", int, _non_negative, None),
    ("--m", "ms", str, _m_list, "comma-separated cap parameters, e.g. 0,1,inf"),
    ("--i", "i", int, None, None),
    ("--k", "k", int, None, None),
    ("--bounds", "bounds", str, None, "bound DSL for the product checks"),
    ("--a", "bounds_a", str, None, "bound DSL, left side of the equivalence check"),
    ("--b", "bounds_b", str, None, "bound DSL, right side of the equivalence check"),
    ("--phi", "phi_specs", str, _text_list, "comma-separated cap expressions, e.g. 1,i"),
)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    given: dict[str, object] = {}
    for flag, keyword, _, convert, _ in VERIFY_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        if value is not None:
            given[keyword] = convert(flag, value) if convert else value
    runs = runs_for(args.theorem, given, {keyword: flag for flag, keyword, *_ in VERIFY_FLAGS})
    reports = run_checks(runs, args.jobs)
    _print(args, lambda: (reports[0].to_dict() if len(reports) == 1
                          else [r.to_dict() for r in reports]),
           ["theorem", "params", "status", "elapsed_ms"],
           lambda: ([r.theorem, _json(r.params), r.status, r.elapsed_ms] for r in reports),
           lambda: (r.summary() for r in reports))
    return 0 if all(r.ok() for r in reports) else 1


# -- table ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    stat = STATS[args.stat]
    rows: dict[int, list[tuple[int, ...]]] = {}
    for p in bounded_partitions(args.n, _bounds_arg(args), _filter_arg(args)):
        rows.setdefault(stat(p), []).append(p)
    # every format prints each partition in exponent form
    forms = {k: [exponent_form(p) for p in sorted(v)] for k, v in sorted(rows.items())}
    counts = {k: len(v) for k, v in forms.items()}
    total = sum(counts.values())
    _print(args, lambda: {"n": args.n, "stat": args.stat, "total": total,
                          "rows": {str(k): v for k, v in forms.items()},
                          "counts": {str(k): v for k, v in counts.items()}},
           [args.stat, "partition"], lambda: ([k, f] for k, v in forms.items() for f in v),
           lambda: ["%d: %s" % (k, " ".join(v)) for k, v in forms.items()]
           + ["counts: {%s}" % ", ".join("%d: %d" % kv for kv in counts.items()),
              "total: %d" % total])
    return 0


# -- parser ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerparts",
        description="Partitions under multiplicity caps: enumeration, "
                    "bijections, generating functions and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list partitions under caps and filters")
    p.add_argument("n", type=int)
    p.add_argument("--bounds", help="bound DSL, e.g. all:3 or phi:2*i+1")
    p.add_argument("--filter", help="filter DSL, e.g. mod:2,res:1,even-length")
    p.add_argument("--count", action="store_true", help="print only the count")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="histogram of a statistic over partitions of n")
    p.add_argument("n", type=int)
    p.add_argument("--stat", choices=sorted(STATS), required=True,
                   help="la = alternating sum, lo = number of odd parts")
    p.add_argument("--bounds")
    p.add_argument("--filter")
    _add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", help="apply a bijection, printing every stage")
    p.add_argument("name", choices=("sylvester", "pairing", "binary"))
    p.add_argument("direction", choices=("fwd", "inv"))
    p.add_argument("partition", help='e.g. "7,2,1" or "2^5,4^4" ("" for empty)')
    p.add_argument("-m", help="cap parameter (integer or inf)")
    _add_format(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("series", help="dump a truncated series")
    p.add_argument("name", choices=tuple(SERIES))
    p.add_argument("-N", type=int, default=12, help="truncation degree")
    p.add_argument("-m", help="cap parameter (integer or inf)")
    p.add_argument("--i", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--bounds")
    p.add_argument("--filter")
    p.add_argument("--weight", choices=sorted(WEIGHTS))
    _add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="check an identity over a finite grid")
    p.add_argument("theorem",
                   help="one of: %s, or 'all'" % ", ".join(REGISTRY))
    for flag, _, type_, _, help_ in VERIFY_FLAGS:
        p.add_argument(flag, type=type_, help=help_)
    p.add_argument("--jobs", type=int, default=1,
                   help="run the grid points on min(N, runs, cores) worker "
                        "processes; each run's elapsed_ms then includes the "
                        "trip to its worker")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="partitions of n grouped by a statistic")
    p.add_argument("n", type=int)
    p.add_argument("--stat", choices=sorted(STATS), required=True)
    p.add_argument("--bounds")
    p.add_argument("--filter")
    _add_format(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _guarded(lambda: parser.parse_args(argv))
    if args is None:  # --help, printed for a reader that has gone
        return 0
    try:
        if [] in vars(args).values():
            # argparse before Python 3.12 drops a value of "--" and leaves []
            raise ValueError("'--' is not a value")
        return args.func(args)
    except ValueError as exc:  # a DomainError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
