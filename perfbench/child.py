"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The spec holds the calls, whether to trace, and where to
write the spans.  The pass imports eulerparts, times the calls (the body),
then, outside the timed region, reduces every result to what the parent
checks.  Its last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import eulerparts.cli
import eulerparts.series
import eulerparts.verify
from eulerparts.enumeration import parse_bounds

# Builders whose first argument is a cap spec in the bound DSL.
CAPPED_BUILDERS = ("row_totals_product", "half_cells_product")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _without_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _without_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_without_elapsed(v) for v in obj]
    return obj


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _time_runners(op_times: list):
    """Record the wall time of every verification run: each is one
    operation, and ``verify all`` makes 21 of them in one call."""
    def timed(runner):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return runner(*args, **kwargs)
            finally:
                op_times.append(perf_counter() - t0)
        return wrapper

    registry = eulerparts.verify.REGISTRY
    for vid, check in list(registry.items()):
        registry[vid] = dataclasses.replace(check, runner=timed(check.runner))


def _run_cli(argv):
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        try:
            code = eulerparts.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
    return code, buf.getvalue(), error


def _summarise_cli(code, out, error) -> dict:
    result = {"exit": code, "error": error, "reports": None, "digest": _digest(out)}
    try:
        payload = json.loads(out)
    except ValueError:
        return result
    reports = payload if isinstance(payload, list) else [payload]
    result["reports"] = [{"theorem": r.get("theorem"), "params": r.get("params"),
                          "status": r.get("status")} for r in reports]
    result["digest"] = _digest(json.dumps(_without_elapsed(payload), sort_keys=True))
    return result


def _summarise_series(series) -> dict:
    collapse = [0] * (series.trunc + 1)
    index = series.degree_index
    for exps, coeff in series.terms.items():
        collapse[sum(exps) if index is None else exps[index]] += coeff
    return {"terms": len(series.terms), "collapse": collapse,
            "digest": _digest(repr((series.names, series.trunc,
                                    sorted(series.terms.items()))))}


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    op_times: list[float] = []
    _time_runners(op_times)

    raw = []
    cpu0 = _cpu_s()
    t0 = perf_counter()
    for call in spec["calls"]:
        if call["kind"] == "cli":
            raw.append(_run_cli(call["target"]))
            continue
        builder = getattr(eulerparts.series, call["builder"])
        args = list(call["target"])
        b0 = perf_counter()
        try:
            if call["builder"] in CAPPED_BUILDERS:
                args[0] = parse_bounds(args[0])
            raw.append(builder(*args))
        except Exception:
            raw.append(traceback.format_exc())
        op_times.append(perf_counter() - b0)
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for call, item in zip(spec["calls"], raw):
        if call["kind"] == "cli":
            results.append(_summarise_cli(*item))
        elif isinstance(item, str):
            results.append({"error": item})
        else:
            results.append(_summarise_series(item))
    out = {"wall_s": wall, "cpu_s": cpu, "rss_kb": rss_kb,
           "op_times": op_times, "results": results}
    if tracer is not None:
        tracer.dump(spec["spans_path"])
        out["layers"] = tracer.layer_metrics(list(eulerparts.verify.REGISTRY))
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
