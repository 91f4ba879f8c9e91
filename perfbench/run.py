"""The eulerparts benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads are defined in
``perfbench/workloads.py``.  Every pass runs one workload body in a fresh
interpreter (``perfbench/child.py``), and passes run one at a time.

``--seconds`` sets the number of passes: one per ``PASS_S`` seconds, at
least three.  ``--trace 0`` measures the end-to-end metrics over untraced passes:

* ``wall_s``       median wall time of the workload body,
* ``wall_tail_s``  highest percentile of the per-operation wall times that
                   has at least ten samples beyond it,
* ``cpu_s``        median CPU time of the pass process plus its children,
* ``peak_rss_mb``  median ``ru_maxrss`` of the pass process,
* ``setup_s``      median time for a fresh interpreter to import eulerparts
                   and build its command-line parser.

Failed operations over operations attempted (``ops_failed``) is printed on
its own line and carried by ``failed``/``attempted`` in the result.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``perfbench/spans.py``), with the
tracing overhead as traced wall ÷ untraced wall.

Every operation's output is checked, outside the timed region, against
references the program did not compute: a hand-written verdict table for
the verification runs and ``perfbench/reference.py`` for product builds.
Traced and untraced passes must give identical output.  The last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
SETUP_CODE = "import eulerparts, eulerparts.cli; eulerparts.cli.build_parser()"
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10
# Every workload's pass takes about PASS_S seconds on a 2-core sandbox, so a
# run makes one pass per PASS_S seconds asked for.  The count depends only
# on --seconds, so the tail percentile ranks the same number of samples on
# every commit.  Fewest passes: untraced; untraced + traced.
PASS_S = 5.0
MIN_PASSES = {0: 3, 1: 4}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters that import the package and build
    the parser.  An untimed probe goes first, so that the bytecode cache
    (where the environment lets Python write one) is warm."""
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def run_pass(workload, traced: bool, env: dict) -> dict:
    spec = {"calls": [c.to_json() for c in workload.calls], "trace": traced,
            "spans_path": str(OUT_DIR / ("spans-%s.bin" % workload.name))}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: a pass ran over %d s" % PASS_TIMEOUT_S, file=sys.stderr)
        return {"crashed": True, "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"crashed": True, "traced": traced}
    out = json.loads(lines[-1])
    out["traced"] = traced
    return out


def judge(workload, refs: list, result: dict) -> list[tuple[bool, str]]:
    """One (ok, digest) per operation of the pass."""
    if result.get("crashed"):
        return [(False, "")] * workload.operations()
    ops = []
    for call, ref, got in zip(workload.calls, refs, result["results"]):
        if call.kind == "cli":
            ops.extend((ok, got.get("digest", "")) for ok in workloads.check_cli(call, got))
        else:
            ops.append((workloads.check_build(ref, got), got.get("digest", "")))
    return ops


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count): the highest percentile with at
    least ``TAIL_BEYOND`` samples above it; the maximum when there are too
    few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def layer_metrics(workload, traced: list, untraced: list) -> dict:
    """Medians of the traced passes' layer metrics, plus the traced wall
    time and the tracing overhead."""
    metrics = {key: {"value": statistics.median(p["layers"][key] for p in traced),
                     "unit": spans.unit(key)}
               for key in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
    self_sum = metrics["trace.self_sum_s"]["value"]
    print("%s: traced wall %.3f s, untraced %.3f s, overhead %.3f; layer self "
          "times sum to %.3f s (gap %.3f s)"
          % (workload.name, traced_wall, untraced_wall, traced_wall / untraced_wall,
             self_sum, traced_wall - self_sum))
    return metrics


def end_to_end_metrics(workload, seed: int, untraced: list, setup: list) -> dict:
    value, pct, count = tail([t for p in untraced for t in p["op_times"]])
    print("%s seed %d: %d passes; wall_tail_s is p%.1f of %d operation times"
          % (workload.name, seed, len(untraced), pct, count))
    print("  pass wall times (s): %s" % " ".join("%.3f" % p["wall_s"] for p in untraced))
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
        "wall_tail_s": {"value": value, "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in untraced), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_kb"] for p in untraced) / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulerparts" / "__init__.py").is_file():
        print("error: no eulerparts source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    refs = [reference.product_reference(c.builder, c.target) if c.kind == "build" else None
            for c in workload.calls]
    env = _env()
    OUT_DIR.mkdir(exist_ok=True)
    setup = setup_times(env)

    modes = [False, True] if args.trace else [False]
    count = max(MIN_PASSES[args.trace], len(modes) * round(args.seconds / PASS_S / len(modes)))
    passes = [run_pass(workload, modes[k % len(modes)], env) for k in range(count)]

    good = [p for p in passes if not p.get("crashed")]
    if not any(not p["traced"] for p in good) or (args.trace and not any(p["traced"] for p in good)):
        print("error: every pass of a kind crashed", file=sys.stderr)
        return 1

    judged = [judge(workload, refs, p) for p in passes]
    reference_digests = next(
        [d for _, d in ops] for p, ops in zip(passes, judged) if not p.get("crashed"))
    attempted = failed = 0
    for ops in judged:
        for (ok, digest), expected in zip(ops, reference_digests):
            attempted += 1
            failed += not (ok and digest == expected)

    untraced = [p for p in good if not p["traced"]]
    if args.trace:
        metrics = layer_metrics(workload, [p for p in good if p["traced"]], untraced)
    else:
        metrics = end_to_end_metrics(workload, args.seed, untraced, setup)
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %14.6g (%d of %d)" % ("ops_failed", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
