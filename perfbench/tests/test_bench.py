"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# p(n) for n = 0..20 and p(50), from the literature.
KNOWN_P = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
           297, 385, 490, 627]
P_50 = 204226


def _verify_all_result(statuses):
    reports = [{"theorem": theorem, "params": dict(params), "status": status}
               for (theorem, params, _), status in
               zip(workloads.VERIFY_ALL_EXPECTED, statuses)]
    return {"exit": 1, "reports": reports, "digest": "d"}


def test_flipped_verdict_counts_as_failed():
    workload = workloads.make("verify-all", workloads.DEFAULT_SEED)
    expected = [status for _, _, status in workloads.VERIFY_ALL_EXPECTED]
    honest = run.judge(workload, [None], {"results": [_verify_all_result(expected)]})
    assert [ok for ok, _ in honest] == [True] * 21

    for flip in (7, 16):  # boulet-restricted i=1 (a known failure), binary
        doctored = list(expected)
        doctored[flip] = "pass" if expected[flip] == "fail" else "fail"
        judged = run.judge(workload, [None], {"results": [_verify_all_result(doctored)]})
        assert [k for k, (ok, _) in enumerate(judged) if not ok] == [flip]


def test_missing_reports_fail_every_operation():
    workload = workloads.make("verify-all", workloads.DEFAULT_SEED)
    judged = run.judge(workload, [None], {"results": [{"exit": 2, "reports": None}]})
    assert len(judged) == 21 and not any(ok for ok, _ in judged)


def test_reference_counts_match_partition_numbers():
    counts = reference.capped_counts(50)
    assert counts == reference.pentagonal_counts(50)
    assert counts[:21] == KNOWN_P and counts[50] == P_50
    assert reference.capped_counts(7, reference.parse_caps("all:3"))[7] == 12


def test_seeds_give_fixed_legal_inputs():
    default = workloads.make("bijection-sweep", workloads.DEFAULT_SEED)
    assert [c.target[5] for c in default.calls] == ["0", "1", "2", "3"] * 2
    deep = workloads.make("products-deep", workloads.DEFAULT_SEED)
    assert [(c.builder, c.target) for c in deep.calls][6:] == [
        ("boulet_product", [36]), ("row_totals_product", ["all:3", 100]),
        ("half_cells_product", ["even:1", 100]), ("partition_gf", [200])]
    for seed in (1, 2, 3):
        first = workloads.make("products-deep", seed)
        again = workloads.make("products-deep", seed)
        assert [c.to_json() for c in first.calls] == [c.to_json() for c in again.calls]


SMALL_CALLS = [
    {"kind": "cli", "target": ["verify", "sylvester", "--max-n", "8", "--format", "json"],
     "builder": ""},
    {"kind": "cli", "target": ["verify", "pairing", "--max-n", "8", "--m", "0,1",
                               "--format", "json"], "builder": ""},
    {"kind": "cli", "target": ["verify", "rows-product", "--trunc", "10",
                               "--format", "json"], "builder": ""},
    {"kind": "build", "target": ["even:1", 20], "builder": "half_cells_product"},
]


def _child(traced: bool, tmp_path) -> dict:
    spec = {"calls": SMALL_CALLS, "trace": traced,
            "spans_path": str(tmp_path / "spans.bin")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not (ROOT / "src" / "eulerparts").is_dir(),
                    reason="needs the eulerparts source")
def test_traced_and_untraced_passes_give_identical_output(tmp_path):
    plain = _child(False, tmp_path)
    traced = _child(True, tmp_path)
    assert [r["digest"] for r in plain["results"]] == \
        [r["digest"] for r in traced["results"]]
    assert all(r["exit"] == 0 for r in plain["results"][:3])
    layers = traced["layers"]
    assert layers["cli.calls"] == 3 and layers["verify.runs"] == 3
    assert layers["bijections.maps"] > 0 and layers["series.product.calls"] > 0
    assert (tmp_path / "spans.bin").stat().st_size > 0


def test_wrong_series_counts_as_failed():
    expected = reference.product_reference("binary_gf", [1, 12])
    assert workloads.check_build(expected, dict(expected))
    off_by_one = dict(expected, collapse=expected["collapse"][:-1] + [expected["collapse"][-1] + 1])
    assert not workloads.check_build(expected, off_by_one)
    assert not workloads.check_build(expected, dict(expected, terms=expected["terms"] - 1))
