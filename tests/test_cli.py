import concurrent.futures
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from eulerparts.cli import SERIES, VERIFY_FLAGS, main
from eulerparts.series import WEIGHTS
from eulerparts.verify import REGISTRY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- enumerate ----------------------------------------------------------------

def test_enumerate_text_order(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--bounds", "all:1")
    assert code == 0
    assert out == "4\n3,1\n"


def test_enumerate_count_and_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "10", "--count")
    assert (code, out) == (0, "42\n")
    code, out, _ = run(capsys, "enumerate", "9", "--filter", "mod:2,res:1",
                       "--count")
    assert (code, out) == (0, "8\n")


def test_enumerate_json_and_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[3], [2, 1], [1, 1, 1]]
    code, out, _ = run(capsys, "enumerate", "3", "--format", "csv")
    assert out == "parts\n3\n2 1\n1 1 1\n"


def test_enumerate_bad_dsl(capsys):
    code, _, err = run(capsys, "enumerate", "5", "--bounds", "nope:1")
    assert code == 2
    assert err.startswith("error:")
    deep = "phi:" + "(" * 400 + "i" + ")" * 400
    code, _, err = run(capsys, "enumerate", "3", "--bounds", deep)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    # digits that int() rejects are named as bad entries, not parsed
    code, _, err = run(capsys, "enumerate", "3", "--bounds", "all:\u00b2")
    assert (code, err) == (2, "error: bad bound value '\u00b2'\n")
    code, _, err = run(capsys, "enumerate", "3", "--bounds", "\u00b2:1")
    assert (code, err) == (2, "error: bad bound key '\u00b2'\n")
    code, out, err = run(capsys, "enumerate", "5", "--filter", "mod:x,res:1")
    assert (code, out) == (2, "")
    assert err == "error: bad filter entry 'mod:x'\n"


def test_enumerate_duplicate_filter_entry(capsys):
    code, out, err = run(capsys, "enumerate", "6", "--filter", "mod:3,mod:2,res:1")
    assert (code, out) == (2, "")
    assert err == "error: duplicate mod in 'mod:3,mod:2,res:1'\n"


@pytest.mark.parametrize("argv", (
    ("enumerate", "4", "--bounds="), ("enumerate", "4", "--filter="),
    ("stats", "4", "--stat", "la", "--bounds="), ("stats", "4", "--stat", "la", "--filter="),
    ("table", "4", "--stat", "lo", "--bounds="), ("table", "4", "--stat", "lo", "--filter="),
    ("series", "enumerated", "-N", "4", "--bounds="),
    ("series", "enumerated", "-N", "4", "--filter="),
    ("series", "rows", "-N", "4", "--bounds="),
))
def test_empty_dsl_value_is_an_error(capsys, argv):
    # an empty spec is malformed, as in ``verify``; it does not mean "none"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert sum("error:" in line for line in err.split("\n")) == 1


DSL_TEXT = st.text(alphabet="0123456789i+*()s:,;-_ allodevnphimrfstxyz\n\x00é") | st.text()


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(("--bounds", "--filter")), text=DSL_TEXT)
@example(flag="--bounds", text="--")
@example(flag="--filter", text="--")
def test_enumerate_dsl_fuzz(flag, text):
    # "--flag=text" keeps a leading "-" in the text from reading as an option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["enumerate", "3", "%s=%s" % (flag, text)])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == ""


class _Discard(io.TextIOBase):
    # an output stream that keeps nothing, so only the command's own memory counts
    def writable(self):
        return True

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ("text", "csv"))
def test_enumerate_streams_the_family(fmt):
    # p(40) = 37338 partitions took about 7 MB when they were listed first;
    # streamed, the peak stays well under 1 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(["enumerate", "40", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


# -- stats ----------------------------------------------------------------------

def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "7", "--stat", "la",
                       "--bounds", "all:3")
    assert code == 0
    assert out == "1: 5\n3: 4\n5: 2\n7: 1\ntotal: 12\n"


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "7", "--stat", "lo",
                       "--bounds", "even:1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 7, "stat": "lo",
        "counts": {"1": 5, "3": 4, "5": 2, "7": 1}, "total": 12}


# -- map --------------------------------------------------------------------------

def test_map_sylvester_both_ways(capsys):
    code, out, _ = run(capsys, "map", "sylvester", "inv", "7,2,1")
    assert code == 0
    assert out == "λ: 7,2,1\nτ: 3,3,1,1,1,1\n"
    code, out, _ = run(capsys, "map", "sylvester", "fwd", "3,3,1,1,1,1")
    assert out == "τ: 3,3,1,1,1,1\nλ: 7,2,1\n"


def test_map_pairing_worked_example(capsys):
    code, out, _ = run(capsys, "map", "pairing", "fwd",
                       "7,7,7,4,4,4,4,2,2,2,2,2,1", "-m", "2")
    assert code == 0
    assert out == (
        "α: 7,7,7,4,4,4,4,2,2,2,2,2,1\n"
        "λ: 7,2,1\n"
        "μ: 7,7,4,4,4,4,2,2,2,2\n"
        "τ: 3,3,1,1,1,1\n"
        "ν: 14,8,8,4,4\n"
        "β: 14,8,8,4,4,3,3,1,1,1,1\n")
    code, out, _ = run(capsys, "map", "pairing", "inv",
                       "14,8,8,4,4,3,3,1,1,1,1", "-m", "2")
    assert code == 0
    assert out.endswith("α: 7,7,7,4,4,4,4,2,2,2,2,2,1\n")


def test_map_empty_partition(capsys):
    code, out, _ = run(capsys, "map", "pairing", "fwd", "", "-m", "0")
    assert code == 0
    assert out == "α: ∅\nλ: ∅\nμ: ∅\nτ: ∅\nν: ∅\nβ: ∅\n"


def test_map_exponent_input_and_json(capsys):
    code, out, _ = run(capsys, "map", "binary", "fwd", "2^5,4^4", "-m", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["map"] == "binary" and doc["direction"] == "fwd"
    assert [s["label"] for s in doc["stages"]] == ["α", "λ", "μ", "τ", "ν", "β"]
    assert doc["stages"][0]["parts"] == [4, 4, 4, 4, 2, 2, 2, 2, 2]


def test_map_domain_violation(capsys):
    code, _, err = run(capsys, "map", "pairing", "fwd", "1,1,1,1", "-m", "1")
    assert code == 2
    assert "above the cap" in err and "2m+1" in err


@pytest.mark.parametrize("argv, line", (
    (("pairing", "fwd", "2,2,2,2", "-m", "1"),
     "part 2 appears 4 times, above the cap of 3 (every part, at most 2m+1 times)"),
    (("pairing", "inv", "4,4,4,2,2", "-m", "2"),
     "part 4 appears 3 times, above the cap of 2 (even parts, at most m times)"),
    (("binary", "inv", "4,4,4,4", "-m", "0"),
     "part 4 appears 4 times, above the cap of 1 (even parts, at most 2m+1 times)"),
), ids=("pairing-source", "pairing-target", "binary"))
def test_map_domain_error_names_the_family(capsys, argv, line):
    # one partition outside each family's caps: the whole error line
    assert run(capsys, "map", *argv) == (2, "", "error: %s\n" % line)


def test_map_rejects_bad_m(capsys):
    code, out, err = run(capsys, "map", "pairing", "fwd", "1", "-m", "-3")
    assert (code, out, err) == (2, "", "error: m must be >= 0\n")
    code, out, err = run(capsys, "map", "pairing", "fwd", "1", "-m", "x")
    assert (code, out, err) == (2, "", "error: -m: 'x' is not an integer\n")


def test_map_rejects_huge_shorthand(capsys):
    # the exponent is checked against the weight limit before any expansion
    code, out, err = run(capsys, "map", "pairing", "fwd", "1^99999999999", "-m", "0")
    assert (code, out) == (2, "")
    assert err == "error: partition text weighs more than 100000\n"


PARTITION_TEXT = st.text(alphabet="0123456789^,() ∅-x", max_size=40) | st.text(max_size=40)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(("sylvester", "pairing", "binary")),
       direction=st.sampled_from(("fwd", "inv")),
       m=st.sampled_from(("0", "1", "2", "inf")), text=PARTITION_TEXT)
def test_map_partition_text_fuzz(name, direction, m, text):
    # "--" keeps a leading "-" in the text from reading as an option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # sylvester reads no -m
        cap = [] if name == "sylvester" else ["-m", m]
        code = main(["map", name, direction, *cap, "--", text])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == ""


# -- series -----------------------------------------------------------------------

def test_series_partition_gf_text(capsys):
    code, out, _ = run(capsys, "series", "partition-gf", "-N", "3")
    assert code == 0
    assert out == "1\t1\nq^1\t1\nq^2\t2\nq^3\t3\n"


def test_series_csv_contains_known_coefficient(capsys):
    code, out, _ = run(capsys, "series", "pairing-gf", "-m", "1", "-N", "7",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,q,coeff"
    assert "1,7,5" in lines and "7,7,1" in lines


def test_series_enumerated_json(capsys):
    code, out, _ = run(capsys, "series", "enumerated", "-N", "4",
                       "--weight", "la", "--bounds", "all:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["x", "q"] and doc["trunc"] == 4
    assert [[1, 1], 1] in doc["terms"]


def test_series_restricted_needs_bounds(capsys):
    code, _, err = run(capsys, "series", "restricted-boulet")
    assert code == 2
    assert "--bounds" in err


@pytest.mark.parametrize("name", ("pairing-gf", "binary-gf"))
def test_series_rejects_non_integer_m(capsys, name):
    code, out, err = run(capsys, "series", name, "-m", "x")
    assert (code, out, err) == (2, "", "error: -m: 'x' is not an integer\n")


@pytest.mark.parametrize("name, finite", (("pairing-gf", "12"), ("binary-gf", "6")))
def test_series_m_inf_is_the_uncapped_product(capsys, name, finite):
    # at degree 24 the caps 2m+1 and the closed form's m-factor, of degree
    # 2m+2 (pairing-gf) or 4m+4 (binary-gf), change nothing from m = 12 or
    # m = 6 on, so those m print what m = inf prints
    for fmt in ("text", "csv", "json"):
        outs = [run(capsys, "series", name, "-N", "24", "-m", m, "--format", fmt)
                for m in ("inf", finite)]
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_verify_reads_m_inf(capsys):
    code, out, err = run(capsys, "verify", "pairing-gf", "--m", "0,inf", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["params"] == {"m": [0, "inf"], "trunc": 24}
    code, out, err = run(capsys, "verify", "pairing", "--m", "inf", "--max-n", "12",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["params"] == {"m": ["inf"], "max_n": 12}


# A value of each flag a series builder or map may read, and the values with
# which each series name reads all of its flags.
FLAG_VALUE = {"-m": "1", "--i": "0", "--k": "1", "--bounds": "all:3",
              "--filter": "mod:2,res:1", "--weight": "la"}
READ_VALUES = {"restricted-boulet": {"--i": "1", "--k": "2", "--bounds": "3:1,5:3"},
               "halves": {"--bounds": "even:1"}}


@pytest.mark.parametrize("name, flag", [(name, flag) for name, (reads, _) in SERIES.items()
                                        for flag in FLAG_VALUE if flag not in reads])
def test_series_rejects_a_flag_its_builder_does_not_read(capsys, name, flag):
    code, out, err = run(capsys, "series", name, "-N", "4", flag, FLAG_VALUE[flag])
    assert (code, out, err) == (2, "", "error: flags [%r] do not apply to %r\n" % (flag, name))


@pytest.mark.parametrize("name", tuple(SERIES))
def test_series_accepts_every_flag_its_builder_reads(capsys, name):
    given = {**{f: FLAG_VALUE[f] for f in SERIES[name][0]}, **READ_VALUES.get(name, {})}
    argv = [x for flag, value in given.items() for x in (flag, value)]
    for fmt in ("text", "csv", "json"):
        code, out, err = run(capsys, "series", name, "-N", "6", *argv, "--format", fmt)
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize("name", tuple(SERIES))
def test_series_rejects_a_negative_degree(capsys, name):
    # rejected before a builder lays out its range(N + 1) degree buckets
    given = {**{f: FLAG_VALUE[f] for f in SERIES[name][0]}, **READ_VALUES.get(name, {})}
    argv = [x for flag, value in given.items() for x in (flag, value)]
    code, out, err = run(capsys, "series", name, "-N", "-1", *argv)
    assert (code, out, err) == (2, "", "error: truncation degree must be >= 0\n")


def test_stray_flags_name_every_one(capsys):
    code, out, err = run(capsys, "series", "boulet", "--bounds", "all:0", "-m", "2", "-N", "2")
    assert (code, out, err) == (2, "", "error: flags ['--bounds', '-m'] do not apply to 'boulet'\n")


@pytest.mark.parametrize("direction, text", (("fwd", "3,1"), ("inv", "7,2,1")))
def test_map_sylvester_rejects_m(capsys, direction, text):
    code, out, err = run(capsys, "map", "sylvester", direction, text, "-m", "2")
    assert (code, out, err) == (2, "", "error: flags ['-m'] do not apply to 'sylvester'\n")


# -- verify -----------------------------------------------------------------------

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "pairing-gf", "--m", "0,1",
                       "--trunc", "10")
    assert code == 0
    assert out.startswith("PASS pairing-gf")


def test_verify_fail_exit_one_with_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "andrews", "--a", "all:3",
                       "--b", "even:2", "--max-n", "10", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["counterexample"] == {"n": 4, "count_a": 4, "count_b": 5}


def test_verify_spec_equivalence_pair(capsys):
    code, out, _ = run(capsys, "verify", "andrews", "--a", "all:4s",
                       "--b", "odd:inf,even:2s", "--max-n", "14")
    assert code == 0
    assert out.startswith("PASS andrews")


def test_verify_multiple_runs_json_list(capsys):
    # without flags every default configuration runs
    code, out, _ = run(capsys, "verify", "rows-product", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 3
    assert {r["params"]["bounds"] for r in doc} == {"all:3", "even:3", "1:1,3:5"}


def test_verify_explicit_flags_select_one_run(capsys):
    # with an explicit flag a multi-configuration check collapses to one run
    code, out, _ = run(capsys, "verify", "rows-product", "--trunc", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"bounds": "all:3", "trunc": 10}


def test_verify_pairing_covers_every_m_unless_m_is_given(capsys):
    code, out, _ = run(capsys, "verify", "pairing", "--max-n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"max_n": 6, "m": "every"}
    assert '"m": "every"' in out
    code, out, _ = run(capsys, "verify", "pairing", "--max-n", "6", "--m", "0,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"max_n": 6, "m": [0, 1]}


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "euler")
    assert code == 2
    assert "unknown theorem id" in err


def test_verify_irrelevant_flag(capsys):
    code, _, err = run(capsys, "verify", "boulet", "--max-n", "5")
    assert code == 2
    assert "do not apply" in err


@pytest.mark.parametrize("argv, flags", (
    (("boulet", "--max-n", "5"), "['--max-n']"),
    (("andrews", "--m", "1"), "['--m']"),
    (("sylvester", "--phi", "1", "--a", "all:1", "--max-n", "3"), "['--a', '--phi']"),
    # a check's fixed keywords are not flags, nor the keyword a flag renames
    (("bessenrodt", "--m", "1"), "['--m']"),
    (("bessenrodt", "--trunc", "5"), "['--trunc']"),
    (("boulet", "--i", "1", "--bounds", "all:1"), "['--bounds', '--i']"),
))
def test_verify_stray_flags_are_named_as_typed(capsys, argv, flags):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", "error: flags %s do not apply to %r\n" % (flags, argv[0]))


def test_verify_andrews_needs_both_caps(capsys):
    code, out, err = run(capsys, "verify", "andrews", "--max-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: andrews needs two bound sequences (--a and --b)\n"
    code, _, err = run(capsys, "verify", "andrews", "--a", "all:3", "--max-n", "5")
    assert code == 2
    assert err.startswith("error: andrews needs two bound sequences")


@pytest.mark.parametrize("theorem", ("pairing", "boulet", "all"))
def test_verify_rejects_negative_max_n(capsys, theorem):
    for flag in ("--max-n", "--trunc", "--cutoff"):
        code, out, err = run(capsys, "verify", theorem, flag, "-3")
        assert (code, out) == (2, "")
        assert err == "error: %s must be >= 0\n" % flag


@pytest.mark.parametrize("theorem", ("pairing-gf", "binary-gf", "pairing", "binary"))
def test_verify_gf_rejects_negative_m(capsys, theorem):
    # every m is checked before any series is built or partition mapped
    for ms in ("-1", "1,-1"):
        code, out, err = run(capsys, "verify", theorem, "--m", ms)
        assert (code, out, err) == (2, "", "error: m must be >= 0\n")
    code, out, err = run(capsys, "verify", theorem, "--m", "0,x")
    assert (code, out, err) == (2, "", "error: --m: 'x' is not an integer\n")


@pytest.mark.parametrize("jobs", ("0", "-2"))
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "pairing", "--max-n", "3", "--jobs", jobs)
    assert (code, out, err) == (2, "", "error: --jobs must be >= 1\n")


def test_verify_all_reduced_grid(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "8", "--trunc", "8",
                       "--cutoff", "9", "--format", "csv")
    # the restricted product is expected to disagree for i != 0
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "theorem,params,status,elapsed_ms"
    assert len(lines) == 22
    failing = [l for l in lines if ",fail," in l]
    assert len(failing) == 2 and all("boulet-restricted" in l for l in failing)


def test_verify_all_leaves_the_fixed_keywords_alone(capsys):
    # --m, --phi and the --bounds default reach the general checks, not the
    # special cases, which stay at their own grid points
    code, out, _ = run(capsys, "verify", "all", "--m", "2", "--phi", "1", "--max-n", "6",
                       "--trunc", "6", "--cutoff", "7", "--format", "json")
    assert code == 1
    params = {r["theorem"]: r["params"] for r in json.loads(out)}
    assert params["bessenrodt"] == {"m": [0], "trunc": 6}
    assert params["sylvester"] == {"max_n": 6, "phi": ["0"]}
    assert params["boulet"] == {"i": 0, "k": 1, "bounds": "all:inf", "trunc": 6}
    assert params["pairing-gf"]["m"] == [2] and params["pairing-refined"]["phi"] == ["1"]


def _without_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def test_verify_jobs_matches_serial(capsys):
    def status_rows(*argv):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "6",
                           "--trunc", "6", "--format", "csv", *argv)
        return code, [line.rsplit(",", 1)[0] for line in out.splitlines()]

    def reports(*argv):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "6",
                           "--trunc", "6", "--format", "json", *argv)
        return code, [_without_elapsed(r) for r in json.loads(out)]

    assert status_rows() == status_rows("--jobs", "4")
    code, serial = reports()
    assert (code, serial) == reports("--jobs", "4")
    # the counterexamples and notes crossed the process boundary
    failing = [r for r in serial if r["status"] == "fail"]
    assert [r["theorem"] for r in failing] == ["boulet-restricted"] * 2
    assert all(r["counterexample"] and r["notes"] for r in failing)


def test_verify_jobs_calls_every_runner_in_this_process(capsys, monkeypatch):
    # as a benchmark pass does: wrap each registry runner to record the pid
    # and wall time of every call
    calls = []

    def recorded(name, runner):
        def wrapper(**kwargs):
            started = time.perf_counter()
            try:
                return runner(**kwargs)
            finally:
                calls.append((name, os.getpid(), time.perf_counter() - started))
        return wrapper

    for name, check in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, name,
                            dataclasses.replace(check, runner=recorded(name, check.runner)))
    code, out, _ = run(capsys, "verify", "all", "--jobs", "2", "--max-n", "6",
                       "--trunc", "6", "--cutoff", "7", "--format", "csv")
    assert code == 1
    assert len(calls) == 21 == len(out.splitlines()) - 1
    assert {pid for _, pid, _ in calls} == {os.getpid()}
    assert all(wall > 0 for _, _, wall in calls)
    names = [name for name, _, _ in calls]
    assert sorted(names) == sorted(name for name, check in REGISTRY.items()
                                   for _ in check.default_runs)


def test_verify_jobs_bounds_the_worker_count(capsys, monkeypatch):
    asked, submitted = [], []

    class RecordingPool:
        """Stands in for ``ProcessPoolExecutor``: runs each call inline and
        starts no process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args, **kwargs):
            submitted.append(fn.__name__)
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _, out, _ = run(capsys, "verify", "all", "--jobs", "100000", "--max-n", "3",
                    "--trunc", "3", "--cutoff", "4", "--format", "csv")
    assert len(out.splitlines()) == 22
    assert asked == [min(21, os.cpu_count())]
    assert submitted.count("_run_body") == 21  # every run's body went to the pool
    # one run, or one core, takes the serial path and starts no pool
    run(capsys, "verify", "pairing", "--jobs", "4", "--max-n", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run(capsys, "verify", "all", "--jobs", "4", "--max-n", "3", "--trunc", "3")
    assert asked == [3]


def test_verify_flags_outlive_a_bare_runner_wrapper(capsys, monkeypatch):
    # a wrapper that hides the runner's signature, as a benchmark pass's
    # timing wrapper does, leaves each check with the flags it had
    def bare(runner):
        return lambda **kwargs: runner(**kwargs)

    for name, check in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(check, runner=bare(check.runner)))
    code, out, _ = run(capsys, "verify", "pairing", "--max-n", "3")
    assert code == 0 and out.startswith("PASS pairing ")
    code, out, err = run(capsys, "verify", "boulet", "--max-n", "3")
    assert (code, out, err) == (2, "", "error: flags ['--max-n'] do not apply to 'boulet'\n")


@pytest.mark.parametrize("method", ("spawn", "forkserver"))
def test_verify_jobs_under_other_start_methods(capsys, method):
    # workers that import the package afresh instead of forking this process
    argv = ("verify", "all", "--max-n", "6", "--trunc", "6", "--cutoff", "7",
            "--format", "csv")
    code = ("import multiprocessing, sys; from eulerparts.cli import main; "
            "multiprocessing.set_start_method(sys.argv[1]); "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, method, *argv, "--jobs", "2"],
                          capture_output=True, text=True, timeout=120)
    serial_code, serial, _ = run(capsys, *argv)

    def status_rows(out):
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]

    assert (proc.returncode, proc.stderr) == (serial_code, "") == (1, "")
    assert status_rows(proc.stdout) == status_rows(serial)


@pytest.mark.parametrize("jobs", ("1", "2"))
@pytest.mark.parametrize("flags, message", (
    (("--m=-1",), "m must be >= 0"),
    (("--bounds", "all:x"), "bad bound value 'x'"),
    (("--k", "0"), "modulus must be >= 1"),
    (("--bounds", "phi:i*0+1"), "cap on part 2, which lies outside the progression"),
))
def test_verify_all_errors_exit_2_on_every_path(capsys, jobs, flags, message):
    # the first error in registry order, raised in a worker or here
    code, out, err = run(capsys, "verify", "all", "--max-n", "4", "--trunc", "4",
                         "--jobs", jobs, *flags)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# -- malformed command lines ---------------------------------------------------

# A flag's value is in range, out of range, or not a value at all.  Sizes
# (n, -N, --max-n, --trunc) stay at most 20, and the other small integers at
# most 40, so that no run is long: garbage that argparse's ``int`` reads as a
# larger number is dropped.  ``--jobs`` has no bound, as the worker count is
# capped by the program.
GARBAGE = st.text(alphabet="0123456789-+*,:;()aeis ñ\n\x00", max_size=10)


def _exceeds(bound, text):
    try:
        return int(text) > bound
    except ValueError:
        return False


def values(good, bound=None):
    # mostly well formed, so that most command lines get past argparse
    garbage = GARBAGE if bound is None else GARBAGE.filter(lambda t: not _exceeds(bound, t))
    return st.integers(0, 7).flatmap(lambda k: good if k else garbage)


SIZE = values(st.integers(-3, 20).map(str), 20)
SMALL = values(st.integers(-3, 40).map(str), 40)
INT_LIST = values(st.lists(st.integers(-2, 6), min_size=1, max_size=3)
                  .map(lambda ms: ",".join(map(str, ms))))
BOUNDS = values(st.sampled_from(("all:3", "even:1", "all:4s", "odd:inf,even:2s",
                                 "1:1,3:5", "2:0,5:3", "all:0", "phi:i", "phi:2*i+1")))
FILTER = values(st.sampled_from(("mod:2,res:1", "mod:3,res:2,even-length,first-once",
                                 "mod:0,res:0", "mod:2,res:5", "even-length")))
FORMAT = values(st.sampled_from(("text", "csv", "json")))
STAT = values(st.sampled_from(("la", "lo")))
LISTING = {"--bounds": BOUNDS, "--filter": FILTER, "--stat": STAT, "--format": FORMAT}

# Each subcommand: its positionals and the values of each of its flags
# (None for a switch).
SUBCOMMANDS = {
    "enumerate": ([SIZE], {"--bounds": BOUNDS, "--filter": FILTER, "--count": None,
                           "--format": FORMAT}),
    "stats": ([SIZE], LISTING),
    "table": ([SIZE], LISTING),
    "map": ([values(st.sampled_from(("sylvester", "pairing", "binary"))),
             values(st.sampled_from(("fwd", "inv"))), PARTITION_TEXT],
            {"-m": values(st.sampled_from(("0", "1", "2", "inf", "-1"))), "--format": FORMAT}),
    "series": ([values(st.sampled_from(tuple(SERIES)))],
               {"-N": SIZE, "-m": SMALL, "--i": SMALL, "--k": SMALL, "--bounds": BOUNDS,
                "--filter": FILTER, "--weight": values(st.sampled_from(tuple(WEIGHTS))),
                "--format": FORMAT}),
    "verify": ([values(st.sampled_from(tuple(REGISTRY) + ("all",)))],
               {"--max-n": SIZE, "--trunc": SIZE, "--cutoff": SMALL, "--m": INT_LIST,
                "--i": SMALL, "--k": SMALL, "--bounds": BOUNDS, "--a": BOUNDS,
                "--b": BOUNDS, "--phi": values(st.sampled_from(("1", "i", "1,i", "0,2*i"))),
                "--jobs": values(st.integers(-2, 3).map(str)), "--format": FORMAT}),
}


KEYWORD = {flag: keyword for flag, keyword, *_ in VERIFY_FLAGS}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(tuple(SUBCOMMANDS)))
    positionals, options = SUBCOMMANDS[command]
    args = [draw(p) for p in positionals]
    if command == "verify" and args[0] in REGISTRY:
        # a check's own flags; a flag that does not apply is tested above
        keywords = REGISTRY[args[0]].flags
        options = {f: v for f, v in options.items()
                   if f in ("--jobs", "--format") or KEYWORD[f] in keywords}
    if command == "series" and args[0] in SERIES:
        # the flags the builder reads; a flag it does not read is tested above
        options = {f: v for f, v in options.items()
                   if f in ("-N", "--format") + SERIES[args[0]][0]}
    if command == "map" and args[0] == "sylvester":
        options = {f: v for f, v in options.items() if f != "-m"}
    flags = draw(st.lists(st.sampled_from(tuple(options)), unique=True))
    if command == "verify":
        # a run without its size flag takes the default grid, which is long
        flags += [f for f in ("--max-n", "--trunc") if f in options and f not in flags]
    argv = [command]
    for flag in flags:
        argv.append(flag if options[flag] is None else "%s=%s" % (flag, draw(options[flag])))
    # "--" keeps a leading "-" in a positional from reading as an option
    return argv + ["--"] + args


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_malformed_command_line_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().split("\n")) == 1


# -- table ------------------------------------------------------------------------

TABLE_CAP3_BY_ALT = (
    "1: (2^2,1^3) (2^3,1) (3,2,1^2) (3^2,1) (4,3)\n"
    "3: (3,2^2) (4,1^3) (4,2,1) (5,2)\n"
    "5: (5,1^2) (6,1)\n"
    "7: (7)\n"
    "counts: {1: 5, 3: 4, 5: 2, 7: 1}\n"
    "total: 12\n")

TABLE_EVEN1_BY_ODD = (
    "1: (4,2,1) (4,3) (5,2) (6,1) (7)\n"
    "3: (3,2,1^2) (3^2,1) (4,1^3) (5,1^2)\n"
    "5: (2,1^5) (3,1^4)\n"
    "7: (1^7)\n"
    "counts: {1: 5, 3: 4, 5: 2, 7: 1}\n"
    "total: 12\n")

TABLE_EVEN1_BY_ALT = (
    "1: (1^7) (2,1^5) (3,2,1^2) (3^2,1) (4,3)\n"
    "3: (3,1^4) (4,1^3) (4,2,1) (5,2)\n"
    "5: (5,1^2) (6,1)\n"
    "7: (7)\n"
    "counts: {1: 5, 3: 4, 5: 2, 7: 1}\n"
    "total: 12\n")


@pytest.mark.parametrize(
    "stat, bounds, want",
    (
        ("la", "all:3", TABLE_CAP3_BY_ALT),
        ("lo", "even:1", TABLE_EVEN1_BY_ODD),
        ("la", "even:1", TABLE_EVEN1_BY_ALT),
    ),
)
def test_table_reproduces_reference_rows(capsys, stat, bounds, want):
    code, out, _ = run(capsys, "table", "7", "--stat", stat, "--bounds", bounds)
    assert code == 0
    assert out == want


def test_table_of_zero(capsys):
    code, out, _ = run(capsys, "table", "0", "--stat", "la")
    assert code == 0
    assert out == "0: ∅\ncounts: {0: 1}\ntotal: 1\n"


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "7", "--stat", "la", "--bounds",
                       "all:3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"1": 5, "3": 4, "5": 2, "7": 1}
    assert doc["rows"]["7"] == ["(7)"]
    assert doc["total"] == 12


# -- general behaviour ---------------------------------------------------------

def test_identical_invocations_identical_bytes(capsys):
    argv = ("table", "9", "--stat", "lo", "--bounds", "even:1",
            "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", (
    ("enumerate", "3", "--bounds=--"), ("stats", "3", "--stat", "la", "--filter=--"),
    ("series", "pairing-gf", "-m=--"), ("verify", "pairing", "--max-n=--"),
    ("verify", "rows-product", "--bounds=--", "--trunc", "3"),
    ("map", "sylvester", "fwd", "--format=--", "--", "1"),
))
def test_double_dash_value_is_a_usage_error(capsys, argv):
    # whether or not argparse keeps "--" as the value, it exits 2 with one
    # error line and no traceback
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert sum("error:" in line for line in captured.err.split("\n")) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerparts", "table", "7", "--stat", "la",
         "--bounds", "all:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == TABLE_CAP3_BY_ALT


def test_import_leaves_the_process_pool_out():
    # the pool modules cost start-up time, and only ``verify --jobs`` needs them
    code = ("import sys, eulerparts.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _buffered_env() -> dict:
    """This environment without ``PYTHONUNBUFFERED``, so the child's stdout is
    block-buffered, as it is when no terminal is attached."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("fmt, head", (("text", b"30\n29,1\n28"), ("csv", b"parts\n30\n2"),
                                       ("json", b"[[30], [29")),
                         ids=("text", "csv", "json"))
def test_closed_output_pipe_keeps_the_status(fmt, head):
    # the reader stops after 10 bytes, as ``| head -c 10`` does; the 112 kB
    # listing is more than a pipe holds, so later writes meet a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "eulerparts", "enumerate", "30", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env())
    assert proc.stdout.read(10) == head
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("argv, status", (
    (("enumerate", "5", "--count"), 0),
    (("enumerate", "5"), 0),
    (("enumerate", "5", "--format", "csv"), 0),
    (("enumerate", "5", "--format", "json"), 0),
    (("stats", "6", "--stat", "la", "--format", "csv"), 0),
    (("table", "6", "--stat", "lo"), 0),
    (("map", "pairing", "fwd", "7,2,1", "--format", "json"), 0),
    (("series", "boulet", "-N", "8"), 0),
    (("verify", "sylvester", "--max-n", "5"), 0),
    (("verify", "boulet-restricted", "--i", "1", "--k", "2", "--bounds", "3:1,5:3"), 1),
    (("--help",), 0),
    (("verify", "--help"), 0),
), ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_buffered_output_to_a_closed_pipe_keeps_the_status(argv, status):
    # the reader has gone before the command starts, as in ``| true``; the
    # output fits stdout's buffer, so it meets the closed pipe only when
    # flushed, and a flush left to the interpreter's exit would exit 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "eulerparts", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_buffered_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (status, b"")
