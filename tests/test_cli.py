import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

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


def test_enumerate_duplicate_filter_entry(capsys):
    code, out, err = run(capsys, "enumerate", "6", "--filter", "mod:3,mod:2,res:1")
    assert (code, out) == (2, "")
    assert err == "error: duplicate mod in 'mod:3,mod:2,res:1'\n"


DSL_TEXT = st.text(alphabet="0123456789i+*()s:,;-_ allodevnphimrfstxyz\n\x00é") | st.text()


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(("--bounds", "--filter")), text=DSL_TEXT)
def test_enumerate_dsl_fuzz(flag, text):
    # "--flag=text" keeps a leading "-" in the text from reading as an option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["enumerate", "3", "%s=%s" % (flag, text)])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == ""


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


def test_map_rejects_bad_m(capsys):
    code, _, err = run(capsys, "map", "pairing", "fwd", "1", "-m", "-3")
    assert code == 2


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
        code = main(["map", name, direction, "-m", m, "--", text])
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


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "euler")
    assert code == 2
    assert "unknown theorem id" in err


def test_verify_irrelevant_flag(capsys):
    code, _, err = run(capsys, "verify", "boulet", "--max-n", "5")
    assert code == 2
    assert "do not apply" in err


def test_verify_andrews_needs_both_caps(capsys):
    code, out, err = run(capsys, "verify", "andrews", "--max-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: andrews needs two bound sequences (--a and --b)\n"
    code, _, err = run(capsys, "verify", "andrews", "--a", "all:3", "--max-n", "5")
    assert code == 2
    assert err.startswith("error: andrews needs two bound sequences")


@pytest.mark.parametrize("theorem", ("pairing", "all"))
def test_verify_rejects_negative_max_n(capsys, theorem):
    for flag in ("--max-n", "--cutoff"):
        code, out, err = run(capsys, "verify", theorem, flag, "-3")
        assert (code, out) == (2, "")
        assert err == "error: %s must be >= 0\n" % flag


@pytest.mark.parametrize("theorem", ("pairing-gf", "binary-gf", "pairing", "binary"))
def test_verify_gf_rejects_negative_m(capsys, theorem):
    # every m is checked before any series is built or partition mapped
    for ms in ("-1", "1,-1"):
        code, out, err = run(capsys, "verify", theorem, "--m", ms)
        assert (code, out, err) == (2, "", "error: m must be >= 0\n")


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


def test_verify_jobs_matches_serial(capsys):
    def status_rows(*argv):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "6",
                           "--trunc", "6", "--format", "csv", *argv)
        return code, [line.rsplit(",", 1)[0] for line in out.splitlines()]

    assert status_rows() == status_rows("--jobs", "4")


# -- malformed command lines ---------------------------------------------------

# A flag's value is in range, out of range, or not a value at all.  Sizes
# (n, -N, --max-n, --trunc) stay at most 20 so that no run is long.
GARBAGE = st.text(alphabet="0123456789-+*,:;()aeis ñ\n\x00", max_size=10)


def values(good):
    # mostly well formed, so that most command lines get past argparse
    return st.integers(0, 7).flatmap(lambda k: good if k else GARBAGE)


SIZE = values(st.integers(-3, 20).map(str))
SMALL = values(st.integers(-3, 40).map(str))
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerparts", "table", "7", "--stat", "la",
         "--bounds", "all:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == TABLE_CAP3_BY_ALT
