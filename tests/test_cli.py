"""End-to-end command-line checks: golden fixtures, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from squarecodes.cli import (
    FAMILIES,
    REFERENCE_PRESET,
    _resolve_family,
    build_parser,
    build_selected_set,
    main,
)
from squarecodes.expsets import MonomialSet
from squarecodes.families import check_square_designed, hyperbolic_set

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "fixture,argv",
    [
        ("table_reference.csv", ["table", "--preset", "reference"]),
        ("compare_11_6.csv", ["compare", "--q", "11", "--d", "6"]),
        ("compare_11_12.csv", ["compare", "--q", "11", "--d", "12"]),
        ("construct_hyp_11_6.json", ["construct", "--family", "hyp", "--q", "11", "--m", "2", "--d", "6"]),
        ("construct_halfhyp_11_12.json", ["construct", "--family", "halfhyp", "--q", "11", "--m", "2", "--d", "12"]),
        ("square_counterexample_7.json", ["square", "--family", "wrm", "--q", "7", "--m", "2", "--s", "5", "--weights", "3,2"]),
        ("certify_wrm_11_15.json", ["certify", "--family", "wrm", "--q", "11", "--m", "2", "--s", "15", "--weights", "5,3"]),
        ("params_rm_11_6.json", ["params", "--family", "rm", "--q", "11", "--m", "2", "--s", "6"]),
    ],
)
def test_output_matches_golden_fixture(capsys, fixture, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (FIXTURES / fixture).read_text()


def test_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "table", "--preset", "reference")
    _, second, _ = run_cli(capsys, "table", "--preset", "reference")
    assert first == second


def test_reference_numbers_in_table(capsys):
    _, out, _ = run_cli(capsys, "table", "--preset", "reference")
    assert "rm,11,2,55,121,28,55,55,certificate,9" in out
    assert "hyp,11,2,6,121,111,6,6,certificate,1" in out
    assert "hyp,11,2,55,121,30,55,55,certificate,8" in out
    assert "wrm,11,2,66,121,13,66,66,certificate,11" in out
    assert "halfhyp,11,2,12,121,24,56,56,certificate,15" in out
    # dimension 31 from enumeration, not the misprinted 25
    assert "halfhyp,11,2,6,121,31,49,49,certificate,7" in out
    assert "wrm-even-b1,11,2,6,121,39,33,33,certificate,6" in out
    assert "wrm-even-b2,11,2,6,121,39,33,33,certificate,6" in out


def test_construct_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "rm", "--q", "11", "--m", "2", "--s", "0")
    assert code == 0
    assert out == '{"exponents": [[0, 0]], "m": 2, "q": 11}\n'


@pytest.mark.parametrize("family", ["hyp", "halfhyp"])
def test_construct_with_a_negative_m_exits_2(capsys, family):
    argv = ["construct", "--family", family, "--q", "0", "--m", "-1", "--d", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: RangeError:")


def test_construct_rejects_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--family", "halfhyp", "--q", "11", "--m", "2", "--d", "121"
    )
    assert code == 2
    assert "InvalidOrder" in err


def test_construct_over_the_point_budget_exits_2():
    # 256^3 points: refused before the grid is allocated, with no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "squarecodes.cli", "construct", "--family", "hyp",
         "--q", "256", "--m", "3", "--d", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: BudgetExceeded:")
    assert "Traceback" not in proc.stderr


def test_construct_names_missing_flag(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "rm", "--q", "11", "--m", "2")
    assert code == 2
    assert "--s" in err


def test_floats_are_refused(capsys):
    with pytest.raises(SystemExit):  # argparse rejects the value, exit code 2
        main(["construct", "--family", "wrm", "--q", "7", "--m", "2", "--s", "1.5", "--weights", "1,1"])


def test_rational_weights_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--family", "wrm", "--q", "11", "--m", "2",
        "--s", "65/8", "--weights", "1,17/16",
    )
    assert code == 0
    assert len(json.loads(out)["exponents"]) == 39  # the tilted staircase


def test_file_selector_round_trip(tmp_path, capsys):
    A = hyperbolic_set(7, 2, 5)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(A.to_json()))
    code, out, _ = run_cli(capsys, "construct", "--family", "file", "--file", str(path))
    assert code == 0
    assert MonomialSet.from_json(json.loads(out)).exponents == A.exponents


def test_reference_preset_rows_match_their_flags():
    parser = build_parser()
    for family, params in REFERENCE_PRESET:
        argv = ["construct", "--family", family]
        for flag, value in params.items():
            argv += [f"--{flag}", str(value)]
        A, name, d_design = build_selected_set(parser.parse_args(argv))
        B, d_table = _resolve_family(family, params)
        assert (name, A, d_design) == (family, B, d_table)
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for verb in ("construct", "square", "params", "certify"):
        family = next(a for a in verbs.choices[verb]._actions if a.dest == "family")
        assert list(family.choices) == [*FAMILIES, "file"]


@pytest.mark.parametrize("exponents", [[[0.5, 1]], [["a", 1]]])
def test_file_with_non_integer_exponents_exits_2(tmp_path, capsys, exponents):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"q": 5, "m": 2, "exponents": exponents}))
    code, out, err = run_cli(capsys, "construct", "--family", "file", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: RangeError:") and "Traceback" not in err


def test_verify_pass_and_fail(tmp_path, capsys):
    hh = tmp_path / "hh.json"
    hyp = tmp_path / "hyp.json"
    code, out, _ = run_cli(capsys, "construct", "--family", "halfhyp", "--q", "11", "--m", "2", "--d", "6")
    hh.write_text(out)
    code, out, _ = run_cli(capsys, "construct", "--family", "hyp", "--q", "11", "--m", "2", "--d", "6")
    hyp.write_text(out)

    code, out, _ = run_cli(capsys, "verify", "--a", str(hh), "--b", str(hyp))
    assert code == 0
    assert out.startswith("pass:") and "square fb = 7" in out

    code, out, _ = run_cli(capsys, "verify", "--a", str(hyp), "--hyp", "6")
    assert code == 1
    assert out.startswith("fail:") and "escapes the target" in out


def test_verify_full_box_is_its_own_target(tmp_path, capsys):
    box = MonomialSet(5, 2, [(i, j) for i in range(5) for j in range(5)])
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box.to_json()))
    code, out, _ = run_cli(capsys, "verify", "--a", str(path), "--b", str(path))
    assert code == 0


def test_verify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, _, err = run_cli(capsys, "verify", "--a", str(bad), "--hyp", "6")
    assert code == 2 and err.startswith("error:")

    schema = tmp_path / "schema.json"
    schema.write_text('{"q": 5}')
    code, _, err = run_cli(capsys, "verify", "--a", str(schema), "--hyp", "6")
    assert code == 2 and "schema" in err


def test_verify_refuses_an_empty_set(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"q": 5, "m": 2, "exponents": []}))
    code, out, err = run_cli(capsys, "verify", "--a", str(empty), "--hyp", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: EmptySet:")


def test_square_of_a_coordinate_past_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 2**64, "m": 1, "exponents": [[2**64 - 1]]}))
    code, out, err = run_cli(capsys, "square", "--family", "file", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidOrder:")


def test_square_of_an_unreduced_coordinate_past_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"q": 5, "m": 1, "exponents": [[2**64 - 1]]}))
    code, out, err = run_cli(capsys, "square", "--family", "file", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: NotReduced:")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "file", "--file", "Q6"],
        ["square", "--family", "file", "--file", "Q6"],
        ["params", "--family", "rm", "--q", "6", "--m", "2", "--s", "2", "--effort", "fb_only"],
        ["certify", "--family", "hyp", "--q", "6", "--m", "2", "--d", "3"],
        ["verify", "--a", "Q6", "--hyp", "3"],
        ["verify", "--a", "Q5", "--b", "Q6"],
        ["compare", "--q", "6", "--d", "3"],
        ["params", "--family", "halfhyp", "--q", "6", "--m", "2", "--d", "3", "--format", "csv"],
    ],
    ids=["construct", "square", "params-fb_only", "certify", "verify-a", "verify-b", "compare", "params-csv"],
)
def test_a_q_that_is_no_field_order_exits_2(tmp_path, capsys, argv):
    for q in (5, 6):
        (tmp_path / f"q{q}.json").write_text(json.dumps({"q": q, "m": 2, "exponents": [[0, 0], [1, 0]]}))
    argv = [str(tmp_path / f"q{a[1]}.json") if a in ("Q5", "Q6") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidOrder:")


def test_verify_needs_exactly_one_target(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(MonomialSet(5, 2, [(0, 0)]).to_json()))
    code, _, err = run_cli(capsys, "verify", "--a", str(a))
    assert code == 2 and "exactly one" in err


def test_verify_agrees_with_library_predicate(tmp_path, capsys):
    rng = random.Random(20260816)
    agree = 0
    for trial in range(100):
        q = rng.choice([5, 7])
        k = rng.randint(1, 6)
        vecs = {(rng.randrange(q), rng.randrange(q)) for _ in range(k)}
        A = MonomialSet(q, 2, sorted(vecs))
        d = rng.randint(1, q)
        path = tmp_path / f"a{trial}.json"
        path.write_text(json.dumps(A.to_json()))
        code, _, _ = run_cli(capsys, "verify", "--a", str(path), "--hyp", str(d))
        expected = 0 if check_square_designed(A, hyperbolic_set(q, 2, d)) else 1
        assert code == expected
        agree += 1
    assert agree == 100


def test_compare_distance_one_takes_the_full_box(capsys):
    code, out, _ = run_cli(capsys, "compare", "--q", "11", "--d", "1")
    assert code == 0
    lines = out.strip().splitlines()
    wrm = next(l for l in lines if l.startswith("wrm,"))
    assert ",121,121,1,1,certificate," in wrm
    assert wrm.endswith(",pass,yes")


def test_compare_out_of_range(capsys):
    code, _, err = run_cli(capsys, "compare", "--q", "11", "--d", "121")
    assert code == 2 and "RangeError" in err


def test_compare_json_format(capsys):
    code, out, _ = run_cli(capsys, "compare", "--q", "11", "--d", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    ks = {row["family"]: row["report"]["k"] for row in obj["rows"]}
    assert ks == {"halfhyp": 31, "wrm": 39}
    winners = [row["family"] for row in obj["rows"] if row["winner"]]
    assert winners == ["wrm"]
    assert all(row["alg1"] == "pass" for row in obj["rows"])


def test_params_budget_propagates(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)]).to_json()))
    code, _, err = run_cli(
        capsys, "params", "--family", "file", "--file", str(a),
        "--effort", "exhaustive", "--budget", "3",
    )
    assert code == 2 and "BudgetExceeded" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--family", "rm", "--q", "5", "--m", "2", "--s", "2"],
        ["compare", "--q", "11", "--d", "6"],
        ["table", "--preset", "reference"],
    ],
    ids=lambda argv: argv[0],
)
def test_nonpositive_budget_exits_2(capsys, argv, budget):
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: RangeError:")


def test_unknown_table_preset(capsys):
    code, _, err = run_cli(capsys, "table", "--preset", "everything")
    assert code == 2 and "preset" in err


def test_module_entry_point_matches_fixture():
    proc = subprocess.run(
        [sys.executable, "-m", "squarecodes.cli", "table", "--preset", "reference"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (FIXTURES / "table_reference.csv").read_text()


# --- fuzz -----------------------------------------------------------------------

JUNK = st.sampled_from(["", "x", "2.5", "1/0", "1e3"])


def _value(valid, bad=JUNK):
    """Mostly ``valid``, now and then ``bad`` (by default text no flag accepts)."""
    return st.integers(0, 11).flatmap(lambda r: bad if r == 0 else valid)


def _ints(lo, hi):
    return _value(st.integers(lo, hi).map(str))


VALUES = {
    "--family": st.sampled_from([*FAMILIES, "file", "file", "nope"]),
    "--q": _ints(-1, 12),
    "--m": _ints(-1, 3),
    "--d": _ints(-2, 130),
    "--s": _value(st.integers(-1, 20).map(str) | st.sampled_from(["5/2", "7/3"])),
    "--weights": _value(st.sampled_from(["1,1", "5,3", "1/2,3", "0,1", "1", "1,1,1"])),
    "--effort": _value(st.sampled_from(["fb_only", "certify", "exhaustive"])),
    "--budget": _ints(-3, 2000),  # always given, so that every walk stays small
    "--format": _value(st.sampled_from(["json", "csv", "text"])),
    "--preset": st.sampled_from(["reference", "reference", "other"]),
    "--hyp": _ints(-1, 90),
    "--file": st.sampled_from(["SET", "SET", "MISSING"]),
    "--a": st.sampled_from(["SET", "SET", "MISSING"]),
    "--b": st.sampled_from(["SET", "SET", "MISSING"]),
}
SELECTOR = ("--q", "--m", "--d", "--s", "--weights", "--file")
OPTIONAL = {
    "construct": SELECTOR,
    "square": SELECTOR,
    "certify": SELECTOR,
    "params": SELECTOR + ("--effort", "--format"),
    "verify": ("--b", "--hyp"),
    "compare": ("--effort", "--format"),
    "table": ("--preset", "--effort", "--format"),
}


@st.composite
def cli_argv(draw):
    """A command line that argparse mostly accepts: the verb's required flags
    (one of them sometimes dropped), any of its other flags, junk values now
    and then."""
    verb = draw(st.sampled_from(sorted(OPTIONAL)))
    family = draw(VALUES["--family"])
    required = {
        "verify": ["--a", draw(st.sampled_from(["--b", "--hyp"]))],
        "compare": ["--q", "--d"],
        "table": [],
    }.get(verb, ["--family", *(FAMILIES[family][0] if family in FAMILIES else ["file"])])
    required = ["--" + f.lstrip("-") for f in required]
    if required and draw(st.integers(0, 9)) == 0:
        required.remove(draw(st.sampled_from(required)))
    extra = draw(st.lists(st.sampled_from(OPTIONAL[verb]), max_size=3, unique=True))
    flags = dict.fromkeys(required + extra)
    if verb in ("params", "compare", "table"):
        flags["--budget"] = None
    argv = [verb]
    for flag in flags:
        argv += [flag, family if flag == "--family" else draw(VALUES[flag])]
    return argv


@st.composite
def exponent_json(draw):
    """An exponent-set file, q <= 9 and m <= 2: mostly well formed, sometimes
    with an unreduced, negative or misshapen member or a malformed field."""
    q = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9]))
    m = draw(st.integers(1, 2))
    vec = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    odd = st.lists(st.integers(-1, 2 * q), min_size=m - 1, max_size=m + 1)
    obj = {"q": q, "m": m, "exponents": draw(st.lists(_value(vec, odd), max_size=12))}
    if draw(st.integers(0, 7)) == 0:
        key = draw(st.sampled_from(sorted(obj)))
        obj[key] = draw(st.sampled_from([None, 0, 1, 2.5, "5", [[0.5, 1]], [["a", 1]], [5]]))
    return draw(st.sampled_from([obj] * 7 + [[], "text", {"q": q}]))


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv(), obj=exponent_json())
def test_fuzzed_command_lines_exit_0_1_or_2_without_a_traceback(argv, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_text(json.dumps(obj))
        missing = str(Path(tmp) / "missing.json")
        argv = [str(path) if a == "SET" else missing if a == "MISSING" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    assert code in (0, 1, 2), (argv, obj, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
