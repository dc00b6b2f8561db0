import csv
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from qhamming import cli, enumerators, hamming_witness, lp_bound
from qhamming.cli import main
from qhamming.hamming_witness import witness_coeffs
from qhamming.rational import to_wire

from oracles import witness_to_dict


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def witness_file(tmp_path):
    doc = witness_to_dict(*witness_coeffs(5, 3, 2))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def dist_file(tmp_path):
    doc = {"n": 2, "m": 2, "K": "1", "A": ["1", "0", "0"]}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --- kraw ---------------------------------------------------------------


def test_kraw_text(runner):
    result = runner.invoke(main, ["kraw", "--k", "1", "--x", "2", "--n", "5", "--m", "2"])
    assert result.exit_code == 0
    assert result.output == "7\n"


def test_kraw_degree_zero(runner):
    result = runner.invoke(main, ["kraw", "--k", "0", "--x", "3", "--n", "5", "--m", "2"])
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_kraw_domain_error_exit_code(runner):
    result = runner.invoke(main, ["kraw", "--k", "9", "--x", "0", "--n", "5", "--m", "2"])
    assert result.exit_code == 2


def test_kraw_missing_option(runner):
    result = runner.invoke(main, ["kraw", "--k", "1", "--x", "2", "--n", "5"])
    assert result.exit_code == 2


def test_kraw_json_and_csv(runner):
    result = runner.invoke(
        main, ["kraw", "--k", "1", "--x", "2", "--n", "5", "--m", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output) == {"k": 1, "x": 2, "n": 5, "m": 2, "value": "7"}

    result = runner.invoke(
        main, ["kraw", "--k", "1", "--x", "2", "--n", "5", "--m", "2", "--format", "csv"]
    )
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows == [["k", "x", "n", "m", "value"], ["1", "2", "5", "2", "7"]]


def test_kraw_approx_appends_not_replaces(runner):
    result = runner.invoke(
        main, ["kraw", "--k", "1", "--x", "2", "--n", "5", "--m", "2", "--approx"]
    )
    assert result.output.startswith("7 (~")


# --- bound --------------------------------------------------------------


def test_bound_witness_file(runner, witness_file):
    result = runner.invoke(main, ["bound", witness_file])
    assert result.exit_code == 0
    assert "bound = 2" in result.output
    assert "argmax_t = 0" in result.output


def test_bound_json_payload(runner, witness_file):
    result = runner.invoke(main, ["bound", witness_file, "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["conditions_ok"] is True
    assert doc["bound"] == "2"
    assert doc["bound_floor"] == 2
    assert doc["argmax_t"] == 0
    assert doc["ratios"] == [
        {"t": 0, "ratio": "64"},
        {"t": 1, "ratio": "256/9"},
        {"t": 2, "ratio": "32"},
    ]


def test_bound_condition_failure_exits_3(runner, tmp_path):
    # f = P_0 = 1 satisfies cond1 (f_0 = 1 > 0, the rest 0) but fails cond2
    # at every t outside S = {0}: exactly the cond2 lines, rows and fields.
    doc = {"n": 3, "m": 2, "S": [0], "coeffs": ["1", "0", "0", "0"]}
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 3
    assert result.stdout == (
        "n=3 m=2 S=0\n"
        "conditions: FAILED\n"
        "  value sign condition violated at t=1,2,3\n"
    )
    result = runner.invoke(main, ["bound", str(path), "--format", "csv"])
    assert result.exit_code == 3
    assert result.stdout == "violated_condition,t\ncond2,1\ncond2,2\ncond2,3\n"
    result = runner.invoke(main, ["bound", str(path), "--format", "json"])
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "n": 3, "m": 2, "S": [0], "conditions_ok": False,
        "cond1_ok": True, "cond1_violations": [],
        "cond2_ok": False, "cond2_violations": [1, 2, 3],
        "bound": None, "bound_floor": None, "argmax_t": None, "ratios": None,
    }


def test_bound_malformed_json_exits_2(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 2


def test_bound_schema_error_exits_2(runner, tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"n": 5, "m": 2, "coeffs": ["1"]}))
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [["bound"], ["macwilliams", "--direction", "forward"]],
                         ids=["bound", "macwilliams"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_bound_missing_file_exits_2(runner, tmp_path, command, kind):
    # the document reader, not click, refuses a path it cannot read as a file
    path = str(tmp_path / "w.json" if kind == "missing" else tmp_path)
    result = runner.invoke(main, [*command, path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot read {path}: ")


def test_bound_non_utf8_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot decode {path}: ")


# Nesting deeper than the recursion limit, which would make json.loads
# raise RecursionError; the container cap refuses it first.
DEEP = "[" * 100_000 + "]" * 100_000


def _container_cap_error(path, count):
    return (f"error: number of '{{' and '[' bytes in {path} must be at most "
            f"{cli.MAX_DOC_CONTAINERS} (input cap), got {count}\n")


def test_bound_deeply_nested_json_exits_2(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 2
    assert result.stderr == _container_cap_error(path, 100_000)


def test_bound_witness_with_deep_extra_key_exits_2(runner, witness_file, tmp_path):
    with open(witness_file) as handle:
        doc = json.load(handle)
    path = tmp_path / "deep_extra.json"
    path.write_text(json.dumps(doc)[:-1] + ', "extra": ' + "[" * 3000 + "]" * 3000 + "}")
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 2
    assert result.stderr == _container_cap_error(path, 3003)


# An integer past the 4,300-digit cap (Python's default int-string limit),
# as a JSON number or inside a rational string, and where the error says
# it is.  The cap is checked before int() reads it.
HUGE = "9" * 5000
HUGE_WITNESSES = [
    ('{"n": HUGE, "m": 2, "S": [0], "coeffs": ["1"]}', "{path}"),
    ('{"n": 1, "m": 2, "S": [HUGE], "coeffs": ["1", "1"]}', "{path}"),
    ('{"n": 1, "m": 2, "S": [0], "coeffs": ["HUGE", "1"]}', "field 'coeffs'"),
]
HUGE_DISTRIBUTIONS = [
    ('{"n": HUGE, "m": 2, "K": "1", "A": ["1"]}', "{path}"),
    ('{"n": 1, "m": 2, "K": "1/HUGE", "A": ["1", "0"]}', "field 'K'"),
]


def _assert_digit_cap_exit(runner, tmp_path, args, text, where):
    """Run ``args`` on ``text`` with HUGE filled in; it must exit 2 naming the digit cap."""
    path = tmp_path / "huge.json"
    path.write_text(text.replace("HUGE", HUGE))
    result = runner.invoke(main, [*args, str(path)] if text else args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (f"error: digits of an integer in {where.format(path=path)} must be "
                             f"at most {cli.MAX_DIGITS} (input cap), got {len(HUGE)}\n")


@pytest.mark.parametrize("text, where", HUGE_WITNESSES, ids=["n", "S", "coeffs"])
def test_bound_integer_past_digit_limit_exits_2(runner, tmp_path, text, where):
    _assert_digit_cap_exit(runner, tmp_path, ["bound"], text, where)


def test_bound_evaluates_witness_once(runner, witness_file, tmp_path, monkeypatch):
    calls = []
    real = lp_bound._poly_values

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(lp_bound, "_poly_values", counting)
    failing = tmp_path / "unit.json"
    failing.write_text(json.dumps({"n": 3, "m": 2, "S": [0], "coeffs": ["1", "0", "0", "0"]}))
    for path, code in ((witness_file, 0), (str(failing), 3)):
        for fmt in ("text", "json", "csv"):
            calls.clear()
            result = runner.invoke(main, ["bound", path, "--format", fmt])
            assert result.exit_code == code
            assert len(calls) == 1, (path, fmt)


def test_bound_csv_approx_adds_columns(runner, witness_file):
    plain = runner.invoke(main, ["bound", witness_file, "--format", "csv"])
    result = runner.invoke(main, ["bound", witness_file, "--format", "csv", "--approx"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][-3:] == ["coeff_approx", "ratio_approx", "bound_approx"]
    assert rows[1][-3:] == ["256", "64", "2"]
    assert [row[:-3] for row in rows] == list(csv.reader(io.StringIO(plain.output)))


def test_bound_json_approx_adds_keys(runner, witness_file):
    args = ["bound", witness_file, "--format", "json"]
    plain = json.loads(runner.invoke(main, args).output)
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc.pop("bound_approx") == "2"
    assert [r.pop("ratio_approx") for r in doc["ratios"]] == ["64", "28.4444444444", "32"]
    assert doc == plain


# --- threshold ----------------------------------------------------------


def test_threshold_known_values(runner):
    result = runner.invoke(main, ["threshold", "--d", "5", "--m", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["threshold"] == 9
    assert doc["stable_tail"] is True
    assert doc["horizon"] == 9  # n0, the certified default

    result = runner.invoke(main, ["threshold", "--d", "6", "--m", "2", "--format", "json"])
    assert json.loads(result.output)["threshold"] == 9


@pytest.mark.parametrize("args", [
    ["threshold", "--d", "3", "--m", "2"],
    ["table1", "--max-d", "3", "--m", "2"],
    ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2"],
])
def test_no_threshold_exits_4(runner, monkeypatch, args):
    # With g = 1 and c_0 = 1, D_1 = 1 - (n-3)^2 is negative at every large
    # n, so the certificate finds no n0 (d = 1 keeps its real values).
    real = hamming_witness._sign_values

    def fake(n, e, m):
        return real(n, e, m) if e == 0 else ([1, 1, 1], [1, (n - 3) ** 2, 0])

    monkeypatch.setattr(hamming_witness, "_sign_values", fake)
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == (
        "error: no threshold for d=3, m=2: the witness fails at every large n\n"
    )


@pytest.mark.parametrize("args", [
    ["threshold", "--d", "3", "--m", "2"],
    ["table1", "--max-d", "3", "--m", "2"],
    ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2"],
])
def test_horizon_is_a_usage_error(runner, args):
    result = runner.invoke(main, args + ["--horizon", "20"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such option '--horizon'" in result.stderr


def test_threshold_csv_one_row_per_length(runner):
    result = runner.invoke(main, ["threshold", "--d", "3", "--m", "2", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "pass", "argmax_t", "bound", "hamming_rhs"]
    assert len(rows) == 1 + 3  # header + n = 3..5, up to n0 = 5
    assert rows[1] == ["3", "false", "2", "4", "4/5"]
    assert rows[3] == ["5", "true", "0", "2", "2"]


def test_threshold_json_approx_adds_keys(runner):
    args = ["threshold", "--d", "3", "--m", "2", "--format", "json"]
    plain = json.loads(runner.invoke(main, args).output)
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["per_n"][0]["bound_approx"] == "4"
    assert doc["per_n"][0]["hamming_rhs_approx"] == "0.8"
    for entry in doc["per_n"]:
        del entry["bound_approx"], entry["hamming_rhs_approx"]
    assert doc == plain


def test_threshold_csv_approx_adds_columns(runner):
    args = ["threshold", "--d", "3", "--m", "2", "--format", "csv"]
    plain = runner.invoke(main, args).output
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][-2:] == ["bound_approx", "hamming_rhs_approx"]
    assert rows[1] == ["3", "false", "2", "4", "4/5", "4", "0.8"]
    assert [row[:-2] for row in rows] == list(csv.reader(io.StringIO(plain)))


def test_to_wire_renders_and_approximates_in_one_walk():
    rows = [
        {"n": 5, "bound": Fraction(7, 3), "A": [Fraction(1, 4), Fraction(3)], "S": [], "T": [1],
         "per_n": [{"t": 0, "r": Fraction(1, 2)}, {"t": 1, "r": None}]},
        {"n": 6, "bound": None, "A": [Fraction(1, 8)], "S": [], "T": [2, 3], "per_n": []},
    ]
    plain = [
        {"n": 5, "bound": "7/3", "A": ["1/4", "3"], "S": [], "T": [1],
         "per_n": [{"t": 0, "r": "1/2"}, {"t": 1, "r": None}]},
        {"n": 6, "bound": None, "A": ["1/8"], "S": [], "T": [2, 3], "per_n": []},
    ]
    assert to_wire(rows) == to_wire(rows, approx=False) == plain
    assert to_wire(Fraction(6, 4)) == "3/2" and to_wire({"x": [Fraction(2)]}) == {"x": ["2"]}
    wire = to_wire(rows, approx=True)
    # Each row keeps its own keys, then gains the companions in the first row's key order.
    assert [list(row) for row in wire] == [[*plain[0], "bound_approx", "A_approx"]] * 2
    assert [list(row) for row in wire[0]["per_n"]] == [["t", "r", "r_approx"]] * 2
    assert wire[0]["per_n"] == [{"t": 0, "r": "1/2", "r_approx": "0.5"},
                                {"t": 1, "r": None, "r_approx": None}]
    assert wire[0]["bound_approx"] == "2.33333333333" and wire[1]["bound_approx"] is None
    assert wire[0]["A_approx"] == ["0.25", "3"] and wire[1]["A_approx"] == ["0.125"]
    assert [{k: v for k, v in row.items() if not k.endswith("_approx")} for row in wire] == [
        {**plain[0], "per_n": wire[0]["per_n"]}, plain[1]]
    assert rows[0]["bound"] == Fraction(7, 3) and "bound_approx" not in rows[0]  # input untouched


# --- table1 -------------------------------------------------------------


def test_table1_binary_reference(runner):
    result = runner.invoke(main, ["table1", "--max-d", "15", "--m", "2"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].split() == ["d", "N"]
    table = [tuple(map(int, line.split())) for line in lines[1:]]
    assert table == [(1, 1), (3, 5), (5, 9), (7, 14), (9, 20), (11, 25), (13, 30), (15, 35)]


def test_table1_single_row(runner):
    result = runner.invoke(main, ["table1", "--max-d", "1", "--m", "2"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[1].split() == ["1", "1"]


def test_table1_nonbinary_is_flagged(runner):
    result = runner.invoke(main, ["table1", "--max-d", "5", "--m", "3"])
    assert result.exit_code == 0
    assert "no published reference values" in result.output
    doc_result = runner.invoke(main, ["table1", "--max-d", "5", "--m", "3", "--format", "json"])
    doc = json.loads(doc_result.output)
    assert doc["reference_values_published"] is False
    assert [row["d"] for row in doc["rows"]] == [1, 3, 5]
    assert all(row["stable_tail"] for row in doc["rows"])


def test_table1_rows_are_library_reports(runner):
    result = runner.invoke(main, ["table1", "--max-d", "9", "--m", "2", "--format", "json"])
    assert result.exit_code == 0
    for row in json.loads(result.output)["rows"]:
        report = hamming_witness.find_threshold(row["d"], 2)
        assert (row["threshold"], row["horizon"]) == (report.threshold, report.horizon)
        assert row["stable_tail"] is True


def test_table1_bad_arguments_exit_2(runner):
    assert runner.invoke(main, ["table1", "--max-d", "0", "--m", "2"]).exit_code == 2
    assert runner.invoke(main, ["table1", "--max-d", "3", "--m", "1"]).exit_code == 2


# --- macwilliams --------------------------------------------------------


def test_macwilliams_forward_delta(runner, dist_file):
    result = runner.invoke(
        main, ["macwilliams", "--direction", "forward", dist_file, "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc == {"n": 2, "m": 2, "K": "1", "A": ["1/4", "3/2", "9/4"]}


def test_macwilliams_round_trip_canonicalizes(runner, tmp_path):
    original = {"n": 3, "m": 2, "K": "2/4", "A": ["2/2", "0", "3", "5/10"]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(original))
    fwd = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path), "--format", "json"])
    assert fwd.exit_code == 0
    path2 = tmp_path / "dual.json"
    path2.write_text(fwd.output)
    back = runner.invoke(main, ["macwilliams", "--direction", "inverse", str(path2), "--format", "json"])
    assert back.exit_code == 0
    assert json.loads(back.output) == {"n": 3, "m": 2, "K": "1/2", "A": ["1", "0", "3", "1/2"]}


def test_macwilliams_round_trip_at_the_caps(runner, tmp_path):
    # The dual's denominators share the factor m^n, so their lcm (2,507
    # bits here) stays under the cap although their bit lengths add up to
    # 628,443.
    n, m = cli.MAX_N, cli.MAX_M
    A = [str(Fraction(i % 7, 1 + i % 5)) for i in range(n + 1)]
    path, dual = tmp_path / "d.json", tmp_path / "dual.json"
    path.write_text(json.dumps({"n": n, "m": m, "K": "3/7", "A": A}))
    fwd = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path), "--format", "json"])
    assert fwd.exit_code == 0, fwd.stderr
    dual.write_text(fwd.output)
    back = runner.invoke(main, ["macwilliams", "--direction", "inverse", str(dual), "--format", "json"])
    assert back.exit_code == 0, back.stderr
    assert json.loads(back.output) == {"n": n, "m": m, "K": "3/7", "A": A}


def test_macwilliams_missing_field_exits_2(runner, tmp_path):
    path = tmp_path / "nok.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "A": ["1", "0", "0"]}))
    result = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path)])
    assert result.exit_code == 2


def test_macwilliams_non_utf8_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    result = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot decode {path}: ")


def test_macwilliams_deeply_nested_json_exits_2(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    result = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path)])
    assert result.exit_code == 2
    assert result.stderr == _container_cap_error(path, 100_000)


@pytest.mark.parametrize("text, where", HUGE_DISTRIBUTIONS, ids=["n", "K"])
def test_macwilliams_integer_past_digit_limit_exits_2(runner, tmp_path, text, where):
    _assert_digit_cap_exit(runner, tmp_path, ["macwilliams", "--direction", "forward"], text, where)


@pytest.mark.parametrize(
    "args, text, where",
    [(["bound"], *case) for case in HUGE_WITNESSES]
    + [(["macwilliams", "--direction", "inverse"], *case) for case in HUGE_DISTRIBUTIONS]
    + [(["check", "--n", "5", "--K", HUGE, "--d", "3", "--m", "2"], "", "--K")],
    ids=["n", "S", "coeffs", "distribution_n", "K", "check_K"],
)
def test_integer_past_the_digit_cap_exits_2_with_the_limit_lifted(runner, tmp_path, args, text,
                                                                   where):
    # Without the cap, int() would read each of these, and a document's
    # parse and transform would grow with its digits.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _assert_digit_cap_exit(runner, tmp_path, args, text, where)
    finally:
        sys.set_int_max_str_digits(old)


def test_macwilliams_json_approx_adds_keys(runner, dist_file):
    args = ["macwilliams", "--direction", "forward", dist_file, "--format", "json"]
    plain = json.loads(runner.invoke(main, args).output)
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc.pop("K_approx") == "1"
    assert doc.pop("A_approx") == ["0.25", "1.5", "2.25"]
    assert doc == plain


def test_macwilliams_csv(runner, dist_file):
    result = runner.invoke(
        main, ["macwilliams", "--direction", "forward", dist_file, "--format", "csv"]
    )
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows == [["i", "value"], ["0", "1/4"], ["1", "3/2"], ["2", "9/4"]]


# --- check --------------------------------------------------------------


def test_check_equality_case(runner):
    result = runner.invoke(main, ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2"])
    assert result.exit_code == 0
    assert "hamming: satisfied with equality" in result.output
    assert "singleton: satisfied with equality" in result.output
    assert "n >= N: yes" in result.output


def test_check_violation_case(runner):
    result = runner.invoke(
        main, ["check", "--n", "5", "--K", "3", "--d", "3", "--m", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["hamming_satisfied"] is False
    assert doc["hamming_rhs"] == "2"
    assert doc["threshold"] == 5
    assert doc["n_at_or_beyond_threshold"] is True


def test_check_singleton_equality(runner):
    result = runner.invoke(
        main, ["check", "--n", "4", "--K", "1", "--d", "3", "--m", "2", "--format", "json"]
    )
    doc = json.loads(result.output)
    assert doc["singleton_rhs"] == "1"
    assert doc["singleton_equality"] is True
    assert doc["n_at_or_beyond_threshold"] is False


def test_check_csv_approx_adds_columns(runner):
    args = ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2", "--format", "csv"]
    plain = runner.invoke(main, args).output
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][-3:] == ["K_approx", "hamming_rhs_approx", "singleton_rhs_approx"]
    assert rows[1][-3:] == ["2", "2", "2"]
    assert [row[:-3] for row in rows] == list(csv.reader(io.StringIO(plain)))


def test_check_reports_proved_threshold(runner):
    # d=7 fails at n=13 and n0 = 14, so N = 14 and n = 13 lies below it.
    args = ["--K", "2", "--d", "7", "--m", "2"]
    below = runner.invoke(main, ["check", "--n", "13", *args])
    at = runner.invoke(main, ["check", "--n", "14", *args])
    assert below.exit_code == at.exit_code == 0
    for result in (below, at):
        assert "threshold N = 14 (horizon=14, stable_tail=true)" in result.stdout
    assert "n >= N: no;" in below.stdout
    assert "n >= N: yes;" in at.stdout


def test_check_bad_dimension_exits_2(runner):
    result = runner.invoke(main, ["check", "--n", "5", "--K", "x", "--d", "3", "--m", "2"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["check", "--n", "5", "--K", "0", "--d", "3", "--m", "2"])
    assert result.exit_code == 2


_SPACED = {"space": " 2", "newline": "2\n", "ideographic_space": "\u30002"}


# Arabic-Indic and fullwidth digits, and surrounding whitespace: int() reads
# them, the wire format does not.
@pytest.mark.parametrize("args, doc, text", [
    (["bound"], {"n": 1, "m": 2, "S": [0], "coeffs": ["1", "\u0661\u0662"]}, "\u0661\u0662"),
    (["macwilliams", "--direction", "forward"], {"n": 1, "m": 2, "K": "\uff11\uff12/7",
                                                 "A": ["1", "0"]}, "\uff11\uff12/7"),
    (["check", "--n", "5", "--K", "\u0662", "--d", "3", "--m", "2"], None, "\u0662"),
    *((["bound"], {"n": 1, "m": 2, "S": [0], "coeffs": ["1", text]}, text)
      for text in _SPACED.values()),
    *((["check", "--n", "5", "--K", text, "--d", "3", "--m", "2"], None, text)
      for text in _SPACED.values()),
], ids=["coeffs", "K", "check_K", *(f"coeffs_{k}" for k in _SPACED),
        *(f"check_K_{k}" for k in _SPACED)])
def test_non_ascii_digits_exit_2(runner, tmp_path, args, doc, text):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, args + [str(path)] if doc else args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: not a rational string: {text!r}\n"


# --- input caps -----------------------------------------------------------


def _capped_invocations(tmp_path, n, m, d, max_d, lcm_bits):
    """Every command with its capped inputs set to n, m, d, max_d and lcm_bits.

    The documents' denominators are 2^(lcm_bits - 1) and 1.
    """
    entries = [f"1/{2 ** (lcm_bits - 1)}"] + ["1"] * n
    witness, dist = tmp_path / "witness.json", tmp_path / "dist.json"
    witness.write_text(json.dumps({"n": n, "m": m, "S": [0], "coeffs": entries}))
    dist.write_text(json.dumps({"n": n, "m": m, "K": "1", "A": entries}))
    return [
        ["kraw", "--k", "1", "--x", "0", "--n", str(n), "--m", str(m)],
        ["threshold", "--d", str(d), "--m", str(m)],
        ["table1", "--max-d", str(max_d), "--m", str(m)],
        ["check", "--n", str(n), "--K", "2", "--d", str(d), "--m", str(m)],
        ["bound", str(witness)],
        ["macwilliams", "--direction", "forward", str(dist)],
    ]


@pytest.fixture()
def cheap_threshold(monkeypatch):
    """``find_threshold`` replaced by its answer at d = 1, recording each (d, m) asked."""
    asked = []

    def fake(d, m):
        asked.append((d, m))
        return hamming_witness.find_threshold(1, 2)

    monkeypatch.setattr(cli, "find_threshold", fake)
    return asked


def test_inputs_at_the_caps_are_accepted(runner, tmp_path, cheap_threshold):
    for args in _capped_invocations(tmp_path, cli.MAX_N, cli.MAX_M, cli.MAX_D, cli.MAX_TABLE1_D,
                                    cli.MAX_LCM_BITS):
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 3), (args, result.stderr)
    assert (cli.MAX_D, cli.MAX_M) in cheap_threshold
    assert (cli.MAX_TABLE1_D, cli.MAX_M) in cheap_threshold


@pytest.mark.parametrize("past", ["n", "m", "d", "max_d", "lcm_bits"])
def test_inputs_one_past_a_cap_exit_2_before_any_work(runner, tmp_path, cheap_threshold, past):
    caps = {"n": cli.MAX_N, "m": cli.MAX_M, "d": cli.MAX_D, "max_d": cli.MAX_TABLE1_D,
            "lcm_bits": cli.MAX_LCM_BITS}
    values = {"n": 5, "m": 2, "d": 3, "max_d": 3, "lcm_bits": 1, past: caps[past] + 1}
    takes = {"n": {"kraw", "check", "bound", "macwilliams"}, "m": set(cli.main.commands),
             "d": {"threshold", "check"}, "max_d": {"table1"},
             "lcm_bits": {"bound", "macwilliams"}}[past]
    for args in _capped_invocations(tmp_path, **values):
        result = runner.invoke(main, args)
        if args[0] in takes:
            assert result.exit_code == 2 and result.stdout == "", (args, result.output)
            assert f"must be at most {caps[past]} (input cap), got {caps[past] + 1}" in (
                result.stderr), args
        else:
            assert result.exit_code == 0, (args, result.output)
    assert all(d <= cli.MAX_D and m <= cli.MAX_M for d, m in cheap_threshold)


_BOUND = (["bound"], "coeffs", {"S": [0]})
_FORWARD = (["macwilliams", "--direction", "forward"], "A", {"K": "1"})


@pytest.mark.parametrize("n, m, count, named, cases", [
    (cli.MAX_N + 1, 2, cli.MAX_N + 2, f"field 'n' must be at most {cli.MAX_N}",
     [_BOUND, _FORWARD]),
    (5, cli.MAX_M + 1, 6, f"field 'm' must be at most {cli.MAX_M}", [_BOUND, _FORWARD]),
    (5, 2, cli.MAX_N + 2, f"length of field '{{key}}' must be at most {cli.MAX_N + 1}",
     [_BOUND, _FORWARD]),
    # duplicates in S are allowed, so only the cap bounds its length
    (5, 2, 6, f"length of field 'S' must be at most {cli.MAX_N + 1}",
     [(["bound"], "coeffs", {"S": [0] * (cli.MAX_N + 2)})]),
], ids=["n", "m", "entries", "S"])
def test_document_past_a_cap_exits_2_before_any_entry_is_parsed(
    runner, tmp_path, monkeypatch, n, m, count, named, cases
):
    def refuse(text):
        raise AssertionError("an entry was parsed")

    monkeypatch.setattr(lp_bound, "parse_rational", refuse)
    monkeypatch.setattr(enumerators, "parse_rational", refuse)
    for command, key, doc in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"n": n, "m": m, key: ["1"] * count, **doc}))
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 2 and result.stdout == "", (command, result.output)
        assert result.stderr.startswith(f"error: {named.format(key=key)} (input cap)"), command


@pytest.mark.parametrize("command, doc", [
    (["bound"], {"n": 1, "m": 2, "S": [0, 1], "coeffs": ["3", "1"]}),
    (["macwilliams", "--direction", "forward"], {"n": 2, "m": 2, "K": "1", "A": ["1", "0", "0"]}),
], ids=["bound", "macwilliams"])
def test_document_past_the_byte_cap_exits_2_unparsed(runner, tmp_path, monkeypatch, command, doc):
    # Padding makes a valid document exactly as long as the cap, then one byte longer.
    at_cap, past_cap = tmp_path / "at_cap.json", tmp_path / "past_cap.json"
    text = json.dumps(doc)
    at_cap.write_text(text.ljust(cli.MAX_DOC_BYTES))
    past_cap.write_text(text.ljust(cli.MAX_DOC_BYTES + 1))
    assert runner.invoke(main, [*command, str(at_cap)]).exit_code == 0

    def refuse(text):
        raise AssertionError("the document was parsed")

    monkeypatch.setattr(json, "loads", refuse)
    result = runner.invoke(main, [*command, str(past_cap)])
    assert result.exit_code == 2 and result.stdout == "", result.output
    assert result.stderr == (f"error: size of {past_cap} must be at most {cli.MAX_DOC_BYTES} "
                             "bytes (input cap)\n")


@pytest.mark.parametrize("command, doc", [
    (["bound"], {"n": 1, "m": 2, "S": [0, 1], "coeffs": ["3", "1"]}),
    (["macwilliams", "--direction", "forward"], {"n": 2, "m": 2, "K": "1", "A": ["1", "0", "0"]}),
], ids=["bound", "macwilliams"])
def test_document_past_the_container_cap_exits_2_unparsed(
    runner, tmp_path, monkeypatch, command, doc
):
    # A valid document whose extra key brings its '{' and '[' bytes to
    # exactly the cap runs; one more bracket is refused.
    text = json.dumps(doc)
    depth = cli.MAX_DOC_CONTAINERS - text.count("[") - text.count("{")
    at_cap, past_cap = tmp_path / "at_cap.json", tmp_path / "past_cap.json"
    at_cap.write_text(text[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}")
    past_cap.write_text(text[:-1] + ', "extra": ' + "[" * (depth + 1) + "]" * (depth + 1) + "}")
    assert runner.invoke(main, [*command, str(at_cap)]).exit_code == 0

    def refuse(text):
        raise AssertionError("the document was parsed")

    monkeypatch.setattr(json, "loads", refuse)
    # 2 MiB arrays of small containers, which parse to 69-114 MiB.
    bombs = [past_cap]
    for name, unit in [("nested20", "[" * 20 + "]" * 20), ("triple", "[[[]]]"), ("objects", "{}")]:
        bombs.append(tmp_path / f"{name}.json")
        count = (cli.MAX_DOC_BYTES - 2) // (len(unit) + 1)
        bombs[-1].write_text("[" + ",".join([unit] * count) + "]")
    for path in bombs:
        body = path.read_text()
        assert len(body) <= cli.MAX_DOC_BYTES
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 2 and result.stdout == "", (path, result.output)
        assert result.stderr == _container_cap_error(path, body.count("[") + body.count("{"))


def test_largest_document_within_the_caps_loads(tmp_path):
    # n and m at their caps, S = 0..250, and 251 entries with 4,300-digit
    # numerators (the int-string limit) over a 904-digit denominator of
    # 3,000 bits (the lcm cap), indented: 1,310,921 bytes.
    doc = {"n": cli.MAX_N, "m": cli.MAX_M, "S": list(range(cli.MAX_N + 1)),
           "coeffs": ["-" + "9" * 4300 + "/1" + "0" * 903] * (cli.MAX_N + 1)}
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc, indent=2))
    assert path.stat().st_size == 1_310_921 <= cli.MAX_DOC_BYTES
    assert cli._load_document(str(path)) == doc


# --- results past the int-string digit limit -----------------------------


@pytest.fixture()
def digit_limit():
    """Python's smallest int-string limit, 640 digits, so that short runs pass it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("args, doc, message", [
    (["bound"], '{"n": HUGE, "m": 2, "S": [0], "coeffs": ["1"]}', "cannot parse {path}"),
    (["macwilliams", "--direction", "forward"], '{"n": 1, "m": 2, "K": "1", "A": ["HUGE", "0"]}',
     "rational string out of range"),
    (["check", "--n", "5", "--K", "9" * 1000, "--d", "3", "--m", "2"], None,
     "rational string out of range"),
], ids=["n", "A", "check_K"])
def test_input_past_a_lowered_digit_limit_exits_2(runner, tmp_path, digit_limit, args, doc,
                                                  message):
    # 1,000 digits: within the digit cap, past the lowered int-string limit.
    path = tmp_path / "doc.json"
    if doc:
        path.write_text(doc.replace("HUGE", "9" * 1000))
    result = runner.invoke(main, args + [str(path)] if doc else args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith(f"error: {message.format(path=path)}: ")


def _assert_too_large(result):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: result too large to print: ")


def test_check_result_past_digit_limit_exits_2(runner, digit_limit):
    # At the caps n = 250, m = 1024: hamming_rhs = 2^2500 / 262143751 has a
    # 753-digit numerator.
    args = ["check", "--n", "250", "--K", "2", "--d", "3", "--m", "1024"]
    _assert_too_large(runner.invoke(main, args))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_threshold_result_past_digit_limit_exits_2(runner, digit_limit, fmt, monkeypatch):
    # Every threshold report within the caps prints, so lift the cap on m:
    # m = 10^250 makes hamming_rhs at n = 3 a 751-digit integer.
    monkeypatch.setattr(cli, "MAX_M", 10**250)
    args = ["threshold", "--d", "3", "--m", "1" + "0" * 250, "--format", fmt]
    _assert_too_large(runner.invoke(main, args))


def test_kraw_result_past_digit_limit_exits_2(runner, digit_limit):
    # At the caps: P_250(0) = 1048575^250 has 1,506 digits.
    args = ["kraw", "--k", "250", "--x", "0", "--n", "250", "--m", "1024", "--approx"]
    _assert_too_large(runner.invoke(main, args))


def test_bound_ratio_past_digit_limit_exits_2(runner, digit_limit, tmp_path):
    # Coefficients A/B and 1/D of about 400 digits each give the ratio
    # f(0)/f_0 = (AD + 3B)/(AD), 800 digits over 800.
    A, B, D = 10**400 + 1, 10**400 + 3, 10**399 + 7
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"n": 1, "m": 2, "S": [0, 1], "coeffs": [f"{A}/{B}", f"1/{D}"]}))
    for fmt in ("text", "json", "csv"):
        _assert_too_large(runner.invoke(main, ["bound", str(path), "--format", fmt]))


# --- cross-cutting ------------------------------------------------------


def test_readme_flags_are_cli_options():
    # Every documented flag must exist; pip's flag is the one exception.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    commands = [main, *main.commands.values()]
    options = {o for c in commands for p in c.params for o in p.opts + p.secondary_opts}
    assert documented - options == {"--no-build-isolation"}


def test_readme_caps_table_matches_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Input caps", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| ([^|]+?) \| [^|]+ \| ([\d,]+) \|", section, re.M)
    assert {name: int(cap.replace(",", "")) for name, cap in rows} == {
        "`--n`, document `n`": cli.MAX_N,
        "`--m`, document `m`": cli.MAX_M,
        "`--d`": cli.MAX_D,
        "`--max-d`": cli.MAX_TABLE1_D,
        "length of each array in a document (`S`, `coeffs`, `A`)": cli.MAX_N + 1,
        "bit length of the lcm of a document's denominators": cli.MAX_LCM_BITS,
        "size of a document file, in bytes": cli.MAX_DOC_BYTES,
        "bytes `{` and `[` in a document file": cli.MAX_DOC_CONTAINERS,
        "digits of an integer in a document (`n`, `m`, `S`, and each numerator and denominator"
        " in `coeffs`, `A` and `K`) or in `--K`": cli.MAX_DIGITS,
    }


def test_threshold_commands_take_only_their_inputs():
    # The certified n0 is the only scan range, so no option sets one.
    names = {c: {p.name for p in main.commands[c].params} for c in ("threshold", "table1", "check")}
    assert names == {
        "threshold": {"d", "m", "fmt", "approx"},
        "table1": {"max_d", "m", "fmt", "approx"},
        "check": {"n", "dim", "d", "m", "fmt", "approx"},
    }


def test_version_option(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output



def test_outputs_are_deterministic(runner, witness_file):
    args = ["bound", witness_file, "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_json_outputs_reparse(runner, witness_file, dist_file):
    for args in (
        ["kraw", "--k", "2", "--x", "1", "--n", "6", "--m", "3", "--format", "json"],
        ["bound", witness_file, "--format", "json"],
        ["threshold", "--d", "3", "--m", "2", "--format", "json"],
        ["table1", "--max-d", "3", "--m", "2", "--format", "json"],
        ["macwilliams", "--direction", "forward", dist_file, "--format", "json"],
        ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2", "--format", "json"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, args
        json.loads(result.output)
