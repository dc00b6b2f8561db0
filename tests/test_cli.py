import csv
import io
import json

import pytest
from click.testing import CliRunner

from qhamming import lp_bound
from qhamming.cli import main
from qhamming.hamming_witness import WitnessSpec, witness_coeffs
from qhamming.krawtchouk import KrawParams
from qhamming.lp_bound import witness_to_dict


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def witness_file(tmp_path):
    spec = WitnessSpec(3, KrawParams(5, 2))
    doc = witness_to_dict(witness_coeffs(spec), spec.index_set)
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
    doc = {"n": 3, "m": 2, "S": [0], "coeffs": ["1", "0", "0", "0"]}
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["bound", str(path)])
    assert result.exit_code == 3
    assert "FAILED" in result.output
    assert "t=1,2,3" in result.output


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


def test_bound_missing_file_exits_2(runner):
    result = runner.invoke(main, ["bound", "/nonexistent/w.json"])
    assert result.exit_code == 2


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
    assert rows[0][-2:] == ["ratio_approx", "bound_approx"]
    assert rows[1][-2:] == ["64", "2"]
    assert [row[:-2] for row in rows] == list(csv.reader(io.StringIO(plain.output)))


# --- threshold ----------------------------------------------------------


def test_threshold_known_values(runner):
    result = runner.invoke(main, ["threshold", "--d", "5", "--m", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["threshold"] == 9
    assert doc["stable_tail"] is True
    assert doc["horizon"] == 100

    result = runner.invoke(main, ["threshold", "--d", "6", "--m", "2", "--format", "json"])
    assert json.loads(result.output)["threshold"] == 9


def test_threshold_horizon_below_distance_exits_2(runner):
    result = runner.invoke(main, ["threshold", "--d", "3", "--m", "2", "--horizon", "2"])
    assert result.exit_code == 2


def test_threshold_exhausted_horizon_exits_4(runner):
    result = runner.invoke(main, ["threshold", "--d", "3", "--m", "2", "--horizon", "4"])
    assert result.exit_code == 4


def test_threshold_unstable_tail_exits_4_with_report(runner):
    result = runner.invoke(main, ["threshold", "--d", "7", "--m", "2", "--horizon", "14"])
    assert result.exit_code == 4
    assert "threshold N = 14" in result.output
    assert "stable_tail = false" in result.output


def test_threshold_csv_one_row_per_length(runner):
    result = runner.invoke(
        main,
        ["threshold", "--d", "3", "--m", "2", "--horizon", "20", "--format", "csv"],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "pass", "argmax_t", "bound", "hamming_rhs"]
    assert len(rows) == 1 + 18  # header + n = 3..20
    assert rows[1] == ["3", "false", "2", "4", "4/5"]
    assert rows[3] == ["5", "true", "0", "2", "2"]


def test_threshold_json_approx_adds_keys(runner):
    args = ["threshold", "--d", "3", "--m", "2", "--horizon", "20", "--format", "json"]
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
    args = ["threshold", "--d", "3", "--m", "2", "--horizon", "20", "--format", "csv"]
    plain = runner.invoke(main, args).output
    result = runner.invoke(main, args + ["--approx"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][-2:] == ["bound_approx", "hamming_rhs_approx"]
    assert rows[1] == ["3", "false", "2", "4", "4/5", "4", "0.8"]
    assert [row[:-2] for row in rows] == list(csv.reader(io.StringIO(plain)))


# --- table1 -------------------------------------------------------------


def test_table1_binary_reference(runner):
    result = runner.invoke(
        main, ["table1", "--max-d", "15", "--m", "2", "--horizon", "100"]
    )
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


def test_macwilliams_missing_field_exits_2(runner, tmp_path):
    path = tmp_path / "nok.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "A": ["1", "0", "0"]}))
    result = runner.invoke(main, ["macwilliams", "--direction", "forward", str(path)])
    assert result.exit_code == 2


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
    assert rows[0][-2:] == ["hamming_rhs_approx", "singleton_rhs_approx"]
    assert rows[1][-2:] == ["2", "2"]
    assert [row[:-2] for row in rows] == list(csv.reader(io.StringIO(plain)))


def test_check_bad_dimension_exits_2(runner):
    result = runner.invoke(main, ["check", "--n", "5", "--K", "x", "--d", "3", "--m", "2"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["check", "--n", "5", "--K", "0", "--d", "3", "--m", "2"])
    assert result.exit_code == 2


# --- cross-cutting ------------------------------------------------------


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
        ["threshold", "--d", "3", "--m", "2", "--horizon", "30", "--format", "json"],
        ["table1", "--max-d", "3", "--m", "2", "--horizon", "30", "--format", "json"],
        ["macwilliams", "--direction", "forward", dist_file, "--format", "json"],
        ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2", "--format", "json"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, args
        json.loads(result.output)
