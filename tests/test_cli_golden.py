"""Golden outputs of the CLI: every subcommand, format and ``--approx`` setting.

Each entry of ``golden/cli.json`` holds the arguments of one invocation and
the stdout, stderr and exit code it produced.  Input files are written to a
temporary directory whose path appears as ``{tmp}`` in the arguments and in
stderr.  Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py

which prints one line for each argument set whose entries changed.
"""
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from qhamming.cli import main
from qhamming.exceptions import SchemaError
from qhamming.hamming_witness import witness_coeffs
from qhamming.lp_bound import KBasisPoly
from qhamming.rational import parse_rational

from oracles import witness_to_dict

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

_BASE = [
    ["kraw", "--k", "1", "--x", "2", "--n", "5", "--m", "2"],
    ["kraw", "--k", "3", "--x", "1", "--n", "7", "--m", "3"],
    ["kraw", "--k", "9", "--x", "0", "--n", "5", "--m", "2"],
    ["bound", "{tmp}/witness_d3.json"],
    ["bound", "{tmp}/witness_d5_scaled.json"],
    ["bound", "{tmp}/witness_d5_broken.json"],
    ["bound", "{tmp}/malformed.json"],
    ["threshold", "--d", "5", "--m", "2"],
    ["threshold", "--d", "4", "--m", "3"],
    ["threshold", "--d", "9", "--m", "2"],
    ["table1", "--max-d", "7", "--m", "2"],
    ["table1", "--max-d", "5", "--m", "3"],
    ["table1", "--max-d", "9", "--m", "2"],
    ["macwilliams", "--direction", "forward", "{tmp}/dist.json"],
    ["macwilliams", "--direction", "inverse", "{tmp}/dist.json"],
    ["check", "--n", "5", "--K", "2", "--d", "3", "--m", "2"],
    ["check", "--n", "7", "--K", "5/3", "--d", "3", "--m", "2"],
    ["check", "--n", "33", "--K", "2", "--d", "21", "--m", "5"],
    ["check", "--n", "5", "--K", "0", "--d", "3", "--m", "2"],
    ["table1", "--max-d", "0", "--m", "2"],
    ["threshold", "--d", "102", "--m", "2"],
    ["bound", "{tmp}/not_utf8.json"],
]


def variants(base: list) -> list:
    """``base`` in each format, with and without ``--approx``."""
    return [
        base + ["--format", fmt] + (["--approx"] if approx else [])
        for fmt in ("text", "json", "csv")
        for approx in (False, True)
    ]


GRID = [args for base in _BASE for args in variants(base)]


def write_inputs(directory: Path) -> None:
    docs = {"witness_d3.json": witness_to_dict(*witness_coeffs(5, 3, 2))}
    f, S = witness_coeffs(9, 5, 3)
    scaled = [Fraction(c, 7) for c in f.coeffs]
    docs["witness_d5_scaled.json"] = witness_to_dict(KBasisPoly(f.params, tuple(scaled)), S)
    scaled[1], scaled[6] = Fraction(0), Fraction(-3, 7)
    docs["witness_d5_broken.json"] = witness_to_dict(KBasisPoly(f.params, tuple(scaled)), S)
    docs["dist.json"] = {"n": 3, "m": 2, "K": "3/2", "A": ["1", "1/3", "0", "5/2"]}
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))
    (directory / "malformed.json").write_text("{not json")
    (directory / "not_utf8.json").write_bytes(b"\xff")


def run(args: list, directory: Path) -> dict:
    tmp = str(directory)
    result = CliRunner().invoke(main, [a.replace("{tmp}", tmp) for a in args])
    return {
        "args": args,
        "stdout": result.stdout,
        "stderr": result.stderr.replace(tmp, "{tmp}"),
        "exit": result.exit_code,
    }


def _golden() -> dict:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(e["args"]): e for e in entries}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(" ".join(args) for args in GRID)


@pytest.mark.parametrize("args", GRID, ids=" ".join)
def test_golden_output(args, inputs):
    assert run(args, inputs) == _golden()[" ".join(args)]


def _is_rational(value) -> bool:
    """A rational string, or a nonempty list of them."""
    if isinstance(value, list):
        return bool(value) and all(map(_is_rational, value))
    try:
        parse_rational(value)
    except SchemaError:
        return False
    return True


def _without_approx(value) -> list:
    """Keys, at any depth of ``value``, of a rational with no ``<key>_approx`` sibling."""
    if isinstance(value, list):
        return [key for v in value for key in _without_approx(v)]
    if not isinstance(value, dict):
        return []
    missing = [k for k, v in value.items()
               if not k.endswith("_approx") and _is_rational(v) and f"{k}_approx" not in value]
    return missing + _without_approx(list(value.values()))


def test_json_approx_covers_every_rational():
    entries = [e for e in _golden().values() if e["args"][-3:] == ["--format", "json", "--approx"]]
    assert len(entries) == len(_BASE)
    missing = {" ".join(e["args"]): _without_approx(json.loads(e["stdout"]))
               for e in entries if e["stdout"]}
    assert {args: keys for args, keys in missing.items() if keys} == {}


if __name__ == "__main__":
    old = _golden() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        entries = [run(args, Path(tmp)) for args in GRID]
    new = {" ".join(e["args"]): e for e in entries}
    for base in _BASE:
        keys = [" ".join(args) for args in variants(base)]
        fields = [{k for k, v in new[key].items() if old.get(key, {}).get(k) != v} for key in keys]
        changed = [f for f in fields if f]
        if changed:
            print(f"{' '.join(base)}: {len(changed)} of {len(keys)} entries changed "
                  f"({', '.join(sorted(set().union(*changed)))})")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
