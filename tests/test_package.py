"""The package's public surface: its export list, the README's library example,
the records' contract, the modules a process loads, what a real process prints,
and the exact arithmetic of its source."""
import ast
import copy
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import qhamming
from qhamming.cli import main
from qhamming.enumerators import WeightDistribution
from qhamming.hamming_witness import NVerdict, ThresholdReport, witness_coeffs
from qhamming.krawtchouk import KrawParams
from qhamming.lp_bound import BoundReport, KBasisPoly

from oracles import witness_to_dict

SRC = Path(__file__).parents[1] / "src"


def test_all_lists_every_public_name():
    # Names are resolved on first access, so vars() holds them only after this.
    namespace = {}
    exec("from qhamming import *", namespace)
    public = {name for name, value in vars(qhamming).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(qhamming.__all__) == len(set(qhamming.__all__))
    assert set(qhamming.__all__) == public | {"__version__"}
    assert set(namespace) - {"__builtins__"} == set(qhamming.__all__)


def test_readme_library_example_runs_as_documented():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["kraw_eval"](1, 2, namespace["p"]) == 7
    report = namespace["report"]
    assert report.bound == Fraction(2) == qhamming.hamming_rhs(5, 3, 2)
    assert namespace["find_threshold"](3, 2).threshold == 5


def test_readme_modules_name_every_export():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nModules:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = dict(re.findall(r"^- `qhamming\.(\w+)` - (.*?)(?=\n- |\Z)", section, re.M | re.S))
    missing = [(module, name) for name, module in qhamming._SUBMODULE.items()
               if not re.search(rf"`{name}[`(]", bullets.get(module, ""))]
    assert missing == []


_RECORDS = [
    (KrawParams, {"n": 5, "m": 2}),
    (KBasisPoly, {"params": KrawParams(2, 2), "coeffs": (Fraction(1, 2), 0, Fraction(-3))}),
    (WeightDistribution, {"params": KrawParams(2, 2), "K": Fraction(2),
                          "entries": (Fraction(1), Fraction(0), Fraction(3, 2))}),
    (BoundReport, {"bound": Fraction(2), "argmax_t": 0, "ratios": ((0, Fraction(64)),)}),
    (NVerdict, {"n": 3, "passed": False, "argmax_t": None, "bound": None,
                "hamming": Fraction(4, 5)}),
    (ThresholdReport, {"d": 3, "m": 2, "horizon": 5, "threshold": 5,
                       "per_n": (NVerdict(5, True, 0, Fraction(2), Fraction(2)),)}),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_immutable_values(cls, fields):
    record = cls(*fields.values())
    twin = cls(*copy.deepcopy(list(fields.values())))
    assert record == twin and hash(record) == hash(twin)
    assert cls(**fields) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package under ``src``, its stdout buffered."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, env={**env, "PYTHONPATH": path})


def test_import_loads_no_submodule():
    proc = _python("-c", "import sys, qhamming; "
                         "print(sorted(m for m in sys.modules if m.startswith('qhamming.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_dir_lists_every_export_before_first_use():
    proc = _python("-c", "import sys, qhamming; "
                         "print([n for n in qhamming.__all__ if dir(qhamming).count(n) != 1]); "
                         "print(sorted(m for m in sys.modules if m.startswith('qhamming.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


@pytest.mark.parametrize("args", [["threshold", "--d", "5", "--m", "2", "--format", "json"],
                                  ["table1", "--max-d", "7", "--m", "2"]],
                         ids=["threshold", "table1"])
def test_scan_process_loads_no_witness_file_engine(args):
    proc = _python("-X", "importtime", "-m", "qhamming", *args)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "qhamming.hamming_witness" in loaded
    assert not loaded & {"qhamming.lp_bound", "qhamming.enumerators", "csv"}
    assert proc.stdout == CliRunner().invoke(main, args).stdout


@pytest.mark.parametrize("args", [["bound", "{tmp}/witness.json", "--format", "json"],
                                  ["macwilliams", "--direction", "forward", "{tmp}/dist.json",
                                   "--format", "json"]],
                         ids=["bound", "macwilliams"])
def test_document_process_prints_what_the_runner_prints(args, tmp_path):
    (tmp_path / "witness.json").write_text(json.dumps(witness_to_dict(*witness_coeffs(9, 5, 3))))
    (tmp_path / "dist.json").write_text(json.dumps({"n": 3, "m": 2, "K": "3/2",
                                                    "A": ["1", "1/3", "0", "5/2"]}))
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    proc = _python("-m", "qhamming", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CliRunner().invoke(main, args).stdout


def test_closed_stdout_exits_1():
    # the output is flushed inside the command, where click turns a broken pipe into exit 1
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "qhamming", "threshold", "--d", "5", "--m", "2", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_source_uses_no_floating_point():
    # Verdicts are exact: no float or complex literal, no float(), no
    # cmath or statistics, and from math only the three integer helpers
    # in use.  approx_decimal's Decimal only prints.
    allowed = {"comb", "lcm", "floor"}
    found = []
    for path in sorted((SRC / "qhamming").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant):
                bad = isinstance(node.value, (float, complex))
            elif isinstance(node, ast.Name):
                bad = node.id == "float"
            elif isinstance(node, ast.Import):
                bad = any(a.name in ("cmath", "statistics") or a.name == "math" and a.asname
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module in ("cmath", "statistics") or (
                    node.module == "math" and any(a.name not in allowed for a in node.names))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bad = node.value.id == "math" and node.attr not in allowed
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
