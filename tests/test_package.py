"""The package's public surface: its export list and the README's library example."""
import re
import types
from fractions import Fraction
from pathlib import Path

import qhamming


def test_all_lists_every_public_name():
    public = {name for name, value in vars(qhamming).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(qhamming.__all__) == len(set(qhamming.__all__))
    assert set(qhamming.__all__) == public | {"__version__"}
    namespace = {}
    exec("from qhamming import *", namespace)
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
