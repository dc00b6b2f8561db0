"""Run a list of qhamming CLI invocations in this process, optionally traced.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds {"trace": bool, "ops": [{"args": [...], "save": path|null}]}.
Each op runs through click's test runner, timed with ``perf_counter``.
When ``save`` is set and the op succeeds, its standard output is written
to that path, outside the timed region, so that a later op can read it.

With tracing on, the public functions listed in ``TARGETS`` are wrapped
in every ``qhamming`` module that holds a reference to them, and each call
records a span (name, start, end, parent span, rows).  The spans stay in
memory and go into RESULT.json when the ops are done.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches a method.
TARGETS = [
    ("qhamming.krawtchouk", "kraw_table", "krawtchouk.kraw_table"),
    ("qhamming.hamming_witness", "find_threshold", "hamming_witness.find_threshold"),
    ("qhamming.hamming_witness", "check_n", "hamming_witness.check_n"),
    ("qhamming.hamming_witness", "witness_coeffs", "hamming_witness.witness_coeffs"),
    ("qhamming.hamming_witness", "hamming_rhs", "hamming_witness.hamming_rhs"),
    ("qhamming.hamming_witness", "ThresholdReport.to_dict", "hamming_witness.report_to_dict"),
    ("qhamming.lp_bound", "dimension_bound", "lp_bound.dimension_bound"),
    ("qhamming.lp_bound", "check_conditions", "lp_bound.check_conditions"),
    ("qhamming.lp_bound", "witness_from_dict", "lp_bound.witness_from_dict"),
    ("qhamming.enumerators", "distribution_from_dict", "enumerators.distribution_from_dict"),
    ("qhamming.enumerators", "mw_forward", "enumerators.mw_forward"),
    ("qhamming.enumerators", "mw_inverse", "enumerators.mw_inverse"),
    ("qhamming.enumerators", "distribution_to_dict", "enumerators.distribution_to_dict"),
]


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Wraps library functions; spans are [name, start, end, parent, rows]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, rows=None) -> None:
        self.spans[idx][2] = perf_counter()
        self.spans[idx][4] = rows
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rows = getattr(out, "per_n", None)
                self.close(idx, None if rows is None else len(rows))

        return traced

    def install(self) -> None:
        # A target missing from the package is skipped; its metrics read 0.
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "qhamming" or name.startswith("qhamming.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self.wrap(vars(cls)[meth], name))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from click.testing import CliRunner

    from qhamming import cli

    rss_import = rss_mb()
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    runner = CliRunner()
    results = []
    for op in job["ops"]:
        idx = tracer.open("cli") if tracer is not None else None
        start = perf_counter()
        res = runner.invoke(cli.main, op["args"])
        end = perf_counter()
        if tracer is not None:
            tracer.close(idx)
        if op.get("save") and res.exit_code == 0:
            with open(op["save"], "w", encoding="utf-8") as handle:
                handle.write(res.stdout)
        results.append({
            "start": start,
            "end": end,
            "exit": res.exit_code,
            "stdout": res.stdout,
            "error": None if res.exception is None or isinstance(res.exception, SystemExit)
            else repr(res.exception),
        })
    out = {
        "module": cli.__file__,
        "ops": results,
        "rss_import_mb": rss_import,
        "rss_end_mb": rss_mb(),
        "spans": None if tracer is None else tracer.spans,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
