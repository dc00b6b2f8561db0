"""Benchmark for the qhamming CLI: three workloads, timed from outside.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload threshold-scan --seed 1 --seconds 25 --trace 0

Workloads (closed loop: each operation starts when the previous one ends):

  threshold-scan  ``threshold --d 25 --m {2,5} --format json``, a fresh process each
  table1-sweep    ``table1 --max-d 15 --m {2,3} --format json``, a fresh process each
  witness-files   seeded ``bound`` and ``macwilliams`` documents, all run in one
                  process through click's test runner

One round runs every operation of the workload once; the run repeats whole
rounds until ``--seconds`` have passed.  Every output is checked against the
paper's table and against ``oracle``, after the timed rounds.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

With ``--trace 0`` the metrics are end to end, each operation counting at
its best time over the rounds: wall_s (one round's operations), op_p50_ms and
op_p90_ms (over a round's operations), setup_s (median of fresh-interpreter
imports of qhamming.cli, spread over the run) and peak_rss_mb (largest
resident set of any process that ran an operation).  With ``--trace 1`` the
same rounds run with the library's public functions wrapped in spans (see
``worker.py``), and the metrics are per layer, each the median over rounds
of its per-round total.  README.md gives the definitions and the reasons.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("threshold-scan", "table1-sweep", "witness-files")
# Import samples for setup_s: a block before the first round, then more
# after every op of a scan and after every witness-files round, so that
# they spread over the run.
SETUP_FIRST, SETUP_PER_SCAN_OP, SETUP_PER_WITNESS_ROUND = 6, 2, 4
RUN_LIMIT_S = 140.0  # no new round starts after this ...
KILL_AT_S = 165.0    # ... and an op still running now is killed, so a run ends within 180 s
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qhamming.cli as c\n"
    "print(time.perf_counter() - t, c.__file__)\n"
)

LAYER_TIMES = [name for _, _, name in worker.TARGETS]
LAYER_CALLS = [
    "krawtchouk.kraw_table", "hamming_witness.find_threshold", "hamming_witness.check_n",
    "lp_bound.dimension_bound",
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, stdout_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one process to its end; return (exit code, seconds, peak RSS in MiB).

    Polls with ``wait4`` so the child's own peak RSS is read; a child still
    running at ``deadline`` is killed and reported with exit code -9.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def measure_setup(count: int, warm: bool) -> list[float]:
    """``count`` fresh-interpreter import times of qhamming.cli.

    Without ``warm`` one more import runs first and is discarded: it may
    compile the byte code of a fresh checkout.
    """
    samples = []
    for i in range(count + (not warm)):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import qhamming.cli from {SRC}:\n{proc.stderr}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"qhamming.cli was imported from {path.strip()}, not from {SRC}")
        if warm or i:
            samples.append(float(seconds))
    return samples


class Run:
    """State of one benchmark run: ops, timings, outputs and spans per round."""

    def __init__(self, workload: str, seed: int, trace: bool, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.rounds: list[dict] = []
        self.setup: list[float] = [] if trace else measure_setup(SETUP_FIRST, warm=False)
        self.witness_ops = (workloads.witness_files(seed, workdir)
                            if workload == "witness-files" else None)

    def probe(self, count: int) -> None:
        if not self.trace:
            self.setup += measure_setup(count, warm=True)

    def worker(self, ops: list, tag: str) -> tuple[dict | None, float, float]:
        """Run ops in one worker process; return (its result or None, seconds, MiB)."""
        job = self.workdir / f"job-{tag}.json"
        result = self.workdir / f"result-{tag}.json"
        job.write_text(json.dumps({"trace": self.trace, "ops": [
            {"args": op["args"], "save": op.get("save")} for op in ops]}))
        code, elapsed, rss = spawn([sys.executable, str(HERE / "worker.py"), str(job),
                                    str(result)], self.workdir / f"stdout-{tag}.txt",
                                   START + KILL_AT_S)
        if code != 0:
            return None, elapsed, rss
        res = json.loads(result.read_text())
        if not Path(res["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"qhamming.cli was imported from {res['module']}, not from {SRC}")
        return res, elapsed, rss

    def scan_round(self, r: int) -> dict:
        ops = workloads.THRESHOLD_OPS if self.workload == "threshold-scan" else workloads.TABLE1_OPS
        rnd = {"ops": [], "rss": [], "spans": [], "retained_mb": []}
        for k, args in enumerate(workloads.round_order(ops, self.seed, r)):
            tag = f"r{r}-{k}"
            if self.trace:
                res, elapsed, rss = self.worker([{"args": args}], tag)
                ok = res is not None and res["ops"][0]["exit"] == 0
                stdout = res["ops"][0]["stdout"] if ok else None
                if res is not None:
                    rnd["spans"].append(res["spans"])
                    rnd["retained_mb"].append(res["rss_end_mb"] - res["rss_import_mb"])
            else:
                path = self.workdir / f"out-{tag}.json"
                code, elapsed, rss = spawn([sys.executable, "-m", "qhamming", *args], path,
                                           START + KILL_AT_S)
                ok = code == 0
                stdout = path.read_text() if ok else None
            rnd["ops"].append({"key": " ".join(args), "args": args, "seconds": elapsed,
                               "ok": ok, "stdout": stdout})
            rnd["rss"].append(rss)
            self.probe(SETUP_PER_SCAN_OP)
        return rnd

    def witness_round(self, r: int) -> dict:
        ops = self.witness_ops
        res, elapsed, rss = self.worker(ops, f"r{r}")
        rnd = {"ops": [], "rss": [rss], "spans": [], "retained_mb": []}
        if res is None:
            rnd["ops"] = [{"key": k, "seconds": elapsed / len(ops), "ok": False, "stdout": None}
                          for k in range(len(ops))]
            return rnd
        for k, (op, out) in enumerate(zip(ops, res["ops"])):
            ok = out["exit"] == op["expect"].get("exit", 0) and out["error"] is None
            rnd["ops"].append({"key": k, "seconds": out["end"] - out["start"], "ok": ok,
                               "stdout": out["stdout"] if ok else None})
        if self.trace:
            rnd["spans"].append(res["spans"])
            rnd["retained_mb"].append(res["rss_end_mb"] - res["rss_import_mb"])
        self.probe(SETUP_PER_WITNESS_ROUND)
        return rnd

    def measure(self, seconds: int) -> None:
        start = time.perf_counter()
        while not self.rounds or (time.perf_counter() - start < seconds
                                  and time.perf_counter() - START < RUN_LIMIT_S):
            r = len(self.rounds)
            rnd = self.witness_round(r) if self.witness_ops else self.scan_round(r)
            self.rounds.append(rnd)
            if not all(op["ok"] for op in rnd["ops"]):
                break

    def check(self) -> list[str]:
        problems = oracle.self_test()
        witness = workloads.WitnessChecker() if self.witness_ops else None
        scan = workloads.ScanChecker()
        for rnd in self.rounds:
            for key, out in enumerate(rnd["ops"]):
                if not out["ok"]:
                    continue
                try:
                    if witness is not None:
                        problems += witness.check(key, self.witness_ops[key], out["stdout"])
                    else:
                        problems += scan.check(out["args"], out["stdout"])
                except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
                    problems.append(f"op {out['key']}: output not in the documented form: {exc!r}")
        return problems


def op_times(run: Run) -> dict:
    """Each op's times over the rounds of the run, in seconds."""
    times: dict = {}
    for rnd in run.rounds:
        for op in rnd["ops"]:
            times.setdefault(str(op["key"]), []).append(op["seconds"])
    return times


def best_times(run: Run) -> list[float]:
    # Each op counts at its best time over the rounds.  The host's speed
    # swings between a fast and a slow state within a second; a median
    # over a few rounds follows the share of the run spent in the slow
    # state, while the best of them repeats much more closely.
    return [min(v) for v in op_times(run).values()]


def end_to_end(run: Run) -> dict:
    best = best_times(run)
    deciles = statistics.quantiles([t * 1000 for t in best], n=10, method="inclusive")
    return {
        "wall_s": (sum(best), "s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (max(rss for rnd in run.rounds for rss in rnd["rss"]), "MiB"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
    }


def layer_totals(span_lists: list) -> dict:
    """Per-name calls and busy seconds, rows scanned, and cli self time."""
    calls: dict = {}
    busy: dict = {}
    rows = 0
    cli_children = 0.0
    for spans in span_lists:
        for name, start, end, parent, nrows in spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            if nrows is not None and name == "hamming_witness.find_threshold":
                rows += nrows
            if parent >= 0 and spans[parent][0] == "cli":
                cli_children += end - start
    return {"calls": calls, "busy": busy, "rows": rows, "cli_children": cli_children}


def per_layer(run: Run) -> dict:
    per_round = []
    for rnd in run.rounds:
        t = layer_totals(rnd["spans"])
        m = {f"{name}.busy_s": (t["busy"].get(name, 0.0), "s") for name in LAYER_TIMES}
        m.update({f"{name}.calls": (t["calls"].get(name, 0), "count") for name in LAYER_CALLS})
        m["hamming_witness.find_threshold.lengths_scanned"] = (t["rows"], "count")
        cli_busy = t["busy"].get("cli", 0.0)
        m["cli.busy_s"] = (cli_busy, "s")
        m["cli.self_s"] = (cli_busy - t["cli_children"], "s")
        m["process.retained_mb"] = (max(rnd["retained_mb"], default=0.0), "MiB")
        per_round.append(m)
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    # Same definition as the untraced wall_s, so the difference is the
    # tracing overhead.
    metrics["trace.wall_s"] = (sum(best_times(run)), "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qhamming" / "cli.py").is_file():
        print(f"error: no qhamming source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, bool(args.trace), workdir)
        run.measure(args.seconds)
        problems = run.check()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run)
    attempted = sum(len(rnd["ops"]) for rnd in run.rounds)
    failed = sum(not op["ok"] for rnd in run.rounds for op in rnd["ops"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(result, rounds=len(run.rounds), setup_samples=run.setup, problems=problems,
             op_seconds=op_times(run)), indent=1))
    if args.trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(
            [rnd["spans"] for rnd in run.rounds]))

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(run.rounds)}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  correct {not problems}")
    for line in problems[:20]:
        print(f"  problem: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
