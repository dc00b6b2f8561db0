"""Seeded inputs for each workload and the checks of their outputs.

Checks read only the fields they need, so an output that gains a field
(a ``meta`` block, a ``certified`` flag) still passes.  Expected values
come from ``oracle`` and from the paper's table, never from a stored
copy of an earlier output.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

THRESHOLD_OPS = [["threshold", "--d", "25", "--m", str(m), "--format", "json"] for m in (2, 5)]
TABLE1_OPS = [["table1", "--max-d", "15", "--m", str(m), "--format", "json"] for m in (2, 3)]

# witness-files: the sizes (n, m, e) of the documents are fixed, so every
# seed asks for the same work; the seed draws the rational entries, the
# perturbations, the spot checks and the order of the ops.
WITNESS_DOCS = 50        # bound documents; every PERTURBED_EVERY-th is perturbed
PERTURBED_EVERY = 5
DIST_DOCS = 50           # each one is a forward op followed by an inverse op
N_RANGE = (20, 120)
M_CHOICES = (2, 3, 4, 5)


def round_order(ops: list, seed: int, round_no: int) -> list:
    """The scan ops of one round, in an order drawn from the seed."""
    order = list(ops)
    random.Random(seed * 1000 + round_no).shuffle(order)
    return order


# --- threshold-scan and table1-sweep -------------------------------------


class ScanChecker:
    """Checks threshold reports and table rows; caches oracle verdicts."""

    def __init__(self) -> None:
        self._passes: dict = {}

    def _oracle_passes(self, n: int, d: int, m: int) -> bool:
        key = (n, d, m)
        if key not in self._passes:
            self._passes[key] = oracle.passes(n, d, m)
        return self._passes[key]

    def threshold_value(self, d: int, m: int, N) -> list[str]:
        """N must be minimal for the oracle: fail at N-1, pass at N."""
        where = f"d={d} m={m}"
        if not isinstance(N, int) or N < d:
            return [f"{where}: threshold {N!r} is not an integer >= d"]
        problems = []
        if m == 2 and d in oracle.PAPER_TABLE_M2 and N != oracle.PAPER_TABLE_M2[d]:
            problems.append(f"{where}: threshold {N}, paper gives {oracle.PAPER_TABLE_M2[d]}")
        if not self._oracle_passes(N, d, m):
            problems.append(f"{where}: oracle says n={N} fails")
        if N - 1 >= d and self._oracle_passes(N - 1, d, m):
            problems.append(f"{where}: oracle says n={N - 1} passes, so {N} is not minimal")
        return problems

    def threshold_report(self, args: list, text: str) -> list[str]:
        d, m = int(args[2]), int(args[4])
        doc = json.loads(text)
        where = f"threshold d={d} m={m}"
        if doc.get("d") != d or doc.get("m") != m:
            return [f"{where}: report is for d={doc.get('d')} m={doc.get('m')}"]
        rows = doc["per_n"]
        if [r["n"] for r in rows] != list(range(d, doc["horizon"] + 1)):
            return [f"{where}: rows do not cover n = {d}..{doc['horizon']}"]
        problems = []
        for r in rows:
            rhs = oracle.hamming_rhs(r["n"], d, m)
            if Fraction(r["hamming_rhs"]) != rhs:
                problems.append(f"{where} n={r['n']}: hamming_rhs {r['hamming_rhs']} != {rhs}")
            if r["pass"] and (r["bound"] is None or Fraction(r["bound"]) != rhs):
                problems.append(f"{where} n={r['n']}: passing row has bound {r['bound']} != {rhs}")
        fails = [r["n"] for r in rows if not r["pass"]]
        expected = fails[-1] + 1 if fails else d
        if doc["threshold"] != expected:
            problems.append(f"{where}: threshold {doc['threshold']}, last failing row gives {expected}")
        if doc["stable_tail"] is not True:
            problems.append(f"{where}: stable_tail is not true")
        return problems + self.threshold_value(d, m, doc["threshold"])

    def table1(self, args: list, text: str) -> list[str]:
        max_d, m = int(args[2]), int(args[4])
        doc = json.loads(text)
        where = f"table1 m={m}"
        if doc.get("m") != m:
            return [f"{where}: table is for m={doc.get('m')}"]
        rows = doc["rows"]
        if [r["d"] for r in rows] != list(range(1, max_d + 1, 2)):
            return [f"{where}: rows are not d = 1, 3, ..., {max_d}"]
        problems = []
        for r in rows:
            if r["stable_tail"] is not True:
                problems.append(f"{where} d={r['d']}: stable_tail is not true")
            problems += self.threshold_value(r["d"], m, r["threshold"])
        return problems

    def check(self, args: list, text: str) -> list[str]:
        if args[0] == "threshold":
            return self.threshold_report(args, text)
        return self.table1(args, text)


# --- witness-files ---------------------------------------------------------


def _rational(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, 9))


def _length(i: int, count: int, parity: int) -> int:
    """The i-th of ``count`` lengths spread over N_RANGE, of the given parity."""
    lo, hi = N_RANGE
    n = lo + (hi - lo) * i // (count - 1)
    return n if n % 2 == parity else n + 1 if n < hi else n - 1


def _witness_doc(rng: random.Random, i: int) -> tuple[dict, dict]:
    """A scaled squared-partial-sum witness, with its expected outcome."""
    n, m, e = _length(i, WITNESS_DOCS, 0), M_CHOICES[i % 4], 1 + i // 4 % 4
    f = oracle.witness_coeffs(n, 2 * e + 1, m)
    while not all(f[t] for t in range(2 * e + 1)):
        n += 2
        f = oracle.witness_coeffs(n, 2 * e + 1, m)
    scale = _rational(rng, 99)
    coeffs = [scale * c for c in f]
    S = list(range(2 * e + 1))
    expect = {"kind": "bound", "n": n, "m": m, "S": S}
    if i % PERTURBED_EVERY == PERTURBED_EVERY - 1:
        # Break condition 1 at one index: a zero inside S or a negative
        # coefficient outside it.
        t = rng.randint(1, 2 * e) if rng.random() < 0.5 else rng.randint(2 * e + 1, n)
        coeffs[t] = Fraction(0) if t in S else -_rational(rng, 9)
        expect.update(exit=3, perturbed_t=t)
    else:
        expect.update(exit=0, coeffs=coeffs, spots=rng.sample(range(2 * e + 1, n + 1), 3))
    doc = {"n": n, "m": m, "S": S, "coeffs": [str(c) for c in coeffs]}
    return doc, expect


def _dist_doc(rng: random.Random, i: int) -> tuple[dict, dict]:
    n, m = _length(i, DIST_DOCS, 1), M_CHOICES[i % 4]
    K = _rational(rng, 50)
    A = [Fraction(1)] + [Fraction(rng.randint(0, 20), rng.randint(1, 5)) for _ in range(n)]
    doc = {"n": n, "m": m, "K": str(K), "A": [str(a) for a in A]}
    expect = {"n": n, "m": m, "K": K, "A": A, "spots": rng.sample(range(n + 1), 3)}
    return doc, expect


def witness_files(seed: int, workdir: Path) -> list[dict]:
    """Write the seeded documents; return the ops of one round.

    Each op is {"args", "save", "expect"}.  A forward transform saves its
    output, and the inverse op that follows it reads that file back.
    """
    rng = random.Random(seed)
    jobs = []
    for i in range(WITNESS_DOCS):
        doc, expect = _witness_doc(rng, i)
        path = workdir / f"witness{i:03d}.json"
        path.write_text(json.dumps(doc))
        jobs.append([{"args": ["bound", str(path), "--format", "json"], "save": None,
                      "expect": dict(expect, doc=path.name)}])
    for i in range(DIST_DOCS):
        doc, expect = _dist_doc(rng, i)
        path = workdir / f"dist{i:03d}.json"
        dual = workdir / f"dual{i:03d}.json"
        path.write_text(json.dumps(doc))
        jobs.append([
            {"args": ["macwilliams", "--direction", "forward", str(path), "--format", "json"],
             "save": str(dual), "expect": dict(expect, kind="forward", doc=path.name)},
            {"args": ["macwilliams", "--direction", "inverse", str(dual), "--format", "json"],
             "save": None, "expect": dict(expect, kind="inverse", doc=dual.name)},
        ])
    rng.shuffle(jobs)
    return [op for job in jobs for op in job]


class WitnessChecker:
    """Checks bound and MacWilliams outputs; caches oracle values per op."""

    def __init__(self) -> None:
        self._expected: dict = {}

    def _bound_expected(self, key: int, ex: dict) -> dict:
        if key not in self._expected:
            n, m, f = ex["n"], ex["m"], ex["coeffs"]
            ratios = [(t, Fraction(oracle.value(f, t, n, m)) / f[t]) for t in ex["S"]]
            best = max(r for _, r in ratios)
            self._expected[key] = {
                "ratios": ratios,
                "bound": best / m**n,
                "argmax_t": next(t for t, r in ratios if r == best),
                "outside_S_ok": all(oracle.value(f, t, n, m) <= 0 for t in ex["spots"]),
            }
        return self._expected[key]

    def _forward_expected(self, key: int, ex: dict) -> list:
        if key not in self._expected:
            n, m = ex["n"], ex["m"]
            scale = ex["K"] / m**n
            self._expected[key] = [
                (i, scale * sum(a * oracle.kraw(i, r, n, m) for r, a in enumerate(ex["A"]) if a))
                for i in ex["spots"]
            ]
        return self._expected[key]

    def check(self, key: int, op: dict, text: str) -> list[str]:
        ex = op["expect"]
        where = f"{ex['kind']} {ex['doc']}"
        doc = json.loads(text)
        if doc.get("n") != ex["n"] or doc.get("m") != ex["m"]:
            return [f"{where}: output is for n={doc.get('n')} m={doc.get('m')}"]
        if ex["kind"] == "bound":
            return self._check_bound(key, ex, doc, where)
        problems = []
        if Fraction(doc["K"]) != ex["K"]:
            problems.append(f"{where}: K {doc['K']} != {ex['K']}")
        if ex["kind"] == "inverse":
            if [Fraction(a) for a in doc["A"]] != ex["A"]:
                problems.append(f"{where}: inverse(forward(A)) != A")
            return problems
        got = doc["A"]
        if len(got) != ex["n"] + 1:
            return problems + [f"{where}: {len(got)} entries, expected {ex['n'] + 1}"]
        for i, want in self._forward_expected(key, ex):
            if Fraction(got[i]) != want:
                problems.append(f"{where}: A'[{i}] = {got[i]}, oracle gives {want}")
        return problems

    def _check_bound(self, key: int, ex: dict, doc: dict, where: str) -> list[str]:
        if ex["exit"] == 3:
            if doc.get("conditions_ok") is not False:
                return [f"{where}: perturbed witness reported conditions_ok"]
            if ex["perturbed_t"] not in doc.get("cond1_violations", []):
                return [f"{where}: perturbed t={ex['perturbed_t']} not in cond1_violations"]
            return []
        want = self._bound_expected(key, ex)
        problems = []
        if not want["outside_S_ok"]:
            problems.append(f"{where}: oracle finds f(t) > 0 outside S; input is not a witness")
        if doc.get("conditions_ok") is not True:
            return problems + [f"{where}: valid witness reported as failing its conditions"]
        got = [(r["t"], Fraction(r["ratio"])) for r in doc["ratios"]]
        if got != want["ratios"]:
            problems.append(f"{where}: ratios differ from the oracle over S")
        bound = Fraction(doc["bound"])
        if bound != want["bound"]:
            problems.append(f"{where}: bound {doc['bound']} != oracle {want['bound']}")
        if doc["argmax_t"] != want["argmax_t"]:
            problems.append(f"{where}: argmax_t {doc['argmax_t']} != {want['argmax_t']}")
        if doc["bound_floor"] != math.floor(want["bound"]):
            problems.append(f"{where}: bound_floor {doc['bound_floor']} is not floor(bound)")
        return problems
