"""Acceptance suite: one test per criterion, one PASS line per test.

Every assertion is exact (integer/rational equality); the only
tolerances are the two stated wall-clock budgets.  Run with ``-s`` to
see the per-criterion lines as they pass.
"""
import json
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from qhamming.cli import main as cli_main
from qhamming.enumerators import mw_forward, mw_inverse
from qhamming.hamming_witness import (
    check_n,
    find_threshold,
    hamming_rhs,
    verify_small_n_coverage,
    witness_coeffs,
)
from qhamming.krawtchouk import KrawParams, kraw_table
from qhamming.lp_bound import dimension_bound

from oracles import distribution, kbasis_extract, linearize_product, poly_eval, witness_value

# Reference thresholds for m = 2 (published table of N(d, 2), odd d).
REFERENCE_THRESHOLDS = {1: 1, 3: 5, 5: 9, 7: 14, 9: 20, 11: 25, 13: 30, 15: 35}


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_1_reference_table_reproduction():
    started = time.perf_counter()
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["table1", "--max-d", "15", "--m", "2", "--format", "json"],
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    doc = json.loads(result.output)
    got = {row["d"]: row["threshold"] for row in doc["rows"]}
    assert got == REFERENCE_THRESHOLDS
    assert all(row["stable_tail"] for row in doc["rows"])
    assert elapsed < 60.0
    _report(
        "criterion 1: PASS - table1 --max-d 15 --m 2 gives "
        f"N = {[got[d] for d in sorted(got)]} in {elapsed:.1f}s"
    )


def test_criterion_2_minimality_at_the_boundary():
    checked = []
    for d, N in REFERENCE_THRESHOLDS.items():
        if N <= d:
            continue
        below = check_n(N - 1, d, 2)
        at = check_n(N, d, 2)
        assert not below.passed, (d, N)
        assert at.passed, (d, N)
        checked.append((d, N))
    # the documented boundary example: n=4, d=3 fails with argmax at t=2
    assert check_n(4, 3, 2).argmax_t == 2
    _report(f"criterion 2: PASS - fail at N-1 / pass at N for (d, N) in {checked}")


def test_criterion_3_parity_equality():
    for d in (4, 6, 8):
        even = find_threshold(d, 2).threshold
        odd = find_threshold(d - 1, 2).threshold
        assert even == odd, (d, even, odd)
    _report("criterion 3: PASS - thresholds agree for d in {4,6,8} vs {3,5,7}")


def test_criterion_4_orthogonality_suite():
    started = time.perf_counter()
    count = 0
    for n in range(1, 13):
        for m in (2, 3):
            p = KrawParams(n, m)
            table = kraw_table(p)
            qn = p.q**n
            for k in range(n + 1):
                for t in range(n + 1):
                    value = sum(table[k][r] * table[r][t] for r in range(n + 1))
                    assert value == (qn if k == t else 0), (n, m, k, t)
                    count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(f"criterion 4: PASS - {count} orthogonality identities exact in {elapsed:.1f}s")


def test_criterion_5_linearization_suite():
    count = 0
    for n in range(1, 11):
        for m in (2, 3):
            p = KrawParams(n, m)
            table = kraw_table(p)
            for i in range(n + 1):
                for j in range(n + 1):
                    coeffs = linearize_product(i, j, p)
                    pointwise = [table[i][x] * table[j][x] for x in range(n + 1)]
                    for x in range(n + 1):
                        assert pointwise[x] == sum(
                            c * table[k][x] for k, c in enumerate(coeffs)
                        ), (n, m, i, j, x)
                    # independent extraction through orthogonality
                    assert kbasis_extract(pointwise, p) == tuple(
                        Fraction(c) for c in coeffs
                    ), (n, m, i, j)
                    count += 1
    _report(f"criterion 5: PASS - {count} product expansions match both routes")


def test_criterion_6_closed_form_consistency():
    count = 0
    for n in range(1, 13):
        for m in (2, 3):
            for e in range(0, 4):
                d = 2 * e + 1
                if d > n:
                    continue
                f = witness_coeffs(n, d, m)[0]
                for t in range(n + 1):
                    value = witness_value(t, n, d, m)
                    assert value == poly_eval(f, t), (n, m, e, t)
                    if t > 2 * e:
                        assert value == 0, (n, m, e, t)
                    count += 1
    _report(f"criterion 6: PASS - closed form == basis evaluation at {count} points")


def test_criterion_7_hamming_coincidence():
    count = 0
    for d, N in REFERENCE_THRESHOLDS.items():
        for n in range(N, 61):
            report = dimension_bound(*witness_coeffs(n, d, 2))
            assert report.bound == hamming_rhs(n, d, 2), (d, n)
            count += 1
    _report(f"criterion 7: PASS - witness bound equals hamming_rhs at {count} lengths")


def test_criterion_8_macwilliams_round_trip():
    rng = random.Random(20260811)
    count = 0
    for n in range(1, 11):
        for m in (2, 3):
            for _ in range(100):
                entries = [
                    Fraction(rng.randint(0, 99), rng.randint(1, 20))
                    for _ in range(n + 1)
                ]
                K = Fraction(rng.randint(1, 64), rng.randint(1, 9))
                dist = distribution(n, m, K, entries)
                assert mw_inverse(mw_forward(dist)) == dist
                count += 1
    # bivariate expansion identity at integer sample points
    points = 0
    for n in range(1, 7):
        for m in (2, 3):
            p = KrawParams(n, m)
            table = kraw_table(p)
            g, qn = p.gamma, p.q**n
            for i in range(n + 1):
                for x in range(-2, 3):
                    for y in range(-2, 3):
                        lhs = x ** (n - i) * y**i * qn
                        rhs = sum(
                            table[r][i] * (x + g * y) ** (n - r) * (x - y) ** r
                            for r in range(n + 1)
                        )
                        assert lhs == rhs, (n, m, i, x, y)
                        points += 1
    _report(
        f"criterion 8: PASS - {count} random round trips exact; "
        f"expansion identity exact at {points} sample points"
    )


def test_criterion_9_small_length_coverage():
    assert verify_small_n_coverage(3, 2, 5) == ()
    assert verify_small_n_coverage(5, 2, 9) == ()
    nonbinary = []
    for m in (3, 4, 5):
        for d in (3, 5):
            report = find_threshold(d, m)
            assert verify_small_n_coverage(d, m, report.threshold) == (), (d, m)
            nonbinary.append((d, m, report.threshold))
    _report(
        "criterion 9: PASS - singleton covers n < N at (d=3, m=2) and (d=5, m=2); "
        f"nonbinary (d, m, N): {nonbinary}"
    )
