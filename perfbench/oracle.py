"""Exact oracle for checking qhamming outputs, independent of ``src/qhamming``.

Every value is computed from the definitions with ``math.comb`` and
Python integers or ``Fraction``s; nothing here imports the package under
test.  With gamma = m^2 - 1:

    P_k(x; n) = sum_j (-1)^j gamma^(k-j) C(x, j) C(n-x, k-j)
    f_r       = (P_0(r) + ... + P_e(r))^2          (squared partial sum)
    f(t)      = sum_r f_r P_r(t)
    rhs(n)    = m^n / sum_{i<=e} gamma^i C(n, i)    (quantum Hamming bound)

Run ``python3 perfbench/oracle.py`` to check the oracle against the
paper's published thresholds N(d, 2) for odd d <= 15.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

# N(d, 2) for d = 1, 3, ..., 15, as published in the paper.
PAPER_TABLE_M2 = {1: 1, 3: 5, 5: 9, 7: 14, 9: 20, 11: 25, 13: 30, 15: 35}


def kraw(k: int, x: int, n: int, m: int) -> int:
    """P_k(x; n) by the defining sum."""
    g = m * m - 1
    total = 0
    for j in range(min(k, x) + 1):
        if k - j > n - x:
            continue
        term = comb(x, j) * comb(n - x, k - j) * g ** (k - j)
        total += -term if j % 2 else term
    return total


def partial_sum(e: int, x: int, n: int, m: int) -> int:
    return sum(kraw(i, x, n, m) for i in range(e + 1))


def witness_coeffs(n: int, d: int, m: int) -> list[int]:
    """f_r = (sum_{i<=e} P_i(r))^2 for r = 0..n."""
    e = (d - 1) // 2
    return [partial_sum(e, r, n, m) ** 2 for r in range(n + 1)]


def value(coeffs, t: int, n: int, m: int):
    """f(t) = sum_r f_r P_r(t) for coefficients in the Krawtchouk basis."""
    return sum(c * kraw(r, t, n, m) for r, c in enumerate(coeffs) if c)


def hamming_rhs(n: int, d: int, m: int) -> Fraction:
    e = (d - 1) // 2
    g = m * m - 1
    return Fraction(m**n, sum(g**i * comb(n, i) for i in range(e + 1)))


def passes(n: int, d: int, m: int) -> bool:
    """Does the squared-partial-sum witness certify the Hamming bound at n?

    True iff f_t > 0 on S = {0..2e} (the f_t are squares, so >= 0
    elsewhere), f(t) <= 0 for every t outside S, the largest ratio
    f(t)/f_t over S is attained at t = 0, and the resulting bound
    f(0)/(f_0 m^n) equals the Hamming right-hand side.
    """
    e = (d - 1) // 2
    S = range(2 * e + 1)
    f = witness_coeffs(n, d, m)
    if any(f[t] == 0 for t in S):
        return False
    if any(value(f, t, n, m) > 0 for t in range(2 * e + 1, n + 1)):
        return False
    ratios = [Fraction(value(f, t, n, m), f[t]) for t in S]
    if max(ratios) != ratios[0]:
        return False
    return ratios[0] / m**n == hamming_rhs(n, d, m)


def self_test() -> list[str]:
    """Check the oracle on the paper's m = 2 table: N-1 fails, N passes."""
    problems = []
    for d, N in PAPER_TABLE_M2.items():
        if not passes(N, d, 2):
            problems.append(f"oracle: n={N} should pass for d={d}, m=2")
        if N - 1 >= d and passes(N - 1, d, 2):
            problems.append(f"oracle: n={N - 1} should fail for d={d}, m=2")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("oracle self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
