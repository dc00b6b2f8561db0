"""Independent routes to what ``qhamming`` computes, by their defining formulas.

Nothing in the package calls these.  Each one is written from its
formula, term by term in ``int`` and ``Fraction``, so that the engine
(the degree recurrence, integer dot products over a common denominator,
the n-free value table of the threshold scan) is checked against a
second derivation:

- ``binomial``: C(a, b), zero outside 0 <= b <= a, so that the sums
  below can run over loose index ranges;
- ``kraw_sum``: P_k(x; n) by the defining sum, the reference for every
  value of the package's one Krawtchouk route, the degree recurrence;
- ``partial_sum`` and ``squared_partial_sums``: g(x) = sum_{i<=e} P_i(x)
  by the defining sum of each P_i, and the witness coefficients g(t)^2;
- ``product_coeff``, ``linearize_product`` and ``witness_value``: the
  closed double-binomial expansion of P_i P_j in the Krawtchouk basis,
  and the closed-form witness values built from it;
- ``poly_eval`` and ``kbasis_extract``: f(t) = sum_r f_r P_r(t), and its
  inverse through the orthogonality relation
  sum_r P_k(r) P_r(t) = q^n delta_{k,t};
- ``mw_forward``, ``mw_inverse`` and ``reports``: the MacWilliams pair,
  the sign conditions and the dimension bound, adding one ``Fraction``
  term at a time (``distribution`` builds the inputs of the pair);
- ``witness_to_dict``: the witness document that the package's
  ``witness_from_dict`` reads, written field by field, so that the
  reader is checked against a writer it shares no code with;
- ``scanned_threshold``: N(d, m) by the finite-scan rule that the
  forward-difference certificate replaced;
- ``lockstep_horizon``: the certificate's n0 by walking every difference
  vector together until none has a negative entry.
"""
import math
from fractions import Fraction

from qhamming.enumerators import WeightDistribution
from qhamming.hamming_witness import _sign_values, check_n
from qhamming.krawtchouk import KrawParams, kraw_table
from qhamming.lp_bound import BoundReport

# --- Krawtchouk values and the squared-partial-sum witness --------------


def binomial(a, b):
    """C(a, b), and 0 whenever b < 0, b > a or a < 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def kraw_sum(k, x, p):
    """P_k(x; n) = sum_{j<=k} (-1)^j gamma^(k-j) C(x, j) C(n-x, k-j)."""
    g = p.gamma
    nx = p.n - x
    total = 0
    for j in range(min(k, x) + 1):
        c = math.comb(x, j) * binomial(nx, k - j)
        if c == 0:
            continue
        term = c * g ** (k - j)
        total += -term if j & 1 else term
    return total


def partial_sum(e, x, p):
    """P_0(x) + P_1(x) + ... + P_e(x), each by its defining sum."""
    return sum(kraw_sum(i, x, p) for i in range(e + 1))


def squared_partial_sums(n, d, m):
    """The witness coefficients f_t = g(t)^2 for t = 0..n, e = floor((d-1)/2)."""
    p = KrawParams(n, m)
    return tuple(partial_sum((d - 1) // 2, t, p) ** 2 for t in range(n + 1))


def product_coeff(i, j, k, p):
    """c_k in P_i P_j = sum_k c_k P_k:

    sum_s C(k, 2k+2s-i-j) C(n-k, s) C(2k+2s-i-j, k+s-j)
          * (gamma-1)^(i+j-2s-k) * gamma^s.
    """
    g = p.gamma
    total = 0
    for s in range(p.n - k + 1):
        b1 = 2 * k + 2 * s - i - j
        c = binomial(k, b1) * binomial(p.n - k, s) * binomial(b1, k + s - j)
        if c:  # then b1 <= k, so the exponent of gamma-1 is nonnegative
            total += c * (g - 1) ** (i + j - 2 * s - k) * g**s
    return total


def linearize_product(i, j, p):
    """Coefficients c_0..c_n with P_i P_j = sum_k c_k P_k."""
    return tuple(product_coeff(i, j, k, p) for k in range(p.n + 1))


def witness_value(t, n, d, m):
    """f(t) = q^n sum_{i,j<=e} c_t(i, j): the closed-form witness value."""
    p, e = KrawParams(n, m), (d - 1) // 2
    pairs = sum(product_coeff(i, j, t, p) for i in range(e + 1) for j in range(e + 1))
    return p.q**p.n * pairs


# --- the Krawtchouk basis ----------------------------------------------


def poly_eval(f, t):
    """f(t) = sum_r f_r P_r(t): an ``int`` when every f_r is one, else a ``Fraction``."""
    table = kraw_table(f.params)
    return sum(c * table[r][t] for r, c in enumerate(f.coeffs))


def kbasis_extract(values, p):
    """f_0..f_n with sum_r f_r P_r(t) = values[t]: f_k = q^-n sum_t values[t] P_t(k)."""
    table = kraw_table(p)
    return tuple(
        Fraction(sum(values[t] * table[t][k] for t in range(p.n + 1)), p.q**p.n)
        for k in range(p.n + 1)
    )


# --- MacWilliams pair and witness reports -------------------------------


def distribution(n, m, K, entries):
    """The ``WeightDistribution`` of (n, m) with K and every entry as a ``Fraction``."""
    return WeightDistribution(KrawParams(n, m), Fraction(K), tuple(map(Fraction, entries)))


def mw_forward(dist):
    """Entries of the dual: A'_i = (K / m^n) sum_r A_r P_i(r)."""
    p = dist.params
    table = kraw_table(p)
    scale = Fraction(dist.K, p.m**p.n)
    return tuple(
        scale * sum(a * v for a, v in zip(dist.entries, table[i]))
        for i in range(p.n + 1)
    )


def mw_inverse(dual):
    """Entries of the primal: A_r = (1 / (K m^n)) sum_i A'_i P_r(i)."""
    p = dual.params
    table = kraw_table(p)
    scale = 1 / (dual.K * p.m**p.n)
    return tuple(
        scale * sum(a * v for a, v in zip(dual.entries, table[r]))
        for r in range(p.n + 1)
    )


def reports(f, S):
    """``((cond1 violations, cond2 violations), BoundReport or None)`` for f on S."""
    S = tuple(sorted(set(S)))
    values = [poly_eval(f, t) for t in range(f.params.n + 1)]
    cond1 = tuple(
        t for t, c in enumerate(f.coeffs) if (not c > 0 if t in S else c < 0)
    )
    cond2 = tuple(t for t in range(f.params.n + 1) if t not in S and values[t] > 0)
    if cond1 or cond2:
        return (cond1, cond2), None
    ratios = tuple((t, Fraction(values[t]) / Fraction(f.coeffs[t])) for t in S)
    best_t, best = ratios[0]
    for t, r in ratios[1:]:
        if r > best:
            best_t, best = t, r
    bound = best / f.params.m**f.params.n
    return ((), ()), BoundReport(bound, best_t, ratios)


def witness_to_dict(f, S):
    """The witness document {"n", "m", "S", "coeffs"}, each coefficient a rational string."""
    return {"n": f.params.n, "m": f.params.m, "S": list(S),
            "coeffs": [str(Fraction(c)) for c in f.coeffs]}


# --- the threshold ------------------------------------------------------


def scanned_threshold(d, m):
    """One past the last failing length in d..max(100, 10d), or d if none fails."""
    fails = [n for n in range(d, max(100, 10 * d) + 1) if not check_n(n, d, m).passed]
    return fails[-1] + 1 if fails else d


def lockstep_horizon(d, m):
    """Least n0 >= d at which every forward difference of every sign polynomial is >= 0.

    Takes the same 3e + 2 samples as ``find_threshold`` and moves all 2e
    difference vectors up one length at a time, by
    Delta^k += Delta^(k+1), until no entry of any of them is negative.
    """
    e = (d - 1) // 2
    samples = [_sign_values(n, e, m) for n in range(d, d + 3 * e + 2)]
    rows = [[c[0] * x * x - ct * g[0] ** 2 for x, ct in zip(g[1:], c[1:])] for g, c in samples]
    vectors = []
    for column in map(list, zip(*rows)):
        diffs = []
        while column:
            diffs.append(column[0])
            column = [b - a for a, b in zip(column, column[1:])]
        assert diffs.pop() == 0, (d, m)
        vectors.append(diffs)
    n0 = d
    while any(x < 0 for v in vectors for x in v):
        for v in vectors:
            for k in range(len(v) - 1):
                v[k] += v[k + 1]
        n0 += 1
    return n0
