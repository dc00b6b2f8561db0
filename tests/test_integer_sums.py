"""The integer basis-sum kernel against the term-by-term ``Fraction`` sums.

``mw_forward``, ``mw_inverse``, ``check_conditions`` and
``dimension_bound`` put their inputs over one common denominator and sum
in integers.  The oracles in ``oracles`` add ``Fraction`` terms one at a
time, as the engine once did; every output must equal theirs in value
and in type.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming.enumerators import WeightDistribution, mw_forward, mw_inverse
from qhamming.exceptions import ConditionError
from qhamming.hamming_witness import witness_coeffs
from qhamming.krawtchouk import KrawParams
from qhamming.lp_bound import KBasisPoly, check_conditions, dimension_bound
from qhamming.rational import common_denominator

import oracles

# --- comparisons -------------------------------------------------------


def assert_same(got, want):
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def assert_mw_matches(dist):
    fwd, inv = mw_forward(dist), mw_inverse(dist)
    assert (fwd.params, fwd.K, inv.params, inv.K) == (dist.params, dist.K) * 2
    assert_same(fwd.entries, oracles.mw_forward(dist))
    assert_same(inv.entries, oracles.mw_inverse(dist))


def assert_witness_matches(f, S):
    violations, bound = oracles.reports(f, S)
    got_violations = check_conditions(f, S)
    assert got_violations == violations
    if bound is None:
        with pytest.raises(ConditionError) as info:
            dimension_bound(f, S)
        assert info.value.violations == got_violations
    else:
        got = dimension_bound(f, S)
        assert got_violations == ((), ())
        assert got == bound
        assert type(got.bound) is Fraction
        assert all(type(r) is Fraction for _, r in got.ratios)


# --- inputs ------------------------------------------------------------


def mixed_scalar(rng, positive=False):
    """An ``int``, a ``Fraction`` (also with denominator 1), zero or negative."""
    kind = rng.randrange(5)
    if kind == 0 and not positive:
        return 0
    if kind == 1:
        return rng.randint(1, 9) if positive else rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(1, 9))
    num = rng.randint(1, 60) if positive else rng.randint(-60, 60)
    return Fraction(num, rng.randint(1, 40))


def scaled_witness(d, p, lam):
    """The squared partial sum times ``lam``, integral entries kept as ``int``."""
    coeffs = [c * lam for c in witness_coeffs(p.n, d, p.m)[0].coeffs]
    return KBasisPoly(p, tuple(int(c) if c.denominator == 1 else c for c in coeffs))


def witnesses(rng, p):
    """Valid and invalid witnesses with their index sets."""
    n = p.n
    d = rng.randint(1, n)
    f, S = witness_coeffs(n, d, p.m)
    yield f, S  # all int
    yield scaled_witness(d, p, Fraction(rng.randint(1, 9), rng.randint(1, 9))), S
    full = tuple(range(n + 1))
    yield KBasisPoly(p, tuple(mixed_scalar(rng, positive=True) for _ in full)), full
    mixed = KBasisPoly(p, tuple(mixed_scalar(rng) for _ in full))
    yield mixed, rng.sample(full, rng.randint(1, n + 1))


# --- common_denominator -------------------------------------------------


def test_common_denominator_all_int():
    ints, L = common_denominator([3, -4, 0, 7])
    assert (ints, L) == ([3, -4, 0, 7], 1)
    assert all(type(v) is int for v in ints)


def test_common_denominator_single_value():
    assert common_denominator([Fraction(5, 7)]) == ([5], 7)
    assert common_denominator([Fraction(-6)]) == ([-6], 1)


def test_common_denominator_negative_values():
    assert common_denominator([Fraction(-1, 2), Fraction(2, 3), -4]) == ([-3, 4, -24], 6)


def test_common_denominator_is_lcm_not_product():
    values = [Fraction(1, 6), Fraction(1, 4), Fraction(3, 10)]
    ints, L = common_denominator(values)
    assert L == 60
    assert ints == [10, 15, 18]
    assert [Fraction(v, L) for v in ints] == values


# --- Tier-1 grid --------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_integer_sums_match_oracles_on_grid(m):
    rng = random.Random(m)
    for n in range(1, 31):
        p = KrawParams(n, m)
        K = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        entries = tuple(mixed_scalar(rng) for _ in range(n + 1))
        assert_mw_matches(WeightDistribution(p, K, entries))
        for f, S in witnesses(rng, p):
            assert_witness_matches(f, S)


def test_round_trip_on_grid():
    rng = random.Random(7)
    for m in (2, 3, 4, 5):
        for n in range(1, 31):
            dist = WeightDistribution(
                KrawParams(n, m),
                Fraction(rng.randint(1, 30), rng.randint(1, 30)),
                tuple(Fraction(mixed_scalar(rng)) for _ in range(n + 1)),
            )
            assert mw_inverse(mw_forward(dist)) == dist
            assert mw_forward(mw_inverse(dist)) == dist


# --- property -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    m=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_integer_sums_match_oracles_property(n, m, seed):
    rng = random.Random(seed)
    p = KrawParams(n, m)
    K = Fraction(rng.randint(1, 50), rng.randint(1, 50))
    entries = tuple(mixed_scalar(rng) for _ in range(n + 1))
    dist = WeightDistribution(p, K, entries)
    assert_mw_matches(dist)
    assert mw_inverse(mw_forward(dist)).entries == entries
    for f, S in witnesses(rng, p):
        assert_witness_matches(f, S)


# --- the benchmark's sizes ------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_integer_sums_match_oracles_at_benchmark_sizes(m):
    """n 20..121 as in the ``witness-files`` documents: e 1..4, rational scales."""
    rng = random.Random(100 + m)
    for n in range(20, 122):
        p = KrawParams(n, m)
        if n % 2:
            K = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            entries = tuple(
                Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3)) for _ in range(n + 1)
            )
            dist = WeightDistribution(p, K, entries)
            assert_mw_matches(dist)
            assert mw_inverse(mw_forward(dist)) == dist
        else:
            e = 1 + n % 4
            lam = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert_witness_matches(scaled_witness(2 * e + 1, p, lam), range(2 * e + 1))
