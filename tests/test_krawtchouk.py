from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming.enumerators import mw_forward
from qhamming.exceptions import DomainError
from qhamming.krawtchouk import (
    KrawParams,
    kraw_eval,
    kraw_recurrence,
    kraw_table,
)

from oracles import binomial, distribution, kraw_sum, partial_sum


def test_binomial_standard_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 7) == 1


def test_binomial_zero_outside_support():
    assert binomial(4, 7) == 0
    assert binomial(-1, 3) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, -1) == 0


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_binomial_pascal_rule(a, b):
    assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def test_params_validation():
    with pytest.raises(DomainError):
        KrawParams(0, 2)
    with pytest.raises(DomainError):
        KrawParams(5, 1)
    p = KrawParams(6, 3)
    assert p.gamma == 8
    assert p.q == 9


def test_eval_degree_zero_is_one():
    p = KrawParams(7, 3)
    assert all(kraw_eval(0, x, p) == 1 for x in range(8))


def test_eval_known_point():
    assert kraw_eval(1, 2, KrawParams(5, 2)) == 7


def test_eval_at_zero_is_gamma_power_times_binomial():
    assert kraw_eval(2, 0, KrawParams(4, 2)) == 54
    for n in range(1, 13):
        for m in (2, 3):
            p = KrawParams(n, m)
            for k in range(n + 1):
                assert kraw_eval(k, 0, p) == p.gamma**k * comb(n, k)


def test_eval_domain_errors():
    # kraw_eval leaves its checks to kraw_recurrence and keeps their messages.
    p = KrawParams(5, 2)
    with pytest.raises(DomainError, match=r"^degree k must lie in \[0, 5\], got 9$"):
        kraw_eval(9, 0, p)
    with pytest.raises(DomainError, match=r"^degree k must lie in \[0, 5\], got -1$"):
        kraw_eval(-1, 0, p)
    with pytest.raises(DomainError, match=r"^point x must lie in \[0, 5\], got 6$"):
        kraw_eval(2, 6, p)
    with pytest.raises(DomainError, match=r"^point x must lie in \[0, 5\], got -1$"):
        kraw_eval(2, -1, p)


def test_rows_small_case():
    assert kraw_table(KrawParams(2, 2)) == ((1, 1, 1), (6, 2, -2), (9, -3, 1))


def test_table_matches_defining_sum_exhaustively():
    # The table and kraw_eval both come from the degree recurrence; they
    # must agree with the defining sum everywhere.
    for n in range(1, 13):
        for m in (2, 3):
            p = KrawParams(n, m)
            table = kraw_table(p)
            for k in range(n + 1):
                for x in range(n + 1):
                    assert table[k][x] == kraw_eval(k, x, p) == kraw_sum(k, x, p)


def test_eval_matches_defining_sum_at_a_large_point():
    p = KrawParams(2000, 2)
    value = kraw_eval(2000, 1000, p)
    assert isinstance(value, int)
    assert value == kraw_sum(2000, 1000, p)


def test_recurrence_at_chosen_points_matches_defining_sum():
    # A truncated degree range at scattered points, the way the threshold
    # scan calls it, without building a table.
    for n in (1, 5, 17, 40):
        for m in (2, 5):
            p = KrawParams(n, m)
            xs = sorted({0, n // 3, n // 2, n})
            for k_max in sorted({0, 1, n // 2, n}):
                rows = list(kraw_recurrence(k_max, xs, p))
                assert len(rows) == k_max + 1
                for k, row in enumerate(rows):
                    assert row == [kraw_sum(k, x, p) for x in xs]


def test_recurrence_domain_errors():
    p = KrawParams(4, 2)
    with pytest.raises(DomainError, match=r"^degree k must lie in \[0, 4\], got 5$"):
        kraw_recurrence(5, [0], p)
    with pytest.raises(DomainError, match=r"^point x must lie in \[0, 4\], got 5$"):
        kraw_recurrence(2, [0, 5], p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=5), st.data())
def test_table_matches_defining_sum_random(n, m, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    x = data.draw(st.integers(min_value=0, max_value=n))
    p = KrawParams(n, m)
    assert kraw_table(p)[k][x] == kraw_sum(k, x, p)


def test_values_are_exact_integers():
    p = KrawParams(9, 3)
    for k in range(10):
        for x in range(10):
            v = kraw_eval(k, x, p)
            assert isinstance(v, int)
            assert Fraction(v).denominator == 1


def test_orthogonality_spot_value():
    # n=2, m=2, k=t=0: 1 + 6 + 9 = 16 = 4^2
    p = KrawParams(2, 2)
    table = kraw_table(p)
    assert sum(table[0][r] * table[r][0] for r in range(3)) == 16


def test_partial_sum_degree_zero():
    p = KrawParams(6, 2)
    assert all(partial_sum(0, x, p) == 1 for x in range(7))


def test_partial_sum_known_values():
    p = KrawParams(5, 2)
    assert partial_sum(1, 0, p) == 16
    assert partial_sum(1, 2, p) == 8


def test_partial_sum_equals_shifted_polynomial():
    # sum_{i<=e} P_i(x; n) = P_e(x-1; n-1), valid for x >= 1
    for n in range(2, 13):
        for m in (2, 3):
            p = KrawParams(n, m)
            shorter = KrawParams(n - 1, m)
            for e in range(n):
                for x in range(1, n + 1):
                    assert partial_sum(e, x, p) == kraw_eval(e, x - 1, shorter)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=4), st.data())
def test_partial_sum_shifted_identity_random(n, m, data):
    e = data.draw(st.integers(min_value=0, max_value=n - 1))
    x = data.draw(st.integers(min_value=1, max_value=n))
    assert partial_sum(e, x, KrawParams(n, m)) == kraw_eval(
        e, x - 1, KrawParams(n - 1, m)
    )


def test_table_cache_stays_bounded():
    maxsize = kraw_table.cache_parameters()["maxsize"]
    for n in range(1, maxsize + 4):
        mw_forward(distribution(n, 2, 1, [1] + [0] * n))
    assert kraw_table.cache_info().currsize <= maxsize
