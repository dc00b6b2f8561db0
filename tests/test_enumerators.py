import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming.enumerators import (
    WeightDistribution,
    distribution_from_dict,
    distribution_to_dict,
    mw_forward,
    mw_inverse,
)
from qhamming.exceptions import DomainError, SchemaError
from qhamming.krawtchouk import KrawParams, kraw_table

from oracles import distribution


def dual_by_expansion(dist):
    """Independent oracle: expand the bivariate generating function.

    Computes (K/m^n) * sum_r A_r (x + g*y)^(n-r) (x - y)^r and reads off
    the coefficient of x^(n-i) y^i, without touching the polynomial
    family at all.
    """
    p = dist.params
    n, g = p.n, p.gamma
    out = [Fraction(0)] * (n + 1)
    for r, a in enumerate(dist.entries):
        if a == 0:
            continue
        for i in range(n + 1):
            c = sum(
                comb(n - r, u) * g**u * comb(r, i - u) * (-1) ** (i - u)
                for u in range(max(0, i - r), min(n - r, i) + 1)
            )
            out[i] += a * c
    scale = Fraction(dist.K, p.m**n)
    return tuple(scale * v for v in out)


def test_constructor_validation():
    with pytest.raises(DomainError):
        distribution(2, 2, 1, [1, 0])  # wrong length
    with pytest.raises(DomainError):
        distribution(2, 2, 0, [1, 0, 0])  # K not positive


def test_forward_matches_expansion_oracle_small_case():
    dist = distribution(1, 2, 2, [1, 0])
    dual = mw_forward(dist)
    assert dual.entries == dual_by_expansion(dist)
    assert dual.entries == (Fraction(1), Fraction(3))
    assert dual.K == dist.K


def test_forward_of_delta_distribution():
    # Only r=0 survives, so A'_i = (K/m^n) * g^i * C(n, i).
    dist = distribution(2, 2, 1, [1, 0, 0])
    dual = mw_forward(dist)
    assert dual.entries == (Fraction(1, 4), Fraction(3, 2), Fraction(9, 4))
    for n in range(1, 9):
        for m in (2, 3):
            d = distribution(n, m, 3, [1] + [0] * n)
            got = mw_forward(d).entries
            g = m * m - 1
            scale = Fraction(3, m**n)
            assert got == tuple(scale * g**i * comb(n, i) for i in range(n + 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forward_matches_expansion_oracle_random(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=2, max_value=3))
    entries = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=30, max_denominator=8),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    K = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=20, max_denominator=6))
    dist = distribution(n, m, K, entries)
    assert mw_forward(dist).entries == dual_by_expansion(dist)


def test_inverse_of_delta_dual():
    # By the inverse formula, A_r = (1/(K m^n)) * dual_0 * P_r(0).
    dual = distribution(2, 2, 1, [16, 0, 0])
    dist = mw_inverse(dual)
    assert dist.entries == (Fraction(4), Fraction(24), Fraction(36))
    # consistency: pushing the result forward returns the dual exactly
    assert mw_forward(dist).entries == dual.entries


def test_round_trip_examples():
    dist = distribution(4, 2, 2, [1, 0, 3, Fraction(1, 2), 7])
    assert mw_inverse(mw_forward(dist)) == dist
    assert mw_forward(mw_inverse(dist)) == dist


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    m = data.draw(st.integers(min_value=2, max_value=3))
    entries = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=99, max_denominator=20),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    K = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=64, max_denominator=9))
    dist = distribution(n, m, K, entries)
    assert mw_inverse(mw_forward(dist)) == dist


def test_forward_is_linear_in_entries():
    p_entries = [1, 2, 0, 5]
    q_entries = [0, 1, 7, 2]
    a, b = Fraction(3), Fraction(5, 2)
    lhs = mw_forward(
        distribution(3, 2, 4, [a * x + b * y for x, y in zip(p_entries, q_entries)])
    ).entries
    fa = mw_forward(distribution(3, 2, 4, p_entries)).entries
    fb = mw_forward(distribution(3, 2, 4, q_entries)).entries
    assert lhs == tuple(a * x + b * y for x, y in zip(fa, fb))


def test_monomial_expansion_identity_spot():
    # x^(n-i) y^i = q^(-n) sum_r P_r(i) (x + g*y)^(n-r) (x - y)^r at
    # integer sample points.
    for n in range(1, 5):
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
                        assert lhs == rhs


def test_json_round_trip():
    dist = distribution(2, 3, Fraction(3, 2), [1, Fraction(1, 3), 0])
    doc = distribution_to_dict(dist)
    assert doc == {"n": 2, "m": 3, "K": "3/2", "A": ["1", "1/3", "0"]}
    assert distribution_from_dict(doc) == dist
    assert distribution_from_dict(json.loads(json.dumps(doc))) == dist


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "m": 2, "A": ["1", "0", "0"]},  # missing K
        {"n": 2, "m": 2, "K": "1", "A": ["1", "0"]},  # wrong length
        {"n": 2, "m": 2, "K": "1", "A": ["1", "0", "x"]},  # bad rational
        {"n": 2, "m": 2, "K": "1.5", "A": ["1", "0", "0"]},  # decimals rejected
        {"n": "2", "m": 2, "K": "1", "A": ["1", "0", "0"]},  # n not an int
        {"n": 2, "m": 2, "K": "0", "A": ["1", "0", "0"]},  # K not positive
        {"n": 2, "m": 2, "K": "1/0", "A": ["1", "0", "0"]},  # zero denominator
        [],  # not an object
    ],
)
def test_json_schema_errors(doc):
    with pytest.raises(SchemaError):
        distribution_from_dict(doc)


def test_nonnegativity_is_not_enforced():
    dist = WeightDistribution(KrawParams(1, 2), Fraction(1), (Fraction(-1), Fraction(2)))
    assert dist.entries == (Fraction(-1), Fraction(2))
