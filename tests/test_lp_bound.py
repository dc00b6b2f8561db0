import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming.enumerators import distribution_from_dict
from qhamming.exceptions import ConditionError, DomainError, SchemaError
from qhamming.krawtchouk import KrawParams
from qhamming.lp_bound import (
    KBasisPoly,
    check_conditions,
    dimension_bound,
    witness_from_dict,
)

from oracles import poly_eval, witness_to_dict

# Squared-partial-sum witnesses, frozen from hand evaluation of the
# defining sums (d=3, m=2): f_t = (1 + P_1(t; n))^2.
WITNESS_N5 = (256, 144, 64, 16, 0, 16)
WITNESS_N4 = (169, 81, 25, 1, 9)


def _poly(coeffs, n, m=2):
    return KBasisPoly(KrawParams(n, m), tuple(coeffs))


def test_poly_requires_full_coefficient_vector():
    with pytest.raises(DomainError):
        _poly([1, 1], 2)


def test_eval_unit_at_zero_is_constant_one():
    f = _poly([1, 0, 0, 0], 3)
    assert [poly_eval(f, t) for t in range(4)] == [1, 1, 1, 1]


def test_eval_known_value():
    assert poly_eval(_poly([1, 1, 0], 2), 0) == 7


def test_conditions_unit_at_zero():
    # f == P_0 is identically 1, so the off-S value condition fails at
    # every t outside S.
    f = _poly([1, 0, 0, 0, 0, 0], 5)
    assert check_conditions(f, {0}) == ((), (1, 2, 3, 4, 5))


def test_conditions_hold_for_witness():
    assert check_conditions(_poly(WITNESS_N5, 5), {0, 1, 2}) == ((), ())
    # S is normalized: order and duplicates do not matter
    assert check_conditions(_poly(WITNESS_N5, 5), [2, 0, 1, 0]) == ((), ())


def test_conditions_strict_positivity_on_s():
    f = _poly([0, 1, 0], 2)
    cond1, _ = check_conditions(f, {0})
    assert 0 in cond1


def test_conditions_nonnegativity_off_s():
    f = _poly([1, -1, 0], 2)
    cond1, _ = check_conditions(f, {0})
    assert cond1 == (1,)


def test_index_set_validation():
    f = _poly([1, 0, 0], 2)
    with pytest.raises(DomainError):
        check_conditions(f, set())
    with pytest.raises(DomainError):
        check_conditions(f, {0, 5})
    with pytest.raises(DomainError):
        dimension_bound(f, [])


def test_bound_refuses_when_conditions_fail():
    f = _poly([1, 0, 0, 0, 0, 0], 5)
    with pytest.raises(ConditionError) as exc_info:
        dimension_bound(f, {0})
    assert exc_info.value.violations == ((), (1, 2, 3, 4, 5))


def test_bound_witness_n5():
    report = dimension_bound(_poly(WITNESS_N5, 5), {0, 1, 2})
    assert report.bound == Fraction(2)
    assert math.floor(report.bound) == 2
    assert report.argmax_t == 0
    assert report.ratios == (
        (0, Fraction(64)),
        (1, Fraction(4096, 144)),
        (2, Fraction(32)),
    )


def test_bound_witness_n4_max_leaves_zero():
    report = dimension_bound(_poly(WITNESS_N4, 4), {0, 1, 2})
    assert report.argmax_t == 2
    assert report.bound == Fraction(32, 25)
    assert math.floor(report.bound) == 1
    assert report.ratios == (
        (0, Fraction(3328, 169)),
        (1, Fraction(1024, 81)),
        (2, Fraction(512, 25)),
    )


def test_ratios_consistent_with_pointwise_values():
    f = _poly(WITNESS_N5, 5)
    report = dimension_bound(f, {0, 1, 2})
    for t, ratio in report.ratios:
        assert ratio == Fraction(poly_eval(f, t)) / Fraction(f.coeffs[t])


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50))
def test_bound_is_scale_invariant(c):
    base = dimension_bound(_poly(WITNESS_N5, 5), {0, 1, 2})
    scaled = dimension_bound(
        _poly([c * x for x in WITNESS_N5], 5), {0, 1, 2}
    )
    assert scaled == base


def test_argmax_tie_breaks_to_smallest_index():
    # n=1, m=2, coefficients (3, 1): f(0) = 3 + 3 = 6 and f(1) = 3 - 1 = 2,
    # so both ratios equal 2 and the tie must resolve to t = 0.
    report = dimension_bound(_poly([3, 1], 1), {0, 1})
    assert report.ratios == ((0, Fraction(2)), (1, Fraction(2)))
    assert report.argmax_t == 0
    assert report.bound == Fraction(1)  # 2 / m^n with m^n = 2
    assert math.floor(report.bound) == 1


def test_witness_json_round_trip():
    f = _poly(WITNESS_N5, 5)
    doc = witness_to_dict(f, (0, 1, 2))
    assert doc == {
        "n": 5,
        "m": 2,
        "S": [0, 1, 2],
        "coeffs": ["256", "144", "64", "16", "0", "16"],
    }
    poly, S = witness_from_dict(json.loads(json.dumps(doc)))
    assert S == (0, 1, 2)
    assert poly.params == KrawParams(5, 2)
    assert poly.coeffs == tuple(Fraction(c) for c in WITNESS_N5)


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "m": 2, "coeffs": ["1", "0", "0"]},  # missing S
        {"n": 2, "m": 2, "S": [0], "coeffs": ["1", "0"]},  # wrong length
        {"n": 2, "m": 2, "S": [0, 9], "coeffs": ["1", "0", "0"]},  # S out of range
        {"n": 2, "m": 2, "S": [], "coeffs": ["1", "0", "0"]},  # empty S
        {"n": 2, "m": 2, "S": ["0"], "coeffs": ["1", "0", "0"]},  # S not ints
        {"n": 2, "m": 2, "S": [0], "coeffs": ["1", "0", "0.5"]},  # bad rational
        "nope",  # not an object
    ],
)
def test_witness_schema_errors(doc):
    with pytest.raises(SchemaError):
        witness_from_dict(doc)


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (witness_from_dict, "nope", "witness document must be a JSON object"),
        (witness_from_dict, {"n": 2, "m": 2, "S": [0]}, "witness document missing 'coeffs'"),
        (witness_from_dict, {"n": 2, "m": True, "S": [0], "coeffs": []},
         "field 'm' must be an integer"),
        (witness_from_dict, {"n": 2, "m": 2, "S": "0", "coeffs": []},
         "field 'S' must be an array of integers"),
        (witness_from_dict, {"n": 2, "m": 2, "S": [0], "coeffs": "1"},
         "field 'coeffs' must be an array of rational strings"),
        (distribution_from_dict, [], "distribution document must be a JSON object"),
        (distribution_from_dict, {"n": 2, "m": 2, "A": []}, "distribution document missing 'K'"),
        (distribution_from_dict, {"n": 2.0, "m": 2, "K": "1", "A": []},
         "field 'n' must be an integer"),
        (distribution_from_dict, {"n": 2, "m": 2, "K": "1", "A": b"1"},
         "field 'A' must be an array of rational strings"),
    ],
)
def test_reader_schema_messages(read, doc, message):
    with pytest.raises(SchemaError) as info:
        read(doc)
    assert str(info.value) == message
