import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming import hamming_witness
from qhamming.exceptions import ConditionError, DomainError, HorizonError
from qhamming.hamming_witness import (
    NVerdict,
    WitnessSpec,
    _scan,
    _value_table,
    check_n,
    default_horizon,
    find_threshold,
    hamming_rhs,
    singleton_rhs,
    verify_small_n_coverage,
    witness_coeffs,
    witness_value,
)
from qhamming.krawtchouk import KrawParams, _kraw_table
from qhamming.lp_bound import dimension_bound, poly_eval


def test_spec_derived_fields():
    spec = WitnessSpec(5, KrawParams(9, 2))
    assert spec.e == 2
    assert spec.index_set == (0, 1, 2, 3, 4)
    # even distance drops the top index but keeps the same set
    even = WitnessSpec(6, KrawParams(9, 2))
    assert even.e == 2
    assert even.index_set == (0, 1, 2, 3, 4)
    with pytest.raises(DomainError):
        WitnessSpec(10, KrawParams(9, 2))
    with pytest.raises(DomainError):
        WitnessSpec(0, KrawParams(9, 2))


def test_coeffs_distance_one_is_all_ones():
    spec = WitnessSpec(1, KrawParams(6, 3))
    assert witness_coeffs(spec).coeffs == tuple([1] * 7)


def test_coeffs_known_case():
    # d=3, n=5, m=2: partial sum is 16 - 4t, squared.
    spec = WitnessSpec(3, KrawParams(5, 2))
    assert witness_coeffs(spec).coeffs == (256, 144, 64, 16, 0, 16)


def test_coeff_at_zero_is_squared_ball_size():
    for n in range(2, 12):
        for m in (2, 3):
            for d in range(1, n + 1):
                spec = WitnessSpec(d, KrawParams(n, m))
                g = m * m - 1
                ball = sum(g**i * comb(n, i) for i in range(spec.e + 1))
                assert witness_coeffs(spec).coeffs[0] == ball**2


def test_value_at_zero_closed_form():
    spec = WitnessSpec(3, KrawParams(5, 2))
    assert witness_value(0, spec) == 1024 * 16
    for n in range(2, 10):
        for m in (2, 3):
            for d in (1, 3, 5):
                if d > n:
                    continue
                spec = WitnessSpec(d, KrawParams(n, m))
                g = m * m - 1
                expected = (m**(2 * n)) * sum(
                    g**s * comb(n, s) for s in range(spec.e + 1)
                )
                assert witness_value(0, spec) == expected


def test_value_known_case():
    assert witness_value(2, WitnessSpec(3, KrawParams(4, 2))) == 512


def test_value_vanishes_beyond_twice_e():
    for n in range(2, 13):
        for m in (2, 3):
            for d in (1, 3, 5, 7):
                if d > n:
                    continue
                spec = WitnessSpec(d, KrawParams(n, m))
                for t in range(2 * spec.e + 1, n + 1):
                    assert witness_value(t, spec) == 0


def test_value_matches_basis_evaluation():
    # Closed form against sum-then-square through the basis, a full
    # cross-check of two independently coded routes.
    for n in range(2, 11):
        for m in (2, 3):
            for d in (1, 3, 5, 7):
                if d > n:
                    continue
                spec = WitnessSpec(d, KrawParams(n, m))
                f = witness_coeffs(spec)
                for t in range(n + 1):
                    assert witness_value(t, spec) == poly_eval(f, t)


def test_value_domain_error():
    spec = WitnessSpec(3, KrawParams(5, 2))
    with pytest.raises(DomainError):
        witness_value(6, spec)


def test_hamming_rhs_values():
    assert hamming_rhs(5, 3, 2) == Fraction(2)
    assert hamming_rhs(10, 5, 2) == Fraction(256, 109)
    for n in (1, 4, 9):
        assert hamming_rhs(n, 1, 2) == 2**n
        assert hamming_rhs(n, 1, 3) == 3**n


def test_hamming_rhs_domain_errors():
    with pytest.raises(DomainError):
        hamming_rhs(3, 4, 2)
    with pytest.raises(DomainError):
        hamming_rhs(3, 0, 2)
    with pytest.raises(DomainError):
        hamming_rhs(3, 2, 1)


def test_hamming_rhs_strictly_increasing_in_length():
    for m in (2, 3):
        for d in (3, 5, 7):
            previous = None
            for n in range(d, 51):
                value = hamming_rhs(n, d, m)
                if previous is not None:
                    assert value > previous
                previous = value


def test_singleton_rhs_values():
    assert singleton_rhs(5, 3, 2) == Fraction(2)
    assert singleton_rhs(4, 3, 2) == Fraction(1)
    assert singleton_rhs(3, 3, 2) == Fraction(1, 2)
    assert singleton_rhs(10, 3, 3) == Fraction(3**6)


def test_check_n_passing_case():
    verdict = check_n(5, 3, 2)
    assert verdict.passed
    assert verdict.conditions_ok
    assert verdict.argmax_t == 0
    assert verdict.bound == Fraction(2)
    assert verdict.hamming == Fraction(2)


def test_check_n_failing_case():
    verdict = check_n(4, 3, 2)
    assert not verdict.passed
    assert verdict.conditions_ok
    assert verdict.argmax_t == 2
    assert verdict.bound == Fraction(32, 25)


def test_check_n_distance_one_always_passes():
    for m in (2, 3, 4):
        for n in (1, 2, 7, 19):
            verdict = check_n(n, 1, m)
            assert verdict.passed
            assert verdict.bound == Fraction(m**n)


def test_check_n_domain_error():
    with pytest.raises(DomainError):
        check_n(2, 3, 2)


def test_default_horizon():
    assert default_horizon(3) == 100
    assert default_horizon(11) == 110


def test_find_threshold_small_scan():
    report = find_threshold(3, 2, 60)
    assert report.threshold == 5
    assert report.stable_tail
    assert report.horizon == 60
    assert [v.n for v in report.per_n] == list(range(3, 61))
    by_n = {v.n: v for v in report.per_n}
    assert not by_n[4].passed
    assert all(by_n[n].passed for n in range(5, 61))


def test_find_threshold_trivial_distance():
    report = find_threshold(1, 2, 40)
    assert report.threshold == 1
    assert all(v.passed for v in report.per_n)


def test_find_threshold_parity_twins():
    assert find_threshold(4, 2, 60).threshold == find_threshold(3, 2, 60).threshold


def test_find_threshold_argument_errors():
    with pytest.raises(DomainError):
        find_threshold(3, 2, 2)
    with pytest.raises(DomainError):
        find_threshold(0, 2, 10)


def test_find_threshold_horizon_exhausted():
    # n=4 fails for d=3, so a horizon of 4 has no passing tail at all.
    with pytest.raises(HorizonError):
        find_threshold(3, 2, 4)


def test_find_threshold_flags_unstable_tail():
    # d=7 passes first at n=14; with horizon 14 the trailing window of
    # ceil(14/10) = 2 lengths still contains the failure at n=13.
    report = find_threshold(7, 2, 14)
    assert report.threshold == 14
    assert not report.stable_tail


def test_threshold_report_json_shape():
    report = find_threshold(3, 2, 20)
    doc = json.loads(json.dumps(report.to_dict()))
    assert set(doc) == {"d", "m", "horizon", "threshold", "stable_tail", "per_n"}
    assert doc["d"] == 3 and doc["m"] == 2
    assert doc["horizon"] == 20 and doc["threshold"] == 5
    assert doc["stable_tail"] is True
    assert len(doc["per_n"]) == 18
    entry = doc["per_n"][0]
    assert set(entry) == {"n", "pass", "argmax_t", "bound", "hamming_rhs"}
    # at n=3 the ratio maximum sits at t=2 (128/4 = 32, bound 32/2^3 = 4)
    assert entry == {
        "n": 3,
        "pass": False,
        "argmax_t": 2,
        "bound": "4",
        "hamming_rhs": "4/5",
    }


def test_coverage_distance_three():
    report = verify_small_n_coverage(3, 2, 5)
    assert report.ok
    assert [e.n for e in report.entries] == [3, 4]
    assert report.entries[0].singleton == Fraction(1, 2)
    assert report.entries[0].hamming == Fraction(4, 5)
    assert report.entries[0].singleton_le_hamming
    assert report.entries[1].singleton == Fraction(1)
    assert report.entries[1].hamming == Fraction(16, 13)
    assert report.entries[1].singleton_le_hamming


def test_coverage_distance_five_uses_vacuous_lengths():
    # At n=8 the Singleton cap is exactly 1 while the Hamming side is
    # 256/277 < 1: no two-dimensional code can exist there, so the
    # length is covered vacuously rather than by direct comparison.
    report = verify_small_n_coverage(5, 2, 9)
    assert report.ok
    by_n = {e.n: e for e in report.entries}
    assert by_n[8].singleton == Fraction(1)
    assert by_n[8].hamming == Fraction(256, 277)
    assert not by_n[8].singleton_le_hamming
    assert by_n[8].no_code_possible
    assert by_n[8].covered


def test_coverage_empty_window():
    report = verify_small_n_coverage(3, 2, 3)
    assert report.entries == ()
    assert report.ok


def test_coverage_argument_error():
    with pytest.raises(DomainError):
        verify_small_n_coverage(5, 2, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=2, max_value=3), st.data())
def test_check_n_bound_matches_hamming_whenever_it_passes(d, m, data):
    n = data.draw(st.integers(min_value=d, max_value=30))
    verdict = check_n(n, d, m)
    if verdict.passed:
        assert verdict.bound == hamming_rhs(n, d, m)
        assert verdict.argmax_t == 0


# --- check_n against the generic witness route ---------------------------


def _generic_verdict(n, d, m):
    """The verdict through witness_coeffs and dimension_bound, all t in 0..n."""
    spec = WitnessSpec(d, KrawParams(n, m))
    rhs = hamming_rhs(n, d, m)
    try:
        report = dimension_bound(witness_coeffs(spec), spec.index_set)
    except ConditionError:
        return NVerdict(n, d, m, False, False, None, None, rhs)
    passed = report.argmax_t == 0 and report.bound == rhs
    return NVerdict(n, d, m, passed, True, report.argmax_t, report.bound, rhs)


def _assert_matches_generic(n, d, m):
    verdict = check_n(n, d, m)
    expected = _generic_verdict(n, d, m)
    assert verdict == expected, (n, d, m)
    assert verdict.to_dict() == expected.to_dict()
    assert type(verdict.hamming) is Fraction
    assert verdict.bound is None or type(verdict.bound) is Fraction
    assert verdict.argmax_t is None or type(verdict.argmax_t) is int


def test_check_n_matches_generic_route():
    for m in range(2, 6):
        for n in range(1, 51):
            for d in range(1, min(11, n) + 1):
                _assert_matches_generic(n, d, m)
            _kraw_table.cache_clear()


@pytest.mark.slow
def test_check_n_matches_generic_route_full_grid():
    # Every length find_threshold scans for d <= 25; about three minutes.
    for m in range(2, 6):
        for n in range(1, default_horizon(25) + 1):
            for d in range(1, min(25, n) + 1):
                if n <= default_horizon(d):
                    _assert_matches_generic(n, d, m)
            _kraw_table.cache_clear()


def test_scan_builds_no_krawtchouk_table():
    _kraw_table.cache_clear()
    _scan.cache_clear()
    find_threshold(15, 3)
    assert _kraw_table.cache_info().currsize == 0


def test_value_table_reproduces_closed_form():
    for n in range(1, 13):
        for m in (2, 3, 5):
            for d in range(1, n + 1):
                spec = WitnessSpec(d, KrawParams(n, m))
                B = _value_table(spec.e, m)
                assert len(B) == 2 * spec.e + 1
                for t, row in enumerate(B):
                    assert len(row) == spec.e + 1
                    value = sum(b * comb(n - t, s) for s, b in enumerate(row))
                    assert spec.params.q**n * value == witness_value(t, spec)


def test_check_n_zero_partial_sum_fails_conditions(monkeypatch):
    # g(t) never vanishes on S for any length scanned in practice, so
    # force a zero at t = 1 to exercise the condition-failure verdict.
    real = hamming_witness.kraw_recurrence

    def zero_at_one(k_max, xs, p):
        rows = real(k_max, xs, p)
        return [[0 if x == 1 else v for x, v in zip(xs, row)] for row in rows]

    monkeypatch.setattr(hamming_witness, "kraw_recurrence", zero_at_one)
    verdict = check_n(9, 5, 2)
    assert verdict == NVerdict(9, 5, 2, False, False, None, None, hamming_rhs(9, 5, 2))
