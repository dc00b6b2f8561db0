import gc
import json
import weakref
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
    _sign_values,
    _value_table,
    check_n,
    find_threshold,
    hamming_rhs,
    singleton_rhs,
    verify_small_n_coverage,
    witness_coeffs,
)
from qhamming.krawtchouk import KrawParams, kraw_table
from qhamming.lp_bound import dimension_bound

from oracles import (lockstep_horizon, poly_eval, scanned_threshold, squared_partial_sums,
                     witness_value)


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


def test_coeffs_equal_squared_defining_sums():
    # The recurrence kernel against P_0 + ... + P_e by the defining sum.
    for m in range(2, 6):
        for n in range(1, 31):
            for d in range(1, n + 1):
                spec = WitnessSpec(d, KrawParams(n, m))
                coeffs = witness_coeffs(spec).coeffs
                assert coeffs == squared_partial_sums(spec), (n, m, d)
                assert all(type(c) is int for c in coeffs), (n, m, d)


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


def test_hamming_rhs_values():
    assert hamming_rhs(5, 3, 2) == Fraction(2)
    assert hamming_rhs(10, 5, 2) == Fraction(256, 109)
    for n in (1, 4, 9):
        assert hamming_rhs(n, 1, 2) == 2**n
        assert hamming_rhs(n, 1, 3) == 3**n


def test_hamming_rhs_domain_errors():
    with pytest.raises(DomainError, match=r"distance d must lie in \[1, 3\], got 4"):
        hamming_rhs(3, 4, 2)
    with pytest.raises(DomainError, match=r"distance d must lie in \[1, 3\], got 0"):
        hamming_rhs(3, 0, 2)
    with pytest.raises(DomainError, match="level count m must be >= 2, got 1"):
        hamming_rhs(3, 2, 1)
    with pytest.raises(DomainError, match="code length n must be >= 1, got 0"):
        hamming_rhs(0, 1, 2)


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


@pytest.mark.parametrize("n, d, m, named", [
    (0, 3, 2, "code length n must be >= 1, got 0"),
    (5, 3, 1, "level count m must be >= 2, got 1"),
    (5, 0, 2, "distance d must be >= 1, got 0"),
    (0, 0, 1, "code length n must be >= 1, got 0"),  # n is checked first
])
def test_singleton_rhs_domain_errors(n, d, m, named):
    with pytest.raises(DomainError, match=f"^{named}$"):
        singleton_rhs(n, d, m)


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


def test_find_threshold_small_scan():
    # d=3 fails at n=4 and the certificate proves every n >= n0 = 5.
    report = find_threshold(3, 2)
    assert report.threshold == 5
    assert report.horizon == 5
    assert [(v.n, v.passed) for v in report.per_n] == [(3, False), (4, False), (5, True)]


def test_find_threshold_keeps_no_report():
    # Scans are not cached: a report lives only as long as its caller holds it.
    ref = weakref.ref(find_threshold(3, 2))
    gc.collect()
    assert ref() is None


def test_find_threshold_trivial_distance():
    report = find_threshold(1, 2)
    assert report.threshold == 1
    assert all(v.passed for v in report.per_n)


def test_find_threshold_parity_twins():
    assert find_threshold(4, 2).threshold == find_threshold(3, 2).threshold


def test_find_threshold_argument_errors():
    with pytest.raises(DomainError):
        find_threshold(0, 2)
    with pytest.raises(DomainError):
        find_threshold(3, 1)


def test_find_threshold_checks_m_before_sampling(monkeypatch):
    # Samples valid at m = 2 would otherwise give a report for m = 1.
    real = hamming_witness._sign_values
    monkeypatch.setattr(hamming_witness, "_sign_values", lambda n, e, m: real(n, e, 2))
    with pytest.raises(DomainError, match="^level count m must be >= 2, got 1$"):
        find_threshold(3, 1)


def test_find_threshold_takes_no_horizon():
    # The certified n0 is the only scan range, so no argument sets one.
    with pytest.raises(TypeError):
        find_threshold(3, 2, 20)
    with pytest.raises(TypeError):
        find_threshold(3, 2, horizon=20)


@pytest.mark.parametrize("d, m", [(1, 2), (3, 2), (7, 2), (8, 3), (15, 5)])
def test_threshold_report_is_proved(d, m):
    # Rows cover d..n0 once each, agree with check_n, pass from N on, and
    # fail just below N; the certificate covers every length past n0.
    report = find_threshold(d, m)
    assert [v.n for v in report.per_n] == list(range(d, report.horizon + 1))
    assert list(report.per_n) == [check_n(v.n, d, m) for v in report.per_n]
    assert d <= report.threshold <= report.horizon
    assert all(v.passed for v in report.per_n if v.n >= report.threshold)
    if report.threshold > d:
        assert not report.per_n[report.threshold - 1 - d].passed
    assert report.to_dict()["stable_tail"] is True


def _assert_matches_old_rules(ds):
    # N against the finite-scan rule, and n0 against the walk that moved
    # every difference vector together: walking each alone and taking the
    # largest n0 agrees, as each vector's good n0 are closed upward.
    for m in range(2, 6):
        for d in ds:
            report = find_threshold(d, m)
            assert report.threshold == scanned_threshold(d, m), (d, m)
            assert report.horizon == lockstep_horizon(d, m), (d, m)


def test_certified_threshold_equals_scan_rule():
    _assert_matches_old_rules(range(1, 16))


@pytest.mark.slow
def test_certified_threshold_equals_scan_rule_to_d41():
    _assert_matches_old_rules(range(16, 42))


def test_lengths_from_n0_to_5n0_pass():
    for d, m in ((3, 2), (8, 3), (15, 5), (25, 2)):
        n0 = find_threshold(d, m).horizon
        assert all(check_n(n, d, m).passed for n in range(n0, 5 * n0 + 1)), (d, m)


def test_c0_equals_g0_equals_ball():
    # Both sides are polynomials in n of degree <= e, so agreeing at the
    # e + 1 lengths 2e+1..3e+1 proves c_0 = g(0) = sum gamma^i C(n, i)
    # for every n; at t = 0 the certified bound is then hamming_rhs.
    for m in range(2, 6):
        for e in range(13):
            for n in range(2 * e + 1, 3 * e + 2):
                g, c = _sign_values(n, e, m)
                ball = sum((m * m - 1) ** i * comb(n, i) for i in range(e + 1))
                assert g[0] == c[0] == ball, (n, e, m)


def test_certificate_checks_degree_bound(monkeypatch):
    # d=9 samples n = 9..22; one wrong value at the last sample leaves a
    # nonzero difference of order 3e + 1.
    real = hamming_witness._sign_values

    def corrupt_last(n, e, m):
        g, c = real(n, e, m)
        if n == 22:
            c[1] += 1
        return g, c

    monkeypatch.setattr(hamming_witness, "_sign_values", corrupt_last)
    with pytest.raises(AssertionError, match="degree bound"):
        find_threshold(9, 2)


def test_certificate_negative_top_difference_raises(monkeypatch):
    # With g = 1 and c_0 = 1, D_1 = 1 - c_1 = 1 - (n-3)^2: positive at
    # n = 3 but with Delta^2 = -2 forever, so no n0 exists and walking up
    # would never end.
    def fake(n, e, m):
        return [1, 1, 1], [1, (n - 3) ** 2, 0]

    monkeypatch.setattr(hamming_witness, "_sign_values", fake)
    with pytest.raises(HorizonError):
        find_threshold(3, 2)


def test_certificate_requires_nonzero_partial_sums(monkeypatch):
    # g(1) = n - 5 vanishes at n = 5, where D_1 = g(1)^2 >= 0 still
    # holds; only the g(1)^2 - 1 >= 0 vector keeps n0 above 5.
    def fake(n, e, m):
        return [1, n - 5, 1], [1, 0, 0]

    monkeypatch.setattr(hamming_witness, "_sign_values", fake)
    assert find_threshold(3, 2).horizon == 6


def test_certificate_one_binding_difference(monkeypatch):
    # D_1 = 4 - (10 - n) = n - 6 is the only polynomial negative at
    # n = 3; g(1)^2 - 1 = 3, g(2)^2 - 1 = 0 and D_2 = 1 need no steps.
    def fake(n, e, m):
        return [1, 2, 1], [1, 10 - n, 0]

    monkeypatch.setattr(hamming_witness, "_sign_values", fake)
    assert find_threshold(3, 2).horizon == 6


def test_threshold_report_json_shape():
    report = find_threshold(3, 2)
    doc = json.loads(json.dumps(report.to_dict()))
    assert set(doc) == {"d", "m", "horizon", "threshold", "stable_tail", "per_n"}
    assert doc["d"] == 3 and doc["m"] == 2
    assert doc["horizon"] == 5 and doc["threshold"] == 5
    assert doc["stable_tail"] is True
    assert len(doc["per_n"]) == 3
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
            kraw_table.cache_clear()


@pytest.mark.slow
def test_check_n_matches_generic_route_full_grid():
    # Every length the old scan horizon max(100, 10d) covered for d <= 25.
    for m in range(2, 6):
        for n in range(1, 251):
            for d in range(1, min(25, n) + 1):
                if n <= max(100, 10 * d):
                    _assert_matches_generic(n, d, m)
            kraw_table.cache_clear()


def test_scan_builds_no_krawtchouk_table():
    kraw_table.cache_clear()
    find_threshold(15, 3)
    assert kraw_table.cache_info().currsize == 0


def test_value_table_reproduces_closed_form():
    # Row t of the count table and the oracle's closed form are both
    # polynomials in n of degree <= e - ceil(t/2) (a, b >= t + s - e with
    # a + b <= t, and the binomial support of product_coeff), so agreeing
    # at that many lengths plus one proves the row for every n.
    for m in range(2, 6):
        for e in range(13):
            B = _value_table(e, m)
            assert len(B) == 2 * e + 1
            for t, row in enumerate(B):
                deg = e - (t + 1) // 2
                assert len(row) == e + 1 and not any(row[deg + 1:]), (t, e, m)
                for n in range(2 * e + 1, 2 * e + deg + 2):
                    spec = WitnessSpec(2 * e + 1, KrawParams(n, m))
                    value = sum(b * comb(n - t, s) for s, b in enumerate(row))
                    assert spec.params.q**n * value == witness_value(t, spec), (n, t, e, m)


def test_scan_evaluates_each_length_once(monkeypatch):
    # The certificate's samples serve the scan; only lengths past them
    # are evaluated again.  d = 25 samples n = 25..62 and n0 <= 62;
    # d = 29 samples n = 29..72 and n0 = 73 at m = 2.
    real = hamming_witness._sign_values
    lengths = []

    def counting(n, e, m):
        lengths.append(n)
        return real(n, e, m)

    monkeypatch.setattr(hamming_witness, "_sign_values", counting)
    for d, m, calls in ((25, 2, 38), (25, 5, 38), (29, 2, 45)):
        lengths.clear()
        find_threshold(d, m)
        assert len(lengths) == len(set(lengths)) == calls, (d, m)


def test_check_n_zero_partial_sum_fails_conditions(monkeypatch):
    # g(t) never vanishes on S for any length scanned in practice, so
    # force a zero at t = 1 to exercise the condition-failure verdict.
    real = hamming_witness.kraw_recurrence

    def zero_at_one(k_max, xs, p):
        for row in real(k_max, xs, p):
            yield [0 if x == 1 else v for x, v in zip(xs, row)]

    monkeypatch.setattr(hamming_witness, "kraw_recurrence", zero_at_one)
    verdict = check_n(9, 5, 2)
    assert verdict == NVerdict(9, 5, 2, False, False, None, None, hamming_rhs(9, 5, 2))
