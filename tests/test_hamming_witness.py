import json
import sys
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming import hamming_witness, krawtchouk
from qhamming.cli import MAX_N, main
from qhamming.exceptions import ConditionError, DomainError, HorizonError
from qhamming.hamming_witness import (
    NVerdict,
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
from qhamming.lp_bound import check_conditions, dimension_bound

from oracles import (lockstep_horizon, poly_eval, scanned_threshold, squared_partial_sums,
                     witness_to_dict, witness_value)


def test_witness_index_set():
    # S = {0..2e} with e = 2 for d = 5; even d = 6 drops the top index
    # d - 1 of {0..d-1} and keeps the same set
    for d in (5, 6):
        f, S = witness_coeffs(9, d, 2)
        assert S == (0, 1, 2, 3, 4)
        assert f.params == KrawParams(9, 2)
    for d in (0, 10):
        with pytest.raises(DomainError, match=rf"^distance d must lie in \[1, 9\], got {d}$"):
            witness_coeffs(9, d, 2)


def test_coeffs_distance_one_is_all_ones():
    f, S = witness_coeffs(6, 1, 3)
    assert f.coeffs == tuple([1] * 7)
    assert S == (0,)


def test_coeffs_known_case():
    # d=3, n=5, m=2: partial sum is 16 - 4t, squared.
    assert witness_coeffs(5, 3, 2)[0].coeffs == (256, 144, 64, 16, 0, 16)


def test_coeffs_equal_squared_defining_sums():
    # The recurrence kernel against P_0 + ... + P_e by the defining sum.
    for m in range(2, 6):
        for n in range(1, 31):
            for d in range(1, n + 1):
                coeffs = witness_coeffs(n, d, m)[0].coeffs
                assert coeffs == squared_partial_sums(n, d, m), (n, m, d)
                assert all(type(c) is int for c in coeffs), (n, m, d)


def test_coeff_at_zero_is_squared_ball_size():
    for n in range(2, 12):
        for m in (2, 3):
            for d in range(1, n + 1):
                g = m * m - 1
                ball = sum(g**i * comb(n, i) for i in range((d - 1) // 2 + 1))
                assert witness_coeffs(n, d, m)[0].coeffs[0] == ball**2


def test_value_at_zero_closed_form():
    assert witness_value(0, 5, 3, 2) == 1024 * 16
    for n in range(2, 10):
        for m in (2, 3):
            for d in (1, 3, 5):
                if d > n:
                    continue
                g = m * m - 1
                expected = (m**(2 * n)) * sum(
                    g**s * comb(n, s) for s in range((d - 1) // 2 + 1)
                )
                assert witness_value(0, n, d, m) == expected


def test_value_known_case():
    assert witness_value(2, 4, 3, 2) == 512


def test_value_vanishes_beyond_twice_e():
    for n in range(2, 13):
        for m in (2, 3):
            for d in (1, 3, 5, 7):
                if d > n:
                    continue
                for t in range(d, n + 1):  # t > 2e = d - 1
                    assert witness_value(t, n, d, m) == 0


def test_value_matches_basis_evaluation():
    # Closed form against sum-then-square through the basis, a full
    # cross-check of two independently coded routes.
    for n in range(2, 11):
        for m in (2, 3):
            for d in (1, 3, 5, 7):
                if d > n:
                    continue
                f = witness_coeffs(n, d, m)[0]
                for t in range(n + 1):
                    assert witness_value(t, n, d, m) == poly_eval(f, t)


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
    assert verdict.argmax_t == 0
    assert verdict.bound == Fraction(2)
    assert verdict.hamming == Fraction(2)


def test_check_n_failing_case():
    verdict = check_n(4, 3, 2)
    assert not verdict.passed
    assert verdict.argmax_t == 2  # the conditions hold, as argmax_t is set
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
    # Scans are not cached: a report lives only as long as its caller holds it,
    # so getrefcount's own argument is its one reference.  The count is taken
    # outside the assert, whose rewriting would keep the report in a temporary.
    refs = sys.getrefcount(find_threshold(3, 2))
    assert refs == 1


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
            # the conditions hold iff argmax_t is set, and the length passes iff it is 0
            assert all(v.passed == (v.argmax_t == 0) and (v.argmax_t is None) == (v.bound is None)
                       for v in report.per_n), (d, m)


def test_certified_threshold_equals_scan_rule():
    _assert_matches_old_rules(range(1, 16))


@pytest.mark.slow
def test_certified_threshold_equals_scan_rule_to_d41():
    _assert_matches_old_rules(range(16, 42))


@pytest.mark.slow
def test_binary_threshold_passes_the_length_cap_from_d97():
    # README "Input caps": at m = 2, check --n reaches N(d, 2) only for d <= 96
    assert find_threshold(95, 2).threshold == MAX_N == 250
    assert find_threshold(97, 2).threshold == 254


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


def test_value_table_counts_make_c_t_positive():
    # The certificate walks only D_t: it gets g(t) != 0 from D_t >= 0
    # through c_t(n) >= B[t][0] >= 1 on S, which needs B to be counts.
    for m in (2, 3, 5, 1024):
        for e in range(21):
            B = _value_table(e, m)
            assert len(B) == 2 * e + 1
            assert all(b >= 0 for row in B for b in row), (e, m)
            assert all(row[0] >= 1 for row in B), (e, m)


def test_certificate_horizons_past_d26():
    # (threshold, horizon) at the least d where also walking g(t)^2 - 1
    # would raise n0: the certificate proves the pass condition alone.
    for m, expected in ((5, (41, 41)), (8, (37, 38))):
        report = find_threshold(27, m)
        assert (report.threshold, report.horizon) == expected, m


def test_certificate_one_binding_difference(monkeypatch):
    # D_1 = 4 - (10 - n) = n - 6 is the only polynomial negative at
    # n = 3; D_2 = 1 needs no steps.
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
    assert verify_small_n_coverage(3, 2, 5) == ()
    # n = 3 and n = 4: the Singleton cap never exceeds the Hamming side
    assert (singleton_rhs(3, 3, 2), hamming_rhs(3, 3, 2)) == (Fraction(1, 2), Fraction(4, 5))
    assert (singleton_rhs(4, 3, 2), hamming_rhs(4, 3, 2)) == (Fraction(1), Fraction(16, 13))


def test_coverage_distance_five_uses_vacuous_lengths():
    # At n=8 the Singleton cap is exactly 1 while the Hamming side is
    # 256/277 < 1: no two-dimensional code can exist there, so the
    # length is settled vacuously rather than by direct comparison.
    assert verify_small_n_coverage(5, 2, 9) == ()
    assert singleton_rhs(8, 5, 2) == 1 > hamming_rhs(8, 5, 2) == Fraction(256, 277)


def test_coverage_empty_window():
    assert verify_small_n_coverage(3, 2, 3) == ()


def test_coverage_uncovered_lengths():
    assert verify_small_n_coverage(7, 2, 14) == (13,)
    assert verify_small_n_coverage(9, 2, 20) == (17, 18, 19)
    assert singleton_rhs(13, 7, 2) == 2 > hamming_rhs(13, 7, 2)


def test_coverage_argument_error():
    with pytest.raises(DomainError, match=r"^threshold N must be >= d = 5, got 4$"):
        verify_small_n_coverage(5, 2, 4)


@pytest.mark.parametrize("d, m, N, named", [
    (0, 1, 0, "distance d must be >= 1, got 0"),
    (0, 2, 5, "distance d must be >= 1, got 0"),
    (-3, 2, 0, "distance d must be >= 1, got -3"),
    (5, 1, 5, "level count m must be >= 2, got 1"),
], ids=["d", "d-nonempty-range", "d-negative", "m"])
def test_coverage_checks_d_and_m_on_an_empty_range(d, m, N, named):
    # N == d leaves no length to scan, and (d, m) is still checked; d is checked first
    with pytest.raises(DomainError, match=f"^{named}$"):
        verify_small_n_coverage(d, m, N)


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
    rhs = hamming_rhs(n, d, m)
    try:
        report = dimension_bound(*witness_coeffs(n, d, m))
    except ConditionError:
        return NVerdict(n, False, None, None, rhs)
    passed = report.argmax_t == 0 and report.bound == rhs
    return NVerdict(n, passed, report.argmax_t, report.bound, rhs)


def _assert_matches_generic(n, d, m):
    verdict = check_n(n, d, m)
    expected = _generic_verdict(n, d, m)
    assert verdict == expected, (n, d, m)
    assert type(verdict.hamming) is Fraction
    assert verdict.bound is None or type(verdict.bound) is Fraction
    assert verdict.argmax_t is None or type(verdict.argmax_t) is int


def test_check_n_matches_generic_route():
    for m in range(2, 6):
        for n in range(1, 51):
            for d in range(1, min(11, n) + 1):
                _assert_matches_generic(n, d, m)


@pytest.mark.slow
def test_check_n_matches_generic_route_full_grid():
    # Every length the old scan horizon max(100, 10d) covered for d <= 25.
    for m in range(2, 6):
        for n in range(1, 251):
            for d in range(1, min(25, n) + 1):
                if n <= max(100, 10 * d):
                    _assert_matches_generic(n, d, m)


def test_scan_builds_no_krawtchouk_table(tmp_path):
    # Only the MacWilliams pair reads the table: the scan, the generic
    # witness route and the bound command stream their sums.
    kraw_table.cache_clear()
    find_threshold(15, 3)
    f, S = witness_coeffs(40, 7, 3)
    dimension_bound(f, S)
    assert check_conditions(f, S) == ((), ())
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_to_dict(f, S)))
    assert CliRunner().invoke(main, ["bound", str(path)]).exit_code == 0
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
                    value = sum(b * comb(n - t, s) for s, b in enumerate(row))
                    assert m**(2 * n) * value == witness_value(t, n, 2 * e + 1, m), (n, t, e, m)


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
    real = krawtchouk.kraw_recurrence

    def zero_at_one(k_max, xs, p):
        for row in real(k_max, xs, p):
            yield [0 if x == 1 else v for x, v in zip(xs, row)]

    monkeypatch.setattr(krawtchouk, "kraw_recurrence", zero_at_one)
    verdict = check_n(9, 5, 2)
    assert verdict == NVerdict(9, False, None, None, hamming_rhs(9, 5, 2))
