"""The oracles' product linearization and orthogonality extraction."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qhamming.krawtchouk import KrawParams, kraw_table

from oracles import kbasis_extract, linearize_product


def test_degree_zero_factor_gives_unit_row():
    for n in (1, 3, 5):
        p = KrawParams(n, 2)
        for j in range(n + 1):
            expected = tuple(1 if k == j else 0 for k in range(n + 1))
            assert linearize_product(0, j, p) == expected
            assert linearize_product(j, 0, p) == expected


def test_square_of_degree_one_small_case():
    # Oracle-derived: P_1(x; 2)^2 takes values (36, 4, 4) on x = 0, 1, 2
    # and extracting those through orthogonality gives (6, 2, 2).
    p = KrawParams(2, 2)
    table = kraw_table(p)
    values = [table[1][x] ** 2 for x in range(3)]
    extracted = kbasis_extract(values, p)
    assert extracted == (Fraction(6), Fraction(2), Fraction(2))

    coeffs = linearize_product(1, 1, p)
    assert coeffs == (6, 2, 2)
    # pointwise: 6*P_0 + 2*P_1 + 2*P_2 reproduces the squared values
    for x in range(3):
        assert sum(c * table[k][x] for k, c in enumerate(coeffs)) == values[x]


def test_support_bounds():
    # c_k vanishes outside |i-j| <= k <= i+j
    for n in range(1, 9):
        for m in (2, 3):
            p = KrawParams(n, m)
            for i in range(n + 1):
                for j in range(n + 1):
                    coeffs = linearize_product(i, j, p)
                    for k in range(n + 1):
                        if k > i + j or k < abs(i - j):
                            assert coeffs[k] == 0, (n, m, i, j, k)


def test_symmetry_in_the_two_degrees():
    p = KrawParams(6, 3)
    for i in range(7):
        for j in range(i, 7):
            assert linearize_product(i, j, p) == linearize_product(j, i, p)


def test_pointwise_equivalence_small_sweep():
    for n in range(1, 7):
        for m in (2, 3):
            p = KrawParams(n, m)
            table = kraw_table(p)
            for i in range(n + 1):
                for j in range(n + 1):
                    coeffs = linearize_product(i, j, p)
                    for x in range(n + 1):
                        lhs = table[i][x] * table[j][x]
                        rhs = sum(c * table[k][x] for k, c in enumerate(coeffs))
                        assert lhs == rhs


def test_extract_basis_rows_give_unit_vectors():
    p = KrawParams(5, 2)
    table = kraw_table(p)
    for k in range(6):
        values = [table[k][t] for t in range(6)]
        coeffs = kbasis_extract(values, p)
        assert coeffs == tuple(Fraction(1 if r == k else 0) for r in range(6))


def test_extract_all_ones_is_unit_at_zero():
    p = KrawParams(7, 3)
    coeffs = kbasis_extract([1] * 8, p)
    assert coeffs == tuple(Fraction(1 if r == 0 else 0) for r in range(8))


@st.composite
def _coeff_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=2, max_value=3))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    return KrawParams(n, m), tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(_coeff_vectors())
def test_extract_round_trips_random_coefficients(case):
    p, coeffs = case
    table = kraw_table(p)
    values = [
        sum(c * table[r][t] for r, c in enumerate(coeffs)) for t in range(p.n + 1)
    ]
    assert kbasis_extract(values, p) == coeffs
