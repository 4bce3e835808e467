import math
import random
import re
from fractions import Fraction as F

import pytest

from intlegendre import legendre
from intlegendre.exactpoly import Poly, X
from intlegendre.legendre import (
    _solves_equation,
    build_legendre,
    double_factorial,
    legendre_even_at_zero,
    legendre_float,
    legendre_odd_deriv_at_zero,
    legendre_poly,
    legendre_rodrigues,
    legendre_series,
    legendre_shifted_expansion,
    legendre_special_values,
    legendre_values,
    pochhammer_half,
)


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_pochhammer_half():
    assert pochhammer_half(0) == 1
    assert pochhammer_half(1) == F(1, 2)
    assert pochhammer_half(3) == F(15, 8)


def test_first_members(ltable):
    assert ltable[0] == Poly((1,))
    assert ltable[1] == X
    assert ltable[2] == Poly((F(-1, 2), 0, F(3, 2)))
    assert ltable[3] == Poly((0, F(-3, 2), 0, F(5, 2)))


def test_table_holds_degrees_0_to_max_degree():
    table = build_legendre(4)
    assert type(table) is tuple and len(table) == 5
    assert [p.degree for p in table] == [0, 1, 2, 3, 4] and table[0] == Poly((1,))


def test_normalized_at_one(ltable):
    assert all(ltable[n].at(1) == 1 for n in range(41))


def test_rodrigues_form(ltable):
    assert legendre_rodrigues(0) == Poly((1,))
    assert legendre_rodrigues(3) == Poly((0, F(-3, 2), 0, F(5, 2)))
    for n in range(13):
        assert legendre_rodrigues(n) == ltable[n]


def test_binomial_rodrigues_equals_the_power_then_derivative_reference():
    # the reference expands (x^2-1)^n by repeated squaring, then differentiates
    for n in range(129):
        want = ((X * X - 1) ** n).deriv(n) / (2**n * math.factorial(n))
        assert legendre_rodrigues(n) == want, n


def test_shifted_expansion(ltable):
    assert legendre_shifted_expansion(0) == Poly((1,))
    assert legendre_shifted_expansion(1) == X
    assert legendre_shifted_expansion(2) == Poly((F(-1, 2), 0, F(3, 2)))
    for n in range(13):
        assert legendre_shifted_expansion(n) == ltable[n]


def test_special_values_against_table(ltable):
    for n in range(21):
        p = ltable[n]
        sv = legendre_special_values(n)
        assert sv.at_plus1 == p.at(1)
        assert sv.at_minus1 == p.at(-1)
        assert sv.at0 == p.at(0)
        assert sv.deriv_at0 == p.deriv().at(0)
        assert sv.deriv_at_plus1 == p.deriv().at(1)
        assert sv.second_deriv_at_plus1 == p.deriv(2).at(1)


def test_special_value_examples():
    assert legendre_special_values(2).at0 == F(-1, 2)
    assert legendre_special_values(3).at0 == 0
    assert legendre_special_values(4).deriv_at_plus1 == 10


def test_even_and_odd_zero_closed_forms(ltable):
    for m in range(16):
        assert legendre_even_at_zero(m) == ltable[2 * m].at(0)
    for m in range(15):
        assert legendre_odd_deriv_at_zero(m) == ltable[2 * m + 1].deriv().at(0)


def test_derivative_recurrence(ltable):
    # (2n+1) P_n = P'_{n+1} - P'_{n-1}
    for n in (1, 2, 10):
        lhs = ltable[n].scale(2 * n + 1)
        assert lhs == ltable[n + 1].deriv() - ltable[n - 1].deriv()


def test_orthogonality_small(ltable):
    for n in range(13):
        for m in range(n, 13):
            got = (ltable[n] * ltable[m]).integral(-1, 1)
            assert got == (F(2, 2 * n + 1) if n == m else 0)


def test_norm_ratio(ltable):
    for n in range(1, 13):
        sq_n = (ltable[n] * ltable[n]).integral(-1, 1)
        sq_prev = (ltable[n - 1] * ltable[n - 1]).integral(-1, 1)
        assert sq_n == F(2 * n - 1, 2 * n + 1) * sq_prev


def test_partial_integral_ladder(ltable):
    # the antiderivative pinned at -1 equals the scaled neighbour difference
    for n in range(1, 13):
        anti = ltable[n].antideriv()
        anti = anti - anti.at(-1)
        assert anti == (ltable[n + 1] - ltable[n - 1]) / (2 * n + 1)


def test_second_derivative_at_endpoints(ltable):
    for n in range(13):
        want = F((n - 1) * n * (n + 1) * (n + 2), 8)
        assert ltable[n].deriv(2).at(1) == want
        assert ltable[n].deriv(2).at(-1) == F((-1) ** n) * want


def test_float_recurrence_matches_table(ltable):
    # reference is the exact rational value of the binary float point
    for n in (5, 20, 40):
        p, prev = ltable[n], ltable[n - 1]
        for x in (-1.0, -0.7, 0.0, 0.3, 1.0):
            v, v_prev = legendre_float(n, x)
            assert v == pytest.approx(float(p.at(F(x))), rel=1e-12, abs=1e-13)
            assert v_prev == pytest.approx(float(prev.at(F(x))), rel=1e-12, abs=1e-13)


def test_rolling_pass_equals_the_full_pass_bit_for_bit():
    # legendre_float keeps two terms of the value recurrence legendre_values lists
    for x in (-1.0, -0.999, 0.0, 0.3, 0.9999999, 1.0):
        assert legendre_float(0, x) == (1.0, 0.0)
        for n in range(1, 513):
            v = legendre_values(n, x)
            assert legendre_float(n, x) == (v.p[n], v.p[n - 1]), (n, x)
    with pytest.raises(ValueError):
        legendre_float(-1, 0.5)


def test_shifted_expansion_up_to_128():
    table = build_legendre(128)
    for n in range(129):
        assert legendre_shifted_expansion(n) == table[n], n


def test_one_pass_gives_every_degree():
    table = build_legendre(64)
    for x in (-1.0, -0.999, 0.0, 0.3, 0.9, 1.0):
        v = legendre_values(64, x)
        assert len(v.p) == len(v.d) == 65
        for n in range(65):
            p = table[n]
            assert v.p[n] == pytest.approx(float(p.at(F(x))), rel=1e-12, abs=1e-14)
            assert v.d[n] == pytest.approx(float(p.deriv().at(F(x))), rel=1e-12, abs=1e-12)
    assert legendre_values(0, 0.5) == ([1.0], [0.0])
    with pytest.raises(ValueError):
        legendre_values(-1, 0.5)


def test_series_sums_the_exact_combination():
    table = build_legendre(64)
    rng = random.Random(7)
    for size in (1, 2, 3, 17, 65):
        c = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
        exact = sum((table[k].scale(ck) for k, ck in enumerate(c)), Poly())
        scale = float(sum(abs(ck) for ck in c))
        series = legendre_series([float(ck) for ck in c])
        for x in (-1.0, -0.999, -0.37, 0.0, 0.5, 0.9, 1.0):
            assert abs(series(x) - float(exact.at(F(x)))) <= 1e-14 * scale


def test_build_validates_input():
    with pytest.raises(ValueError):
        build_legendre(0)


@pytest.mark.parametrize("depth", [1, 2, 3, 64, 128])
def test_integer_rows_match_the_rational_recurrence(depth, reference_legendre):
    table = build_legendre(depth)
    want = reference_legendre[: depth + 1]
    assert len(table) == depth + 1
    assert [(p.den, p.nums) for p in table] == [(p.den, p.nums) for p in want]


def test_members_are_built_alone(reference_legendre):
    assert [legendre_poly(n) for n in (128, 0, 57)] == [reference_legendre[n] for n in (128, 0, 57)]
    with pytest.raises(ValueError):
        legendre_poly(-1)


@pytest.mark.parametrize("fault, message", [
    ("lead", "degree-10 solution of equation 1 left a remainder at x^8"),
    ("numerator", "degree-10 solution of equation 1 left a remainder at x^6"),
    ("scale", "normalization P_n(1) = 1 broken at degree 10"),
])
def test_member_certificates_catch_a_fault(row_fault, fault, message):
    row_fault(fault)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        legendre_poly(10)


def test_derivative_row_is_the_scaled_legendre_derivative(reference_legendre):
    # 2^m P'_m for m = 1..128, on Legendre rows from the rational recurrence
    for m in range(1, 129):
        want = [c * 2**m for c in reference_legendre[m].deriv().coeffs]
        assert legendre._derivative_row(m) == want, m


def test_equation_row_solves_its_equation():
    # the leads of 2^n P_n (e = 1) and of 2^(n+1) P'_{n+1} (e = 3)
    for n, e in ((0, 1), (1, 3), (9, 1), (12, 3), (40, 1), (41, 3)):
        lead = math.comb(2 * n, n) if e == 1 else (n + 1) * math.comb(2 * n + 2, n + 1)
        row = legendre._equation_row(n, e, lead)
        assert row[-1] == lead and _solves_equation(row, n, e), (n, e)
