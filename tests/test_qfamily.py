import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import qfamily
from intlegendre.exactpoly import NotDivisible, Poly, X
from intlegendre.qfamily import (
    X2_MINUS_1,
    RootCountMismatch,
    build_q_table,
    q_float,
    q_norm_sq,
    q_rodrigues,
    q_roots,
    weighted_inner_product,
)
from intlegendre.legendre import build_legendre, double_factorial
from intlegendre.quad import gauss_legendre

Q2 = Poly((F(-1, 2), 0, F(1, 2)))
Q3 = Poly((0, F(-1, 2), 0, F(1, 2)))
Q4 = Poly((F(1, 8), 0, F(-3, 4), 0, F(5, 8)))


def test_first_members(qtable):
    assert qtable.q(2) == Q2
    assert qtable.q(3) == Q3
    assert qtable.q(4) == Q4


def test_table_bounds(qtable):
    with pytest.raises(IndexError):
        qtable.q(1)
    with pytest.raises(IndexError):
        qtable.q(42)
    with pytest.raises(IndexError):
        qtable.norm_sq(42)
    with pytest.raises(ValueError):
        build_q_table(1)


def test_interior_factorization(qtable):
    for n in range(2, 21):
        assert qtable.q(n) == X2_MINUS_1 * qtable.interior_factor(n)
    assert qtable.interior_factor(4) == Poly((F(-1, 8), 0, F(5, 8)))


def test_derivative_is_previous_legendre(qtable, ltable):
    for n in range(2, 21):
        assert qtable.q(n).deriv() == ltable.poly(n - 1)


def test_rodrigues_form(qtable):
    assert q_rodrigues(2) == Q2
    assert q_rodrigues(3) == Q3
    assert q_rodrigues(6) == qtable.q(6)
    for n in range(2, 13):
        assert q_rodrigues(n) == qtable.q(n)


def test_norm_closed_form():
    assert q_norm_sq(2) == F(1, 3)
    assert q_norm_sq(3) == F(1, 15)
    assert q_norm_sq(5) == F(1, 90)


def test_weighted_inner_product(qtable):
    assert weighted_inner_product(qtable.q(2), qtable.q(3)) == 0
    assert weighted_inner_product(qtable.q(4), qtable.q(4)) == F(1, 42)
    with pytest.raises(NotDivisible):
        weighted_inner_product(Poly((1,)), Poly((1,)))


def test_norms_match_exact_integrals(qtable):
    for n in range(2, 21):
        assert weighted_inner_product(qtable.q(n), qtable.q(n)) == qtable.norm_sq(n)


def test_value_at_zero(qtable):
    # the stated (-1)^((n-2)/2) (n-3)!!/n!! carries the opposite sign
    assert qtable.q(2).at(0) == F(-1, 2)
    assert qtable.q(4).at(0) == F(1, 8)
    assert qtable.q(5).at(0) == 0


def test_zero_magnitude_matches_double_factorials(qtable):
    for n in range(2, 41):
        value = qtable.q(n).at(0)
        if n % 2:
            assert value == 0
        else:
            assert abs(value) == F(double_factorial(n - 3), double_factorial(n))


def test_boundary_derivatives(qtable):
    assert qtable.q(2).deriv().at(1) == 1
    assert qtable.q(5).deriv().at(-1) == 1
    assert qtable.q(4).deriv(2).at(1) == 6
    for n in range(2, 21):
        d1, d2 = qtable.q(n).deriv(), qtable.q(n).deriv(2)
        assert d1.at(1) == 1
        assert d1.at(-1) == (-1) ** (n - 1)
        assert d2.at(1) == F(n * (n - 1), 2)
        assert -2 * d2.at(1) + n * (n - 1) * d1.at(1) == 0


def test_ode_residuals(qtable):
    for n in range(2, 21):
        q = qtable.q(n)
        assert ((-X2_MINUS_1) * q.deriv(2) + q.scale(n * (n - 1))).is_zero()
        third = (X * q.deriv(2)).scale(-2) + (-X2_MINUS_1) * q.deriv(3) + q.deriv().scale(
            n * (n - 1)
        )
        assert third.is_zero()


def test_roots_small_cases(qtable):
    assert q_roots(2, qtable) == [-1.0, 1.0]
    roots3 = q_roots(3, qtable)
    assert roots3[0] == -1.0 and roots3[-1] == 1.0
    assert roots3[1] == pytest.approx(0.0, abs=1e-13)
    roots4 = q_roots(4, qtable)
    assert roots4[1] == pytest.approx(-1 / math.sqrt(5), abs=1e-13)
    assert roots4[2] == pytest.approx(1 / math.sqrt(5), abs=1e-13)


def test_roots_interlace_and_inflect(qtable):
    for n in range(3, 13):
        roots = q_roots(n, qtable)
        assert len(roots) == n
        assert all(a < b for a, b in zip(roots, roots[1:]))
        interior = roots[1:-1]
        # exactly one root strictly inside each gap between consecutive zeros of P_{n-1}
        nodes = gauss_legendre(n - 1).nodes
        assert all(lo < r < hi for lo, r, hi in zip(nodes, interior, nodes[1:]))
        assert all(r == -s for r, s in zip(roots, reversed(roots)))
        # interior roots are inflection points: the second derivative is a
        # multiple of the interior factor, so it vanishes there after scaling
        scale = n * (n - 1) * max(
            1.0, max(abs(qtable.interior_factor(n).at_float(x)) for x in interior)
        )
        second = qtable.q(n).deriv(2)
        assert all(abs(second.at_float(r)) / scale < 1e-9 for r in interior)


def test_root_residual_tolerance(qtable):
    for n in range(3, 13):
        for r in q_roots(n, qtable)[1:-1]:
            assert abs(q_float(n, r)[0]) < 1e-12


@pytest.mark.parametrize("n", [3, 12])
def test_root_with_a_large_residual_is_rejected(qtable, monkeypatch, n):
    # the value is off by 1e-6 and the slope reads infinite, so Newton settles
    # where it starts: inside its gap (for n = 3 on the true root 0) but off the root
    real = qfamily.q_float
    monkeypatch.setattr(qfamily, "q_float", lambda n, x: (real(n, x)[0] + 1e-6, math.inf))
    with pytest.raises(RootCountMismatch):
        q_roots(n, qtable)


@pytest.mark.parametrize("n", [3, 12, 40])
def test_root_outside_its_gap_is_rejected(qtable, monkeypatch, n):
    # a true root of the member, reported one unit away from its Gauss-node gap
    real = qfamily.newton

    def moved(f, x0):
        x, value, slope = real(f, x0)
        return x + 1.0, value, slope

    monkeypatch.setattr(qfamily, "newton", moved)
    with pytest.raises(RootCountMismatch):
        q_roots(n, qtable)


def test_integral_relation(qtable):
    # the pinned antiderivative and the member itself as neighbour differences
    for n in (3, 4, 20):
        qn, hi, lo = qtable.q(n), qtable.q(n + 1), qtable.q(n - 1)
        anti = qn.antideriv()
        assert anti - anti.at(-1) == (hi - lo) / (2 * n - 1)
        assert qn == (hi.deriv() - lo.deriv()) / (2 * n - 1)


def test_leading_coefficients(qtable):
    for n in range(2, 41):
        # (2n-2)! / (2^(n-1) ((n-1)!)^2 n)
        closed = F(math.factorial(2 * n - 2), 2 ** (n - 1) * math.factorial(n - 1) ** 2 * n)
        assert closed == qtable.lead(n)


def test_q_float_matches_table(qtable):
    # reference is the exact rational value of the binary float point
    for n in (2, 7, 20, 40):
        q = qtable.q(n)
        d = q.deriv()
        for x in (-0.9, -0.2, 0.0, 0.5, 1.0):
            v, dv = q_float(n, x)
            assert v == pytest.approx(float(q.at(F(x))), rel=1e-12, abs=1e-13)
            assert dv == pytest.approx(float(d.at(F(x))), rel=1e-12, abs=1e-13)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
cores = st.lists(small_fractions, min_size=1, max_size=4).map(Poly)


@settings(max_examples=30, deadline=None)
@given(cores, cores)
def test_weighted_ip_symmetric_bilinear(a, b):
    p = X2_MINUS_1 * a
    q = X2_MINUS_1 * b
    assert weighted_inner_product(p, q) == weighted_inner_product(q, p)
    assert weighted_inner_product(p + q, q) == weighted_inner_product(
        p, q
    ) + weighted_inner_product(q, q)


@settings(max_examples=30, deadline=None)
@given(cores)
def test_weighted_norm_nonnegative(a):
    p = X2_MINUS_1 * a
    assert weighted_inner_product(p, p) >= 0


def _reference_q_table(depth):
    """Members, interior factors and leading coefficients from Poly arithmetic."""
    ltable = build_legendre(depth)
    polys = [(ltable.poly(n) - ltable.poly(n - 2)) / (2 * n - 1) for n in range(2, depth + 1)]
    return polys, [q.divexact(X2_MINUS_1) for q in polys], [q.coeffs[-1] for q in polys]


@pytest.mark.parametrize("depth", [2, 3, 64, 128])
def test_table_matches_the_poly_reference(depth):
    table = build_q_table(depth)
    polys, interior, leading = _reference_q_table(depth)
    fields = lambda ps: [(p.den, p.nums) for p in ps]  # noqa: E731
    assert table.max_degree == depth
    assert table.legendre == build_legendre(depth)
    assert fields(table.polys[2:]) == fields(polys)
    assert fields(table.interior[2:]) == fields(interior)
    assert [table.lead(n) for n in range(2, depth + 1)] == leading
    assert table.polys[:2] == table.interior[:2] == (None, None)


def _with_row(ltable, n, poly):
    polys = list(ltable.polys)
    polys[n] = poly
    return dataclasses.replace(ltable, polys=tuple(polys))


def test_interior_factors_equal_the_exact_quotients():
    table = build_q_table(128)
    for n in range(2, 129):
        assert table.interior_factor(n) == table.q(n).divexact(X2_MINUS_1), n


def _rows_off_legendres_equation(ltable):
    # P_1 + 1/3 with P_2 rebuilt as P_0 + 3 * (antiderivative of that row
    # vanishing at 1): x^2 - 1 times P'_1/2 no longer has P_1 as its derivative
    row1 = ltable.poly(1) + F(1, 3)
    anti = row1.antideriv()
    row2 = ltable.poly(0) + (anti - anti.at(1)).scale(3)
    return _with_row(_with_row(ltable, 1, row1), 2, row2)


@pytest.mark.parametrize("bad, degree", [
    (lambda lt: _with_row(lt, 6, lt.poly(6) + X2_MINUS_1), 7),
    (lambda lt: _with_row(lt, 6, lt.poly(6) + 1), 7),
    (_rows_off_legendres_equation, 2),
], ids=["P6-plus-x2-minus-1", "P6-plus-1", "rows-1-2"])
def test_construction_cross_check_catches_a_bad_row(bad, degree):
    # Q_n is built from P_{n-1}, so a bad row k first trips the check at k + 1
    with pytest.raises(AssertionError,
                       match=f"construction cross-check failed at degree {degree}$"):
        build_q_table(8, bad(build_legendre(8)))
