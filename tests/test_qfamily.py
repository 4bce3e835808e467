import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import qfamily
from intlegendre.approx import fourier_coeffs
from intlegendre.exactpoly import NotDivisible, Poly, X
from intlegendre.qfamily import (
    X2_MINUS_1,
    RootCountMismatch,
    build_q_table,
    q_float,
    q_member,
    q_norm_sq,
    q_rodrigues,
    q_roots,
    q_series,
    weighted_inner_product,
)
from intlegendre.legendre import double_factorial, legendre_values
from intlegendre.quad import gauss_legendre

Q2 = Poly((F(-1, 2), 0, F(1, 2)))
Q3 = Poly((0, F(-1, 2), 0, F(1, 2)))
Q4 = Poly((F(1, 8), 0, F(-3, 4), 0, F(5, 8)))


def test_first_members(qtable):
    assert qtable[2] == Q2
    assert qtable[3] == Q3
    assert qtable[4] == Q4


def test_table_bounds():
    with pytest.raises(ValueError):
        build_q_table(1)


@pytest.mark.parametrize("depth", [2, 3, 17])
def test_table_holds_each_member_at_its_degree(depth):
    q = build_q_table(depth)
    assert q[:2] == (None, None)
    assert list(q[2:]) == list(map(q_member, range(2, depth + 1)))


def test_interior_factorization(qtable, ltable):
    # Q_n = (x^2-1) i_n with i_n = P'_{n-1}/(n(n-1)), the quotient exact
    for n in range(2, 21):
        assert qtable[n].divexact(X2_MINUS_1) == ltable[n - 1].deriv() / (n * (n - 1))
    assert qtable[4].divexact(X2_MINUS_1) == Poly((F(-1, 8), 0, F(5, 8)))


def test_derivative_is_previous_legendre(qtable, ltable):
    for n in range(2, 21):
        assert qtable[n].deriv() == ltable[n - 1]


def test_rodrigues_form(qtable):
    assert q_rodrigues(2) == Q2
    assert q_rodrigues(3) == Q3
    assert q_rodrigues(6) == qtable[6]
    for n in range(2, 13):
        assert q_rodrigues(n) == qtable[n]


def test_binomial_rodrigues_equals_the_power_then_derivative_reference():
    # the reference expands (x^2-1)^(n-1) by repeated squaring, then differentiates
    for n in range(2, 129):
        core = ((X * X - 1) ** (n - 1)).deriv(n)
        want = (X2_MINUS_1 * core) / (2 ** (n - 1) * math.factorial(n) * (n - 1))
        assert q_rodrigues(n) == want, n


def test_norm_closed_form():
    assert q_norm_sq(2) == F(1, 3)
    assert q_norm_sq(3) == F(1, 15)
    assert q_norm_sq(5) == F(1, 90)


def test_weighted_inner_product(qtable):
    assert weighted_inner_product(qtable[2], qtable[3]) == 0
    assert weighted_inner_product(qtable[4], qtable[4]) == F(1, 42)
    with pytest.raises(NotDivisible):
        weighted_inner_product(Poly((1,)), Poly((1,)))


def test_norms_match_exact_integrals(qtable):
    for n in range(2, 21):
        assert weighted_inner_product(qtable[n], qtable[n]) == q_norm_sq(n)


def test_value_at_zero(qtable):
    # the stated (-1)^((n-2)/2) (n-3)!!/n!! carries the opposite sign
    assert qtable[2].at(0) == F(-1, 2)
    assert qtable[4].at(0) == F(1, 8)
    assert qtable[5].at(0) == 0


def test_zero_magnitude_matches_double_factorials(qtable):
    for n in range(2, 41):
        value = qtable[n].at(0)
        if n % 2:
            assert value == 0
        else:
            assert abs(value) == F(double_factorial(n - 3), double_factorial(n))


def test_boundary_derivatives(qtable):
    assert qtable[2].deriv().at(1) == 1
    assert qtable[5].deriv().at(-1) == 1
    assert qtable[4].deriv(2).at(1) == 6
    for n in range(2, 21):
        d1, d2 = qtable[n].deriv(), qtable[n].deriv(2)
        assert d1.at(1) == 1
        assert d1.at(-1) == (-1) ** (n - 1)
        assert d2.at(1) == F(n * (n - 1), 2)
        assert -2 * d2.at(1) + n * (n - 1) * d1.at(1) == 0


def test_ode_residuals(qtable):
    for n in range(2, 21):
        q = qtable[n]
        assert ((-X2_MINUS_1) * q.deriv(2) + q.scale(n * (n - 1))).is_zero()
        third = (X * q.deriv(2)).scale(-2) + (-X2_MINUS_1) * q.deriv(3) + q.deriv().scale(
            n * (n - 1)
        )
        assert third.is_zero()


def test_roots_small_cases():
    assert q_roots(2) == [-1.0, 1.0]
    roots3 = q_roots(3)
    assert roots3[0] == -1.0 and roots3[-1] == 1.0
    assert roots3[1] == pytest.approx(0.0, abs=1e-13)
    roots4 = q_roots(4)
    assert roots4[1] == pytest.approx(-1 / math.sqrt(5), abs=1e-13)
    assert roots4[2] == pytest.approx(1 / math.sqrt(5), abs=1e-13)


def test_roots_interlace_and_inflect(qtable):
    for n in range(3, 13):
        roots = q_roots(n)
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
            1.0, max(abs(qtable[n].divexact(X2_MINUS_1).at_float(x)) for x in interior)
        )
        second = qtable[n].deriv(2)
        assert all(abs(second.at_float(r)) / scale < 1e-9 for r in interior)


def test_root_residual_tolerance():
    for n in range(3, 13):
        for r in q_roots(n)[1:-1]:
            assert abs(q_float(n, r)[0]) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 514, 10**6])
def test_roots_outside_the_degree_range_name_the_degree(n):
    with pytest.raises(ValueError, match=rf"^degree must be in 2\.\.513, got {n}$"):
        q_roots(n)


@pytest.mark.parametrize("n", [17, 64, 257, 512, 513])
def test_root_bits_depend_on_n_alone(monkeypatch, n):
    # nodes pulled 2^-30 toward 0 still bracket every root, mirrored exactly;
    # Newton starts from n alone, so not one bit of a root moves
    expected = q_roots(n)
    rule = gauss_legendre(n - 1)
    shrunk = rule._replace(nodes=tuple([x * (1 - 2**-30) for x in rule.nodes]))
    monkeypatch.setattr(qfamily, "gauss_legendre", lambda m: shrunk)
    assert q_roots(n) == expected


@pytest.mark.parametrize("n", [3, 12])
def test_root_with_a_large_residual_is_rejected(monkeypatch, n):
    # the value is off by 1e-6 and the slope reads infinite, so Newton settles
    # where it starts: inside its gap (for n = 3 on the true root 0) but off the root
    real = qfamily.q_float
    monkeypatch.setattr(qfamily, "q_float", lambda n, x: (real(n, x)[0] + 1e-6, math.inf))
    with pytest.raises(RootCountMismatch):
        q_roots(n)


@pytest.mark.parametrize("n", [3, 12, 40])
def test_root_outside_its_gap_is_rejected(monkeypatch, n):
    # a true root of the member, reported one unit away from its Gauss-node gap
    real = qfamily.newton

    def moved(f, x0):
        x, *rest = real(f, x0)
        return x + 1.0, *rest

    monkeypatch.setattr(qfamily, "newton", moved)
    with pytest.raises(RootCountMismatch):
        q_roots(n)


def test_integral_relation(qtable):
    # the pinned antiderivative and the member itself as neighbour differences
    for n in (3, 4, 20):
        qn, hi, lo = qtable[n], qtable[n + 1], qtable[n - 1]
        anti = qn.antideriv()
        assert anti - anti.at(-1) == (hi - lo) / (2 * n - 1)
        assert qn == (hi.deriv() - lo.deriv()) / (2 * n - 1)


def test_leading_coefficients(qtable):
    for n in range(2, 41):
        # (2n-2)! / (2^(n-1) ((n-1)!)^2 n)
        closed = F(math.factorial(2 * n - 2), 2 ** (n - 1) * math.factorial(n - 1) ** 2 * n)
        assert closed == qtable[n].coeff(n)


def test_q_float_matches_table(qtable):
    # reference is the exact rational value of the binary float point
    for n in (2, 7, 20, 40):
        q = qtable[n]
        d = q.deriv()
        for x in (-0.9, -0.2, 0.0, 0.5, 1.0):
            v, dv = q_float(n, x)
            assert v == pytest.approx(float(q.at(F(x))), rel=1e-12, abs=1e-13)
            assert dv == pytest.approx(float(d.at(F(x))), rel=1e-12, abs=1e-13)


def test_q_float_equals_the_difference_of_listed_values_bit_for_bit():
    # one recurrence step past legendre_float(n-1, x) gives the bits of
    # (P_n - P_{n-2})/(2n-1) and P_{n-1} read off the full pass
    for x in (-1.0, -0.999, -0.3, 0.0, 0.1, 0.7, 0.9999999, 1.0):
        for n in range(2, 129):
            v = legendre_values(n, x)
            assert q_float(n, x) == ((v.p[n] - v.p[n - 2]) / (2 * n - 1), v.p[n - 1]), (n, x)


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


@pytest.mark.parametrize("depth", [2, 3, 64, 128])
def test_table_matches_the_poly_reference(depth, reference_legendre):
    # Q_n = (P_n - P_{n-2})/(2n-1) with Q_n' = P_{n-1}, on Legendre rows from the rational
    # recurrence: no route through the equation rows the table is built from
    p = reference_legendre
    polys = [(p[n] - p[n - 2]) / (2 * n - 1) for n in range(2, depth + 1)]
    fields = lambda ps: [(q.den, q.nums) for q in ps]  # noqa: E731
    q = build_q_table(depth)
    assert len(q) == depth + 1
    assert fields(q[2:]) == fields(polys)
    assert [q[n].coeff(n) for n in range(2, depth + 1)] == [qn.coeffs[-1] for qn in polys]
    assert all(q[n].deriv() == p[n - 1] for n in range(2, depth + 1))


@pytest.mark.parametrize("depth", [16, 64, 128])
def test_integer_build_matches_the_rational_construction(depth, reference_legendre):
    # i_n = P'_{n-1}/(n(n-1)) and Q_n = (x^2-1) i_n in Poly arithmetic
    q = build_q_table(depth)
    for n in range(2, depth + 1):
        inner = reference_legendre[n - 1].deriv() / (n * (n - 1))
        qn = X2_MINUS_1 * inner
        i = q[n].divexact(X2_MINUS_1)
        assert (i.den, i.nums) == (inner.den, inner.nums), n
        assert (q[n].den, q[n].nums) == (qn.den, qn.nums), n


def test_interior_factors_equal_the_exact_quotients():
    # each member vanishes at +-1, so i_n = Q_n/(x^2-1) is exact, of degree n - 2 and with
    # Q_n's lead: NormQn reads lead(i_n) off Q_n
    q = build_q_table(128)
    for n in range(2, 129):
        i = q[n].divexact(X2_MINUS_1)
        assert (q[n].at(1), q[n].at(-1)) == (0, 0), n
        assert (i.degree, i.coeff(n - 2)) == (n - 2, q[n].coeff(n)), n


def test_members_are_built_alone():
    assert q_member(2) == Q2
    assert q_member(4) == Q4
    with pytest.raises(ValueError):
        q_member(1)


@pytest.mark.parametrize("fault, message", [
    # Q_10's interior factor is the degree-8 row of the e = 3 equation, 2^9 P'_9
    ("lead", "degree-8 solution of equation 3 left a remainder at x^6"),
    ("numerator", "degree-8 solution of equation 3 left a remainder at x^4"),
    ("scale", "normalization P'_m(1) = m(m+1)/2 broken at m = 9"),
])
def test_member_certificates_catch_a_fault(row_fault, fault, message):
    # the fault is planted in legendre's one derivative row, which Q and r both read
    row_fault(fault)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        q_member(10)


def _rand_scalar(rng):
    return rng.randint(-9, 9) if rng.random() < 0.3 else F(rng.randint(-99, 99), rng.randint(1, 99))


def test_fourier_coeffs_equal_the_fraction_definition():
    # a_n = <f, Q_n>_w / |Q_n|^2, each side one Fraction route of its own, for any polynomial
    # f, endpoints vanishing or not; the zero coefficients are left out
    rng = random.Random("fourier-coeffs")
    qtable = build_q_table(64)
    inputs = [Poly(), Poly((7,)), Poly([rng.randint(-9, 9) for _ in range(40)])]
    inputs += [Poly([_rand_scalar(rng) for _ in range(rng.randint(1, 70))]) for _ in range(8)]
    for f in inputs:
        top = rng.randint(2, 64)
        want = {n: weighted_inner_product(f, qtable[n]) / q_norm_sq(n) for n in range(2, top + 1)}
        assert fourier_coeffs(f, top) == {n: a for n, a in want.items() if a}


def test_q_series_equals_the_fraction_definition():
    # the coefficient of x^j is the Fraction sum of c_n times Q_n's x^j coefficient
    rng = random.Random("q-series")
    qtable = build_q_table(64)
    maps = [{}, {5: 0, 9: F(0)}, {2: 1, 3: -4, 64: 2}]
    for _ in range(8):
        ns = rng.sample(range(2, 65), rng.randint(1, 20))
        maps.append({n: 0 if rng.random() < 0.2 else _rand_scalar(rng) for n in ns})
    for coeffs in maps:
        top = max(coeffs, default=2)
        want = Poly([sum((c * qtable[n].coeff(j) for n, c in coeffs.items()), F(0))
                     for j in range(top + 1)])
        assert q_series(coeffs, qtable) == want
    assert q_series({}, qtable).is_zero()
    assert q_series({3: 2, 4: 1}, qtable) - q_series({4: 1}, qtable) == qtable[3].scale(2)
