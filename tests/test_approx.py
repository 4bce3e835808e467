import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import quad
from intlegendre.approx import (
    _GRID,
    FUNCTIONS,
    SingularSystem,
    _exact_div,
    brute_force_minimizer,
    certify_minimizer,
    expand,
    fourier_coeff_moments,
    minimize_constrained,
    parseval_gap,
    solve_exact,
)
from intlegendre.exactpoly import Poly
from intlegendre.kernel import kernel_sum
from intlegendre.legendre import (double_factorial, legendre_poly, legendre_rodrigues,
                                  legendre_series)
from intlegendre.qfamily import (X2_MINUS_1, build_q_table, fourier_coeffs, q_member, q_norm_sq,
                                 q_series, weighted_inner_product)

ONE_MINUS_X2 = Poly((1, 0, -1))


def test_solve_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    assert solve_exact(a, [F(3), F(4)]) == [F(1), F(1)]
    with pytest.raises(SingularSystem):
        solve_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])


def _gauss_jordan(matrix, rhs):
    """Naive Gauss-Jordan over Fractions: the reference for solve_exact."""
    n = len(rhs)
    a = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"zero pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


_entries = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 6))
    matrix = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        matrix[0][0] = F(0)
    return matrix, draw(st.lists(_entries, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_solve_exact_matches_gauss_jordan(system):
    matrix, rhs = system
    try:
        want = _gauss_jordan(matrix, rhs)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            solve_exact(matrix, rhs)
    else:
        assert solve_exact(matrix, rhs) == want


def test_solve_exact_zero_leading_pivot_and_late_singularity():
    assert solve_exact([[F(0), F(1)], [F(1, 2), F(0)]], [F(2), F(3)]) == [F(6), F(2)]
    with pytest.raises(SingularSystem):
        solve_exact([[F(1), F(2), F(3)], [F(0), F(1), F(1)], [F(1), F(3), F(4)]],
                    [F(1), F(1), F(1)])


def test_exact_division_refuses_a_remainder():
    assert _exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        _exact_div(7, 2)


@pytest.mark.parametrize("n", range(2, 21))
def test_brute_force_equals_unsplit_solve(n, qtable):
    # the full normal equations over r_1..r_{n-2}, without the parity split
    def gram(i, j):
        s = i + j
        return F(0) if s % 2 else 2 * (F(1, s + 1) - F(1, s + 3))

    free = range(1, n - 1)
    coeffs = [F(1)]
    if free:
        coeffs += _gauss_jordan([[gram(i, j) for j in free] for i in free],
                                [-gram(i, 0) for i in free])
    r = Poly(coeffs)
    result = brute_force_minimizer(n)
    assert result.poly == ONE_MINUS_X2 * r
    assert result.m_value == (ONE_MINUS_X2 * r * r).integral(-1, 1)


def test_minimize_at_the_depth_cap():
    s = minimize_constrained(64)
    assert certify_minimizer(s.minimizer, 64) == s.min_value
    assert s.minimizer.degree == 64
    assert s.minimizer.at(0) == 1


def test_brute_force_small(qtable):
    r2 = brute_force_minimizer(2)
    assert r2.m_value == F(4, 3)
    assert r2.poly == ONE_MINUS_X2
    r4 = brute_force_minimizer(4)
    assert r4.m_value == F(32, 45)
    r5 = brute_force_minimizer(5)
    assert r5.m_value == F(32, 45)
    assert r5.poly == r4.poly  # odd directions vanish by symmetry


@pytest.mark.parametrize("n", range(2, 41))
def test_certified_solution_is_the_brute_force_optimum(n, qtable):
    s = minimize_constrained(n)
    oracle = brute_force_minimizer(n)
    assert s.minimizer == oracle.poly
    assert certify_minimizer(s.minimizer, n) == s.min_value == oracle.m_value


@pytest.mark.parametrize("n", [4, 5, 12, 40])
def test_certificate_rejects_a_perturbed_minimizer(n, qtable):
    p = minimize_constrained(n).minimizer
    assert certify_minimizer(p, n) == brute_force_minimizer(n).m_value
    # feasible, but not stationary: the integral of (1-x^2) x^2 * x^2 is nonzero
    bent = p + ONE_MINUS_X2 * Poly((0, 0, F(1, 1000)))
    with pytest.raises(AssertionError, match="j=2:"):
        certify_minimizer(bent, n)


@pytest.mark.parametrize("n", [3, 4, 12, 64])
def test_certificate_reads_every_direction(n):
    # Q_k = (x^2-1) i_k with i_k orthogonal under 1 - x^2 to every power below k - 2, so each
    # perturbation keeps p feasible (0 at +-1 and at 0) and first breaks stationarity at j
    p = minimize_constrained(n).minimizer
    for j in range(1, n - 1):
        q = q_member(j + 2)[0]
        if j % 2 == 0:  # even members do not vanish at 0: cancel that with the next one
            if j + 4 > n:
                continue
            nxt = q_member(j + 4)[0]
            q = nxt - q * (nxt.at(0) / q.at(0))
        with pytest.raises(AssertionError, match=f"j={j}:"):
            certify_minimizer(p + q * F(1, 1000), n)


def test_certificate_rejects_infeasible_polynomials():
    p = minimize_constrained(6).minimizer
    # twice the minimizer passes every stationarity test; only p(0) = 2 is wrong
    with pytest.raises(AssertionError, match=r"p\(0\) = 2"):
        certify_minimizer(p * 2, 6)
    # x(1 + x)/2 keeps p(-1) = 0 and p(0) = 1 but makes p(1) = 1
    with pytest.raises(AssertionError, match=r"p\(1\) = 1,"):
        certify_minimizer(p + Poly((0, F(1, 2), F(1, 2))), 6)
    with pytest.raises(AssertionError, match="degree 7 above 6"):
        certify_minimizer(p + ONE_MINUS_X2 * Poly.monomial(5), 6)


def test_certificate_value_must_match_the_kernel(monkeypatch):
    from intlegendre import approx

    monkeypatch.setattr(approx, "certify_minimizer", lambda p, n: F(1))
    with pytest.raises(AssertionError, match="1/K_n"):
        minimize_constrained(4)


def test_minimize_examples():
    s2 = minimize_constrained(2)
    assert s2.min_value == F(4, 3)
    assert s2.minimizer == ONE_MINUS_X2
    assert s2.q_coeffs == {2: F(-2)}
    s3 = minimize_constrained(3)
    assert s3.min_value == F(4, 3)
    s4 = minimize_constrained(4)
    assert s4.min_value == F(32, 45)
    s5 = minimize_constrained(5)
    assert s5.min_value == s4.min_value
    assert s5.minimizer == s4.minimizer


def test_minimizer_constraints():
    for n in range(2, 13):
        s = minimize_constrained(n)
        assert s.minimizer.at(0) == 1
        assert s.minimizer.at(1) == 0
        assert s.minimizer.at(-1) == 0
        assert certify_minimizer(s.minimizer, n) == s.min_value
        # objective value of the minimizer equals the minimum
        assert weighted_inner_product(s.minimizer, s.minimizer) == s.min_value


def test_minimum_monotone():
    previous = None
    for n in range(2, 17):
        m = minimize_constrained(n).min_value
        if previous is not None:
            assert m <= previous
            if n % 2 == 0:
                assert m < previous
            else:
                assert m == previous
        previous = m


def test_random_competitors_never_beat():
    rng = random.Random(20240817)
    for n in range(2, 11):
        best = minimize_constrained(n).min_value
        for _ in range(50):
            core = Poly(
                [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n - 1)]
            )
            p = ONE_MINUS_X2 * core
            value_at_zero = p.at(0)
            if value_at_zero == 0:
                continue
            p = p / value_at_zero
            assert weighted_inner_product(p, p) >= best


def test_fourier_quadrature_examples(itable):
    assert fourier_coeffs(ONE_MINUS_X2, 2, itable) == {2: -2}
    assert fourier_coeffs(Poly((0, 1, 0, -1)), 3, itable)[3] == -2
    assert fourier_coeffs(Poly((0, 0, 1, 0, -1)), 4, itable)[4] == F(-8, 5)
    for top in (1, 0):
        with pytest.raises(ValueError, match="family starts at degree 2"):
            fourier_coeffs(ONE_MINUS_X2, top, itable)


def test_moment_vector():
    # the formula's even moments of f^(n), each integral of x^(2k) f^(n) taken on its own
    rng = random.Random("moments")
    for _ in range(20):
        n = rng.randint(2, 12)
        f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 16))])
        moments = [(Poly.monomial(2 * k) * f.deriv(n)).integral(-1, 1) for k in range(n)]
        acc = sum((-1) ** k * math.comb(n - 1, k) * m for k, m in enumerate(moments))
        assert fourier_coeff_moments(f, n) == F(2 * n - 1, 2**n * math.factorial(n - 1)) * acc


def test_moment_formula_signs(qtable):
    # the stated form is (-1)^n times the returned value
    c2 = fourier_coeff_moments(ONE_MINUS_X2, 2)
    assert c2 == -2
    assert (-1) ** 2 * c2 == -2  # signs coincide at even order
    c3 = fourier_coeff_moments(Poly((0, 1, 0, -1)), 3)
    assert c3 == -2
    assert (-1) ** 3 * c3 == 2  # stated sign flips at odd order
    assert fourier_coeff_moments(qtable[4], 4) == 1  # self-coefficient of a basis member


def test_moment_formula_matches_quadrature_on_vanishing_inputs(itable):
    rng = random.Random(911)
    for _ in range(30):
        n = rng.randint(2, 12)
        core = Poly([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))])
        f = X2_MINUS_1 * core
        assert fourier_coeff_moments(f, n) == fourier_coeffs(f, n, itable)[n]


def _monomial_stated(k):
    """The stated closed form (-1)^k k 2^(k-1) ((k-1)!)^2/(2k-2)! for f = x^k."""
    return F((-1) ** k * k * 2 ** (k - 1) * math.factorial(k - 1) ** 2, math.factorial(2 * k - 2))


def test_monomial_closed_form(itable):
    x2 = Poly.monomial(2)
    assert (fourier_coeffs(x2, 2, itable)[2], fourier_coeff_moments(x2, 2),
            _monomial_stated(2)) == (F(-1), F(2), F(2))
    assert (fourier_coeff_moments(Poly.monomial(3), 3), _monomial_stated(3)) == (F(2), F(-2))
    assert fourier_coeff_moments(Poly.monomial(4), 4) == F(8, 5)
    for k in range(2, 13):
        moment = fourier_coeff_moments(Poly.monomial(k), k)
        assert abs(_monomial_stated(k)) == abs(moment)
        assert _monomial_stated(k) == (-1) ** k * moment


def test_parseval_on_span(qtable, itable):
    rng = random.Random(5150)
    for _ in range(10):
        top = rng.randint(3, 12)
        f = Poly()
        for k in range(2, top + 1):
            f = f + qtable[k].scale(F(rng.randint(-4, 4), rng.randint(1, 4)))
        assert parseval_gap(f, top, itable) == 0


def test_expand_exact_polynomial():
    rep = expand(Poly((0, 0, 1, 0, -1)), 4)
    assert rep.coeffs == {2: F(-2, 5), 4: F(-8, 5)}
    assert rep.residual_sup == 0.0
    assert rep.residual_weighted_l2 == 0.0
    assert rep.method == "quadrature_exact"


def test_expand_single_member(qtable):
    rep = expand(qtable[10], 10)
    assert rep.coeffs == {10: F(1)}
    assert rep.residual_sup == 0.0


def test_expand_truncation_reports_residuals(qtable):
    # truncating a span element leaves an exactly computable weighted residual
    f = qtable[2] + qtable[6].scale(F(1, 3))
    rep = expand(f, 4)
    assert rep.coeffs == {2: F(1)}
    expected_l2 = math.sqrt(float(q_norm_sq(6)) / 9)
    assert rep.residual_weighted_l2 == pytest.approx(expected_l2, rel=1e-12)
    assert rep.residual_sup > 0


def test_expand_non_vanishing_input_has_divergent_weighted_residual():
    rep = expand(Poly.monomial(2), 4)
    assert math.isinf(rep.residual_weighted_l2)
    assert rep.residual_sup > 0


def _partial_sum(rep, qtable):
    return sum((qtable[n].scale(a) for n, a in rep.coeffs.items()), Poly())


@pytest.mark.parametrize("seed, top", [(0, 40), (1, 40), (2, 41)])
def test_expand_residual_sup_matches_the_exact_residual(qtable, seed, top):
    # a low-degree input that does not vanish at the endpoints: the residual
    # has degree top, where a monomial-basis float sum loses digits
    rng = random.Random(seed)
    f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)])
    rep = expand(f, top)
    residual = f - _partial_sum(rep, qtable)
    exact = float(max(abs(residual.at(F(x))) for x in _GRID))
    assert rep.residual_sup == exact  # the certified endpoint sup, correctly rounded


def _legendre_coeffs(f):
    # (2k+1)/2 * integral of f P_k, with P_k from its Rodrigues form
    return [F(2 * k + 1, 2) * (f * legendre_rodrigues(k)).integral(-1, 1)
            for k in range((f.degree or 0) + 1)]


def test_certified_residual_sup_is_the_exact_bound(qtable):
    # For N >= deg f the telescoping Q_n = (P_n - P_{n-2})/(2n-1) leaves the
    # residual S_{N+1} P_{N-1} + S_{N+2} P_N, where S_m sums the input's
    # Legendre coefficients c_j over j <= m-2 with j = m mod 2; the sup of
    # |r| <= sum |r_k| is then reached at an endpoint
    rng = random.Random("endpoint-certificate")
    for _ in range(40):
        deg = rng.randint(0, 10)
        f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])
        top = rng.randint(max(deg, 2), 41)
        c = _legendre_coeffs(f) + [F(0)] * (top + 3)
        s1, s2 = (sum(c[m - 2::-2]) for m in (top + 1, top + 2))
        rep = expand(f, top)
        r = _legendre_coeffs(f - _partial_sum(rep, qtable))
        assert r + [0] * (top + 1 - len(r)) == [0] * (top - 1) + [s1, s2], (f, top)
        assert rep.residual_sup == float(abs(s1) + abs(s2)), (f, top)


def test_uncertified_residual_sup_is_the_grid_maximum(qtable):
    # degree 8 at N = 4: the residual's sum |r_k| = 4.73... exceeds both
    # |r(1)| and |r(-1)| = 4.6869..., so the sup comes from the 1001-point grid
    rng = random.Random(0)
    f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)])
    rep = expand(f, 4)
    r = _legendre_coeffs(f - _partial_sum(rep, qtable))
    ends = sum(r), sum((-1) ** k * v for k, v in enumerate(r))  # P_k(±1) = (±1)^k
    assert max(map(abs, ends)) < sum(map(abs, r))
    assert rep.residual_sup == 4.6869047619047635  # as before the certificate


def test_expand_named_function():
    rep = expand("one-minus-x2-exp", 12)
    assert rep.method == "quadrature_float"
    assert rep.residual_sup < 1e-8
    assert rep.residual_weighted_l2 < 1e-8
    with pytest.raises(ValueError):
        expand("no-such-function", 6)


def test_named_expansion_runs_one_rule_of_order_top_plus_32(monkeypatch):
    orders, real = [], quad.gauss_legendre

    def recorded(m):
        orders.append(m)
        return real(m)

    monkeypatch.setattr(quad, "gauss_legendre", recorded)
    expand("sin-pi", 12)
    assert orders == [44, 44]  # the coefficients, then the weighted residual
    with pytest.raises(TypeError):
        expand("sin-pi", 12, 1e-12)  # no tolerance to pass


def test_named_registry_values_vanish_at_endpoints():
    for fn in FUNCTIONS.values():
        assert fn(1.0) == pytest.approx(0.0, abs=1e-15)
        assert fn(-1.0) == pytest.approx(0.0, abs=1e-15)


def test_named_expansion_reads_no_table(monkeypatch):
    from intlegendre import approx, qfamily

    def no_member(*args):
        raise AssertionError("a family member was built")

    monkeypatch.setattr(qfamily, "build_q_table", no_member)
    monkeypatch.setattr(approx, "q_member", no_member)
    assert expand("sin-pi", 12).method == "quadrature_float"
    assert expand(ONE_MINUS_X2, 12).coeffs == {2: -2}
    with pytest.raises(TypeError):
        expand(ONE_MINUS_X2, 12, None)  # no table to pass


def test_expansion_coefficients_decay_spectrally():
    rep = expand("one-minus-x2-exp", 12)
    tail = [abs(rep.coeffs[n]) for n in (10, 11, 12)]
    head = [abs(rep.coeffs[n]) for n in (2, 3, 4)]
    assert max(tail) < 1e-5 * max(head)


def test_one_pairing_coefficients_equal_the_per_member_integrals():
    rng = random.Random("one-pairing")
    itable = build_q_table(64)[1]
    for _ in range(12):
        top = rng.randint(2, 64)
        f = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 70))])
        # the exact integral of -f times the interior factor, one product per member
        want = {n: -(f * itable[n]).integral(-1, 1) / q_norm_sq(n)
                for n in range(2, top + 1)}
        assert fourier_coeffs(f, top, itable) == want


# -- the Legendre route against the Q route -------------------------------------

_Q64, _I64 = build_q_table(64)


def _q_route(f, top):
    """The expansion by the Q table: fourier_coeffs, the partial sum by q_series, the
    weighted norm of the residual by weighted_inner_product, and the residual's sup from
    its Legendre coefficients, each an exact integral against P_k."""
    coeffs = {n: a for n, a in fourier_coeffs(f, top, _I64).items() if a}
    diff = f - q_series(coeffs, _Q64)
    if diff.is_zero():
        return coeffs, 0.0, 0.0
    r = [F(2 * k + 1, 2) * (diff * legendre_poly(k)).integral(-1, 1)
         for k in range(diff.degree + 1)]
    bound, ends = sum(map(abs, r)), (diff.at(1), diff.at(-1))
    if max(map(abs, ends)) == bound:
        sup = float(bound)
    else:
        series = legendre_series([float(c) for c in r])
        sup = max(abs(series(x)) for x in _GRID)
    l2 = math.sqrt(float(weighted_inner_product(diff, diff))) if ends == (0, 0) else math.inf
    return coeffs, sup, l2


@st.composite
def _expansion_inputs(draw):
    coeffs = st.builds(F, st.integers(-99, 99), st.integers(1, 99))
    if draw(st.booleans()):  # vanishing at both endpoints: the Parseval residual
        f = X2_MINUS_1 * Poly(draw(st.lists(coeffs, min_size=0, max_size=69)))
    else:
        f = Poly(draw(st.lists(coeffs, min_size=1, max_size=71)))
    return f, draw(st.integers(2, 64))


@settings(max_examples=120, deadline=None)
@given(_expansion_inputs())
def test_legendre_route_equals_the_q_route(case):
    f, top = case
    rep = expand(f, top)
    coeffs, sup, l2 = _q_route(f, top)
    assert rep.coeffs == coeffs
    assert (rep.residual_sup, rep.residual_weighted_l2) == (sup, l2)  # bit for bit
    assert math.copysign(1, rep.residual_sup) == math.copysign(1, sup)


@pytest.mark.parametrize("k, top", [(2, 2), (40, 64), (64, 64), (64, 2), (33, 20)])
def test_member_given_in_the_legendre_basis_equals_the_member(k, top):
    # Q_k = (P_k - P_{k-2})/(2k-1), and P_k = e_k, expand the same as their monomials
    q_basis = [0] * (k - 2) + [F(-1, 2 * k - 1), 0, F(1, 2 * k - 1)]
    assert expand(q_basis, top) == expand(q_member(k)[0], top)
    assert expand([0] * k + [1], top) == expand(legendre_poly(k), top)


@pytest.mark.parametrize("n", range(2, 65))
def test_minimizer_is_the_kernel_section_at_zero(n):
    qtable = build_q_table(n)[0]
    section = kernel_sum(n, 0, qtable)
    s = minimize_constrained(n)
    assert s.minimizer == section.poly * (1 / section.value_at_y)
    assert s.min_value == 1 / section.value_at_y
    assert s.q_coeffs == {k: qtable[k].at(0) / q_norm_sq(k) * s.min_value
                          for k in range(2, n + 1, 2)}


@pytest.mark.parametrize("n", [4, 9, 40, 64])
def test_certificate_catches_a_perturbed_member_numerator(n, monkeypatch):
    from intlegendre import approx

    real = approx.q_member

    def perturbed(k):
        # move x^3 - x^5 of the shifted minimizer: still feasible, no longer stationary
        q, i = real(k)
        nums = list(q.nums)
        nums[3] += q.den
        nums[5] -= q.den
        return Poly([F(c, q.den) for c in nums]), i

    monkeypatch.setattr(approx, "q_member", perturbed)
    with pytest.raises(AssertionError, match="optimality fails at j="):
        minimize_constrained(n)


@pytest.mark.parametrize("wrong", [
    lambda k: F((-1) ** (k // 2) * double_factorial(k - 1), double_factorial(k)),
    lambda k: F((-1) ** (k // 2) * double_factorial(k - 3), double_factorial(k) + (k == 6)),
])
def test_cross_check_catches_a_wrong_value_at_zero(wrong, monkeypatch):
    # the cross-check sums Q_k(0)^2, so it reads magnitudes; the signs of the coefficients
    # are held to the Q table by test_minimizer_is_the_kernel_section_at_zero
    from intlegendre import approx

    monkeypatch.setattr(approx, "_q_at_zero", wrong)
    with pytest.raises(AssertionError, match="1/K_n"):
        minimize_constrained(8)
