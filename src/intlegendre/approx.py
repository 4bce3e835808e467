"""Constrained extremal problem and Fourier expansion in the integrated
Legendre family.

The kernel solution of the minimization problem is accepted only when the
exact first-order (KKT) conditions certify it optimal; the registry keeps a
brute-force quadratic program, solved by Bareiss elimination, as a witness.
The coefficient from endpoint moments is returned as a value; the registry
compares it with the orthogonality-based integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import quad
from .exactpoly import ONE, Poly, X, _moment_vector
from .kernel import kernel_sum
from .legendre import legendre_poly, legendre_series, legendre_values
from .qfamily import QTable, X2_MINUS_1, fourier_coeffs, q_series, weighted_inner_product
from .quad import FUNCTIONS


class SingularSystem(ArithmeticError):
    """Exact linear solve hit a zero pivot; the Gram matrix of a positive
    definite form can never do this, so it signals an implementation bug."""


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"fraction-free elimination left a remainder: {a} / {b}")
    return q


def solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Fraction-free (Bareiss) elimination on integer rows.

    Each row is scaled by the lcm of its denominators. Every division in the
    elimination and in the back substitution is exact by Sylvester's
    identity and Cramer's rule; a remainder raises ArithmeticError.
    """
    n = len(rhs)
    a = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (scale // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularSystem(f"zero pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        p = top[col]
        for row in a[col + 1:]:
            f = row[col]
            row[col + 1:] = [_exact_div(v * p - f * w, prev)
                             for v, w in zip(row[col + 1:], top[col + 1:])]
        prev = p
    # prev is now the determinant up to sign, so each prev * x_i is an integer
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[n] * prev - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = _exact_div(acc, row[i])
    return [Fraction(v, prev) for v in y]


class BruteForceResult(NamedTuple):
    m_value: Fraction
    poly: Poly


def brute_force_minimizer(n: int, qtable: QTable) -> BruteForceResult:
    """Minimize the weighted square integral over degree-n polynomials with
    value 1 at 0, independently of the kernel machinery.

    Feasible polynomials factor as (1-x^2) r(x) with deg r <= n-2 and
    r(0) = 1 (anything not vanishing at both endpoints has a divergent
    objective). The objective is then the plain integral of (1-x^2) r^2,
    a positive definite quadratic form solved by exact normal equations.
    """
    if n < 2:
        raise ValueError("minimization needs degree >= 2")

    def gram(i: int, j: int) -> Fraction:
        # integral of x^(i+j) (1-x^2) over [-1, 1], for even i + j
        s = i + j
        return 2 * (Fraction(1, s + 1) - Fraction(1, s + 3))

    # The Gram entries vanish for odd i + j, so the normal equations split by
    # parity. The odd block is positive definite and its right side (the
    # negated entries (i, 0), i odd) is zero, so its unique solution is 0;
    # only the even coefficients r_2, r_4, ..., r_{n-2} are solved for.
    even = range(2, n - 1, 2)
    coeffs = [Fraction(1)] + [Fraction(0)] * (n - 2)
    if even:
        matrix = [[gram(i, j) for j in even] for i in even]
        coeffs[2::2] = solve_exact(matrix, [-gram(i, 0) for i in even])
    r = Poly(coeffs)
    m_value = ((-X2_MINUS_1) * r * r).integral(-1, 1)
    return BruteForceResult(m_value, (-X2_MINUS_1) * r)


class ExtremalSolution(NamedTuple):
    """Kernel-form solution of the constrained minimization; minimize_constrained
    returns it only once certify_minimizer has proved it and its minimum."""

    n: int
    q_coeffs: Mapping[int, Fraction]
    minimizer: Poly
    min_value: Fraction


def certify_minimizer(p: Poly, n: int) -> Fraction:
    """The minimum, once the KKT conditions prove p the degree-n minimizer:
    deg p <= n, p(1) = p(-1) = 0, p(0) = 1, and the integral of p x^j (its
    product with the direction (1-x^2) x^j) is 0 for j = 1..n-2. Then the
    minimum, the integral of p r for p = (1-x^2) r, is the integral of p."""
    if len(p.nums) > n + 1:
        raise AssertionError(f"degree {p.degree} above {n}")
    if p.at(1) or p.at(-1) or p.at(0) != 1:
        raise AssertionError(f"constraints fail at n={n}: p(1) = {p.at(1)}, "
                             f"p(-1) = {p.at(-1)}, p(0) = {p.at(0)}")
    pair, xj = p.pairing(n - 2), X
    for j in range(1, n - 1):
        if pair(xj):
            raise AssertionError(f"optimality fails at j={j}: integral of p x^{j} is {pair(xj)}")
        xj = xj * X
    return pair(ONE)


def minimize_constrained(n: int, qtable: QTable) -> ExtremalSolution:
    """Solve the degree-n problem through the kernel section at 0.

    The minimum is 1/K_n(0,0) and the minimizer is the section scaled to 1
    at 0, both certified. Sums involve even members only; odd members vanish at 0.
    """
    if n < 2:
        raise ValueError("minimization needs degree >= 2")
    section = kernel_sum(n, 0, qtable)
    k00 = section.value_at_y
    m_value = 1 / k00
    minimizer = section.poly * m_value
    q_coeffs = {
        k: qtable.q(k).at(0) / qtable.norm_sq(k) * m_value
        for k in range(2, n + 1, 2)
    }
    certified = certify_minimizer(minimizer, n)
    if certified != m_value:
        raise AssertionError(f"certified minimum {certified} is not 1/K_n(0,0) at n={n}")
    return ExtremalSolution(n, q_coeffs, minimizer, m_value)


# -- Fourier coefficients -----------------------------------------------------


def moment_vector(f: Poly, n: int) -> list[Fraction]:
    """Even moments of the n-th derivative: integral of x^(2k) f^(n) over
    [-1, 1] for k = 0..n-1, exact."""
    fn = f.deriv(n)
    scale, vec = _moment_vector(fn.nums, range(0, 2 * n, 2), len(fn.nums) + 2 * n)
    return [Fraction(v, fn.den * scale) for v in vec]


def fourier_coeff_moments(f: Poly, n: int) -> Fraction:
    """Coefficient from endpoint moments of the n-th derivative,
    (2n-1)/(2^n (n-1)!) sum_k (-1)^k C(n-1, k) m_k.

    This carries the sign that matches qfamily.fourier_coeffs whenever f
    vanishes at both endpoints (where the underlying integration by parts has
    no boundary terms); the stated form has an extra (-1)^n. The binomial sum
    runs over k = 0..n-1; the k = n term carries a vanishing binomial and is
    dropped.
    """
    if n < 2:
        raise ValueError("family starts at degree 2")
    moments = moment_vector(f, n)
    acc = sum(
        ((-1) ** k * math.comb(n - 1, k)) * moments[k] for k in range(n)
    )
    return Fraction(2 * n - 1, 2**n * math.factorial(n - 1)) * acc


# -- expansion ----------------------------------------------------------------

_GRID = [(-1.0 + 2.0 * i / 1000.0) for i in range(1001)]


class ExpansionReport(NamedTuple):
    """Partial-sum expansion data.

    coeffs maps member degree to the coefficient (Fraction for polynomial
    input, float for named functions). residual_weighted_l2 is math.inf for
    polynomial input that does not vanish at both endpoints, where the
    weighted residual genuinely diverges.
    """

    coeffs: Mapping[int, Union[Fraction, float]]
    residual_sup: float
    residual_weighted_l2: float
    method: str


def expand(f: Union[Poly, str], top_degree: int, qtable: Optional[QTable]) -> ExpansionReport:
    """Expand f over family members 2..top_degree.

    Polynomial input stays exact end to end (method 'quadrature_exact');
    named functions from FUNCTIONS use floating quadrature against the
    interior factors (method 'quadrature_float') and no table (qtable=None).
    """
    if top_degree < 2:
        raise ValueError("expansion needs top degree >= 2")
    if isinstance(f, str):
        try:
            fn = FUNCTIONS[f]
        except KeyError:
            raise ValueError(f"unknown function name {f!r}") from None
        return _expand_named(fn, top_degree)
    if qtable is None or top_degree > qtable.max_degree:
        raise ValueError("table too shallow for requested expansion")
    return _expand_poly(f, top_degree, qtable)


def _expand_poly(f: Poly, top_degree: int, qtable: QTable) -> ExpansionReport:
    coeffs = {n: a for n, a in fourier_coeffs(f, top_degree, qtable).items() if a}
    diff = f - q_series(coeffs, qtable)
    if diff.is_zero():
        return ExpansionReport(coeffs, 0.0, 0.0, "quadrature_exact")
    # the residual's Legendre coefficients (2k+1)/2 * integral of diff*P_k, exact
    deg = diff.degree
    scale, vec = _moment_vector(diff.nums, range(deg + 1), 2 * deg + 2)
    r = [Fraction((2 * k + 1) * sum(map(mul, vec, p.nums)), 2 * diff.den * scale * p.den)
         for k, p in enumerate(map(legendre_poly, range(deg + 1)))]
    # |P_k| <= 1 on [-1, 1], so |diff| <= sum |r_k| there; an endpoint (a grid
    # point) that reaches the bound certifies it as the sup, exact
    bound, ends = sum(map(abs, r)), (diff.at(1), diff.at(-1))
    if max(map(abs, ends)) == bound:
        sup = float(bound)
    else:  # rounded once and summed on the grid by the recurrence
        series = legendre_series([float(c) for c in r])
        sup = max(abs(series(x)) for x in _GRID)
    if ends == (0, 0):
        l2 = math.sqrt(float(weighted_inner_product(diff, diff)))
    else:
        l2 = math.inf
    return ExpansionReport(coeffs, sup, l2, "quadrature_exact")


def _expand_named(fn: Callable[[float], float], top_degree: int) -> ExpansionReport:
    # Each named integrand is entire and the order top + 32 rule is exact through degree
    # 2 top + 63, so the first Legendre coefficient of fn it aliases lies at degree >= 64,
    # far below double rounding: one rule per integral, no order doubling.
    order = top_degree + 32
    # a_n = <f, Q_n>_w / |Q_n|^2 = -(2n-1)/2 * integral of f P'_{n-1}, because
    # the interior factor Q_n/(x^2-1) is P'_{n-1}/(n(n-1))
    def weighted(x: float, w: float) -> list[float]:
        d, wfx = legendre_values(top_degree - 1, x).d, w * fn(x)
        return [-(2 * n - 1) / 2 * wfx * d[n - 1] for n in range(2, top_degree + 1)]

    coeffs = dict(enumerate(quad.integrate(weighted, order), 2))
    # Q_n = (P_n - P_{n-2})/(2n-1) turns the partial sum into a Legendre series
    g = {n: a / (2 * n - 1) for n, a in coeffs.items()}
    partial = legendre_series([g.get(k, 0.0) - g.get(k + 2, 0.0) for k in range(top_degree + 1)])

    sup = max(abs(fn(x) - partial(x)) for x in _GRID)
    (res,) = quad.integrate(lambda x, w: (w * (fn(x) - partial(x)) ** 2 / (1.0 - x * x),), order)
    return ExpansionReport(coeffs, sup, math.sqrt(max(res, 0.0)), "quadrature_float")


def parseval_gap(f: Poly, top_degree: int, qtable: QTable) -> Fraction:
    """Exact difference between the weighted square norm of f and the sum of
    squared coefficients times member norms; zero on the admissible span."""
    lhs = weighted_inner_product(f, f)
    rhs = sum(a**2 * qtable.norm_sq(n) for n, a in fourier_coeffs(f, top_degree, qtable).items())
    return lhs - rhs
