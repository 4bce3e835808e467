"""Constrained extremal problem and Fourier expansion in the integrated
Legendre family.

The minimizer, one member Q_{m+1} over x, is accepted only when the exact KKT conditions
certify it optimal; the registry keeps a brute-force quadratic program, solved by Bareiss
elimination, as a witness. Every expansion coefficient of a polynomial comes from one
function, fourier_coeffs, which runs on its Legendre coefficients with no Q table; expand
prints them and the registry checks them. The coefficient from endpoint moments is returned
as a value; the registry compares it with fourier_coeffs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from . import quad
from .exactpoly import Poly, Scalar, _make, _moment_vector
from .legendre import double_factorial, legendre_poly, legendre_series, legendre_values
from .qfamily import X2_MINUS_1, q_member, q_norm_sq, weighted_inner_product
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


def brute_force_minimizer(n: int) -> BruteForceResult:
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
    scale, vec = _moment_vector(p.nums, range(n - 1), len(p.nums) + n - 1)
    for j in range(1, n - 1):
        if vec[j]:
            raise AssertionError(f"optimality fails at j={j}: integral of p x^{j} is "
                                 f"{Fraction(vec[j], p.den * scale)}")
    return Fraction(vec[0], p.den * scale)


def _q_at_zero(k: int) -> Fraction:
    """Q_k(0) = (-1)^(k/2) (k-3)!!/k!! for even k (the corrected Qnatzero form)."""
    return Fraction((-1) ** (k // 2) * double_factorial(k - 3), double_factorial(k))


def minimize_constrained(n: int) -> ExtremalSolution:
    """Solve the degree-n problem through the kernel section at 0. The interior factors
    Q_k/(x^2-1) are the Gegenbauer C^(3/2) family, so by Christoffel-Darboux K_n(x, 0) is
    proportional to Q_{m+1}(x)/x, m = n rounded down to even (Q_{m+1}(0) = 0). Its scale to 1
    at 0 is the minimizer, which certify_minimizer proves, and the minimum must be 1/K_n(0,0)."""
    if n < 2:
        raise ValueError("minimization needs degree >= 2")
    q = q_member(n - n % 2 + 1)
    minimizer = _make(q.nums[1], list(q.nums[1:]))  # Q_{m+1}/x over its value at 0
    m_value = certify_minimizer(minimizer, n)
    zeros = {k: _q_at_zero(k) for k in range(2, n + 1, 2)}  # odd members vanish at 0
    weights = {k: z / q_norm_sq(k) for k, z in zeros.items()}
    if m_value * sum(weights[k] * z for k, z in zeros.items()) != 1:
        raise AssertionError(f"certified minimum {m_value} is not 1/K_n(0,0) at n={n}")
    q_coeffs = {k: w * m_value for k, w in weights.items()}
    return ExtremalSolution(n, q_coeffs, minimizer, m_value)


# -- Fourier coefficients -----------------------------------------------------


def fourier_coeff_moments(f: Poly, n: int) -> Fraction:
    """Coefficient from endpoint moments of the n-th derivative,
    (2n-1)/(2^n (n-1)!) sum_k (-1)^k C(n-1, k) m_k.

    This carries the sign that matches fourier_coeffs whenever f
    vanishes at both endpoints (where the underlying integration by parts has
    no boundary terms); the stated form has an extra (-1)^n. The binomial sum
    runs over k = 0..n-1; the k = n term carries a vanishing binomial and is
    dropped.
    """
    if n < 2:
        raise ValueError("family starts at degree 2")
    # the even moments of the n-th derivative, integral of x^(2k) f^(n) for k = 0..n-1
    fn = f.deriv(n)
    scale, moments = _moment_vector(fn.nums, range(0, 2 * n, 2), len(fn.nums) + 2 * n)
    acc = sum((-1) ** k * math.comb(n - 1, k) * moments[k] for k in range(n))
    return Fraction((2 * n - 1) * acc, 2**n * math.factorial(n - 1) * fn.den * scale)


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


def fourier_coeffs(f: Union[Poly, Sequence[Scalar]], top_degree: int) -> dict[int, Fraction]:
    """The nonzero a_n = <f, Q_n>_w / |Q_n|^2 for members n = 2..top_degree, the coefficients
    expand prints, of a Poly f or of the Legendre coefficients b of a polynomial (f = sum of
    b_k P_k). No Q table is built: P'_{n-1} = sum of (2k+1) P_k over k = n-2, n-4, ..., so
    a_n = -(2n-1)/2 * integral of f P'_{n-1} = -(2n-1) s_n, s_n the sum of b_k over k <= n-2
    of n's parity."""
    if top_degree < 2:
        raise ValueError("family starts at degree 2")
    if isinstance(f, Poly):  # b_k = (2k+1)/2 * integral of f P_k for k <= top - 2, over one den
        size = min(len(f.nums), top_degree - 1)
        scale, vec = _moment_vector(f.nums, range(size), len(f.nums) + size)
        two = 1 << max(size - 1, 0)  # a multiple of the denominator of each P_k, k < size
        den = 2 * f.den * scale * two
        b = [(2 * k + 1) * sum(map(mul, vec, p.nums)) * (two // p.den)
             for k, p in enumerate(map(legendre_poly, range(size)))]
    else:  # integer numerators over one denominator, as a Poly holds its coefficients
        den, b = (held := Poly(f)).den, held.nums
    s = [0, 0]
    for k in range(top_degree - 1):
        s.append(s[k] + (b[k] if k < len(b) else 0))
    return {n: Fraction(-(2 * n - 1) * s[n], den) for n in range(2, top_degree + 1) if s[n]}


def expand(f: Union[Poly, str, Sequence[Scalar]], top_degree: int) -> ExpansionReport:
    """Expand f over family members 2..top_degree: f is a Poly, the Legendre coefficients b
    of a polynomial (f = sum of b_k P_k) or a name from FUNCTIONS. Polynomial input stays
    exact end to end and builds no Q table (method 'quadrature_exact'); named functions use
    floating quadrature against the interior factors (method 'quadrature_float')."""
    if top_degree < 2:
        raise ValueError("expansion needs top degree >= 2")
    if isinstance(f, str):
        try:
            fn = FUNCTIONS[f]
        except KeyError:
            raise ValueError(f"unknown function name {f!r}") from None
        return _expand_named(fn, top_degree)
    size = max(len(f.nums if isinstance(f, Poly) else f), top_degree + 1)  # deg f < size
    coeffs = fourier_coeffs(f, size + 1)
    tail = {n: coeffs.pop(n) for n in range(top_degree + 1, size + 2) if n in coeffs}
    # With a_n for every n <= size + 1, f's Legendre coefficient on P_k is a_k/(2k-1) -
    # a_{k+2}/(2k+3) for k < size, as Q_n = (P_n - P_{n-2})/(2n-1). So the residual, of degree
    # below size, has the coefficients r_k/den of the tail's members alone, on integers.
    den = math.lcm(*[a.denominator * (2 * n - 1) for n, a in tail.items()])
    r = [0] * size
    for n, a in tail.items():
        u = a.numerator * (den // (a.denominator * (2 * n - 1)))  # a_n/(2n-1) = u/den
        r[n - 2] -= u
        if n < size:
            r[n] += u
    if not any(r):
        return ExpansionReport(coeffs, 0.0, 0.0, "quadrature_exact")
    # |P_k| <= 1 on [-1, 1], so |residual| <= sum |r_k|/den there; an endpoint (a grid
    # point, where P_k(+-1) = (+-1)^k) that reaches the bound certifies it as the sup
    bound, ends = sum(map(abs, r)), (sum(r), sum(r[::2]) - sum(r[1::2]))
    if max(map(abs, ends)) == bound:
        sup = bound / den  # int / int rounds the exact value once
    else:  # rounded once and summed on the grid by the recurrence
        series = legendre_series([c / den for c in r])
        sup = max(abs(series(x)) for x in _GRID)
    if ends == (0, 0):  # f vanishes at both ends, so the residual is the tail's sum: Parseval
        l2 = math.sqrt(float(sum(a * a * q_norm_sq(n) for n, a in tail.items())))
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


def parseval_gap(f: Poly, top_degree: int) -> Fraction:
    """Exact difference between the weighted square norm of f and the sum of
    squared coefficients times member norms; zero on the admissible span."""
    lhs = weighted_inner_product(f, f)
    return lhs - sum(a**2 * q_norm_sq(n) for n, a in fourier_coeffs(f, top_degree).items())
