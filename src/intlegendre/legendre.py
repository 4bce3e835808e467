"""Legendre polynomials: exact recurrence tables and closed-form special values.

The three-term recurrence is the constructor of record; the derivative form
of (x^2-1)^n and the shifted binomial expansion act as independent verifiers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .exactpoly import Poly, _make

# The supported depth: the deepest table the command line serves and the
# deepest verification run.
MAX_DEGREE = 64


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1; defined for n >= -1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def pochhammer_half(n: int) -> Fraction:
    """Rising factorial (1/2)_n = (1/2)(3/2)...((2n-1)/2)."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(2 * i + 1, 2)
    return out


class LegendreTable(NamedTuple):
    """Exact coefficient vectors for degrees 0..max_degree; immutable once built."""

    max_degree: int
    polys: tuple[Poly, ...]

    def poly(self, n: int) -> Poly:
        return self.polys[n]


def build_legendre(max_degree: int) -> LegendreTable:
    """Build degrees 0..max_degree via (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1},
    run on the integer rows N_n = 2^n P_n with every division by n+1 exact."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rows = [[1], [0, 2]]
    for n in range(1, max_degree):
        a, b, k = 2 * (2 * n + 1), 4 * n, n + 1
        row = [a * c - b * d for c, d in zip([0] + rows[n], rows[n - 1] + [0, 0])]
        if any(c % k for c in row):
            raise AssertionError(f"recurrence left a remainder at degree {n + 1}")
        rows.append([c // k for c in row])
    polys = tuple([_make(1 << n, row) for n, row in enumerate(rows)])
    for n, p in enumerate(polys):
        if sum(p.nums) != p.den:
            raise AssertionError(f"normalization P_n(1) = 1 broken at degree {n}")
    return LegendreTable(max_degree, polys)


def _derived_power(p: int, n: int) -> list[int]:
    """Integer coefficients, ascending, of the n-th derivative of (x^2-1)^p, n <= 2p:
    the binomial term (-1)^(p-j) C(p,j) x^(2j) gives perm(2j,n) times it over x^n."""
    nums = [0] * (2 * p - n + 1)
    for j in range((n + 1) // 2, p + 1):
        nums[2 * j - n] = (-1) ** (p - j) * math.comb(p, j) * math.perm(2 * j, n)
    return nums


def legendre_rodrigues(n: int) -> Poly:
    """Degree-n polynomial as the n-th derivative of (x^2-1)^n over 2^n n!."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _make(2**n * math.factorial(n), _derived_power(n, n))


def legendre_shifted_expansion(n: int) -> Poly:
    """Sum over k of C(n,k)^2 (x-1)^(n-k) (x+1)^k, scaled by 2^-n.

    Evaluated by Horner's rule in x-1 with one running power of x+1, on
    integer coefficient lists: multiplying by x-1 or x+1 is one pass of
    neighbour differences or sums, and the scaling by 2^-n is the one
    division, in the final _make.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    total: list[int] = []
    power = [1]  # coefficients of (x+1)^k
    for k in range(n + 1):
        w = math.comb(n, k) ** 2
        # total * (x - 1) + w * power; total has degree k - 1 and power degree k
        total = [a - b + w * c for a, b, c in zip([0] + total, total + [0], power)]
        power = [a + b for a, b in zip([0] + power, power + [0])]
    return _make(1 << n, total)


class LegendreSpecialValues(NamedTuple):
    at_plus1: Fraction
    at_minus1: Fraction
    at0: Fraction
    deriv_at0: Fraction
    deriv_at_plus1: Fraction
    second_deriv_at_plus1: Fraction


def legendre_special_values(n: int) -> LegendreSpecialValues:
    """Endpoint and midpoint data from closed forms, independent of the table."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    at0 = Fraction(
        sum((-1) ** (n - k) * math.comb(n, k) ** 2 for k in range(n + 1)), 2**n
    )
    deriv_at0 = Fraction(
        sum((-1) ** (n - k) * (2 * k - n) * math.comb(n, k) ** 2 for k in range(n + 1)),
        2**n,
    )
    return LegendreSpecialValues(
        at_plus1=Fraction(1),
        at_minus1=Fraction((-1) ** n),
        at0=at0,
        deriv_at0=deriv_at0,
        deriv_at_plus1=Fraction(n * (n + 1), 2),
        second_deriv_at_plus1=Fraction((n - 1) * n * (n + 1) * (n + 2), 8),
    )


def legendre_even_at_zero(m: int) -> Fraction:
    """Value of the degree-2m polynomial at 0: (-1)^m (1/2)_m / m!."""
    return Fraction((-1) ** m) * pochhammer_half(m) / math.factorial(m)


def legendre_odd_deriv_at_zero(m: int) -> Fraction:
    """Derivative of the degree-(2m+1) polynomial at 0: 2 (-1)^m (1/2)_{m+1} / m!."""
    return 2 * Fraction((-1) ** m) * pochhammer_half(m + 1) / math.factorial(m)


@functools.cache
def _steps(bits: int) -> tuple[tuple[float, float, int], ...]:
    """Recurrence constants ((2k+1)/(k+1), k/(k+1), 2k+1) for k = 1..2^bits - 1;
    _steps(n.bit_length()) covers every k <= n with one table per power of two."""
    return tuple(((2 * k + 1) / (k + 1), k / (k + 1), 2 * k + 1) for k in range(1, 1 << bits))


class LegendreValues(NamedTuple):
    """P_k(x) and P'_k(x), k = 0..n, at one point; family members' float values come from
    these recurrences or legendre_float's, never from monomial coefficients (unstable)."""

    p: list[float]
    d: list[float]


def legendre_values(n: int, x: float) -> LegendreValues:
    """P_0..P_n and P'_0..P'_n at x from one pass of the value recurrence and of
    P'_{k+1} = P'_{k-1} + (2k+1) P_k, which stays stable on all of [-1, 1]."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    p, d = [1.0, x], [0.0, 1.0]
    for k, (a, b, odd) in zip(range(1, n), _steps(n.bit_length())):
        p.append(a * x * p[k] - b * p[k - 1])
        d.append(d[k - 1] + odd * p[k])
    return LegendreValues(p[: n + 1], d[: n + 1])


def legendre_float(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_{n-1}(x)), with P_{-1} = 0: the value recurrence of
    legendre_values, the same operations in the same order, keeping only its
    last two terms, so both equal its entries bit for bit."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 1.0, 0.0
    p0, p1 = 1.0, x
    for a, b, _ in _steps(n.bit_length())[: n - 1]:
        p0, p1 = p1, a * x * p1 - b * p0
    return p1, p0


def legendre_series(c: Sequence[float]) -> Callable[[float], float]:
    """x -> sum of c[k] P_k(x), by Clenshaw's backward form of the same recurrence."""
    s = _steps(len(c).bit_length())
    terms = [(c[k], s[k - 1][0], s[k][1]) for k in range(len(c) - 1, 0, -1)]

    def at(x: float) -> float:
        b1 = b2 = 0.0
        for ck, a, b in terms:
            b1, b2 = ck + a * x * b1 - b * b2, b1
        return c[0] + x * b1 - 0.5 * b2

    return at
