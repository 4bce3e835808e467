"""Legendre polynomials: exact recurrence tables and closed-form special values.

The three-term recurrence is the constructor of record; the derivative form
of (x^2-1)^n and the shifted binomial expansion act as independent verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import Poly, X


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


@dataclass(frozen=True)
class LegendreTable:
    """Exact coefficient vectors for degrees 0..max_degree; immutable once built."""

    max_degree: int
    polys: tuple[Poly, ...]
    leading: tuple[Fraction, ...]

    def poly(self, n: int) -> Poly:
        return self.polys[n]


def build_legendre(max_degree: int) -> LegendreTable:
    """Build degrees 0..max_degree via (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    polys = [Poly((1,)), X]
    for n in range(1, max_degree):
        nxt = (X * polys[n]).scale(Fraction(2 * n + 1, n + 1)) - polys[n - 1].scale(
            Fraction(n, n + 1)
        )
        polys.append(nxt)
    for n, p in enumerate(polys):
        if p.at(1) != 1:
            raise AssertionError(f"normalization P_n(1) = 1 broken at degree {n}")
    return LegendreTable(max_degree, tuple(polys), tuple(p.coeffs[-1] for p in polys))


def legendre_rodrigues(n: int) -> Poly:
    """Degree-n polynomial as the n-th derivative of (x^2-1)^n over 2^n n!."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return ((X * X - 1) ** n).deriv(n) / (2**n * math.factorial(n))


def legendre_shifted_expansion(n: int) -> Poly:
    """Sum over k of C(n,k)^2 (x-1)^(n-k) (x+1)^k, scaled by 2^-n.

    Evaluated by Horner's rule in x-1 with one running power of x+1, so every
    product has a degree-1 factor.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    lo, hi = X - 1, X + 1
    total, power = Poly(), Poly((1,))
    for k in range(n + 1):
        total = total * lo + power.scale(math.comb(n, k) ** 2)
        power = power * hi
    return total / 2**n


@dataclass(frozen=True)
class LegendreSpecialValues:
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


def legendre_float(n: int, x: float) -> tuple[float, float]:
    """(value, derivative) of the degree-n polynomial at x, in float.

    Uses the value recurrence together with P'_{k+1} = P'_{k-1} + (2k+1) P_k,
    which stays stable on the whole of [-1, 1] including the endpoints.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 1.0, 0.0
    p_prev, p = 1.0, x
    d_prev, d = 0.0, 1.0
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        d_next = d_prev + (2 * k + 1) * p
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d
