"""Legendre polynomials: exact members from their differential equation, and closed-form values.

Each member is built on its own from Legendre's equation and pinned by P_n(1) = 1; the derivative
form of (x^2-1)^n and the shifted binomial expansion act as independent verifiers. The one checked
row of P'_m (the Jacobi(1,1) equation) serves both the Q and the r family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .exactpoly import Poly, _make
from .quad import _steps, legendre_float  # noqa: F401 (legendre_float re-exported)

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


def _equation_row(n: int, e: int, lead: int) -> list[int]:
    """Numerators of the degree-n solution, unique up to scale, of equation e: (1-x^2) y''
    - (1+e) x y' + n(n+e) y = 0, with x^n numerator lead. (k+2)(k+1) c_{k+2} = (k-n)(k+n+e) c_k,
    the relation _solves_equation tests, gives each c_k from c_{k+2} by one exact division."""
    c = [0] * (n + 1)
    c[n] = lead
    for k in range(n - 2, -1, -2):
        c[k], rem = divmod((k + 2) * (k + 1) * c[k + 2], (k - n) * (k + n + e))
        if rem:
            raise AssertionError(f"degree-{n} solution of equation {e} left a remainder at x^{k}")
    return c


def legendre_poly(n: int) -> Poly:
    """P_n: equation 1 solved for 2^n P_n, whose lead is C(2n, n), checked by P_n(1) = 1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    nums = _equation_row(n, 1, math.comb(2 * n, n))
    if sum(nums) != 1 << n:
        raise AssertionError(f"normalization P_n(1) = 1 broken at degree {n}")
    return _make(1 << n, nums)


def build_legendre(max_degree: int) -> tuple[Poly, ...]:
    """P_0..P_max_degree, indexed by degree, each member built on its own by legendre_poly."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return tuple(map(legendre_poly, range(max_degree + 1)))


def _derivative_row(m: int) -> list[int]:
    """Numerators of 2^m P'_m, the Jacobi(1,1) row behind Q_{m+1} and r_{m-1}: equation 3
    solved with lead m C(2m, m), checked by P'_m(1) = m(m+1)/2."""
    d = _equation_row(m - 1, 3, m * math.comb(2 * m, m))
    if sum(d) != m * (m + 1) << (m - 1):
        raise AssertionError(f"normalization P'_m(1) = m(m+1)/2 broken at m = {m}")
    return d


def _derived_power(p: int, n: int) -> list[int]:
    """Integer coefficients, ascending, of the n-th derivative of (x^2-1)^p, n <= 2p:
    the binomial term (-1)^(p-j) C(p,j) x^(2j) gives perm(2j,n) times it over x^n."""
    nums = [0] * (2 * p - n + 1)
    for j in range((n + 1) // 2, p + 1):
        nums[2 * j - n] = (-1) ** (p - j) * math.comb(p, j) * math.perm(2 * j, n)
    return nums


def _solves_equation(nums: Sequence[int], n: int, e: int) -> bool:
    """Whether numerators nums (no trailing 0) have exact degree n and solve (1-x^2) y''
    - (1+e) x y' + n(n+e) y = 0, the equation of the family orthogonal under (1-x^2)^((e-1)/2)."""
    c = [*nums, 0]
    return len(c) == n + 2 and all((k + 2) * (k + 1) * c[k + 2] == (k - n) * (k + n + e) * c[k]
                                   for k in range(n))


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
