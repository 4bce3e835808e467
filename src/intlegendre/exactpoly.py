"""Exact dense polynomial arithmetic over arbitrary-precision rationals.

This is the oracle layer: every closed form elsewhere in the package is
ultimately checked against ring operations, derivatives and definite
integrals computed here, with no rounding anywhere.

A polynomial is stored as one positive integer denominator over a tuple of
integer numerators (the content/primitive-part form), so every operation
runs on plain integers and builds at most one Fraction, for its result.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, Union

Scalar = Union[int, Fraction]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def _frac(value: Scalar) -> Fraction:
    # floats are rejected: nothing in this module may round
    if isinstance(value, float):
        raise TypeError(f"refusing float coefficient {value!r}; pass Fraction or int")
    return value if isinstance(value, Fraction) else Fraction(value)


@functools.cache
def _moments(size: int) -> tuple[int, tuple[int, ...]]:
    """(L, m) with m[k] = L * integral of x^k over [-1, 1], for k < size.

    L is the lcm of the odd numbers up to size, so every m[k] is an integer:
    2L/(k+1) for even k and 0 for odd k.
    """
    scale = math.lcm(*range(1, size + 1, 2))
    return scale, tuple(0 if k % 2 else 2 * scale // (k + 1) for k in range(size))


def _moment_vector(nums: tuple[int, ...], js: Iterable[int], size: int) -> tuple[int, list[int]]:
    """(L, [L * integral over [-1, 1] of x^j sum_k nums[k] x^k for j in js]), L from
    _moments(size), size >= len(nums) + j; odd moments vanish, so k runs over j's parity."""
    scale, moments = _moments(size)
    halves = nums[::2], nums[1::2]
    return scale, [sum(map(mul, halves[j % 2], moments[j + j % 2::2])) for j in js]


def _raw(den: int, nums: tuple[int, ...]) -> "Poly":
    p = object.__new__(Poly)
    p.den = den
    p.nums = nums
    return p


def _make(den: int, nums: list[int]) -> "Poly":
    """Normalise den/nums: strip trailing zeros, den > 0, gcd(den, *nums) = 1."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw(1, ())
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    return _raw(den, tuple(nums))


class Poly:
    """Dense polynomial with rational coefficients stored in ascending degree.

    The coefficients are ``nums[k] / den`` with ``den > 0``,
    ``gcd(den, *nums) == 1`` and no trailing zero numerator, so equal
    polynomials have equal fields. The zero polynomial has no numerators and
    reports degree None. Instances are immutable and hashable.
    """

    __slots__ = ("den", "nums")

    den: int
    nums: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_frac(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        p = _make(den, [c.numerator * (den // c.denominator) for c in cs])
        self.den, self.nums = p.den, p.nums

    @classmethod
    def monomial(cls, degree: int) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * degree + [1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending by degree (built per access)."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.nums])

    @property
    def degree(self) -> int | None:
        """Degree of the leading term; None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if isinstance(other, Poly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"Poly('{self.pretty()}')"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self, other
        if len(a.nums) < len(b.nums):
            a, b = b, a
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        out = [c * fa for c in a.nums]
        out[: len(b.nums)] = map(add, out, map(mul, b.nums, repeat(fb)))
        return _make(a.den * fa, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(self.den, tuple([-c for c in self.nums]))

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return Poly()
        if len(a) < len(b):
            a, b = b, a
        la = len(a)
        out = [0] * (la + len(b) - 1)
        for i, bi in enumerate(b):
            if bi:
                out[i : i + la] = map(add, out[i : i + la], map(mul, a, repeat(bi)))
        return _make(self.den * other.den, out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Poly":
        c = _frac(c)
        n = c.numerator
        return _make(self.den * c.denominator, [x * n for x in self.nums])

    def __truediv__(self, c: Scalar) -> "Poly":
        return self.scale(Fraction(1) / _frac(c))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus -----------------------------------------------------------

    def deriv(self, order: int = 1) -> "Poly":
        """Exact derivative of the given order (default 1)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        nums = self.nums
        return _make(self.den, [nums[k] * math.perm(k, order) for k in range(order, len(nums))])

    def antideriv(self) -> "Poly":
        """The antiderivative with constant term 0."""
        scale = math.lcm(*range(1, len(self.nums) + 1))
        return _make(self.den * scale,
                     [0] + [c * (scale // (k + 1)) for k, c in enumerate(self.nums)])

    def integral(self, a: Scalar, b: Scalar) -> Fraction:
        """Exact definite integral over [a, b]."""
        a, b = _frac(a), _frac(b)
        if a == -1 and b == 1:
            scale, moments = _moments(len(self.nums))
            return Fraction(sum(map(mul, self.nums, moments)), self.den * scale)
        f = self.antideriv()
        return f.at(b) - f.at(a)

    def pairing(self, max_degree: int) -> Callable[["Poly"], Fraction]:
        """The functional q -> integral of self*q over [-1, 1], for deg q <= max_degree.

        The moment vector of self (its products with the Hankel matrix of
        the moments of x^k) is built once here, so each call is a single
        integer dot product.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        nums = self.nums
        size = max_degree + 1
        scale, vec = _moment_vector(nums, range(size), len(nums) + size)
        den = self.den * scale

        def pair(q: Poly) -> Fraction:
            if len(q.nums) > size:
                raise ValueError(f"degree {q.degree} above the pairing's {max_degree}")
            return Fraction(sum(map(mul, vec, q.nums)), den * q.den)

        return pair

    def divexact(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises NotDivisible on any remainder."""
        if not isinstance(d, Poly):
            raise TypeError("divisor must be a Poly")
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly()
        dd = d.degree
        if self.degree < dd:
            raise NotDivisible(f"degree {self.degree} below divisor degree {dd}")
        dn = d.nums
        lead = dn[-1]
        qlen = len(self.nums) - dd
        # Scaled by lead^qlen, every quotient numerator is an integer, so the
        # long division below only ever divides exactly.
        pre = lead**qlen
        rem = [c * pre for c in self.nums]
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            q = rem[k + dd] // lead
            quot[k] = q
            if q:
                rem[k : k + dd + 1] = map(add, rem[k : k + dd + 1], map(mul, dn, repeat(-q)))
        if any(rem[:dd]):
            raise NotDivisible("remainder is nonzero")
        return _make(self.den * pre, [c * d.den for c in quot])

    # -- evaluation ---------------------------------------------------------

    def _horner(self, p: int, q: int) -> tuple[int, int]:
        """(A, q^deg) with A / (den * q^deg) the value at p/q, by integer Horner."""
        rest = reversed(self.nums)
        acc, qk = next(rest, 0), 1
        if q == 1:
            for c in rest:
                acc = acc * p + c
            return acc, qk
        for c in rest:
            qk *= q
            acc = acc * p + c * qk
        return acc, qk

    def at(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = _frac(x)
        acc, qk = self._horner(x.numerator, x.denominator)
        return Fraction(acc, self.den * qk)

    def at_float(self, x: float) -> float:
        """The float nearest to the value at a finite float x, +-inf past the float
        range: x is dyadic, so the value is one integer over den * q^deg, and
        int / int division rounds it once, at any degree."""
        acc, qk = self._horner(*x.as_integer_ratio())
        try:
            return acc / (self.den * qk)
        except OverflowError:
            return math.inf if acc > 0 else -math.inf

    def pretty(self) -> str:
        """Human-readable form, ascending powers, e.g. '1 - x^2'."""
        if not self.nums:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                base = "x" if k == 1 else f"x^{k}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


X = Poly((0, 1))
ONE = Poly((1,))
