"""Reference answers computed without the package under test.

Exact families come from their closed-form definitions, evaluated here in
plain ``fractions.Fraction`` arithmetic; float references come from NumPy's
Legendre module. Nothing in this file imports ``intlegendre``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Verdicts the registry must produce at every depth: the README's seven
# non-CONFIRMED identities, and CONFIRMED for everything else.
NON_CONFIRMED = {
    "CDS11-prefactor": "CORRECTED_FACTOR",
    "Knn00": "CORRECTED_FACTOR",
    "Qnatzero": "CONFIRMED_UP_TO_SIGN",
    "Valuem-odd-terms": "CORRECTED_FACTOR",
    "akk": "CONFIRMED_UP_TO_SIGN",
    "anex-sign": "CONFIRMED_UP_TO_SIGN",
    "endpoints-§4": "CORRECTED_FACTOR",
}
REGISTRY_SIZE = 34

# Float outputs are compared with this tolerance relative to their natural
# scale: 1 for nodes, weights, roots and coefficients, and the member's largest
# magnitude on [-1, 1] for table values. It sits six orders of magnitude
# above double rounding, so any stable evaluation passes.
TOL = 1e-10


@lru_cache(maxsize=None)
def legendre(n: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of P_n from the explicit sum
    P_n = 2^-n sum_k (-1)^k C(n,k) C(2n-2k,n) x^(n-2k)."""
    out = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = Fraction((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n), 2**n)
    return tuple(out)


@lru_cache(maxsize=None)
def q_member(n: int) -> tuple[Fraction, ...]:
    """Q_n = -(integral from x to 1 of P_{n-1}), the pinned antiderivative."""
    anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(legendre(n - 1))]
    anti[0] = -sum(anti)
    return tuple(anti)


@lru_cache(maxsize=None)
def r_member(n: int) -> tuple[Fraction, ...]:
    """Monic degree-n polynomial orthogonal under 1 - t^2: P'_{n+1} made monic."""
    d = [k * c for k, c in enumerate(legendre(n + 1))][1:]
    return tuple(c / d[-1] for c in d)


def family(name: str, n: int) -> tuple[Fraction, ...]:
    return {"L": legendre, "Q": q_member, "r": r_member}[name](n)


def family_sup(name: str, n: int) -> Fraction:
    """Largest magnitude on [-1, 1]: P_n is bounded by 1, Q_n by
    2/(2n-1), and r_n peaks at t = 1."""
    if name == "L":
        return Fraction(1)
    if name == "Q":
        return Fraction(2, 2 * n - 1)
    return abs(evaluate(r_member(n), Fraction(1)))


def evaluate(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def multiply(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def integral(coeffs) -> Fraction:
    """Exact integral over [-1, 1] by monomial moments."""
    return sum((Fraction(2, k + 1) * c for k, c in enumerate(coeffs) if k % 2 == 0), Fraction(0))


@lru_cache(maxsize=None)
def _derivative_moment(k: int, n: int) -> Fraction:
    """Integral over [-1, 1] of x^k P'_{n-1}."""
    dp = [j * c for j, c in enumerate(legendre(n - 1))][1:]
    return integral([Fraction(0)] * k + dp)


def weighted_coefficient(f, n: int) -> Fraction:
    """Expansion coefficient of f on Q_n: n(n-1)(2n-1)/2 times the integral
    of f Q_n / (1 - x^2), with Q_n / (1 - x^2) = -P'_{n-1} / (n(n-1))."""
    acc = sum((c * _derivative_moment(k, n) for k, c in enumerate(f) if c), Fraction(0))
    return -Fraction(2 * n - 1, 2) * acc


def r_gram(n: int, m: int) -> Fraction:
    """Exact inner product of r_n and r_m under 1 - t^2 on [-1, 1]."""
    return integral(multiply(multiply(r_member(n), r_member(m)), (1, 0, -1)))


def _divide_one_minus_x2(p) -> list[Fraction] | None:
    """Quotient of p by 1 - x^2, or None when the division leaves a remainder."""
    if len(p) < 3:
        return None
    r = [Fraction(0)] * (len(p) - 2)
    for k in range(len(p) - 1, 1, -1):  # p_k = r_k - r_{k-2}, from the top
        r[k - 2] = (r[k] if k < len(r) else 0) - p[k]
    if p[0] != r[0] or p[1] != (r[1] if len(r) > 1 else 0):
        return None
    return r


def minimizer_ok(n: int, m_value: Fraction, coeffs: list[Fraction]) -> bool:
    """Optimality conditions of min int p^2/(1-x^2) subject to p(0) = 1,
    deg p <= n: p = (1-x^2) r, r(0) = 1, r orthogonal under 1-x^2 to
    x^j for j = 1..n-2, and the minimum equals int (1-x^2) r^2."""
    r = _divide_one_minus_x2(coeffs)
    if r is None or r[0] != 1 or len(r) > n - 1:
        return False
    w = multiply(r, (1, 0, -1))
    for j in range(1, n - 1):
        if integral([Fraction(0)] * j + w) != 0:
            return False
    return m_value == integral(multiply(w, r))


def gauss_rule(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule from NumPy."""
    from numpy.polynomial import legendre as npleg

    return npleg.leggauss(m)


def q_roots(n: int):
    """All n roots of Q_n = (P_n - P_{n-2})/(2n-1), from NumPy's Legendre
    companion matrix."""
    from numpy.polynomial import legendre as npleg

    c = [0.0] * (n + 1)
    c[n], c[n - 2] = 1.0, -1.0
    return sorted(npleg.legroots(c))


FUNCTIONS = {
    "one-minus-x2-exp": lambda np, x: (1.0 - x * x) * np.exp(x),
    "sin-pi": lambda np, x: np.sin(np.pi * x),
}


@lru_cache(maxsize=None)
def named_coefficients(name: str, top: int) -> tuple[float, ...]:
    """Coefficients a_2..a_top of a named function, a_n = -(2n-1)/2 times the
    integral of f P'_{n-1}, by a 200-point NumPy Gauss-Legendre rule."""
    import numpy as np
    from numpy.polynomial import legendre as npleg

    x, w = npleg.leggauss(200)
    fx = FUNCTIONS[name](np, x) * w
    out = []
    for n in range(2, top + 1):
        c = np.zeros(n)
        c[n - 1] = 1.0
        out.append(float(-(2 * n - 1) / 2.0 * np.dot(fx, npleg.legval(x, npleg.legder(c)))))
    return tuple(out)
