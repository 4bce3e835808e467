"""Orthogonal systems induced by rational changes of variable.

A unit-determinant map x -> (lam x + alpha)/(mu x + beta) carries an induced
interval onto [-1, 1]; composing the monic family orthogonal under 1 - t^2
with the map yields a system orthogonal (and integral-minimal) under the
pulled-back weight, which vanishes at both induced endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import quad
from .exactpoly import Poly, Scalar, X, _frac
from .legendre import build_legendre, legendre_values


class DegenerateMap(ValueError):
    """Map cannot carry a proper interval onto [-1, 1]."""


class _MapFields(NamedTuple):
    lam: Fraction
    alpha: Fraction
    mu: Fraction
    beta: Fraction


class MoebiusMap(_MapFields):
    """x -> (lam x + alpha)/(mu x + beta) with exact unit determinant."""

    __slots__ = ()

    def __new__(cls, lam: Scalar, alpha: Scalar, mu: Scalar, beta: Scalar) -> MoebiusMap:
        self = super().__new__(cls, _frac(lam), _frac(alpha), _frac(mu), _frac(beta))
        if self.lam * self.beta - self.mu * self.alpha != 1:
            raise DegenerateMap("determinant lam*beta - mu*alpha must equal 1")
        return self

    @classmethod
    def _make(cls, iterable) -> MoebiusMap:
        # the namedtuple _make, which _replace calls, would skip the checks in __new__
        return cls(*iterable)

    @property
    def pole(self) -> Optional[Fraction]:
        return None if self.mu == 0 else -self.beta / self.mu

    def at(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        return (self.lam * x + self.alpha) / (self.mu * x + self.beta)


class Endpoints(NamedTuple):
    """Induced interval endpoints.

    a and b solve f(a) = -1 and f(b) = 1 exactly. stated_a and stated_b
    evaluate the reference expressions (b-a)/(lam+mu) and (b-a)/(lam-mu)
    in the map parameters; the lower one disagrees with f(a) = -1 in
    general and both are reported for the record.
    """

    a: Fraction
    b: Fraction
    stated_a: Fraction
    stated_b: Fraction


def induced_endpoints(m: MoebiusMap) -> Endpoints:
    if m.lam == m.mu or m.lam == -m.mu:
        raise DegenerateMap("map cannot attain both -1 and 1")
    a = -(m.alpha + m.beta) / (m.lam + m.mu)
    b = (m.beta - m.alpha) / (m.lam - m.mu)
    return Endpoints(
        a,
        b,
        (m.beta - m.alpha) / (m.lam + m.mu),
        (m.beta - m.alpha) / (m.lam - m.mu),
    )


class RationalWeight(NamedTuple):
    """Exact weight numerator/(mu x + beta)^4; equals (1 - f(x)^2) f'(x)."""

    numerator: Poly
    denominator: Poly

    def at_float(self, x: float) -> float:
        return self.numerator.at_float(x) / self.denominator.at_float(x)


def induced_weight(m: MoebiusMap) -> RationalWeight:
    num = Poly((m.beta - m.alpha, m.mu - m.lam)) * Poly((m.beta + m.alpha, m.mu + m.lam))
    den = Poly((m.beta, m.mu)) ** 4
    return RationalWeight(num, den)


def weight_identity_gap(m: MoebiusMap) -> Poly:
    """Cross-multiplied difference between the product-form numerator and
    (1 - f^2) f' written over the same denominator; zero for valid maps."""
    num = induced_weight(m).numerator
    down = Poly((m.beta, m.mu))
    up = Poly((m.alpha, m.lam))
    det = m.lam * m.beta - m.mu * m.alpha
    return num - (down * down - up * up) * det


# -- the reference family -----------------------------------------------------

_W = Poly((1, 0, -1))  # 1 - t^2


class RFamily(NamedTuple):
    """Monic polynomials orthogonal on [-1, 1] under the weight 1 - t^2."""

    max_degree: int
    polys: tuple[Poly, ...]

    def poly(self, n: int) -> Poly:
        return self.polys[n]


def reference_inner_product(p: Poly, q: Poly) -> Fraction:
    """Exact inner product on [-1, 1] under the weight 1 - t^2."""
    return (p * q * _W).integral(-1, 1)


def build_r_family(max_degree: int) -> RFamily:
    """Monic members 0..max_degree by the three-term recurrence
    r_{k+1} = x r_k - k(k+2)/((2k+1)(2k+3)) r_{k-1} of the Jacobi(1,1) family.

    Each member is cross-checked against the monic derivative P'_{k+1} of an
    independently built Legendre table. Monic normalization is what makes
    the minimality statement well-posed: the extremal property is over
    monic competitors.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    polys = [Poly((1,)), X][: max_degree + 1]
    for k in range(1, max_degree):
        c = Fraction(k * (k + 2), (2 * k + 1) * (2 * k + 3))
        polys.append(X * polys[k] - polys[k - 1].scale(c))
    ltable = build_legendre(max_degree + 1)
    for k, r in enumerate(polys):
        d = ltable.poly(k + 1).deriv()
        if r != d / d.coeff(k):
            raise AssertionError(f"recurrence cross-check failed at degree {k}")
    return RFamily(max_degree, tuple(polys))


class TransformedSystem(NamedTuple):
    """A map with its induced interval and weight."""

    map: MoebiusMap
    a: Fraction
    b: Fraction
    weight: RationalWeight


def build_transformed_system(m: MoebiusMap) -> TransformedSystem:
    """Validate the map and assemble the induced system.

    Rejects maps whose endpoints are out of order and maps whose pole falls
    inside the closed induced interval; either way no proper interval is
    carried onto [-1, 1]. The Gram integrals run in floats, so it also rejects a map
    whose floats overflow, or leave an empty interval or a midpoint weight 0, inf or nan.
    """
    ends = induced_endpoints(m)
    if not ends.a < ends.b:
        raise DegenerateMap(f"induced endpoints out of order: {ends.a} >= {ends.b}")
    pole = m.pole
    if pole is not None and ends.a <= pole <= ends.b:
        raise DegenerateMap(f"pole {pole} lies inside [{ends.a}, {ends.b}]")
    weight = induced_weight(m)
    try:
        *_, a, b = map(float, (*m, ends.a, ends.b))
        finite = a < b and 0 < abs(weight.at_float((a + b) / 2)) < math.inf
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DegenerateMap("the map, its interval or its weight leaves the float range")
    return TransformedSystem(m, ends.a, ends.b, weight)


def _pulled_back(
    system: TransformedSystem, top: int, f: Callable[[list[float], float], list[float]], tol: float
) -> tuple[float, ...]:
    """Integrals over the induced interval of f(r, w), r holding r_0..r_top at
    the mapped point and w the induced weight; one recurrence pass per node."""
    m, weight = system.map, system.weight.at_float
    lam, alpha, mu, beta = float(m.lam), float(m.alpha), float(m.mu), float(m.beta)
    # monic r_n = P'_{n+1} / lead(P'_{n+1}), and lead(P'_k) = k C(2k, k) / 2^k
    scales = [(2.0 ** k, float(k * math.comb(2 * k, k))) for k in range(1, top + 2)]

    def at(x: float) -> list[float]:
        d = legendre_values(top + 1, (lam * x + alpha) / (mu * x + beta)).d
        return f([dk * p / q for dk, (p, q) in zip(d[1:], scales)], weight(x))

    return quad.integrate(at, float(system.a), float(system.b), tol).value


def gram_matrix(
    system: TransformedSystem, size: int, tol: float = 1e-12
) -> tuple[list[list[float]], float]:
    """Gram matrix of composed members 0..size-1 under the induced weight,
    plus the largest off-diagonal entry relative to the diagonal scale."""
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    values = _pulled_back(system, size - 1, lambda r, w: [r[i] * r[j] * w for i, j in pairs],
                          min(tol * 1e-2, 1e-13))
    matrix = [[0.0] * size for _ in range(size)]
    for (i, j), v in zip(pairs, values):
        matrix[i][j] = matrix[j][i] = v
    worst = max((abs(v) / math.sqrt(matrix[i][i] * matrix[j][j])
                 for (i, j), v in zip(pairs, values) if i != j), default=0.0)
    return matrix, worst


_PERTURBATION_SIZES = (0.25, -0.25, 0.0625, -0.0625)


def minimality_check(system: TransformedSystem, n: int) -> bool:
    """Check that the monic member of degree n minimizes the induced-weight
    square integral: every perturbation by a lower-degree member must
    strictly increase it (by eps^2 times that member's norm)."""
    # the unperturbed member first (eps = 0), then every (j, eps)
    steps = [(0, 0.0)] + [(j, eps) for j in range(n) for eps in _PERTURBATION_SIZES]
    base, *perturbed = _pulled_back(
        system, n, lambda r, w: [(r[n] + eps * r[j]) ** 2 * w for j, eps in steps], 1e-14)
    return not any(v <= base for v in perturbed)
