"""Gauss-Legendre quadrature with certified polynomial exactness.

Used for every floating-point integral in the package: named-function
expansions and transformed-weight integrals. Weighted integrals of
polynomials against 1/(1-x^2) are never computed here; admissible integrands
cancel that singularity polynomially and stay in exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from array import array
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .legendre import legendre_float

MAX_ORDER = 512
_NEWTON_STEP_TOL = 5e-16
_NEWTON_STEPS = 100

# The named float integrands of `expand --fn`: smooth functions vanishing at
# both endpoints, whose coefficients decay spectrally.
FUNCTIONS: dict[str, Callable[[float], float]] = {
    "one-minus-x2-exp": lambda x: (1.0 - x * x) * math.exp(x),
    "sin-pi": lambda x: math.sin(math.pi * x),
}


class ConvergenceFailure(RuntimeError):
    """Newton iteration failed to settle within its step cap."""


class NoConvergence(RuntimeError):
    """Order doubling hit the cap before reaching the tolerance."""

    def __init__(self, message: str, value: tuple[float, ...], est_error: float) -> None:
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class QuadratureRule(NamedTuple):
    """Nodes and weights of the order-m rule, exact on degree <= 2m-1."""

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def exact_degree(self) -> int:
        return 2 * self.order - 1


def newton(f: Callable[[float], tuple[float, float]], x0: float) -> tuple[float, ...]:
    """The package's one Newton loop on f(x) = (value, derivative), from x0; returns
    (x, value, derivative, step): the final iterate, and f and the step at the one before.

    Converges on the Newton step, not the raw residual: once the step falls
    under a few ulp the iterate is as close to the true root as a double can
    get, even where the slope at the root is large.
    """
    x = x0
    for _ in range(_NEWTON_STEPS):
        v, dv = f(x)
        dx = v / dv
        x -= dx
        if abs(dx) < _NEWTON_STEP_TOL:
            return x, v, dv, dx
    raise ConvergenceFailure(f"Newton iteration from {x0} did not settle in {_NEWTON_STEPS} steps")


@functools.cache
def gauss_legendre(m: int) -> QuadratureRule:
    """Order-m rule: nodes at the roots of the degree-m Legendre polynomial,
    weights 2/((1-x^2) P'_m(x)^2).

    Newton runs from Tricomi's asymptotic guess in about two value passes (P_m, P_{m-1})
    per node, with P'_m = m (P_{m-1} - x P_m)/(1-x^2). Only the positive half is iterated
    and the rule is mirrored, so node antisymmetry and weight symmetry hold exactly. Rules
    are cached per order; an out-of-range order raises ValueError and is never cached.
    """
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")

    def value_and_slope(x: float) -> tuple[float, float]:
        p, p_prev = legendre_float(m, x)
        return p, m * (p_prev - x * p) / (1.0 - x * x)

    positive: list[tuple[float, float]] = []
    for i in range(1, m // 2 + 1):
        theta = math.pi * (4 * i - 1) / (4 * m + 2)
        shrink = 1 - (m - 1) / (8 * m**3) - (39 - 28 / math.sin(theta) ** 2) / (384 * m**4)
        x, p, dp, dx = newton(value_and_slope, shrink * math.cos(theta))
        # carry the slope over the last step, with P''_m = (2x P'_m - m(m+1) P_m)/(1-x^2)
        dp -= dx * (2 * x * dp - m * (m + 1) * p) / (1.0 - x * x)
        positive.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    positive.sort()
    pairs = [(-x, w) for x, w in reversed(positive)]
    if m % 2:
        _, dp = value_and_slope(0.0)
        pairs.append((0.0, 2.0 / (dp * dp)))
    return QuadratureRule(m, *map(tuple, zip(*pairs, *positive)))


class IntegrationResult(NamedTuple):
    value: tuple[float, ...]
    est_error: float


def integrate(
    f: Callable[[float], Sequence[float]], a: float, b: float, tol: float = 1e-12
) -> IntegrationResult:
    """Adaptive-order integrals over [a, b] of each component of f, which maps
    a point to a tuple of values (scalar integrands return a 1-tuple).

    Doubles the order through 16, 32, ..., 512 until no component changes by
    tol or more between successive orders; the largest change is the error
    estimate. All integrands in this package are analytic on the closed
    interval, so order doubling beats adaptive bisection here."""
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    prev: tuple[float, ...] | None = None
    err = math.inf
    value: tuple[float, ...] = ()
    order = 16
    while order <= MAX_ORDER:
        rule = gauss_legendre(order)
        # rows of doubles, not of float objects: a Gram matrix has hundreds of components
        rows = [array("d", f(mid + half * x)) for x in rule.nodes]
        value = tuple([half * math.fsum(map(mul, rule.weights, col)) for col in zip(*rows)])
        if prev is not None:
            err = max((abs(v - u) for v, u in zip(value, prev)), default=0.0)
            if err < tol:
                return IntegrationResult(value, err)
        prev = value
        order *= 2
    raise NoConvergence(f"tolerance {tol} unmet at order {MAX_ORDER}", value, err)
