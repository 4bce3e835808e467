"""Gauss-Legendre quadrature with certified polynomial exactness.

Every floating-point integral in the package is one ``integrate`` call: one
Gauss rule of an order its caller picks from the integrand's degree, no order
doubling and no tolerance. Named-function expansions run it in x, and
transformed-weight integrals carry it through their map. Weighted integrals of
polynomials against 1/(1-x^2) are never computed here; admissible integrands
cancel that singularity polynomially and stay in exact arithmetic. The float
value recurrence of the Legendre polynomials lives here, so a rule needs no exact code.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Callable, NamedTuple, Sequence

MAX_ORDER = 512
_NEWTON_STEP_TOL = 5e-16
_NEWTON_STEPS = 100

# The named float integrands of `expand --fn`: entire functions vanishing at both
# endpoints, whose coefficients decay spectrally. They must stay entire, since
# approx._expand_named integrates them on one fixed rule with no error estimate.
FUNCTIONS: dict[str, Callable[[float], float]] = {
    "one-minus-x2-exp": lambda x: (1.0 - x * x) * math.exp(x),
    "sin-pi": lambda x: math.sin(math.pi * x),
}


@functools.cache
def _steps(bits: int) -> tuple[tuple[float, float, int], ...]:
    """Recurrence constants ((2k+1)/(k+1), k/(k+1), 2k+1) for k = 1..2^bits - 1;
    _steps(n.bit_length()) covers every k <= n with one table per power of two."""
    return tuple(((2 * k + 1) / (k + 1), k / (k + 1), 2 * k + 1) for k in range(1, 1 << bits))


def legendre_float(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_{n-1}(x)), with P_{-1} = 0: the value recurrence of
    legendre.legendre_values, the same operations in the same order, keeping only its
    last two terms, so both equal its entries bit for bit."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 1.0, 0.0
    p0, p1 = 1.0, x
    for a, b, _ in _steps(n.bit_length())[: n - 1]:
        p0, p1 = p1, a * x * p1 - b * p0
    return p1, p0


class ConvergenceFailure(RuntimeError):
    """Newton iteration failed to settle within its step cap."""


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


def integrate(f: Callable[[float, float], Sequence[float]], order: int) -> tuple[float, ...]:
    """Integrals over [-1, 1] of each component of f by the Gauss rule of the given order,
    exact for polynomials of degree <= 2 order - 1. f maps a node x and its weight w to
    every component's value times w, so a caller folds w into its own products; f is
    called once per node and each component is summed by math.fsum."""
    rule = gauss_legendre(order)
    # rows of doubles, not of float objects: a Gram matrix has hundreds of components
    rows = [array("d", f(x, w)) for x, w in zip(rule.nodes, rule.weights)]
    return tuple(map(math.fsum, zip(*rows)))
