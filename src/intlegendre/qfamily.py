"""The integrated Legendre family: antiderivatives of Legendre polynomials
pinned to vanish at both endpoints, orthogonal under the weight 1/(1-x^2).

Members come from the closed form (x^2-1) P'_{n-1}/(n(n-1)) that Legendre's
equation gives; build_q_table builds and checks each one once.

Family indices start at 2. There is no degree-0 member, and the degree-1
candidate x - 1 has a divergent weighted norm, so every sum over the family
in this package begins at index 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactpoly import NotDivisible, Poly, X, _make
from .legendre import LegendreTable, build_legendre, legendre_values
from .quad import gauss_legendre, newton

X2_MINUS_1 = Poly((-1, 0, 1))


class RootCountMismatch(RuntimeError):
    """An interior root did not settle inside its Gauss-node gap to the tolerance."""


@dataclass(frozen=True)
class QTable:
    """Exact data for family members 2..max_degree.

    Index n of each tuple holds the degree-n data; slots 0 and 1 are None.
    ``interior`` holds the cofactor of x^2 - 1; ``lead`` reads the leading
    coefficient off the member, and ``norm_sq`` gives the closed-form
    weighted squared norm.
    """

    max_degree: int
    legendre: LegendreTable
    polys: tuple[Optional[Poly], ...]
    interior: tuple[Optional[Poly], ...]

    def _get(self, seq, n: int):
        if n < 2 or n > self.max_degree:
            raise IndexError(f"family holds degrees 2..{self.max_degree}, got {n}")
        return seq[n]

    def q(self, n: int) -> Poly:
        return self._get(self.polys, n)

    def interior_factor(self, n: int) -> Poly:
        return self._get(self.interior, n)

    def norm_sq(self, n: int) -> Fraction:
        self._get(self.polys, n)  # the same IndexError outside 2..max_degree
        return q_norm_sq(n)

    def lead(self, n: int) -> Fraction:
        qn = self.q(n)
        return Fraction(qn.nums[-1], qn.den)


def build_q_table(max_degree: int, ltable: Optional[LegendreTable] = None) -> QTable:
    """Build family members 2..max_degree.

    Legendre's equation gives each member in closed form, Q_n = (x^2 - 1) i_n
    with interior factor i_n = P'_{n-1}/(n(n-1)), so it vanishes at both
    endpoints by construction. The member is checked once, against its
    definition as the antiderivative of P_{n-1}: its derivative must equal
    P_{n-1}. That pins each Legendre row only up to a constant factor, which
    build_legendre's P_n(1) = 1 check fixes. The verify registry's Qqn entry
    checks the member against the difference form (P_n - P_{n-2})/(2n-1).
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    if ltable is None:
        ltable = build_legendre(max_degree)
    if ltable.max_degree < max_degree:
        raise ValueError("Legendre table too shallow for requested depth")
    polys: list[Optional[Poly]] = [None, None]
    interior: list[Optional[Poly]] = [None, None]
    for n in range(2, max_degree + 1):
        row = ltable.poly(n - 1)
        inner = row.deriv() / (n * (n - 1))
        # the product with x^2 - 1 is one shift and one subtraction of numerators
        nums = inner.nums
        qn = _make(inner.den, [a - b for a, b in zip((0, 0, *nums), (*nums, 0, 0))])
        if qn.deriv() != row:
            raise AssertionError(f"construction cross-check failed at degree {n}")
        polys.append(qn)
        interior.append(inner)
    return QTable(max_degree, ltable, tuple(polys), tuple(interior))


def q_rodrigues(n: int) -> Poly:
    """Degree-n member from (x^2-1) times the n-th derivative of (x^2-1)^(n-1),
    scaled by 1/(2^(n-1) n! (n-1))."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    core = ((X * X - 1) ** (n - 1)).deriv(n)
    return (X2_MINUS_1 * core) / (2 ** (n - 1) * math.factorial(n) * (n - 1))


def q_norm_sq(n: int) -> Fraction:
    """Closed-form weighted squared norm 2/(n(n-1)(2n-1))."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    return Fraction(2, n * (n - 1) * (2 * n - 1))


def weighted_inner_product(p: Poly, q: Poly) -> Fraction:
    """Exact integral of p*q/(1-x^2) over [-1, 1].

    Finite only when 1 - x^2 divides p*q, which holds whenever either factor
    vanishes at both endpoints; otherwise NotDivisible is raised because the
    integral genuinely diverges.
    """
    for first, second in ((p, q), (q, p)):
        try:
            reduced = first.divexact(X2_MINUS_1)
        except NotDivisible:
            continue
        return -(reduced * second).integral(-1, 1)
    reduced = (p * q).divexact(X2_MINUS_1)
    return -reduced.integral(-1, 1)


def q_float(n: int, x: float) -> tuple[float, float]:
    """(value, derivative) of the degree-n member at x, from one recurrence pass."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    v = legendre_values(n, x)
    return v.q(n), v.p[n - 1]


def q_roots(n: int, table: QTable, tol: float = 1e-12) -> list[float]:
    """All n roots, sorted ascending: -1 and 1 exactly, plus n-2 interior
    roots located to |value| < tol.

    The derivative P_{n-1} vanishes at the nodes of the order-(n-1) Gauss
    rule, so the member is strictly monotone between consecutive nodes and,
    by Rolle's theorem, has exactly one root in each of those n-2 gaps (the
    two sets of zeros interlace). Each root is found by quad.newton from the
    midpoint of its gap and is accepted only inside the gap with |value| < tol;
    otherwise RootCountMismatch is raised. Degrees run up to
    quad.MAX_ORDER + 1 = 513; above that gauss_legendre raises ValueError.
    """
    if n < 2:
        raise ValueError("family starts at degree 2")
    nodes = gauss_legendre(n - 1).nodes
    roots = [-1.0]
    for lo, hi in zip(nodes, nodes[1:]):
        x, value, _ = newton(functools.partial(q_float, n), (lo + hi) / 2)
        if not (lo < x < hi and abs(value) < tol):
            raise RootCountMismatch(
                f"root {x!r} with residual {value!r} is not in ({lo!r}, {hi!r}) to {tol}")
        roots.append(x)
    return roots + [1.0]
