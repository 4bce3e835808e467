"""The integrated Legendre family: antiderivatives of Legendre polynomials
pinned to vanish at both endpoints, orthogonal under the weight 1/(1-x^2).

Each member is built on its own as Q_n = (x^2-1) i_n, its interior factor
i_n = P'_{n-1}/(n(n-1)) read off legendre's checked Jacobi(1,1) row, so Q_n'(1) = 1.

Family indices start at 2. There is no degree-0 member, and the degree-1
candidate x - 1 has a divergent weighted norm, so every sum over the family
in this package begins at index 2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Mapping, NamedTuple, Optional

from .exactpoly import NotDivisible, Poly, Scalar, _frac, _make, _moment_vector, _raw
from .legendre import _derivative_row, _derived_power, legendre_float
from .quad import gauss_legendre, newton

X2_MINUS_1 = Poly((-1, 0, 1))
_ROOT_RESIDUAL = 1e-12  # q_roots accepts a root only where |Q_n| falls below this


class RootCountMismatch(RuntimeError):
    """An interior root did not settle inside its Gauss-node gap with a residual
    under _ROOT_RESIDUAL."""


class QTable(NamedTuple):
    """Exact data for family members 2..max_degree.

    Index n of each tuple holds the degree-n data; slots 0 and 1 are None.
    ``interior`` holds the cofactor of x^2 - 1; ``lead`` reads the leading
    coefficient off the member, and ``norm_sq`` gives the closed-form
    weighted squared norm.
    """

    max_degree: int
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


def q_member(n: int) -> tuple[Poly, Poly]:
    """(Q_n, i_n): i_n = P'_{n-1}/(n(n-1)) is the row d of 2^(n-1) P'_{n-1} over 2^(n-1) n(n-1),
    so Q_n'(1) = 1. The registry's Qqn entry checks Q_n against (P_n - P_{n-2})/(2n-1)."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    d = _derivative_row(n - 1)
    den = n * (n - 1) << (n - 1)
    # the product with x^2 - 1 is one shift and one subtraction of numerators
    q = [a - b for a, b in zip([0, 0, *d], [*d, 0, 0])]
    # x^2 - 1 is primitive, so by Gauss's lemma q has the content of d
    g = math.gcd(den, *d)
    return _raw(den // g, tuple([a // g for a in q])), _raw(den // g, tuple([a // g for a in d]))


def build_q_table(max_degree: int) -> QTable:
    """Family members 2..max_degree, each built on its own by q_member."""
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    polys, interior = zip(*map(q_member, range(2, max_degree + 1)))
    return QTable(max_degree, (None, None, *polys), (None, None, *interior))


def q_rodrigues(n: int) -> Poly:
    """Degree-n member from (x^2-1) times the n-th derivative of (x^2-1)^(n-1),
    scaled by 1/(2^(n-1) n! (n-1))."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    return X2_MINUS_1 * _make(2 ** (n - 1) * math.factorial(n) * (n - 1), _derived_power(n - 1, n))


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


def fourier_coeffs(f: Poly, top_degree: int, qtable: QTable) -> dict[int, Fraction]:
    """<f, Q_n>_w / norm_n = -n(n-1)(2n-1)/2 integral(f i_n) for members 2..top_degree and any
    polynomial f: one integer dot product with f's moment vector (as in Poly.pairing) each."""
    if top_degree < 2:
        raise ValueError("family starts at degree 2")
    scale, vec = _moment_vector(f.nums, range(top_degree - 1), len(f.nums) + top_degree - 1)
    ins = [qtable.interior_factor(n) for n in range(2, top_degree + 1)]
    return {n: Fraction(-n * (n - 1) * (2 * n - 1) * sum(map(mul, vec, i.nums)),
                        2 * f.den * scale * i.den) for n, i in enumerate(ins, 2)}


def q_series(coeffs: Mapping[int, Scalar], qtable: QTable) -> Poly:
    """The sum of c_n Q_n over the items of coeffs, skipping zero coefficients, on integer
    numerators over one common denominator, normalised once."""
    terms = [(qtable.q(n), _frac(c)) for n, c in coeffs.items() if c]
    den = math.lcm(*[q.den * c.denominator for q, c in terms])
    acc = [0] * max([len(q.nums) for q, _ in terms], default=0)
    for q, c in terms:
        m = c.numerator * (den // (q.den * c.denominator))
        acc[: len(q.nums)] = [a + m * b for a, b in zip(acc, q.nums)]
    return _make(den, acc)


def q_float(n: int, x: float) -> tuple[float, float]:
    """(value, derivative) of the degree-n member at x, one recurrence step past P_{n-1}."""
    if n < 2:
        raise ValueError("family starts at degree 2")
    p1, p0 = legendre_float(n - 1, x)
    pn = (2 * n - 1) / n * x * p1 - (n - 1) / n * p0  # legendre._steps' constants, k = n-1
    return (pn - p0) / (2 * n - 1), p1


def q_roots(n: int, table: QTable) -> list[float]:
    """All n roots, sorted ascending: -1 and 1 exactly, plus n-2 interior
    roots located to |value| < 1e-12 (_ROOT_RESIDUAL).

    The derivative P_{n-1} vanishes at the nodes of the order-(n-1) Gauss
    rule, so the member is strictly monotone between consecutive nodes and,
    by Rolle's theorem, has exactly one root in each of those n-2 gaps (the
    two sets of zeros interlace). Each root is found by quad.newton from the
    midpoint of its gap and is accepted only inside the gap with |value| < 1e-12
    at Newton's last evaluation; otherwise RootCountMismatch is raised. Degrees
    run up to quad.MAX_ORDER + 1 = 513; above that gauss_legendre raises ValueError.
    """
    if n < 2:
        raise ValueError("family starts at degree 2")
    nodes = gauss_legendre(n - 1).nodes
    roots = [-1.0]
    for lo, hi in zip(nodes, nodes[1:]):
        x, value, _, _ = newton(functools.partial(q_float, n), (lo + hi) / 2)
        if not (lo < x < hi and abs(value) < _ROOT_RESIDUAL):
            raise RootCountMismatch(f"root {x!r} with residual {value!r} is not in "
                                    f"({lo!r}, {hi!r}) to {_ROOT_RESIDUAL}")
        roots.append(x)
    return roots + [1.0]
