"""Reproducing kernels for the integrated Legendre family.

The summed kernel over members 2..n is the oracle. The two-term closed form
and the midpoint diagonal value are returned as stated; the verify registry
compares them with the sums and records the correction factor.

The sums are running sums: K_n is K_{n-1} plus one term, so one pass to a
top index gives every K_n below it: ``kernel_values`` lists the scalar
values, indexed by n with slots 0 and 1 None as in the QTable tuples, and
``kernel_sections`` yields the sections; ``kernel_forms`` adds the stated
two-term forms from the same member values. Nothing is cached between calls.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .exactpoly import Poly, Scalar
from .legendre import double_factorial, legendre_special_values
from .qfamily import QTable, weighted_inner_product


class InadmissibleFunction(ValueError):
    """Argument lies outside the span reproduced by the kernel."""


class KernelSection(NamedTuple):
    """The kernel with the second argument frozen at y, as a polynomial in x."""

    n: int
    y: Fraction
    poly: Poly
    value_at_y: Fraction


def _running_sections(top: int, y: Fraction, qtable: QTable) -> Iterator[tuple[int, Poly]]:
    """(n, sum_{k=2..n} Q_k(y)/norm_k * Q_k) for n = 2..top, each the previous
    plus one term."""
    acc = Poly()
    for k in range(2, top + 1):
        qy = qtable.q(k).at(y)
        if qy:
            acc = acc + qtable.q(k).scale(qy / qtable.norm_sq(k))
        yield k, acc


def kernel_sections(top: int, y: Scalar, qtable: QTable) -> Iterator[KernelSection]:
    """Yield the sections sum_{k=2..n} Q_k(y)/norm_k * Q_k for n = 2..top
    from one running pass."""
    if top < 2:
        raise ValueError("kernel index starts at 2")
    y = Fraction(y)
    for n, acc in _running_sections(top, y, qtable):
        yield KernelSection(n, y, acc, acc.at(y))


def kernel_sum(n: int, y: Scalar, qtable: QTable) -> KernelSection:
    """Exact section sum_{k=2..n} Q_k(y)/norm_k * Q_k, from the same pass
    with no per-index work beyond the running sum (minimize calls it)."""
    if n < 2:
        raise ValueError("kernel index starts at 2")
    y = Fraction(y)
    _, acc = deque(_running_sections(n, y, qtable), maxlen=1)[0]
    return KernelSection(n, y, acc, acc.at(y))


def kernel_values(top: int, x: Scalar, y: Scalar, qtable: QTable) -> list[Optional[Fraction]]:
    """K_n(x, y) = sum_{k=2..n} Q_k(x) Q_k(y)/norm_k for n = 2..top in one
    pass, each the previous plus one term; index n holds K_n(x, y)."""
    return kernel_forms(top, x, y, qtable, stated=False)[0]


def kernel_value(n: int, x: Scalar, y: Scalar, qtable: QTable) -> Fraction:
    """Scalar kernel value sum_{k=2..n} Q_k(x) Q_k(y)/norm_k, exact."""
    return kernel_values(n, x, y, qtable)[n]


def kernel_forms(top: int, x: Scalar, y: Scalar, qtable: QTable, low: int = 2,
                 stated: bool = True) -> tuple[list[Optional[Fraction]], list[Optional[Fraction]]]:
    """For n = low..top, index n (slots below low None): the running sum of
    Q_k(x) Q_k(y)/norm_k over k = low..n, and with stated, kernel_cd(n, x, y),
    or kernel_confluent(n, x) when x == y (else an empty list). Every member is
    evaluated once at x and once at y (once in all when x == y)."""
    if top < 2:
        raise ValueError("kernel index starts at 2")
    x, y = Fraction(x), Fraction(y)
    ns, pad = range(low, top + 1), [None] * low
    qx = {k: qtable.q(k).at(x) for k in range(low, top + 2 if stated else top + 1)}
    qy = qx if x == y else {k: qtable.q(k).at(y) for k in qx}
    sums = pad + list(accumulate(qx[n] * qy[n] / qtable.norm_sq(n) for n in ns))
    if not stated:
        return sums, []
    if x == y:
        d = {k: qtable.q(k).deriv().at(x) for k in qx}
        forms = (d[n + 1] * qx[n] - qx[n + 1] * d[n] for n in ns)
    else:
        forms = ((qx[n + 1] * qy[n] - qy[n + 1] * qx[n]) / (x - y) for n in ns)
    return sums, pad + [form / qtable.norm_sq(n) for n, form in zip(ns, forms)]


def kernel_cd(n: int, x: Scalar, y: Scalar, qtable: QTable) -> Fraction:
    """Two-term form (Q_{n+1}(x)Q_n(y) - Q_{n+1}(y)Q_n(x))/(x-y) with the
    stated prefactor 1/norm_n. Needs x != y."""
    if Fraction(x) == Fraction(y):
        raise ValueError("confluent point: use kernel_confluent")
    return kernel_forms(n, x, y, qtable, n)[1][n]


def kernel_confluent(n: int, x: Scalar, qtable: QTable) -> Fraction:
    """Diagonal form Q'_{n+1}(x)Q_n(x) - Q_{n+1}(x)Q'_n(x) with the stated
    prefactor 1/norm_n."""
    return kernel_forms(n, x, x, qtable, n)[1][n]


def kernel_zero_stated(n: int) -> Fraction:
    """Stated closed form for the diagonal value at 0, evaluated on the
    parity branch where every sub-expression is well-formed.

    For even n only the first product is well-formed and the second
    multiplies a vanishing odd-degree midpoint value; for odd n the roles
    swap. The surviving branch is evaluated literally; each of its factors
    is nonzero, so the stated value is too.
    """
    if n < 2:
        raise ValueError("kernel index starts at 2")
    pref = Fraction(n * (n - 1) * (2 * n - 1), 2)
    if n % 2 == 0:
        mid = legendre_special_values(n).at0
        first = Fraction(
            (-1) ** ((n - 2) // 2) * double_factorial(n - 3), double_factorial(n)
        )
        return pref * first * mid
    mid = legendre_special_values(n - 1).at0
    second = Fraction(
        (-1) ** ((n - 1) // 2) * double_factorial(n - 2), double_factorial(n + 1)
    )
    return -pref * second * mid


def reproducing_check(n: int, g: Poly, qtable: QTable) -> bool:
    """Exact test that integrating the kernel section against g under the
    weight returns g itself.

    Admissible g: degree <= n and g(1) = g(-1) = 0; anything else is outside
    the claimed span and raises InadmissibleFunction.
    """
    if n < 2:
        raise ValueError("kernel index starts at 2")
    if (g.degree or 0) > n:
        raise InadmissibleFunction(f"degree {g.degree} exceeds kernel index {n}")
    if g.at(1) != 0 or g.at(-1) != 0:
        raise InadmissibleFunction("argument must vanish at both endpoints")
    recon = Poly()
    for k in range(2, n + 1):
        coef = weighted_inner_product(qtable.q(k), g) / qtable.norm_sq(k)
        if coef:
            recon = recon + qtable.q(k).scale(coef)
    return recon == g

