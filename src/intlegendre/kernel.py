"""Reproducing kernels for the integrated Legendre family.

The summed kernel over members 2..n is the oracle. The two-term closed form
and the midpoint diagonal value are returned as stated; the verify registry
compares them with the sums and records the correction factor.

The sums are running sums over the member tuple Q of build_q_table, which every
function here reads: K_n is K_{n-1} plus one term, so one pass to a top index
gives every K_n below it. ``kernel_sections`` yields the sections K_n(., y), each
with its value K_n(y, y); ``kernel_forms`` lists the scalar values K_n(x, y),
indexed by n with slots 0 and 1 None, beside the stated two-term forms from one
evaluation of each member. Nothing is cached between calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactpoly import Poly, Scalar, _frac
from .legendre import double_factorial, legendre_special_values
from .qfamily import q_norm_sq


class KernelSection(NamedTuple):
    """The kernel with the second argument frozen at y, as a polynomial in x."""

    n: int
    y: Fraction
    poly: Poly
    value_at_y: Fraction


def kernel_sections(top: int, y: Scalar, q: Sequence[Poly]) -> Iterator[KernelSection]:
    """Yield the sections sum_{k=2..n} Q_k(y)/norm_k * Q_k, Q_k = q[k], for n = 2..top
    from one running pass, each the previous plus one term."""
    if top < 2:
        raise ValueError("kernel index starts at 2")
    y, acc = _frac(y), Poly()
    for n in range(2, top + 1):
        qy = q[n].at(y)
        if qy:
            acc = acc + q[n].scale(qy / q_norm_sq(n))
        yield KernelSection(n, y, acc, acc.at(y))


def kernel_sum(n: int, y: Scalar, q: Sequence[Poly]) -> KernelSection:
    """The one section sum_{k=2..n} Q_k(y)/norm_k * Q_k, the last that kernel_sections
    yields; only kernel_value calls it."""
    *_, section = kernel_sections(n, y, q)
    return section


def kernel_value(n: int, x: Scalar, y: Scalar, q: Sequence[Poly]) -> Fraction:
    """Scalar kernel value sum_{k=2..n} Q_k(x) Q_k(y)/norm_k, exact: the section at y, at x."""
    return kernel_sum(n, y, q).poly.at(x)


def kernel_forms(top: int, x: Scalar, y: Scalar,
                 q: Sequence[Poly]) -> tuple[list[Optional[Fraction]], list[Optional[Fraction]]]:
    """For n = 2..top, index n (slots 0 and 1 None): K_n(x, y), the running sum
    of Q_k(x) Q_k(y)/norm_k over k = 2..n, and the stated two-term form
    (Q_{n+1}(x) Q_n(y) - Q_{n+1}(y) Q_n(x))/(x - y), or when x == y the diagonal form
    Q'_{n+1}(x) Q_n(x) - Q_{n+1}(x) Q'_n(x), each with the stated prefactor 1/norm_n.
    Every member is evaluated once at x and once at y (once in all when x == y)."""
    if top < 2:
        raise ValueError("kernel index starts at 2")
    x, y = _frac(x), _frac(y)
    ns, pad = range(2, top + 1), [None, None]
    qx = {k: q[k].at(x) for k in range(2, top + 2)}
    qy = qx if x == y else {k: q[k].at(y) for k in qx}
    sums = pad + list(accumulate(qx[n] * qy[n] / q_norm_sq(n) for n in ns))
    if x == y:
        d = {k: q[k].deriv().at(x) for k in qx}
        forms = (d[n + 1] * qx[n] - qx[n + 1] * d[n] for n in ns)
    else:
        forms = ((qx[n + 1] * qy[n] - qy[n + 1] * qx[n]) / (x - y) for n in ns)
    return sums, pad + [form / q_norm_sq(n) for n, form in zip(ns, forms)]


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

