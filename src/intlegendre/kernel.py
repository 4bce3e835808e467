"""Reproducing kernels for the integrated Legendre family.

The summed kernel over members 2..n is the oracle. The two-term closed form
is checked against it with both the stated prefactor 1/norm_n and the
corrected prefactor carrying the leading-coefficient ratio; at n = 2 the two
coincide, which is why the correction factor is always reported rather than
assumed away.

The sums are running sums: K_n is K_{n-1} plus one term, so one pass to a
top index gives every K_n below it: ``kernel_values`` lists the scalar
values, indexed by n with slots 0 and 1 None as in the QTable tuples, and
``kernel_sections`` yields the sections. Nothing is cached between calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .exactpoly import Poly, Scalar, X
from .legendre import double_factorial, legendre_special_values
from .qfamily import QTable, weighted_inner_product
from .verdict import Verdict


class InadmissibleFunction(ValueError):
    """Argument lies outside the span reproduced by the kernel."""


@dataclass(frozen=True)
class KernelSection:
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
    pass, each the previous plus one term; index n holds K_n(x, y).

    Every member is evaluated once at x and once at y (once in all when
    x == y)."""
    if top < 2:
        raise ValueError("kernel index starts at 2")
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    values: list[Optional[Fraction]] = [None, None]
    for k in range(2, top + 1):
        q = qtable.q(k)
        qy = q.at(y)
        total += (qy if x == y else q.at(x)) * qy / qtable.norm_sq(k)
        values.append(total)
    return values


def kernel_value(n: int, x: Scalar, y: Scalar, qtable: QTable) -> Fraction:
    """Scalar kernel value sum_{k=2..n} Q_k(x) Q_k(y)/norm_k, exact."""
    return kernel_values(n, x, y, qtable)[n]


def cd_correction_factor(n: int, qtable: QTable) -> Fraction:
    """Leading-coefficient ratio lead_n/lead_{n+1}; equals (n+1)/(2n-1)."""
    return qtable.lead(n) / qtable.lead(n + 1)


@dataclass(frozen=True)
class KernelComparison:
    """Two-term closed form against the exact sum.

    stated_value uses the bare prefactor 1/norm_n; corrected_value carries
    the extra leading-coefficient ratio.
    """

    stated_value: Fraction
    corrected_value: Fraction
    oracle_value: Fraction
    verdict: Verdict


def _compare(oracle: Fraction, stated: Fraction, corrected: Fraction) -> Verdict:
    if stated == oracle:
        return Verdict.CONFIRMED
    if corrected == oracle:
        return Verdict.CORRECTED_FACTOR
    if stated == -oracle:
        return Verdict.CONFIRMED_UP_TO_SIGN
    return Verdict.FAILED


def kernel_cd(n: int, x: Scalar, y: Scalar, qtable: QTable,
              oracle: Optional[Fraction] = None) -> KernelComparison:
    """Two-term form (Q_{n+1}(x)Q_n(y) - Q_{n+1}(y)Q_n(x))/(x-y) with both
    prefactors, compared exactly against the summed kernel. Needs x != y.

    ``oracle`` is K_n(x, y) when the caller already holds it, as read off
    kernel_values; otherwise it is summed here."""
    x, y = Fraction(x), Fraction(y)
    if x == y:
        raise ValueError("confluent point: use kernel_confluent")
    qn, qp = qtable.q(n), qtable.q(n + 1)
    core = (qp.at(x) * qn.at(y) - qp.at(y) * qn.at(x)) / (x - y)
    stated = core / qtable.norm_sq(n)
    corrected = stated * cd_correction_factor(n, qtable)
    if oracle is None:
        oracle = kernel_value(n, x, y, qtable)
    return KernelComparison(stated, corrected, oracle, _compare(oracle, stated, corrected))


def kernel_confluent(n: int, x: Scalar, qtable: QTable,
                     oracle: Optional[Fraction] = None) -> KernelComparison:
    """Diagonal form Q'_{n+1}(x)Q_n(x) - Q_{n+1}(x)Q'_n(x), same prefactor
    treatment (and the same optional ``oracle``, K_n(x, x)) as the
    off-diagonal comparison."""
    x = Fraction(x)
    qn, qp = qtable.q(n), qtable.q(n + 1)
    core = qp.deriv().at(x) * qn.at(x) - qp.at(x) * qn.deriv().at(x)
    stated = core / qtable.norm_sq(n)
    corrected = stated * cd_correction_factor(n, qtable)
    if oracle is None:
        oracle = kernel_value(n, x, x, qtable)
    return KernelComparison(stated, corrected, oracle, _compare(oracle, stated, corrected))


@dataclass(frozen=True)
class KernelZeroValue:
    """Kernel diagonal at 0 against its stated double-factorial closed form."""

    oracle: Fraction
    stated: Fraction
    factor: Fraction
    verdict: Verdict


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


def kernel_at_zero_closed_form(n: int, qtable: QTable,
                               oracle: Optional[Fraction] = None) -> KernelZeroValue:
    """Oracle diagonal value at 0 next to the stated closed form; the factor
    field records oracle/stated exactly. ``oracle`` is K_n(0, 0) when the
    caller already holds it."""
    if oracle is None:
        oracle = kernel_value(n, 0, 0, qtable)
    stated = kernel_zero_stated(n)
    factor = oracle / stated
    if factor == 1:
        verdict = Verdict.CONFIRMED
    elif factor == -1:
        verdict = Verdict.CONFIRMED_UP_TO_SIGN
    else:
        verdict = Verdict.CORRECTED_FACTOR
    return KernelZeroValue(oracle, stated, factor, verdict)


def reproducing_check(n: int, g: Poly, qtable: QTable) -> Verdict:
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
    return Verdict.CONFIRMED if recon == g else Verdict.FAILED


def kernel_sequence_orthogonality(n: int, m: int, qtable: QTable,
                                  sections: Optional[Mapping[int, KernelSection]] = None,
                                  ) -> Fraction:
    """Exact integral of K_n(x,0) K_m(x,0) x/(1-x^2) over [-1, 1].

    Zero for n != m; both sections vanish at the endpoints so the integrand
    is polynomial after exact division. Consecutive sections can coincide
    (the added member vanishes at 0), and the value is still zero because
    sections at 0 are even polynomials against an odd weight. ``sections``
    maps each index up to at least max(n, m) to its section at 0 when the
    caller already holds them; otherwise both come from one pass here.
    """
    if min(n, m) < 2:
        raise ValueError("kernel index starts at 2")
    if sections is None:
        sections = {s.n: s for s in kernel_sections(max(n, m), 0, qtable)}
    return weighted_inner_product(sections[n].poly * X, sections[m].poly)
