"""Identity verification registry and report assembly.

Each registry entry pits one stated closed form against the exact oracle
and records a verdict. This is the one place a verdict is decided: the
library modules return stated values and oracles as plain values.
CONFIRMED_UP_TO_SIGN and CORRECTED_FACTOR are first-class outcomes: they
mean the stated form holds after the recorded correction, and the witness
carries a concrete instance. FAILED means no recorded correction reconciles
the two sides.

An entry is declared once, with ``@identity(id, description, degrees)`` on
its check. The check is called as ``check(ctx, top)`` and returns None for
CONFIRMED or ``(verdict, witness)`` for a recorded correction; it raises
``Failed(**witness)`` when the identity does not hold.

Every random draw is seeded from the identity id, so reports are
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Union

from . import approx, kernel, moebius
from .exactpoly import Poly, X, _moment_vector
from .legendre import (
    MAX_DEGREE,
    LegendreTable,
    build_legendre,
    double_factorial,
    legendre_even_at_zero,
    legendre_odd_deriv_at_zero,
    legendre_rodrigues,
    legendre_shifted_expansion,
    legendre_special_values,
)
from .qfamily import (
    QTable,
    X2_MINUS_1,
    build_q_table,
    q_norm_sq,
    q_rodrigues,
    weighted_inner_product,
)
from .verdict import Verdict

SCHEMA_VERSION = 1
MIN_DEGREE = 4

TEST_MAPS: tuple[tuple[Union[int, Fraction], ...], ...] = (
    (1, 0, 0, 1),
    (1, 1, 0, 1),
    (2, 0, 0, Fraction(1, 2)),
    (2, 1, 1, 1),
    (3, 1, 2, 1),
)

_SEQ_ORTH_TOP = 16
_EXTREMAL_TOP = 16
_KERNEL_TOP = 20
_FOURIER_TOP = 12
_GRAM_TOP = 8
_FLOAT_TOL = 1e-11


class IdentityEntry(NamedTuple):
    identity_id: str
    description: str
    degrees_checked: str
    verdict: Verdict
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {**self._asdict(), "verdict": self.verdict.value}


class VerificationReport(NamedTuple):
    max_degree: int
    entries: tuple[IdentityEntry, ...]

    @property
    def failed_ids(self) -> list[str]:
        return [e.identity_id for e in self.entries if e.verdict is Verdict.FAILED]

    @property
    def non_confirmed_ids(self) -> list[str]:
        return [e.identity_id for e in self.entries if e.verdict is not Verdict.CONFIRMED]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "max_degree": self.max_degree,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class _Ctx(NamedTuple):
    max_degree: int
    ltable: LegendreTable
    qtable: QTable
    rng: Optional[random.Random] = None  # seeded from the identity id for each entry


class Failed(Exception):
    """Raised by a check whose identity does not hold; carries the witness."""

    def __init__(self, **witness) -> None:
        super().__init__(witness)
        self.witness = witness


_Check = Callable[[_Ctx, int], Optional[tuple[Verdict, dict]]]

# id -> (description, degrees, cap, check)
_REGISTRY: dict[str, tuple[str, str, Optional[int], _Check]] = {}


def identity(identity_id: str, description: str, degrees: str,
             cap: Optional[int] = None) -> Callable[[_Check], _Check]:
    """Register a check; ``degrees`` may use ``{top}``, which is the run's depth,
    or min(cap, depth) when a cap is given."""
    if identity_id in _REGISTRY:
        raise ValueError(f"identity id {identity_id!r} is already registered")

    def register(check: _Check) -> _Check:
        _REGISTRY[identity_id] = (description, degrees, cap, check)
        return check

    return register


def _run(identity_id: str, ctx: _Ctx) -> IdentityEntry:
    description, degrees, cap, check = _REGISTRY[identity_id]
    top = ctx.max_degree if cap is None else min(cap, ctx.max_degree)
    ctx = ctx._replace(rng=random.Random(f"intlegendre:{identity_id}"))
    try:
        verdict, witness = check(ctx, top) or (Verdict.CONFIRMED, None)
    except Failed as failure:
        verdict, witness = Verdict.FAILED, failure.witness
    return IdentityEntry(identity_id, description, degrees.format(top=top), verdict, witness)


def _w(value) -> object:
    """Witness values: exact data as strings, floats as floats."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Poly):
        return value.pretty()
    return value


def _width(polys) -> int:
    """Largest degree among table members, which sizes a Poly.pairing over them."""
    return max(p.degree or 0 for p in polys)


def _sturm(p: Poly, n: int, e: int, size: int) -> Optional[Fraction]:
    """p's x^(n-1+e) moment if p has exact degree n and solves (1-x^2) y'' - (1+e) x y'
    + n(n+e) y = 0, else None. e = 1 is Legendre's equation; e = -1 is the family's, which
    forces Q(+-1) = 0. Two integrations by parts against x^j, or x^j (1-x^2) for e = -1,
    whose boundary terms vanish, then make every moment below x^(n-1+e) vanish."""
    c = p.nums + (0,)  # the equation's x^k coefficients, k < n, on the integer numerators
    if len(c) != n + 2 or any((k + 2) * (k + 1) * c[k + 2] != (k - n) * (k + n + e) * c[k]
                              for k in range(n)):
        return None
    scale, (moment,) = _moment_vector(p.nums, (n - 1 + e,), size)  # size >= 2n + 1
    return Fraction(moment, p.den * scale)


def _rand_fraction(rng: random.Random, span: int = 8, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_poly(rng: random.Random, max_deg: int, span: int = 6, den: int = 6) -> Poly:
    while True:
        p = Poly([_rand_fraction(rng, span, den) for _ in range(max_deg + 1)])
        if not p.is_zero():
            return p


def _agree(oracle, stated, **where) -> None:
    """Raise Failed, witnessing both sides, unless the oracle and the stated value agree."""
    if oracle != stated:
        raise Failed(**where, oracle_value=_w(oracle), stated_value=_w(stated))


def _every(ns: Iterable[int], holds: Callable[[int], bool]) -> None:
    """A closed form stated at every n: the first n where it fails is the witness."""
    for n in ns:
        if not holds(n):
            raise Failed(n=n)


def _residual_zero(ns: Iterable[int], residual: Callable[[int], Poly]) -> None:
    """A polynomial identity stated at every n: its residual must vanish."""
    for n in ns:
        r = residual(n)
        if not r.is_zero():
            raise Failed(n=n, oracle_value=_w(r))


# -- Legendre-side checks ------------------------------------------------------


@identity("DifLn", "repeated-derivative form of (x^2-1)^n reproduces the recurrence table",
          "0..{top}")
def _difln(ctx: _Ctx, top: int) -> None:
    _every(range(top + 1), lambda n: legendre_rodrigues(n) == ctx.ltable.poly(n))


@identity("expp", "squared-binomial expansion in powers of x-1 and x+1 equals the table",
          "0..{top}")
def _expp(ctx: _Ctx, top: int) -> None:
    _every(range(top + 1), lambda n: legendre_shifted_expansion(n) == ctx.ltable.poly(n))


@identity("orthLn", "plain-weight orthogonality with norm 2/(2n+1)", "0..{top}")
def _orthln(ctx: _Ctx, top: int) -> None:
    p = ctx.ltable.poly
    # with P_n orthogonal to every lower power, its norm is lead(P_n) times its x^n moment
    if all((mu := _sturm(p(n), n, 1, 2 * top + 1)) is not None
           and p(n).coeff(n) * mu == Fraction(2, 2 * n + 1) for n in range(top + 1)):
        return
    width = _width(ctx.ltable.poly(m) for m in range(top + 1))
    for n in range(top + 1):
        pair = ctx.ltable.poly(n).pairing(width)
        for m in range(n, top + 1):
            want = Fraction(2, 2 * n + 1) if n == m else Fraction(0)
            _agree(pair(ctx.ltable.poly(m)), want, n=n, inputs={"m": m})


@identity("Lnat1", "endpoint values and first/second endpoint derivatives", "0..{top}")
def _lnat1(ctx: _Ctx, top: int) -> None:
    def holds(n: int) -> bool:
        p = ctx.ltable.poly(n)
        d1, d2 = p.deriv(), p.deriv(2)
        sv = legendre_special_values(n)
        return (
            p.at(1) == sv.at_plus1
            and p.at(-1) == sv.at_minus1
            and d1.at(1) == sv.deriv_at_plus1
            and d1.at(-1) == Fraction((-1) ** (n - 1) if n else 1) * sv.deriv_at_plus1
            and d2.at(1) == sv.second_deriv_at_plus1
            and d2.at(-1) == Fraction((-1) ** n) * sv.second_deriv_at_plus1
        )

    _every(range(top + 1), holds)


@identity("Lnat0", "alternating squared-binomial sum for the midpoint value", "0..{top}")
def _lnat0(ctx: _Ctx, top: int) -> None:
    _every(range(top + 1),
           lambda n: legendre_special_values(n).at0 == ctx.ltable.poly(n).at(0))


@identity("L2nat0", "rising-factorial form of the even-degree midpoint value", "even 0..{top}")
def _l2nat0(ctx: _Ctx, top: int) -> None:
    _every(range(0, top + 1, 2),
           lambda n: legendre_even_at_zero(n // 2) == ctx.ltable.poly(n).at(0))


@identity("DeriLnat0", "rising-factorial form of the odd-degree midpoint derivative",
          "odd 1..{top}")
def _derilnat0(ctx: _Ctx, top: int) -> None:
    _every(range(1, top + 1, 2),
           lambda n: legendre_odd_deriv_at_zero(n // 2) == ctx.ltable.poly(n).deriv().at(0))


@identity("Lnderivat0", "alternating weighted squared-binomial sum for the midpoint derivative",
          "0..{top}")
def _lnderivat0(ctx: _Ctx, top: int) -> None:
    _every(range(top + 1),
           lambda n: legendre_special_values(n).deriv_at0 == ctx.ltable.poly(n).deriv().at(0))


@identity("GenerIntegParts", "repeated integration by parts with alternating boundary sum",
          "deg<=8, order<=4; 30 random trials")
def _parts(ctx: _Ctx, top: int) -> None:
    for trial in range(30):
        u = _rand_poly(ctx.rng, ctx.rng.randint(0, 8))
        v = _rand_poly(ctx.rng, ctx.rng.randint(0, 8))
        order = ctx.rng.randint(1, 4)
        lhs = (u * v.deriv(order)).integral(-1, 1)
        boundary = Fraction(0)
        for k in range(1, order + 1):
            term = u.deriv(k - 1) * v.deriv(order - k)
            boundary += Fraction((-1) ** (k - 1)) * (term.at(1) - term.at(-1))
        rhs = boundary + Fraction((-1) ** order) * (u.deriv(order) * v).integral(-1, 1)
        if lhs != rhs:
            raise Failed(inputs={"u": _w(u), "v": _w(v), "order": order},
                         oracle_value=_w(lhs), stated_value=_w(rhs))


# -- family structure checks ----------------------------------------------------


@identity("Qqn", "pinned antiderivative construction agrees with the difference form",
          "2..{top}")
def _qqn(ctx: _Ctx, top: int) -> None:
    p = ctx.ltable.poly

    def holds(n: int) -> bool:
        anti = p(n - 1).antideriv()
        qn = ctx.qtable.q(n)
        return qn == (p(n) - p(n - 2)) / (2 * n - 1) and anti - anti.at(1) == qn

    _every(range(2, top + 1), holds)


@identity("Qqn1", "members vanish at both endpoints", "2..{top}")
def _qqn1(ctx: _Ctx, top: int) -> None:
    q = ctx.qtable.q
    _every(range(2, top + 1), lambda n: q(n).at(1) == 0 and q(n).at(-1) == 0)


@identity("Diff2", "second-order equation (1-x^2) Q'' + n(n-1) Q = 0 as a polynomial",
          "2..{top}")
def _diff2(ctx: _Ctx, top: int) -> None:
    q = ctx.qtable.q
    _residual_zero(range(2, top + 1),
                   lambda n: (-X2_MINUS_1) * q(n).deriv(2) + q(n).scale(n * (n - 1)))


@identity("Diff3", "differentiated second-order equation as a polynomial identity", "2..{top}")
def _diff3(ctx: _Ctx, top: int) -> None:
    def residual(n: int) -> Poly:
        q = ctx.qtable.q(n)
        return (X * q.deriv(2)).scale(-2) + (-X2_MINUS_1) * q.deriv(3) \
            + q.deriv().scale(n * (n - 1))

    _residual_zero(range(2, top + 1), residual)


@identity("Second", "(x^2-1) v^(n) = n(n-1) v^(n-2) for v = (x^2-1)^(n-1)", "2..{top}", cap=20)
def _second(ctx: _Ctx, top: int) -> None:
    def holds(n: int) -> bool:
        v = X2_MINUS_1 ** (n - 1)
        return X2_MINUS_1 * v.deriv(n) == v.deriv(n - 2).scale(n * (n - 1))

    _every(range(2, top + 1), holds)


@identity("Rodrigues", "product form with the n-th derivative of (x^2-1)^(n-1) equals the table",
          "2..{top}")
def _rodrigues(ctx: _Ctx, top: int) -> None:
    _every(range(2, top + 1), lambda n: q_rodrigues(n) == ctx.qtable.q(n))


@identity("Qnderiv1", "endpoint derivative block: Q'(1)=1, Q'(-1)=(-1)^(n-1), Q''(1)=n(n-1)/2",
          "2..{top}")
def _qnderiv1(ctx: _Ctx, top: int) -> None:
    def holds(n: int) -> bool:
        d1 = ctx.qtable.q(n).deriv()
        return (
            d1.at(1) == 1
            and d1.at(-1) == (-1) ** (n - 1)
            and d1.deriv().at(1) == Fraction(n * (n - 1), 2)
        )

    _every(range(2, top + 1), holds)


@identity("Qnatzero", "double-factorial midpoint value; oracle carries the opposite sign",
          "2..{top}")
def _qnatzero(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    witness = None
    for n in range(2, top + 1):
        oracle = ctx.qtable.q(n).at(0)
        if n % 2:  # the stated exponent (n-2)/2 is not an integer; odd members vanish at 0
            if oracle != 0:
                raise Failed(n=n, oracle_value=_w(oracle))
            continue
        stated = Fraction((-1) ** ((n - 2) // 2) * double_factorial(n - 3), double_factorial(n))
        if oracle != -stated:
            raise Failed(n=n, oracle_value=_w(oracle), stated_value=_w(stated))
        if witness is None:
            witness = {"n": n, "oracle_value": _w(oracle), "stated_value": _w(stated)}
    return Verdict.CONFIRMED_UP_TO_SIGN, witness


@identity("Pipcirs2",
          "first derivative equals the scaled difference of neighbour second derivatives",
          "3..{top}")
def _pipcirs2(ctx: _Ctx, top: int) -> None:
    q = ctx.qtable.q
    _every(range(3, top + 1),
           lambda n: q(n).deriv() == (q(n + 1).deriv(2) - q(n - 1).deriv(2)) / (2 * n - 1))


@identity("Pipcirs3", "pinned antiderivative equals the scaled difference of neighbours",
          "3..{top}")
def _pipcirs3(ctx: _Ctx, top: int) -> None:
    def holds(n: int) -> bool:
        anti = ctx.qtable.q(n).antideriv()
        return anti - anti.at(-1) == (ctx.qtable.q(n + 1) - ctx.qtable.q(n - 1)) / (2 * n - 1)

    _every(range(3, top + 1), holds)


@identity("OrthQn", "weighted orthogonality of distinct members", "2..{top}")
def _orthqn(ctx: _Ctx, top: int) -> None:
    # with every i_n of degree n - 2, -integral of i_n Q_m vanishes for m > n once Q_m's
    # moments below x^(m-2) do
    if all(ctx.qtable.interior_factor(n).degree == n - 2 and
           _sturm(ctx.qtable.q(n), n, -1, 2 * top + 1) is not None for n in range(2, top + 1)):
        return
    width = _width(ctx.qtable.q(m) for m in range(2, top + 1))
    for n in range(2, top + 1):
        # <Q_n, Q_m>_w = -integral of interior_n * Q_m, as in weighted_inner_product
        pair = ctx.qtable.interior_factor(n).pairing(width)
        for m in range(n + 1, top + 1):
            _agree(-pair(ctx.qtable.q(m)), Fraction(0), n=n, inputs={"m": m})


@identity("NormQn", "weighted squared norm 2/(n(n-1)(2n-1))", "2..{top}")
def _normqn(ctx: _Ctx, top: int) -> None:
    for n in range(2, top + 1):
        qn, i_n = ctx.qtable.q(n), ctx.qtable.interior_factor(n)
        # with Q_n's moments below x^(n-2) zero, -integral of i_n Q_n is one product
        nu = _sturm(qn, n, -1, 2 * top + 1) if i_n.degree == n - 2 else None
        if nu is None or -i_n.coeff(n - 2) * nu != q_norm_sq(n):
            _agree(-i_n.pairing(_width((qn,)))(qn), q_norm_sq(n), n=n)


# -- kernel checks --------------------------------------------------------------


@identity("CDS11-prefactor",
          "two-term kernel form needs the extra leading-coefficient ratio "
          "(n+1)/(2n-1); the bare prefactor is right only at n = 2",
          "2..{top}; 20 random rational points", cap=_KERNEL_TOP)
def _cd_prefactor(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    points: list[tuple[Fraction, Fraction]] = []
    while len(points) < 20:
        x, y = _rand_fraction(ctx.rng), _rand_fraction(ctx.rng)
        if x != y and abs(x) <= 1 and abs(y) <= 1:
            points.append((x, y))
    points += [(x, x) for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 5))]  # confluent
    # the summed kernel and the stated form at every n, one pass per point
    oracles, forms = zip(*(kernel.kernel_forms(top, x, y, ctx.qtable) for x, y in points))
    labels = [{"x": _w(x), "y": _w(y)} if x != y else {"x": _w(x), "confluent": True}
              for x, y in points]
    witness = None
    for n in range(2, top + 1):
        factor = ctx.qtable.lead(n) / ctx.qtable.lead(n + 1)  # the leading-coefficient ratio
        if factor != Fraction(n + 1, 2 * n - 1):
            raise Failed(n=n, oracle_value=_w(factor))
        for (x, y), oracle, stated, inputs in zip(points, oracles, forms, labels):
            if stated[n] * factor != oracle[n]:
                raise Failed(n=n, inputs=inputs,
                             oracle_value=_w(oracle[n]), stated_value=_w(stated[n]))
            if witness is None and n == 3 and x != y and stated[n] != oracle[n]:
                witness = {"n": n, "inputs": inputs, "oracle_value": _w(oracle[n]),
                           "stated_value": _w(stated[n]),
                           "factor": f"(n+1)/(2n-1) = {_w(factor)}"}
    return Verdict.CORRECTED_FACTOR, witness


@identity("Reprkernel", "kernel reproduces every admissible polynomial exactly",
          "2..{top}; 30 random functions", cap=_FOURIER_TOP)
def _reprkernel(ctx: _Ctx, top: int) -> None:
    for trial in range(30):
        n = ctx.rng.randint(2, top)
        g = X2_MINUS_1 * _rand_poly(ctx.rng, max(0, n - 2))
        if not kernel.reproducing_check(n, g, ctx.qtable):
            raise Failed(n=n, inputs={"g": _w(g)})


@identity("Knn00",
          "diagonal midpoint closed form: oracle equals the stated value "
          "times -(n+1)/(2n-1) on both parity branches", "2..{top}")
def _knn00(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    witness = {}
    oracle = kernel.kernel_values(top, 0, 0, ctx.qtable)
    for n in range(2, top + 1):
        stated = kernel.kernel_zero_stated(n)
        factor = oracle[n] / stated
        if factor != Fraction(-(n + 1), 2 * n - 1):
            raise Failed(n=n, oracle_value=_w(oracle[n]), stated_value=_w(stated))
        parity = "even" if n % 2 == 0 else "odd"
        if parity not in witness:
            witness[parity] = {"n": n, "oracle_value": _w(oracle[n]),
                               "stated_value": _w(stated), "factor": _w(factor)}
    return Verdict.CORRECTED_FACTOR, {"per_parity": witness, "factor": "-(n+1)/(2n-1)"}


@identity("KernelSeqOrth", "kernel sections at 0 are orthogonal under the odd weight x/(1-x^2)",
          "2..{top}", cap=_SEQ_ORTH_TOP)
def _kernel_seq(ctx: _Ctx, top: int) -> None:
    # integral of K_n(x,0) K_m(x,0) x/(1-x^2); the sections vanish at both endpoints
    sections = {s.n: s.poly for s in kernel.kernel_sections(top, 0, ctx.qtable)}
    for n in range(2, top + 1):
        for m in range(n + 1, top + 1):
            _agree(weighted_inner_product(sections[n] * X, sections[m]),
                   Fraction(0), n=n, inputs={"m": m})


# -- extremal and Fourier checks -------------------------------------------------


@identity("Kernelm", "minimum value equals 1/K_n(0,0) and the brute-force optimum",
          "2..{top}", cap=_EXTREMAL_TOP)
def _kernelm(ctx: _Ctx, top: int) -> None:
    sections = {s.n: s for s in kernel.kernel_sections(top, 0, ctx.qtable)}
    for n in range(2, top + 1):
        m_kernel = 1 / sections[n].value_at_y
        _agree(approx.brute_force_minimizer(n, ctx.qtable).m_value, m_kernel, n=n)


@identity("Kernelf", "minimizer equals the kernel section scaled to 1 at 0",
          "2..{top}", cap=_EXTREMAL_TOP)
def _kernelf(ctx: _Ctx, top: int) -> None:
    sections = {s.n: s for s in kernel.kernel_sections(top, 0, ctx.qtable)}
    for n in range(2, top + 1):
        section = sections[n]
        minimizer = section.poly * (1 / section.value_at_y)
        _agree(approx.brute_force_minimizer(n, ctx.qtable).poly, minimizer, n=n)


def _literal_extremal_summand(j: int) -> Fraction:
    return Fraction(j * (j - 1) * (2 * j - 1), 2) * Fraction(
        double_factorial(j - 3), double_factorial(j)
    ) ** 2


@identity("Valuem-odd-terms",
          "literal double-factorial sum for 1/M is correct restricted to even "
          "indices; odd summands are spurious (odd members vanish at 0)",
          "2..{top}", cap=_EXTREMAL_TOP)
def _valuem(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    oracle = kernel.kernel_values(top, 0, 0, ctx.qtable)
    even_sum = Fraction(0)
    for n in range(2, top + 1):
        if n % 2 == 0:
            even_sum += _literal_extremal_summand(n)
        _agree(oracle[n], even_sum, n=n)
    spurious = _literal_extremal_summand(3)
    if spurious == 0:
        raise Failed(j=3, stated_value="0")
    return Verdict.CORRECTED_FACTOR, {
        "j": 3, "stated_value": _w(spurious), "oracle_value": "0",
        "note": "literal odd summand is nonzero but the member vanishes at 0"}


@identity("FourierQ", "expansion coefficients recover span elements exactly, with exact Parseval",
          "2..{top}; 20 random span elements", cap=_FOURIER_TOP)
def _fourierq(ctx: _Ctx, top: int) -> None:
    for trial in range(20):
        n = ctx.rng.randint(3, top)
        coeffs = {k: _rand_fraction(ctx.rng) for k in range(2, n + 1)}
        f = Poly()
        for k, c in coeffs.items():
            if c:
                f = f + ctx.qtable.q(k).scale(c)
        for k in range(2, n + 1):
            _agree(approx.fourier_coeff_quadrature(f, k, ctx.qtable), coeffs[k], n=k)
        if approx.parseval_gap(f, n, ctx.qtable) != 0:
            raise Failed(n=n, inputs={"f": _w(f)})


@identity("anex-sign",
          "moment-formula coefficient: the stated alternating sign (-1)^n "
          "should be +1; values match the quadrature coefficient once corrected",
          "2..{top}; 30 random endpoint-vanishing functions", cap=_FOURIER_TOP)
def _anex_sign(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    witness = None
    for trial in range(30):
        n = ctx.rng.randint(2, top)
        f = X2_MINUS_1 * _rand_poly(ctx.rng, ctx.rng.randint(0, 6))
        corrected = approx.fourier_coeff_moments(f, n)
        quadrature = approx.fourier_coeff_quadrature(f, n, ctx.qtable)
        _agree(quadrature, corrected, n=n, inputs={"f": _w(f)})
        if witness is None and n % 2 and quadrature != 0:
            witness = {"n": n, "inputs": {"f": _w(f)},
                       "oracle_value": _w(quadrature), "stated_value": _w((-1) ** n * corrected)}
    return Verdict.CONFIRMED_UP_TO_SIGN, witness


@identity("akk",
          "stated monomial coefficient equals the moment functional up to the "
          "sign (-1)^k, and is not the expansion coefficient (monomials do not "
          "vanish at the endpoints)", "2..{top}", cap=_FOURIER_TOP)
def _akk(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    def stated(k: int) -> Fraction:  # (-1)^k k 2^(k-1) ((k-1)!)^2/(2k-2)!
        return Fraction((-1) ** k * k * 2 ** (k - 1) * math.factorial(k - 1) ** 2,
                        math.factorial(2 * k - 2))

    for k in range(2, top + 1):
        moment = approx.fourier_coeff_moments(Poly.monomial(k), k)
        if stated(k) != (-1) ** k * moment:
            raise Failed(n=k, oracle_value=_w(moment), stated_value=_w(stated(k)))
    x2 = Poly.monomial(2)
    return Verdict.CONFIRMED_UP_TO_SIGN, {
        "n": 2, "stated_value": _w(stated(2)),
        "oracle_value": _w(approx.fourier_coeff_moments(x2, 2)),
        "fourier_coefficient": _w(approx.fourier_coeff_quadrature(x2, 2, ctx.qtable)),
        "note": "expansion coefficient differs from the moment functional"}


# -- transformed-system checks ----------------------------------------------------


def _random_unit_map(rng: random.Random) -> moebius.MoebiusMap:
    while True:
        lam = _rand_fraction(rng, 4, 4)
        if lam == 0:
            continue
        mu = _rand_fraction(rng, 2, 4)
        alpha = _rand_fraction(rng, 2, 4)
        beta = (1 + mu * alpha) / lam
        try:
            m = moebius.MoebiusMap(lam, alpha, mu, beta)
            moebius.induced_endpoints(m)
        except moebius.DegenerateMap:
            continue
        return m


def _test_maps(rng: random.Random) -> list[moebius.MoebiusMap]:
    maps = [moebius.MoebiusMap(*params) for params in TEST_MAPS]
    maps.extend(_random_unit_map(rng) for _ in range(10))
    return maps


def _map_w(m: moebius.MoebiusMap) -> dict:
    return {"map": [_w(m.lam), _w(m.alpha), _w(m.mu), _w(m.beta)]}


@identity("wffff", "product-form weight equals (1 - f^2) f' as a rational-function identity",
          "5 reference maps + 10 random maps")
def _wffff(ctx: _Ctx, top: int) -> None:
    for m in _test_maps(ctx.rng):
        gap = moebius.weight_identity_gap(m)
        if not gap.is_zero():
            raise Failed(inputs=_map_w(m), oracle_value=_w(gap))


@identity("endpoints-§4",
          "induced endpoints solved from f(a) = -1, f(b) = 1; the stated lower "
          "expression does not satisfy f(a) = -1", "5 reference maps + 10 random maps")
def _endpoints(ctx: _Ctx, top: int) -> tuple[Verdict, dict]:
    for m in _test_maps(ctx.rng):
        ends = moebius.induced_endpoints(m)
        if m.at(ends.a) != -1 or m.at(ends.b) != 1:
            raise Failed(inputs=_map_w(m), oracle_value=_w(ends.a))
        _agree(ends.b, ends.stated_b, inputs=_map_w(m))
    shift = moebius.MoebiusMap(1, 1, 0, 1)
    ends = moebius.induced_endpoints(shift)
    if shift.at(ends.stated_a) == -1:
        raise Failed(note="stated lower endpoint unexpectedly satisfies f(a) = -1")
    return Verdict.CORRECTED_FACTOR, {
        "inputs": _map_w(shift), "oracle_value": _w(ends.a),
        "stated_value": _w(ends.stated_a), "note": "f(stated lower endpoint) != -1"}


@identity("In",
          "composed monic family is orthogonal and integral-minimal under the "
          "induced weight; transformed integrals match the reference inner products",
          f"5 reference maps; indices 0..{_GRAM_TOP}")
def _transformed(ctx: _Ctx, top: int) -> None:
    r = moebius.build_r_family(_GRAM_TOP).poly  # the exact Gram is the same for every map
    pairs = [(n, m) for n in range(_GRAM_TOP + 1) for m in range(n, _GRAM_TOP + 1)]
    exact = [float(moebius.reference_inner_product(r(n), r(m))) for n, m in pairs]
    for params in TEST_MAPS:
        label = [str(p) for p in params]
        system = moebius.build_transformed_system(moebius.MoebiusMap(*params))
        matrix, worst = moebius.gram_matrix(system, _GRAM_TOP + 1, _FLOAT_TOL)
        if worst >= _FLOAT_TOL:
            raise Failed(inputs={"map": label}, oracle_value=worst)
        for (n, m), value in zip(pairs, exact):
            if abs(matrix[n][m] - value) >= _FLOAT_TOL:
                raise Failed(inputs={"map": label, "n": n, "m": m},
                             oracle_value=value, stated_value=matrix[n][m])
        for n in range(1, 4):
            if not moebius.minimality_check(system, n):
                raise Failed(inputs={"map": label, "n": n})


def run_verification(max_degree: int = 40,
                     timings: Optional[dict] = None) -> VerificationReport:
    """Run the whole registry at the given depth and assemble the report.

    Checks run one after another (each is pure Python over immutable tables,
    so threads would only take turns at the interpreter lock); entries are
    sorted by id. A ``timings`` dict, when given, receives the wall time in
    seconds (time.perf_counter) of the table build, as "table_build_s", and
    of each entry, under "entries_s" by id; the report does not change.
    """
    if not MIN_DEGREE <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max_degree must be in {MIN_DEGREE}..{MAX_DEGREE}")
    start = time.perf_counter()
    ltable = build_legendre(max_degree + 1)
    qtable = build_q_table(max_degree + 1, ltable)
    ctx = _Ctx(max_degree, ltable, qtable)
    table_build_s = time.perf_counter() - start
    entries, entries_s = [], {}
    for identity_id in sorted(_REGISTRY):
        start = time.perf_counter()
        entries.append(_run(identity_id, ctx))
        entries_s[identity_id] = time.perf_counter() - start
    if timings is not None:
        timings.update(table_build_s=table_build_s, entries_s=entries_s)
    return VerificationReport(max_degree, tuple(entries))
