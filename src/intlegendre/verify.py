"""Identity verification registry and report assembly.

Each registry entry pits one stated closed form against the exact oracle
and records a verdict. CONFIRMED_UP_TO_SIGN and CORRECTED_FACTOR are
first-class outcomes: they mean the stated form holds after the recorded
correction, and the witness carries a concrete instance. FAILED means no
recorded correction reconciles the two sides.

Every random draw is seeded from the identity id, so reports are
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from . import approx, kernel, moebius
from .exactpoly import Poly, X
from .legendre import (
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
    q_at_zero,
    q_boundary_derivatives,
    q_rodrigues,
)
from .verdict import Verdict

SCHEMA_VERSION = 1
MIN_DEGREE = 4
MAX_DEGREE = 64

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


@dataclass(frozen=True)
class IdentityEntry:
    identity_id: str
    description: str
    degrees_checked: str
    verdict: Verdict
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "description": self.description,
            "degrees_checked": self.degrees_checked,
            "verdict": self.verdict.value,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerificationReport:
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


@dataclass(frozen=True)
class _Ctx:
    max_degree: int
    ltable: LegendreTable
    qtable: QTable


def _rng(tag: str) -> random.Random:
    return random.Random(f"intlegendre:{tag}")


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


def _rand_fraction(rng: random.Random, span: int = 8, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_poly(rng: random.Random, max_deg: int, span: int = 6, den: int = 6) -> Poly:
    while True:
        p = Poly([_rand_fraction(rng, span, den) for _ in range(max_deg + 1)])
        if not p.is_zero():
            return p


# -- Legendre-side checks ------------------------------------------------------


def _check_difln(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "repeated-derivative form of (x^2-1)^n reproduces the recurrence table"
    for n in range(ctx.max_degree + 1):
        if legendre_rodrigues(n) != ctx.ltable.poly(n):
            return [IdentityEntry("DifLn", desc, f"0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("DifLn", desc, f"0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_expp(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "squared-binomial expansion in powers of x-1 and x+1 equals the table"
    for n in range(ctx.max_degree + 1):
        if legendre_shifted_expansion(n) != ctx.ltable.poly(n):
            return [IdentityEntry("expp", desc, f"0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("expp", desc, f"0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_orthln(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "plain-weight orthogonality with norm 2/(2n+1)"
    top = ctx.max_degree
    width = _width(ctx.ltable.poly(m) for m in range(top + 1))
    for n in range(top + 1):
        pair = ctx.ltable.poly(n).pairing(width)
        for m in range(n, top + 1):
            got = pair(ctx.ltable.poly(m))
            want = Fraction(2, 2 * n + 1) if n == m else Fraction(0)
            if got != want:
                return [IdentityEntry("orthLn", desc, f"0..{top}", Verdict.FAILED,
                                      {"n": n, "inputs": {"m": m},
                                       "oracle_value": _w(got), "stated_value": _w(want)})]
    return [IdentityEntry("orthLn", desc, f"0..{top}", Verdict.CONFIRMED)]


def _check_lnat1(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "endpoint values and first/second endpoint derivatives"
    for n in range(ctx.max_degree + 1):
        p = ctx.ltable.poly(n)
        d1, d2 = p.deriv(), p.deriv(2)
        sv = legendre_special_values(n)
        checks = (
            p.at(1) == sv.at_plus1,
            p.at(-1) == sv.at_minus1,
            d1.at(1) == sv.deriv_at_plus1,
            d1.at(-1) == Fraction((-1) ** (n - 1) if n else 1) * sv.deriv_at_plus1,
            d2.at(1) == sv.second_deriv_at_plus1,
            d2.at(-1) == Fraction((-1) ** n) * sv.second_deriv_at_plus1,
        )
        if not all(checks):
            return [IdentityEntry("Lnat1", desc, f"0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Lnat1", desc, f"0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_lnat0(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "alternating squared-binomial sum for the midpoint value"
    for n in range(ctx.max_degree + 1):
        if legendre_special_values(n).at0 != ctx.ltable.poly(n).at(0):
            return [IdentityEntry("Lnat0", desc, f"0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Lnat0", desc, f"0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_l2nat0(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "rising-factorial form of the even-degree midpoint value"
    for m in range(ctx.max_degree // 2 + 1):
        if legendre_even_at_zero(m) != ctx.ltable.poly(2 * m).at(0):
            return [IdentityEntry("L2nat0", desc, f"even 0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": 2 * m})]
    return [IdentityEntry("L2nat0", desc, f"even 0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_derilnat0(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "rising-factorial form of the odd-degree midpoint derivative"
    for m in range((ctx.max_degree - 1) // 2 + 1):
        if legendre_odd_deriv_at_zero(m) != ctx.ltable.poly(2 * m + 1).deriv().at(0):
            return [IdentityEntry("DeriLnat0", desc, f"odd 1..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": 2 * m + 1})]
    return [IdentityEntry("DeriLnat0", desc, f"odd 1..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_lnderivat0(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "alternating weighted squared-binomial sum for the midpoint derivative"
    for n in range(ctx.max_degree + 1):
        if legendre_special_values(n).deriv_at0 != ctx.ltable.poly(n).deriv().at(0):
            return [IdentityEntry("Lnderivat0", desc, f"0..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Lnderivat0", desc, f"0..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_parts(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "repeated integration by parts with alternating boundary sum"
    rng = _rng("GenerIntegParts")
    for trial in range(30):
        u = _rand_poly(rng, rng.randint(0, 8))
        v = _rand_poly(rng, rng.randint(0, 8))
        order = rng.randint(1, 4)
        lhs = (u * v.deriv(order)).integral(-1, 1)
        boundary = Fraction(0)
        for k in range(1, order + 1):
            term = u.deriv(k - 1) * v.deriv(order - k)
            boundary += Fraction((-1) ** (k - 1)) * (term.at(1) - term.at(-1))
        rhs = boundary + Fraction((-1) ** order) * (u.deriv(order) * v).integral(-1, 1)
        if lhs != rhs:
            return [IdentityEntry("GenerIntegParts", desc, "deg<=8, order<=4", Verdict.FAILED,
                                  {"inputs": {"u": _w(u), "v": _w(v), "order": order},
                                   "oracle_value": _w(lhs), "stated_value": _w(rhs)})]
    return [IdentityEntry("GenerIntegParts", desc, "deg<=8, order<=4; 30 random trials",
                          Verdict.CONFIRMED)]


# -- family structure checks ----------------------------------------------------


def _check_qqn(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "pinned antiderivative construction agrees with the difference form"
    for n in range(2, ctx.max_degree + 1):
        anti = ctx.ltable.poly(n - 1).antideriv()
        pinned = anti - anti.at(1)
        qn = ctx.qtable.q(n)
        if pinned != qn or qn.deriv() != ctx.ltable.poly(n - 1):
            return [IdentityEntry("Qqn", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Qqn", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_qqn1(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "members vanish at both endpoints"
    for n in range(2, ctx.max_degree + 1):
        q = ctx.qtable.q(n)
        if q.at(1) != 0 or q.at(-1) != 0:
            return [IdentityEntry("Qqn1", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Qqn1", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_diff2(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "second-order equation (1-x^2) Q'' + n(n-1) Q = 0 as a polynomial"
    for n in range(2, ctx.max_degree + 1):
        q = ctx.qtable.q(n)
        residual = (-X2_MINUS_1) * q.deriv(2) + q.scale(n * (n - 1))
        if not residual.is_zero():
            return [IdentityEntry("Diff2", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(residual)})]
    return [IdentityEntry("Diff2", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_diff3(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "differentiated second-order equation as a polynomial identity"
    for n in range(2, ctx.max_degree + 1):
        q = ctx.qtable.q(n)
        residual = (X * q.deriv(2)).scale(-2) + (-X2_MINUS_1) * q.deriv(3) \
            + q.deriv().scale(n * (n - 1))
        if not residual.is_zero():
            return [IdentityEntry("Diff3", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(residual)})]
    return [IdentityEntry("Diff3", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_second(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "(x^2-1) v^(n) = n(n-1) v^(n-2) for v = (x^2-1)^(n-1)"
    top = min(20, ctx.max_degree)
    for n in range(2, top + 1):
        v = X2_MINUS_1 ** (n - 1)
        lhs = X2_MINUS_1 * v.deriv(n)
        rhs = v.deriv(n - 2).scale(n * (n - 1))
        if lhs != rhs:
            return [IdentityEntry("Second", desc, f"2..{top}", Verdict.FAILED, {"n": n})]
    return [IdentityEntry("Second", desc, f"2..{top}", Verdict.CONFIRMED)]


def _check_rodrigues(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "product form with the n-th derivative of (x^2-1)^(n-1) equals the table"
    for n in range(2, ctx.max_degree + 1):
        if q_rodrigues(n) != ctx.qtable.q(n):
            return [IdentityEntry("Rodrigues", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Rodrigues", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_qnderiv1(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "endpoint derivative block: Q'(1)=1, Q'(-1)=(-1)^(n-1), Q''(1)=n(n-1)/2"
    for n in range(2, ctx.max_degree + 1):
        b = q_boundary_derivatives(n, ctx.qtable)
        ok = (
            b.d1_at_plus1 == 1
            and b.d1_at_minus1 == (-1) ** (n - 1)
            and b.d2_at_plus1 == Fraction(n * (n - 1), 2)
            and -2 * b.d2_at_plus1 + n * (n - 1) * b.d1_at_plus1 == 0
        )
        if not ok:
            return [IdentityEntry("Qnderiv1", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Qnderiv1", desc, f"2..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_qnatzero(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "double-factorial midpoint value; oracle carries the opposite sign"
    witness = None
    for n in range(2, ctx.max_degree + 1):
        cmp = q_at_zero(n, ctx.qtable)
        if n % 2:
            if cmp.oracle != 0 or cmp.verdict is not Verdict.NOT_APPLICABLE:
                return [IdentityEntry("Qnatzero", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                      {"n": n, "oracle_value": _w(cmp.oracle)})]
            continue
        if cmp.verdict is not Verdict.CONFIRMED_UP_TO_SIGN:
            return [IdentityEntry("Qnatzero", desc, f"2..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(cmp.oracle),
                                   "stated_value": _w(cmp.stated)})]
        if witness is None:
            witness = {"n": n, "oracle_value": _w(cmp.oracle), "stated_value": _w(cmp.stated)}
    return [IdentityEntry("Qnatzero", desc, f"2..{ctx.max_degree}",
                          Verdict.CONFIRMED_UP_TO_SIGN, witness)]


def _check_pipcirs2(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "first derivative equals the scaled difference of neighbour second derivatives"
    for n in range(3, ctx.max_degree + 1):
        lhs = ctx.qtable.q(n).deriv()
        rhs = (ctx.qtable.q(n + 1).deriv(2) - ctx.qtable.q(n - 1).deriv(2)) / (2 * n - 1)
        if lhs != rhs:
            return [IdentityEntry("Pipcirs2", desc, f"3..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Pipcirs2", desc, f"3..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_pipcirs3(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "pinned antiderivative equals the scaled difference of neighbours"
    for n in range(3, ctx.max_degree + 1):
        anti = ctx.qtable.q(n).antideriv()
        anti = anti - anti.at(-1)
        rhs = (ctx.qtable.q(n + 1) - ctx.qtable.q(n - 1)) / (2 * n - 1)
        if anti != rhs:
            return [IdentityEntry("Pipcirs3", desc, f"3..{ctx.max_degree}", Verdict.FAILED,
                                  {"n": n})]
    return [IdentityEntry("Pipcirs3", desc, f"3..{ctx.max_degree}", Verdict.CONFIRMED)]


def _check_orthqn(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "weighted orthogonality of distinct members"
    top = ctx.max_degree
    width = _width(ctx.qtable.q(m) for m in range(2, top + 1))
    for n in range(2, top + 1):
        # <Q_n, Q_m>_w = -integral of interior_n * Q_m, as in weighted_inner_product
        pair = ctx.qtable.interior_factor(n).pairing(width)
        for m in range(n + 1, top + 1):
            got = -pair(ctx.qtable.q(m))
            if got != 0:
                return [IdentityEntry("OrthQn", desc, f"2..{top}", Verdict.FAILED,
                                      {"n": n, "inputs": {"m": m}, "oracle_value": _w(got),
                                       "stated_value": "0"})]
    return [IdentityEntry("OrthQn", desc, f"2..{top}", Verdict.CONFIRMED)]


def _check_normqn(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "weighted squared norm 2/(n(n-1)(2n-1))"
    top = ctx.max_degree
    for n in range(2, top + 1):
        qn = ctx.qtable.q(n)
        got = -ctx.qtable.interior_factor(n).pairing(_width((qn,)))(qn)
        want = Fraction(2, n * (n - 1) * (2 * n - 1))
        if got != want:
            return [IdentityEntry("NormQn", desc, f"2..{top}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(got), "stated_value": _w(want)})]
    return [IdentityEntry("NormQn", desc, f"2..{top}", Verdict.CONFIRMED)]


# -- kernel checks --------------------------------------------------------------


def _check_cd_prefactor(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("two-term kernel form needs the extra leading-coefficient ratio "
            "(n+1)/(2n-1); the bare prefactor is right only at n = 2")
    rng = _rng("CDS11-prefactor")
    top = min(_KERNEL_TOP, ctx.max_degree)
    degrees = f"2..{top}; 20 random rational points"
    points: list[tuple[Fraction, Fraction]] = []
    while len(points) < 20:
        x = _rand_fraction(rng)
        y = _rand_fraction(rng)
        if x != y and abs(x) <= 1 and abs(y) <= 1:
            points.append((x, y))
    witness = None
    for n in range(2, top + 1):
        factor = kernel.cd_correction_factor(n, ctx.qtable)
        if factor != Fraction(n + 1, 2 * n - 1):
            return [IdentityEntry("CDS11-prefactor", desc, degrees, Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(factor)})]
        for x, y in points:
            cmp = kernel.kernel_cd(n, x, y, ctx.qtable)
            if cmp.corrected_value != cmp.oracle_value:
                return [IdentityEntry("CDS11-prefactor", desc, degrees, Verdict.FAILED,
                                      {"n": n, "inputs": {"x": _w(x), "y": _w(y)},
                                       "oracle_value": _w(cmp.oracle_value),
                                       "stated_value": _w(cmp.stated_value)})]
            if witness is None and n == 3 and cmp.stated_value != cmp.oracle_value:
                witness = {"n": n, "inputs": {"x": _w(x), "y": _w(y)},
                           "oracle_value": _w(cmp.oracle_value),
                           "stated_value": _w(cmp.stated_value),
                           "factor": f"(n+1)/(2n-1) = {_w(factor)}"}
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 5)):
            conf = kernel.kernel_confluent(n, x, ctx.qtable)
            if conf.corrected_value != conf.oracle_value:
                return [IdentityEntry("CDS11-prefactor", desc, degrees, Verdict.FAILED,
                                      {"n": n, "inputs": {"x": _w(x), "confluent": True},
                                       "oracle_value": _w(conf.oracle_value),
                                       "stated_value": _w(conf.stated_value)})]
    if witness is None:
        cmp = kernel.kernel_cd(3, Fraction(1, 2), Fraction(0), ctx.qtable)
        witness = {"n": 3, "inputs": {"x": "1/2", "y": "0"},
                   "oracle_value": _w(cmp.oracle_value),
                   "stated_value": _w(cmp.stated_value),
                   "factor": "(n+1)/(2n-1) = 4/5"}
    return [IdentityEntry("CDS11-prefactor", desc, degrees, Verdict.CORRECTED_FACTOR, witness)]


def _check_reprkernel(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "kernel reproduces every admissible polynomial exactly"
    rng = _rng("Reprkernel")
    top = min(_FOURIER_TOP, ctx.max_degree)
    for trial in range(30):
        n = rng.randint(2, top)
        g = X2_MINUS_1 * _rand_poly(rng, max(0, n - 2))
        verdict = kernel.reproducing_check(n, g, ctx.qtable)
        if verdict is not Verdict.CONFIRMED:
            return [IdentityEntry("Reprkernel", desc, f"2..{top}; 30 random functions",
                                  Verdict.FAILED, {"n": n, "inputs": {"g": _w(g)}})]
    return [IdentityEntry("Reprkernel", desc, f"2..{top}; 30 random functions",
                          Verdict.CONFIRMED)]


def _check_knn00(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("diagonal midpoint closed form: oracle equals the stated value "
            "times -(n+1)/(2n-1) on both parity branches")
    top = ctx.max_degree
    witness = {}
    for n in range(2, top + 1):
        z = kernel.kernel_at_zero_closed_form(n, ctx.qtable)
        if z.factor != Fraction(-(n + 1), 2 * n - 1):
            return [IdentityEntry("Knn00", desc, f"2..{top}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(z.oracle),
                                   "stated_value": _w(z.stated)})]
        parity = "even" if n % 2 == 0 else "odd"
        if parity not in witness:
            witness[parity] = {"n": n, "oracle_value": _w(z.oracle),
                               "stated_value": _w(z.stated), "factor": _w(z.factor)}
    return [IdentityEntry("Knn00", desc, f"2..{top}", Verdict.CORRECTED_FACTOR,
                          {"per_parity": witness, "factor": "-(n+1)/(2n-1)"})]


def _check_kernel_seq(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "kernel sections at 0 are orthogonal under the odd weight x/(1-x^2)"
    top = min(_SEQ_ORTH_TOP, ctx.max_degree)
    for n in range(2, top + 1):
        for m in range(n + 1, top + 1):
            got = kernel.kernel_sequence_orthogonality(n, m, ctx.qtable)
            if got != 0:
                return [IdentityEntry("KernelSeqOrth", desc, f"2..{top}", Verdict.FAILED,
                                      {"n": n, "inputs": {"m": m}, "oracle_value": _w(got),
                                       "stated_value": "0"})]
    return [IdentityEntry("KernelSeqOrth", desc, f"2..{top}", Verdict.CONFIRMED)]


# -- extremal and Fourier checks -------------------------------------------------


def _check_extremal(ctx: _Ctx) -> list[IdentityEntry]:
    desc_m = "minimum value equals 1/K_n(0,0) and the brute-force optimum"
    desc_f = "minimizer equals the kernel section scaled to 1 at 0"
    top = min(_EXTREMAL_TOP, ctx.max_degree)
    for n in range(2, top + 1):
        section = kernel.kernel_sum(n, 0, ctx.qtable)
        m_kernel = 1 / section.value_at_y
        minimizer = section.poly * m_kernel
        bf = approx.brute_force_minimizer(n, ctx.qtable)
        if bf.m_value != m_kernel:
            return [
                IdentityEntry("Kernelm", desc_m, f"2..{top}", Verdict.FAILED,
                              {"n": n, "oracle_value": _w(bf.m_value),
                               "stated_value": _w(m_kernel)}),
                IdentityEntry("Kernelf", desc_f, f"2..{top}", Verdict.FAILED,
                              {"n": n}),
            ]
        if bf.poly != minimizer:
            return [
                IdentityEntry("Kernelm", desc_m, f"2..{top}", Verdict.CONFIRMED),
                IdentityEntry("Kernelf", desc_f, f"2..{top}", Verdict.FAILED,
                              {"n": n, "oracle_value": _w(bf.poly),
                               "stated_value": _w(minimizer)}),
            ]
    return [
        IdentityEntry("Kernelm", desc_m, f"2..{top}", Verdict.CONFIRMED),
        IdentityEntry("Kernelf", desc_f, f"2..{top}", Verdict.CONFIRMED),
    ]


def _literal_extremal_summand(j: int) -> Fraction:
    return Fraction(j * (j - 1) * (2 * j - 1), 2) * Fraction(
        double_factorial(j - 3), double_factorial(j)
    ) ** 2


def _check_valuem(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("literal double-factorial sum for 1/M is correct restricted to even "
            "indices; odd summands are spurious (odd members vanish at 0)")
    top = min(_EXTREMAL_TOP, ctx.max_degree)
    for n in range(2, top + 1):
        even_sum = sum(
            (_literal_extremal_summand(j) for j in range(2, n + 1, 2)), Fraction(0)
        )
        oracle = kernel.kernel_value(n, 0, 0, ctx.qtable)
        if even_sum != oracle:
            return [IdentityEntry("Valuem-odd-terms", desc, f"2..{top}", Verdict.FAILED,
                                  {"n": n, "oracle_value": _w(oracle),
                                   "stated_value": _w(even_sum)})]
    spurious = _literal_extremal_summand(3)
    if spurious == 0:
        return [IdentityEntry("Valuem-odd-terms", desc, f"2..{top}", Verdict.FAILED,
                              {"j": 3, "stated_value": "0"})]
    witness = {"j": 3, "stated_value": _w(spurious), "oracle_value": "0",
               "note": "literal odd summand is nonzero but the member vanishes at 0"}
    return [IdentityEntry("Valuem-odd-terms", desc, f"2..{top}",
                          Verdict.CORRECTED_FACTOR, witness)]


def _check_fourierq(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "expansion coefficients recover span elements exactly, with exact Parseval"
    rng = _rng("FourierQ")
    top = min(_FOURIER_TOP, ctx.max_degree)
    for trial in range(20):
        n = rng.randint(3, top)
        coeffs = {k: _rand_fraction(rng) for k in range(2, n + 1)}
        f = Poly()
        for k, c in coeffs.items():
            if c:
                f = f + ctx.qtable.q(k).scale(c)
        for k in range(2, n + 1):
            got = approx.fourier_coeff_quadrature(f, k, ctx.qtable)
            if got != coeffs.get(k, Fraction(0)):
                return [IdentityEntry("FourierQ", desc, f"2..{top}; 20 random span elements",
                                      Verdict.FAILED,
                                      {"n": k, "oracle_value": _w(got),
                                       "stated_value": _w(coeffs.get(k, Fraction(0)))})]
        if approx.parseval_gap(f, n, ctx.qtable) != 0:
            return [IdentityEntry("FourierQ", desc, f"2..{top}; 20 random span elements",
                                  Verdict.FAILED, {"n": n, "inputs": {"f": _w(f)}})]
    return [IdentityEntry("FourierQ", desc, f"2..{top}; 20 random span elements",
                          Verdict.CONFIRMED)]


def _check_anex_sign(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("moment-formula coefficient: the stated alternating sign (-1)^n "
            "should be +1; values match the quadrature coefficient once corrected")
    rng = _rng("anex-sign")
    top = min(_FOURIER_TOP, ctx.max_degree)
    degrees = f"2..{top}; 30 random endpoint-vanishing functions"
    witness = None
    for trial in range(30):
        n = rng.randint(2, top)
        f = X2_MINUS_1 * _rand_poly(rng, rng.randint(0, 6))
        mc = approx.fourier_coeff_moments(f, n)
        quadrature = approx.fourier_coeff_quadrature(f, n, ctx.qtable)
        if mc.corrected_value != quadrature:
            return [IdentityEntry("anex-sign", desc, degrees, Verdict.FAILED,
                                  {"n": n, "inputs": {"f": _w(f)},
                                   "oracle_value": _w(quadrature),
                                   "stated_value": _w(mc.corrected_value)})]
        if mc.stated_value != Fraction((-1) ** n) * mc.corrected_value:
            return [IdentityEntry("anex-sign", desc, degrees, Verdict.FAILED,
                                  {"n": n, "inputs": {"f": _w(f)}})]
        if witness is None and n % 2 and quadrature != 0:
            witness = {"n": n, "inputs": {"f": _w(f)},
                       "oracle_value": _w(quadrature), "stated_value": _w(mc.stated_value)}
    if witness is None:
        mc = approx.fourier_coeff_moments(Poly((0, -1, 0, 1)), 3)
        witness = {"n": 3, "inputs": {"f": "-x + x^3"},
                   "oracle_value": _w(approx.fourier_coeff_quadrature(Poly((0, -1, 0, 1)), 3, ctx.qtable)),
                   "stated_value": _w(mc.stated_value)}
    return [IdentityEntry("anex-sign", desc, degrees, Verdict.CONFIRMED_UP_TO_SIGN, witness)]


def _check_akk(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("stated monomial coefficient equals the moment functional up to the "
            "sign (-1)^k, and is not the expansion coefficient (monomials do not "
            "vanish at the endpoints)")
    top = min(_FOURIER_TOP, ctx.max_degree)
    degrees = f"2..{top}"
    for k in range(2, top + 1):
        r = approx.monomial_coeff_closed_form(k, ctx.qtable)
        if abs(r.stated_value) != abs(r.moment_functional_value):
            return [IdentityEntry("akk", desc, degrees, Verdict.FAILED,
                                  {"n": k, "oracle_value": _w(r.moment_functional_value),
                                   "stated_value": _w(r.stated_value)})]
        if r.stated_value != Fraction((-1) ** k) * r.moment_functional_value:
            return [IdentityEntry("akk", desc, degrees, Verdict.FAILED,
                                  {"n": k, "oracle_value": _w(r.moment_functional_value),
                                   "stated_value": _w(r.stated_value)})]
    r2 = approx.monomial_coeff_closed_form(2, ctx.qtable)
    witness = {"n": 2, "stated_value": _w(r2.stated_value),
               "oracle_value": _w(r2.moment_functional_value),
               "fourier_coefficient": _w(r2.quadrature_value),
               "note": "expansion coefficient differs from the moment functional"}
    return [IdentityEntry("akk", desc, degrees, Verdict.CONFIRMED_UP_TO_SIGN, witness)]


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


def _check_wffff(ctx: _Ctx) -> list[IdentityEntry]:
    desc = "product-form weight equals (1 - f^2) f' as a rational-function identity"
    rng = _rng("wffff")
    maps = [moebius.MoebiusMap(*params) for params in TEST_MAPS]
    maps.extend(_random_unit_map(rng) for _ in range(10))
    for m in maps:
        gap = moebius.weight_identity_gap(m)
        if not gap.is_zero():
            return [IdentityEntry("wffff", desc, "5 reference maps + 10 random maps",
                                  Verdict.FAILED,
                                  {"inputs": {"map": [_w(m.lam), _w(m.alpha), _w(m.mu), _w(m.beta)]},
                                   "oracle_value": _w(gap)})]
    return [IdentityEntry("wffff", desc, "5 reference maps + 10 random maps",
                          Verdict.CONFIRMED)]


def _check_endpoints(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("induced endpoints solved from f(a) = -1, f(b) = 1; the stated lower "
            "expression does not satisfy f(a) = -1")
    rng = _rng("endpoints")
    maps = [moebius.MoebiusMap(*params) for params in TEST_MAPS]
    maps.extend(_random_unit_map(rng) for _ in range(10))
    for m in maps:
        ends = moebius.induced_endpoints(m)
        if m.at(ends.a) != -1 or m.at(ends.b) != 1:
            return [IdentityEntry("endpoints-§4", desc, "5 reference maps + 10 random maps",
                                  Verdict.FAILED,
                                  {"inputs": {"map": [_w(m.lam), _w(m.alpha), _w(m.mu), _w(m.beta)]},
                                   "oracle_value": _w(ends.a)})]
        if ends.stated_b != ends.b:
            return [IdentityEntry("endpoints-§4", desc, "5 reference maps + 10 random maps",
                                  Verdict.FAILED,
                                  {"inputs": {"map": [_w(m.lam), _w(m.alpha), _w(m.mu), _w(m.beta)]},
                                   "oracle_value": _w(ends.b), "stated_value": _w(ends.stated_b)})]
    shift = moebius.MoebiusMap(1, 1, 0, 1)
    ends = moebius.induced_endpoints(shift)
    if shift.at(ends.stated_a) == -1:
        return [IdentityEntry("endpoints-§4", desc, "5 reference maps + 10 random maps",
                              Verdict.FAILED,
                              {"note": "stated lower endpoint unexpectedly satisfies f(a) = -1"})]
    witness = {"inputs": {"map": ["1", "1", "0", "1"]},
               "oracle_value": _w(ends.a), "stated_value": _w(ends.stated_a),
               "note": "f(stated lower endpoint) != -1"}
    return [IdentityEntry("endpoints-§4", desc, "5 reference maps + 10 random maps",
                          Verdict.CORRECTED_FACTOR, witness)]


def _check_transformed(ctx: _Ctx) -> list[IdentityEntry]:
    desc = ("composed monic family is orthogonal and integral-minimal under the "
            "induced weight; transformed integrals match the reference inner products")
    degrees = f"5 reference maps; indices 0..{_GRAM_TOP}"
    for params in TEST_MAPS:
        system = moebius.build_transformed_system(moebius.MoebiusMap(*params), _GRAM_TOP)
        matrix, worst = moebius.gram_matrix(system, _GRAM_TOP + 1, _FLOAT_TOL)
        if worst >= _FLOAT_TOL:
            return [IdentityEntry("In", desc, degrees, Verdict.FAILED,
                                  {"inputs": {"map": [str(p) for p in params]},
                                   "oracle_value": worst})]
        for n in range(_GRAM_TOP + 1):
            for m in range(n, _GRAM_TOP + 1):
                exact = float(moebius.reference_inner_product(system.family.poly(n), system.family.poly(m)))
                if abs(matrix[n][m] - exact) >= _FLOAT_TOL:
                    return [IdentityEntry("In", desc, degrees, Verdict.FAILED,
                                          {"inputs": {"map": [str(p) for p in params],
                                                      "n": n, "m": m},
                                           "oracle_value": exact,
                                           "stated_value": matrix[n][m]})]
        for n in range(1, 4):
            if moebius.minimality_check(system, n) is not Verdict.CONFIRMED:
                return [IdentityEntry("In", desc, degrees, Verdict.FAILED,
                                      {"inputs": {"map": [str(p) for p in params], "n": n}})]
    return [IdentityEntry("In", desc, degrees, Verdict.CONFIRMED)]


_CHECKS: tuple[Callable[[_Ctx], list[IdentityEntry]], ...] = (
    _check_difln,
    _check_expp,
    _check_orthln,
    _check_lnat1,
    _check_lnat0,
    _check_l2nat0,
    _check_derilnat0,
    _check_lnderivat0,
    _check_parts,
    _check_qqn,
    _check_qqn1,
    _check_diff2,
    _check_diff3,
    _check_second,
    _check_rodrigues,
    _check_qnderiv1,
    _check_qnatzero,
    _check_pipcirs2,
    _check_pipcirs3,
    _check_orthqn,
    _check_normqn,
    _check_cd_prefactor,
    _check_reprkernel,
    _check_knn00,
    _check_kernel_seq,
    _check_extremal,
    _check_valuem,
    _check_fourierq,
    _check_anex_sign,
    _check_akk,
    _check_wffff,
    _check_endpoints,
    _check_transformed,
)

EXPECTED_NON_CONFIRMED = frozenset(
    {
        "CDS11-prefactor",
        "Knn00",
        "Qnatzero",
        "Valuem-odd-terms",
        "akk",
        "anex-sign",
        "endpoints-§4",
    }
)


def run_verification(max_degree: int = 40) -> VerificationReport:
    """Run the whole registry at the given depth and assemble the report.

    Checks run one after another (each is pure Python over immutable tables,
    so threads would only take turns at the interpreter lock); assembly
    sorts entries by id.
    """
    if not MIN_DEGREE <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max_degree must be in {MIN_DEGREE}..{MAX_DEGREE}")
    ltable = build_legendre(max_degree + 1)
    qtable = build_q_table(max_degree + 1, ltable)
    ctx = _Ctx(max_degree, ltable, qtable)
    entries = [entry for check in _CHECKS for entry in check(ctx)]
    entries.sort(key=lambda e: e.identity_id)
    ids = [e.identity_id for e in entries]
    if len(ids) != len(set(ids)):
        raise AssertionError("registry produced duplicate identity ids")
    return VerificationReport(max_degree, tuple(entries))
