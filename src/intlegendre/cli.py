"""Command-line surface: tables, identity verification with a machine-readable
report, extremal solving, expansion and transformed-system generation.

Exit codes: 0 on success (all identities confirmed or corrected), 1 when the
verification registry records any FAILED entry, 2 on usage errors (including an
--out path that cannot be written, an input whose floats leave the float range and
an exact value with more digits than Python converts to a string),
3 on a numerical limit: a quadrature node whose Newton iteration does not settle.
Every float integral runs one fixed Gauss rule, so none can miss a tolerance. Exact
rationals serialize as 'p/q' strings, never floats, so reports stay diffable and lossless.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional, Sequence

from . import approx, exactpoly, legendre, moebius, qfamily, quad, verdict, verify


class CliError(Exception):
    """Usage-level error; reported on stderr with exit code 2."""


def _parse_degrees(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise CliError(f"bad degree range {text!r}; expected like 2..8") from None
    if lo > hi:
        raise CliError(f"empty degree range {text!r}")
    return lo, hi


# a decimal exponent as Fraction reads it, after the mantissa m[1]
_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE | re.DOTALL)


def _parse_fraction(text: str) -> exactpoly.Fraction:
    """Fraction(text), but an exponent is read before Fraction builds 10**exponent: past
    the int-to-str limit (its default 4300 where it is lifted) plus len(text), the value has
    more digits than the limit whatever its mantissa, and a zero mantissa makes 0."""
    try:
        if not (m := _EXPONENT.fullmatch(text)):
            return exactpoly._frac(text)
        mantissa, exponent = exactpoly._frac(m[1] + "e0"), int(m[2])
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad rational {text!r}") from None
    bound = getattr(sys, "get_int_max_str_digits", int)() or 4300  # int() = 0: no limit
    if mantissa and abs(exponent) > bound + len(text):
        raise CliError(f"rational {text!r} has more than {bound} digits")
    return exactpoly._frac(text) if mantissa else mantissa


def _parse_point(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise CliError(f"bad point {text!r}; expected a finite float")
    return x


def _parse_poly_spec(text: str) -> exactpoly.Poly | tuple[str, int]:
    """Either a comma-separated ascending coefficient list, or a family
    shorthand like Q3 / L5 resolved against the exact tables."""
    text = text.strip()
    if text and text[0] in "QLql" and text[1:].isdecimal():
        return text[0].upper(), int(text[1:])
    coeffs = [_parse_fraction(part) for part in text.split(",")]
    return exactpoly.Poly(coeffs)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}") from None


# json.dumps(indent=2) builds its pure-Python encoder, a cycle of closures, per call; once here
_ITERENCODE = json.encoder._make_iterencode(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, "  ",
    lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
    ": ", ",", True, False, True)


def _json_text(payload: object) -> str:
    return "".join(_ITERENCODE(payload, 0)) + "\n"


def _float_or_none(value: float) -> Optional[float]:
    return None if math.isinf(value) else value


# -- subcommand handlers -------------------------------------------------------


# family -> (lowest degree, lazy module, member function), looked up only for the printed family
_MEMBERS = {"L": (0, legendre, "legendre_poly"), "Q": (2, qfamily, "q_member"),
            "r": (0, moebius, "r_poly")}


def _cmd_table(args: argparse.Namespace) -> int:
    lo, hi = _parse_degrees(args.degrees)
    family = args.family
    floor, module, name = _MEMBERS[family]
    if lo < floor or hi > legendre.MAX_DEGREE:
        raise CliError(f"family {family} supports degrees {floor}..{legendre.MAX_DEGREE}")
    member = getattr(module, name)
    polys = {n: member(n) for n in range(lo, hi + 1)}  # only the printed members are built
    points = [_parse_point(p) for p in args.points.split(",")] if args.points else []

    def values(p: exactpoly.Poly) -> list[float]:  # each exact value, rounded once
        return [p.at_float(x) for x in points]

    def coeff_cells(p: exactpoly.Poly) -> list:  # as float(c) or str(c), off the numerators
        if args.backend == "float":
            return [c / p.den for c in p.nums]
        return [str(c // g) if (g := math.gcd(c, p.den)) == p.den else f"{c // g}/{p.den // g}"
                for c in p.nums]

    if args.format == "json":
        entries = []
        for n, p in polys.items():
            entry: dict = {"n": n, "coeffs": coeff_cells(p)}
            if points:
                entry["values"] = dict(zip(map(repr, points), values(p)))
            entries.append(entry)
        _emit(_json_text({"family": family, "entries": entries}), args.out)
    else:
        buffer = []
        header = ["family", "n", "coeffs"] + [f"at_{x!r}" for x in points]
        buffer.append(",".join(header))
        for n, p in polys.items():
            cells = [family, str(n), " ".join(map(str, coeff_cells(p)))]
            cells += map(repr, values(p))
            buffer.append(",".join(_csv_quote(c) for c in cells))
        _emit("\n".join(buffer) + "\n", args.out)
    return 0


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _witness_summary(witness: Optional[dict]) -> str:
    if not witness:
        return ""
    parts = []
    for key in ("n", "j", "oracle_value", "stated_value"):
        if key in witness:
            parts.append(f"{key}={witness[key]}")
    return "; witness " + " ".join(parts) if parts else ""


def _cmd_verify(args: argparse.Namespace) -> int:
    if not verify.MIN_DEGREE <= args.max_degree <= verify.MAX_DEGREE:
        raise CliError(
            f"--max-degree must be in {verify.MIN_DEGREE}..{verify.MAX_DEGREE}"
        )
    for path in filter(None, (args.out, args.stats)):
        _emit("", path)  # an unwritable path fails here, before the run
    timings: dict = {}
    report = verify.run_verification(args.max_degree, timings)
    for entry in report.entries:
        line = f"{entry.identity_id}: {entry.verdict.value} ({entry.degrees_checked})"
        if entry.verdict is not verdict.Verdict.CONFIRMED:
            line += _witness_summary(entry.witness)
        print(line)
    if args.out:
        _emit(report.to_json(), args.out)
    if args.stats:
        _emit(_json_text({"max_degree": args.max_degree, "clock": "time.perf_counter",
                          "unit": "s", **timings}), args.stats)
    return 1 if report.failed_ids else 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise CliError("--n must be >= 2")
    if args.n > legendre.MAX_DEGREE:
        raise CliError(f"--n must be <= {legendre.MAX_DEGREE}")
    solution = approx.minimize_constrained(args.n)
    payload = {
        "n": solution.n,
        "M": str(solution.min_value),
        "coefficients": {str(k): str(v) for k, v in sorted(solution.q_coeffs.items())},
        "minimizer_monomial": [str(c) for c in solution.minimizer.coeffs],
        "minimizer_pretty": solution.minimizer.pretty(),
        # minimize_constrained raises unless certify_minimizer proves this solution
        "oracle_agrees": True,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.top < 2:
        raise CliError("--N must be >= 2")
    if args.top > legendre.MAX_DEGREE:
        raise CliError(f"--N must be <= {legendre.MAX_DEGREE}")
    if (args.poly is None) == (args.fn is None):
        raise CliError("exactly one of --poly or --fn is required")
    if args.fn is not None and args.fn not in quad.FUNCTIONS:
        raise CliError(
            f"unknown function {args.fn!r}; known: {', '.join(sorted(quad.FUNCTIONS))}"
        )
    spec = args.fn if args.fn is not None else _parse_poly_spec(args.poly)
    if isinstance(spec, tuple):  # handed over in the Legendre basis, never built
        family, degree = spec
        low = _MEMBERS[family][0]
        if not low <= degree <= legendre.MAX_DEGREE:
            raise CliError(f"{family}{degree} outside {low}..{legendre.MAX_DEGREE}")
        if family == "Q":  # Q_k = (P_k - P_{k-2})/(2k-1)
            share = exactpoly.Fraction(1, 2 * degree - 1)
            target = [0] * (degree - 2) + [-share, 0, share]
        else:
            target = [0] * degree + [1]
        label = f"{family}{degree}"
    else:
        target = spec
        label = spec if isinstance(spec, str) else spec.pretty()
    try:
        report = approx.expand(target, args.top)
    except OverflowError:
        raise CliError("the expansion residual leaves the float range") from None
    coeff_cell = str if report.method == "quadrature_exact" else float
    if args.format == "json":
        payload = {
            "input": label,
            "N": args.top,
            "method": report.method,
            "coefficients": {str(n): coeff_cell(v) for n, v in sorted(report.coeffs.items())},
            "residual_sup": report.residual_sup,
            "residual_weighted_l2": _float_or_none(report.residual_weighted_l2),
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = ["n,coefficient"]
        lines += [f"{n},{_csv_quote(str(coeff_cell(v)))}" for n, v in sorted(report.coeffs.items())]
        lines.append(f"residual_sup,{report.residual_sup!r}")
        lines.append(f"residual_weighted_l2,{report.residual_weighted_l2!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    parts = args.map.split(",")
    if len(parts) != 4:
        raise CliError("--map needs four comma-separated rationals lam,alpha,mu,beta")
    if not 0 <= args.top <= legendre.MAX_DEGREE:
        raise CliError(f"--N must be in 0..{legendre.MAX_DEGREE}")
    values = [_parse_fraction(p) for p in parts]
    try:
        mob = moebius.MoebiusMap(*values)
        system = moebius.build_transformed_system(mob)
    except moebius.DegenerateMap as exc:
        raise CliError(str(exc)) from None
    ends = moebius.induced_endpoints(mob)
    matrix, worst = moebius.gram_matrix(system, args.top + 1)
    payload = {
        "map": [str(v) for v in values],
        "interval": [str(system.a), str(system.b)],
        "stated_interval": [str(ends.stated_a), str(ends.stated_b)],
        "weight_numerator": [str(c) for c in system.weight.numerator.coeffs],
        "weight_denominator": [str(c) for c in system.weight.denominator.coeffs],
        "weight_pretty": f"({system.weight.numerator.pretty()}) / ({system.weight.denominator.pretty()})",
        "gram_matrix": matrix,
        "max_offdiag_relative": worst,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_quad(args: argparse.Namespace) -> int:
    if not 1 <= args.m <= quad.MAX_ORDER:
        raise CliError(f"--m must be in 1..{quad.MAX_ORDER}")
    rule = quad.gauss_legendre(args.m)
    if args.format == "json":
        payload = {
            "m": rule.order,
            "exact_degree": rule.exact_degree,
            "nodes": list(rule.nodes),
            "weights": list(rule.weights),
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = ["node,weight"]
        lines += [f"{x!r},{w!r}" for x, w in zip(rule.nodes, rule.weights)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="intlegendre",
        description="Exact tables, verified identities, extremal solutions and "
        "expansions for the integrated Legendre family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit exact coefficient tables")
    p_table.add_argument("--family", choices=tuple(_MEMBERS), required=True)
    p_table.add_argument("--degrees", required=True, help="range like 2..8")
    p_table.add_argument("--points", default=None, help="comma-separated floats to evaluate at")
    p_table.add_argument("--backend", choices=("exact", "float"), default="exact")
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the identity registry and report")
    p_verify.add_argument("--max-degree", type=int, default=40, dest="max_degree")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--stats", default=None, metavar="FILE",
                          help="write the wall time of the table build and of each "
                          "entry (time.perf_counter, seconds) to FILE as JSON; "
                          "the report does not change")
    p_verify.set_defaults(handler=_cmd_verify)

    p_min = sub.add_parser("minimize", help="solve the constrained extremal problem")
    p_min.add_argument("--n", type=int, required=True)
    p_min.add_argument("--out", default=None)
    p_min.set_defaults(handler=_cmd_minimize)

    p_expand = sub.add_parser("expand", help="expand a function over the family")
    p_expand.add_argument("--poly", default=None,
                          help="ascending rational coefficients like 0,0,1,0,-1 or Q3/L5")
    p_expand.add_argument("--fn", default=None,
                          help=f"named function: {', '.join(sorted(quad.FUNCTIONS))}")
    p_expand.add_argument("--N", type=int, required=True, dest="top")
    p_expand.add_argument("--format", choices=("json", "csv"), default="json")
    p_expand.add_argument("--out", default=None)
    p_expand.set_defaults(handler=_cmd_expand)

    p_tr = sub.add_parser("transform", help="orthogonal system induced by a rational map")
    p_tr.add_argument("--map", required=True, help="lam,alpha,mu,beta with unit determinant")
    p_tr.add_argument("--N", type=int, default=8, dest="top")
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(handler=_cmd_transform)

    p_quad = sub.add_parser("quad", help="emit a quadrature rule")
    p_quad.add_argument("--m", type=int, required=True)
    p_quad.add_argument("--format", choices=("json", "csv"), default="csv")
    p_quad.add_argument("--out", default=None)
    p_quad.set_defaults(handler=_cmd_quad)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quad.ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # str() of an exact value past sys.get_int_max_str_digits()
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an exact value has more than {sys.get_int_max_str_digits()} digits, "
              "the limit PYTHONINTMAXSTRDIGITS sets on printing an int", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
