"""Command-line surface: tables, identity verification with a machine-readable
report, extremal solving, expansion and transformed-system generation.

Exit codes: 0 on success (all identities confirmed or corrected), 1 when the
verification registry records any FAILED entry, 2 on usage errors (including a
--tol that is not a positive finite float, an --out path that cannot be written,
and an input whose floats leave the float range), 3 on a numerical limit (a
quadrature that does not converge within its order cap, as in `expand --fn sin-pi
--N 29 --tol 1e-300`, or a quadrature node that does not settle). Exact rationals
serialize as 'p/q' strings, never floats, so reports stay diffable and lossless.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import approx, moebius, qfamily, quad, verify
from .exactpoly import Poly
from .legendre import MAX_DEGREE, build_legendre
from .verdict import Verdict


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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad rational {text!r}") from None


def _parse_point(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise CliError(f"bad point {text!r}; expected a finite float")
    return x


def _parse_poly_spec(text: str) -> Poly | tuple[str, int]:
    """Either a comma-separated ascending coefficient list, or a family
    shorthand like Q3 / L5 resolved against the exact tables."""
    text = text.strip()
    if text and text[0] in "QLql" and text[1:].isdigit():
        return text[0].upper(), int(text[1:])
    coeffs = [_parse_fraction(part) for part in text.split(",")]
    return Poly(coeffs)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise CliError(f"bad --tol {tol!r}; expected a positive finite float")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _float_or_none(value: float) -> Optional[float]:
    return None if math.isinf(value) else value


# -- subcommand handlers -------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    lo, hi = _parse_degrees(args.degrees)
    family = args.family
    floor = {"L": 0, "Q": 2, "r": 0}[family]
    if lo < floor or hi > MAX_DEGREE:
        raise CliError(f"family {family} supports degrees {floor}..{MAX_DEGREE}")
    if family == "L":
        poly = build_legendre(max(hi, 1)).poly
    elif family == "Q":
        poly = qfamily.build_q_table(hi).q
    else:
        poly = moebius.build_r_family(hi).poly
    polys = {n: poly(n) for n in range(lo, hi + 1)}
    points = [_parse_point(p) for p in args.points.split(",")] if args.points else []

    def values(p: Poly) -> list[float]:  # the exact member value at each point, rounded once
        return [p.at_float(x) for x in points]

    def coeff_cells(p: Poly) -> list:  # as float(c) or str(c), off the numerators
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
        if entry.verdict is not Verdict.CONFIRMED:
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
    if args.n > MAX_DEGREE:
        raise CliError(f"--n must be <= {MAX_DEGREE}")
    table = qfamily.build_q_table(args.n)
    solution = approx.minimize_constrained(args.n, table)
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
    if args.top > MAX_DEGREE:
        raise CliError(f"--N must be <= {MAX_DEGREE}")
    if (args.poly is None) == (args.fn is None):
        raise CliError("exactly one of --poly or --fn is required")
    _check_tol(args.tol)
    if args.fn is not None and args.fn not in quad.FUNCTIONS:
        raise CliError(
            f"unknown function {args.fn!r}; known: {', '.join(sorted(quad.FUNCTIONS))}"
        )
    spec = args.fn if args.fn is not None else _parse_poly_spec(args.poly)
    target: Poly | str
    if isinstance(spec, tuple):
        family, degree = spec
        low, high = (2, args.top) if family == "Q" else (0, MAX_DEGREE)
        if not low <= degree <= high:
            raise CliError(f"{family}{degree} outside {low}..{high}")
        # one Legendre table, deep enough for an L input, serves the expansion too
        table = qfamily.build_q_table(args.top, build_legendre(max(args.top, degree)))
        target = table.q(degree) if family == "Q" else table.legendre.poly(degree)
        label = f"{family}{degree}"
    else:
        table = qfamily.build_q_table(args.top)
        target = spec
        label = spec if isinstance(spec, str) else spec.pretty()
    try:
        report = approx.expand(target, args.top, table, args.tol)
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
    if args.top < 0 or args.top > 16:
        raise CliError("--N must be in 0..16")
    _check_tol(args.tol)
    values = [_parse_fraction(p) for p in parts]
    try:
        mob = moebius.MoebiusMap(*values)
        system = moebius.build_transformed_system(mob)
    except moebius.DegenerateMap as exc:
        raise CliError(str(exc)) from None
    ends = moebius.induced_endpoints(mob)
    matrix, worst = moebius.gram_matrix(system, args.top + 1, args.tol)
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
    p_table.add_argument("--family", choices=("L", "Q", "r"), required=True)
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
    p_expand.add_argument("--tol", type=float, default=1e-12)
    p_expand.add_argument("--format", choices=("json", "csv"), default="json")
    p_expand.add_argument("--out", default=None)
    p_expand.set_defaults(handler=_cmd_expand)

    p_tr = sub.add_parser("transform", help="orthogonal system induced by a rational map")
    p_tr.add_argument("--map", required=True, help="lam,alpha,mu,beta with unit determinant")
    p_tr.add_argument("--N", type=int, default=8, dest="top")
    p_tr.add_argument("--tol", type=float, default=1e-12)
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
    except (quad.NoConvergence, quad.ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
