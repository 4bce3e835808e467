"""The three workloads: how their operations are generated, run and checked.

An operation is a plain tuple; the generator fixes the whole list from the
seed, and the package only ever sees the arguments inside the tuples.

verify-deep     repeated verify.run_verification(64) on the default pool, the
                headline user job at the top of the supported depth range.
                Cost sits in the exact core and the all-pairs registry checks;
                the tables are built once per operation.
table-requests  short exact requests through cli.main: tables, minimize and
                exact expansions. Every request builds its tables cold, so
                the table builders and the CLI carry the cost.
float-numerics  float jobs: cold Gauss-Legendre rules in a fresh process,
                q_roots, transformed systems, named-function expansions and
                table values at points. Exact arithmetic does almost none of
                the work, so an exact-core change should not move it.

Every operation of every workload must pass its check, so float-numerics
stops below the two known float defects: table values at points lose
accuracy from degree 20 (at 0.9 and near the ends of [-1, 1]), and expand
--fn coefficients drift past the oracle's tolerance from N = 20 and raise
NoConvergence from N = 29. Its table --points degrees and expand --fn orders
go up to 16 (SIZES); test_smoke checks that the defects are still there, and
fails once they are fixed, so the ranges can then be widened.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracle

WORKLOADS = ("verify-deep", "table-requests", "float-numerics")
HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes are the top of the package's supported range, except "points" (the
# degrees of table --points) and "fn" (the orders of expand --fn), which stop
# below the known float defects; "toy" keeps the smoke test quick.
SIZES = {
    "full": {"depth": 64, "degree": 64, "quad": 512, "transform": 16, "points": 16, "fn": 16},
    "toy": {"depth": 6, "degree": 8, "quad": 24, "transform": 3, "points": 6, "fn": 6},
}
# Rounds generated per run; no run gets near the end of the list.
ROUNDS = 400
# The five reference maps (lam, alpha, mu, beta) of the transformed systems.
MAPS = ("1,0,0,1", "1,1,0,1", "2,0,0,1/2", "2,1,1,1", "3,1,2,1")
FUNCTION_NAMES = ("one-minus-x2-exp", "sin-pi")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _spread(i: int, u0: float, round_no: int, lo: int, hi: int) -> int:
    """Parameter i's value in lo..hi for a round: the Kronecker sequence
    u0 + round_no * sqrt(p_i) (mod 1), with p_i the i-th prime.

    Successive rounds of such a sequence cover [0, 1) almost evenly whatever
    the seeded start u0, and distinct irrational steps keep the parameters of
    one operation from moving in lockstep. So every run sees nearly the same
    mix of small and large sizes, and runs on different seeds stay comparable.
    """
    return lo + int((u0 + round_no * math.sqrt(PRIMES[i])) % 1.0 * (hi - lo + 1))


def _rand_poly(rng: random.Random) -> str:
    degree = rng.randint(2, 10)
    return ",".join(str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(degree + 1))


def generate(workload: str, seed: int, size: str = "full") -> list[tuple]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    s = SIZES[size]
    top = s["degree"]
    if workload == "verify-deep":
        # The registry seeds itself from identity ids; the seed changes nothing.
        return [("verify", s["depth"])] * ROUNDS
    starts = [rng.random() for _ in PRIMES]
    ops: list[tuple] = []
    for r in range(ROUNDS):
        def pick(i: int, lo: int, hi: int) -> int:
            return _spread(i, starts[i], r, lo, hi)

        if workload == "table-requests":
            round_ops = []
            for i, (family, floor) in enumerate((("L", 0), ("Q", 2), ("r", 0))):
                hi = pick(i, floor, top)
                lo = pick(7 + i, floor, hi)
                round_ops.append(("table", family, lo, hi, rng.choice(("json", "csv")),
                                  rng.choice(("exact", "float")), ()))
            round_ops.append(("minimize", pick(3, 2, top)))
            n_top = pick(4, 2, top)
            round_ops.append(("expand_poly", _rand_poly(rng), n_top))
            round_ops.append(("expand_poly", f"Q{rng.randint(2, n_top)}", n_top))
            round_ops.append(("expand_poly", f"L{pick(5, 0, top)}", pick(6, 2, top)))
        else:
            round_ops = [
                ("cold_quad", pick(0, 16, s["quad"])),
                ("q_roots", pick(1, 2, top)),
                ("transform", MAPS[pick(2, 0, len(MAPS) - 1)], pick(3, 1, s["transform"])),
                ("expand_fn", FUNCTION_NAMES[r % 2], pick(4, 2, s["fn"])),
            ]
            for i, family in enumerate(("L", "Q")):
                hi = pick(5 + i, 2, s["points"])
                x = pick(7 + i, -99, 99) / 100
                round_ops.append(("table", family, max(2, hi - 3), hi, "json", "exact", (0.9, x)))
        rng.shuffle(round_ops)
        ops.extend(round_ops)
    return ops


def argv(op: tuple) -> list[str]:
    kind = op[0]
    if kind == "table":
        _, family, lo, hi, fmt, backend, points = op
        out = ["table", "--family", family, "--degrees", f"{lo}..{hi}", "--format", fmt,
               "--backend", backend]
        return out + (["--points", ",".join(repr(x) for x in points)] if points else [])
    if kind == "minimize":
        return ["minimize", "--n", str(op[1])]
    if kind == "expand_poly":
        return ["expand", f"--poly={op[1]}", "--N", str(op[2])]  # spec may start with "-"
    if kind == "expand_fn":
        return ["expand", "--fn", op[1], "--N", str(op[2])]
    if kind == "transform":
        return ["transform", "--map", op[1], "--N", str(op[2])]
    if kind == "cold_quad":
        return ["quad", "--m", str(op[1]), "--format", "json"]
    raise ValueError(kind)


class Runner:
    """Runs operations against the package in this process (and, for cold
    quadrature, in a fresh child process)."""

    def __init__(self, src: str, size: str) -> None:
        from intlegendre import cli, qfamily, verify

        self.src = src
        self.cli, self.qfamily, self.verify = cli, qfamily, verify
        self.q_table = None
        self.size = size
        self.tracer = None

    def prepare(self, ops: list[tuple]) -> None:
        """Input-side set-up: the table q_roots takes, built once."""
        if any(op[0] == "q_roots" for op in ops):
            self.q_table = self.qfamily.build_q_table(SIZES[self.size]["degree"])

    def run(self, op: tuple, op_id: int) -> tuple:
        kind = op[0]
        if kind == "verify":
            report = self.verify.run_verification(op[1])
            return ("ok", tuple((e.identity_id, e.verdict.value) for e in report.entries))
        if kind == "q_roots":
            try:
                return ("ok", tuple(self.qfamily.q_roots(op[1], self.q_table)))
            except self.qfamily.RootCountMismatch as exc:
                return ("raised", type(exc).__name__)
        if kind == "cold_quad":
            return self._run_child(op, op_id)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv(op))
        except Exception as exc:  # an uncaught error is a failed request
            return ("raised", type(exc).__name__)
        return ("exit", code, out.getvalue())

    def _run_child(self, op: tuple, op_id: int) -> tuple:
        traced = "1" if self.tracer is not None else "0"
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), self.src, traced, *argv(op)],
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired as exc:
            return ("raised", type(exc).__name__)
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.merge(json.loads(proc.stderr), op_id)
        return ("exit", proc.returncode, proc.stdout)


# -- checks ---------------------------------------------------------------------


def _close(value: float, expected: float, scale: float = 1.0) -> bool:
    return abs(value - expected) <= oracle.TOL * scale


def check(op: tuple, result: tuple) -> bool:
    """True when the operation's output agrees with the oracle."""
    kind = op[0]
    if kind == "verify":
        return result[0] == "ok" and _check_verify(result[1])
    if kind == "q_roots":
        return result[0] == "ok" and _check_roots(op[1], result[1])
    if result[0] != "exit" or result[1] != 0:
        return False
    text = result[2]
    if kind == "table":
        return _check_table(op, text)
    payload = json.loads(text)
    if kind == "minimize":
        return _check_minimize(op[1], payload)
    if kind == "expand_poly":
        return _check_expand_poly(op, payload)
    if kind == "expand_fn":
        expected = oracle.named_coefficients(op[1], op[2])
        got = payload["coefficients"]
        return len(got) == op[2] - 1 and all(
            _close(got[str(n)], expected[n - 2]) for n in range(2, op[2] + 1))
    if kind == "transform":
        return _check_transform(op, payload)
    if kind == "cold_quad":
        nodes, weights = oracle.gauss_rule(op[1])
        return (payload["m"] == op[1] and len(payload["nodes"]) == op[1]
                and all(_close(a, b) for a, b in zip(payload["nodes"], nodes))
                and all(_close(a, b) for a, b in zip(payload["weights"], weights)))
    raise ValueError(kind)


def _check_verify(pairs) -> bool:
    verdicts = dict(pairs)
    non_confirmed = {k: v for k, v in verdicts.items() if v != "CONFIRMED"}
    return (len(pairs) == oracle.REGISTRY_SIZE == len(verdicts)
            and non_confirmed == oracle.NON_CONFIRMED)


def _check_roots(n: int, roots) -> bool:
    expected = oracle.q_roots(n)
    return (len(roots) == n and roots[0] == -1.0 and roots[-1] == 1.0
            and list(roots) == sorted(roots)
            and all(_close(a, b) for a, b in zip(roots, expected)))


def _check_table(op: tuple, text: str) -> bool:
    _, family, lo, hi, fmt, backend, points = op
    rows = []  # (n, coefficient cells, values at points)
    if fmt == "json":
        payload = json.loads(text)
        if payload["family"] != family:
            return False
        for e in payload["entries"]:
            values = [e["values"][repr(x)] for x in points] if points else []
            rows.append((e["n"], e["coeffs"], values))
    else:
        lines = text.splitlines()
        if lines[0].split(",") != ["family", "n", "coeffs"] + [f"at_{x!r}" for x in points]:
            return False
        for line in lines[1:]:
            cells = line.split(",")
            if cells[0] != family:
                return False
            parse = float if backend == "float" else str
            rows.append((int(cells[1]), [parse(c) for c in cells[2].split(" ") if c],
                         [float(v) for v in cells[3:]]))
    if [row[0] for row in rows] != list(range(lo, hi + 1)):
        return False
    for n, cells, values in rows:
        exact = oracle.family(family, n)
        want = [float(c) for c in exact] if backend == "float" else [str(c) for c in exact]
        if cells != want:
            return False
        scale = float(oracle.family_sup(family, n))
        for x, v in zip(points, values):
            if not _close(v, float(oracle.evaluate(exact, Fraction(x))), scale):
                return False
    return True


def _check_minimize(n: int, payload: dict) -> bool:
    m_value = Fraction(payload["M"])
    monomial = [Fraction(c) for c in payload["minimizer_monomial"]]
    if payload["n"] != n or payload["oracle_agrees"] is not True:
        return False
    if not oracle.minimizer_ok(n, m_value, monomial):
        return False
    # the minimizer in the family basis must be the same polynomial
    total = [Fraction(0)] * (n + 1)
    for k, c in payload["coefficients"].items():
        for i, q in enumerate(oracle.q_member(int(k))):
            total[i] += Fraction(c) * q
    while total and total[-1] == 0:
        total.pop()
    return total == monomial


def _poly_input(spec: str) -> tuple[Fraction, ...]:
    if spec[0] in "QL" and spec[1:].isdigit():
        return oracle.family(spec[0], int(spec[1:]))
    return tuple(Fraction(c) for c in spec.split(","))


def _check_expand_poly(op: tuple, payload: dict) -> bool:
    _, spec, top = op
    f = _poly_input(spec)
    got = {int(k): Fraction(v) for k, v in payload["coefficients"].items()}
    if payload["method"] != "quadrature_exact" or payload["N"] != top:
        return False
    residual = list(f)
    for n in range(2, top + 1):
        a = oracle.weighted_coefficient(f, n)
        if got.get(n, Fraction(0)) != a:
            return False
        q = oracle.q_member(n)
        residual += [Fraction(0)] * (len(q) - len(residual))
        for i, c in enumerate(q):
            residual[i] -= a * c
    in_span = not any(residual)
    return (payload["residual_sup"] == 0.0) == in_span


def _check_transform(op: tuple, payload: dict) -> bool:
    _, map_text, top = op
    lam, alpha, mu, beta = (Fraction(p) for p in map_text.split(","))
    a, b = (Fraction(v) for v in payload["interval"])

    def f(x: Fraction) -> Fraction:
        return (lam * x + alpha) / (mu * x + beta)

    if f(a) != -1 or f(b) != 1:
        return False
    g = payload["gram_matrix"]
    if len(g) != top + 1:
        return False
    for i in range(top + 1):
        if not _close(g[i][i], float(oracle.r_gram(i, i)), float(oracle.r_gram(i, i))):
            return False
        for j in range(top + 1):
            if i != j and not _close(g[i][j], 0.0, math.sqrt(g[i][i] * g[j][j])):
                return False
    return True
