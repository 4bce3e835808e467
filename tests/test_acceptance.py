"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every exact claim is checked in rational arithmetic with zero tolerance;
float claims carry their explicit bounds. Each test prints one pass line
(visible with pytest -s); a failure anywhere is a failed criterion.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from intlegendre import approx, kernel, moebius, quad
from intlegendre.exactpoly import Poly, X
from intlegendre.legendre import (
    double_factorial,
    legendre_rodrigues,
    legendre_shifted_expansion,
    legendre_special_values,
)
from intlegendre.qfamily import (
    X2_MINUS_1,
    q_rodrigues,
    weighted_inner_product,
)

TOP = 40


def _rand_fraction(rng, span=8, den=8):
    return F(rng.randint(-span, span), rng.randint(1, den))


def test_criterion_01_orthogonality_and_norms(qtable):
    # exact weighted inner products for all 2 <= n, m <= 40: zero off the
    # diagonal, 2/(n(n-1)(2n-1)) on it, rational arithmetic, no tolerance
    for n in range(2, TOP + 1):
        for m in range(n, TOP + 1):
            value = weighted_inner_product(qtable.q(n), qtable.q(m))
            if n == m:
                assert value == F(2, n * (n - 1) * (2 * n - 1)), (n, m)
            else:
                assert value == 0, (n, m)
    print("PASS criterion 1: orthogonality and norm closed form exact for n,m <= 40")


def test_criterion_02_structural_identities(qtable, ltable):
    for n in range(2, TOP + 1):
        q = qtable.q(n)
        # second-order equation and its derivative, as polynomial identities
        assert ((-X2_MINUS_1) * q.deriv(2) + q.scale(n * (n - 1))).is_zero(), n
        third = (X * q.deriv(2)).scale(-2) + (-X2_MINUS_1) * q.deriv(3) + q.deriv().scale(
            n * (n - 1)
        )
        assert third.is_zero(), n
        assert q_rodrigues(n) == q, n
    for n in range(2, 21):
        v = X2_MINUS_1 ** (n - 1)
        assert X2_MINUS_1 * v.deriv(n) == v.deriv(n - 2).scale(n * (n - 1)), n
    for n in range(3, TOP + 1):
        hi, lo = qtable.q(n + 1), qtable.q(n - 1)
        assert qtable.q(n).deriv() == (hi.deriv(2) - lo.deriv(2)) / (2 * n - 1), n
        anti = qtable.q(n).antideriv()
        anti = anti - anti.at(-1)
        assert anti == (hi - lo) / (2 * n - 1), n
    for n in range(TOP + 1):
        assert legendre_rodrigues(n) == ltable.poly(n), n
        assert legendre_shifted_expansion(n) == ltable.poly(n), n
    rng = random.Random("acceptance:parts")
    for _ in range(25):
        u = Poly([_rand_fraction(rng, 9, 9) for _ in range(rng.randint(1, 9))])
        v = Poly([_rand_fraction(rng, 9, 9) for _ in range(rng.randint(1, 9))])
        order = rng.randint(1, 4)
        lhs = (u * v.deriv(order)).integral(-1, 1)
        boundary = F(0)
        for k in range(1, order + 1):
            term = u.deriv(k - 1) * v.deriv(order - k)
            boundary += F((-1) ** (k - 1)) * (term.at(1) - term.at(-1))
        assert lhs == boundary + F((-1) ** order) * (u.deriv(order) * v).integral(-1, 1)
    print("PASS criterion 2: structural and differential identities exact")


def test_criterion_03_boundary_data(qtable, ltable):
    for n in range(2, TOP + 1):
        q = qtable.q(n)
        assert q.at(1) == 0 and q.at(-1) == 0, n
        assert q.deriv().at(1) == 1, n
        assert q.deriv(2).at(1) == F(n * (n - 1), 2), n
        assert q.deriv().at(-1) == (-1) ** (n - 1), n
    for n in range(TOP + 1):
        p = ltable.poly(n)
        sv = legendre_special_values(n)
        assert p.at(1) == 1 and p.at(-1) == (-1) ** n, n
        assert p.deriv().at(1) == sv.deriv_at_plus1 == F(n * (n + 1), 2), n
        assert p.deriv(2).at(1) == F((n - 1) * n * (n + 1) * (n + 2), 8), n
    print("PASS criterion 3: endpoint data exact for n <= 40")


def test_criterion_04_kernel_closed_forms(qtable):
    rng = random.Random("acceptance:kernel")
    points = []
    while len(points) < 20:
        x, y = _rand_fraction(rng), _rand_fraction(rng)
        if x != y and abs(x) <= 1 and abs(y) <= 1:
            points.append((x, y))
    witness_seen = False
    for n in range(2, 21):
        factor = qtable.lead(n) / qtable.lead(n + 1)
        assert factor == F(n + 1, 2 * n - 1), n
        for x, y in points:
            stated, oracle = kernel.kernel_cd(n, x, y, qtable), kernel.kernel_value(n, x, y, qtable)
            assert stated * factor == oracle, (n, x, y)
            if n == 3 and stated != oracle:
                witness_seen = True
    assert witness_seen  # witness n=3: the bare prefactor is wrong there
    for n in range(2, 21):
        factor = kernel.kernel_value(n, 0, 0, qtable) / kernel.kernel_zero_stated(n)
        assert factor == F(-(n + 1), 2 * n - 1), n
        assert (factor == -1) == (n == 2), n  # a pure sign flip only at n = 2
    for trial in range(30):
        n = rng.randint(2, 12)
        core = Poly([_rand_fraction(rng, 6, 6) for _ in range(max(1, n - 1))])
        g = X2_MINUS_1 * core
        assert kernel.reproducing_check(n, g, qtable) is True, n
    print("PASS criterion 4: kernel closed forms corrected and reproducing property exact")


def test_criterion_05_section_sequence_orthogonality(qtable):
    sections = {s.n: s.poly for s in kernel.kernel_sections(16, 0, qtable)}
    for n in range(2, 17):
        for m in range(n + 1, 17):
            # integral of K_n(x,0) K_m(x,0) x/(1-x^2) over [-1, 1]
            assert weighted_inner_product(sections[n] * X, sections[m]) == 0, (n, m)
    print("PASS criterion 5: section sequence orthogonal under x/(1-x^2), exact")


def test_criterion_06_extremal_problem(qtable):
    rng = random.Random("acceptance:extremal")
    for n in range(2, 17):
        solution = approx.minimize_constrained(n, qtable)
        assert approx.certify_minimizer(solution.minimizer, n) == solution.min_value, n
        for _ in range(50):
            core = Poly([_rand_fraction(rng, 6, 6) for _ in range(n - 1)])
            p = (-X2_MINUS_1) * core
            at_zero = p.at(0)
            if at_zero == 0:
                continue
            p = p / at_zero
            assert weighted_inner_product(p, p) >= solution.min_value, n
    assert approx.minimize_constrained(2, qtable).min_value == F(4, 3)
    assert approx.minimize_constrained(4, qtable).min_value == F(32, 45)
    # literal double-factorial sum for 1/M: correct restricted to even j,
    # spurious at odd j (witness j=3, summand 5/3 against an oracle of 0)
    def literal_summand(j):
        return F(j * (j - 1) * (2 * j - 1), 2) * F(
            double_factorial(j - 3), double_factorial(j)
        ) ** 2

    assert literal_summand(3) == F(5, 3)
    assert qtable.q(3).at(0) == 0
    even_only = sum((literal_summand(j) for j in range(2, 17, 2)), F(0))
    assert even_only == kernel.kernel_value(16, 0, 0, qtable)
    print("PASS criterion 6: extremal solutions exact, competitors never win, odd terms flagged")


def test_criterion_07_fourier_machinery(qtable):
    rng = random.Random("acceptance:fourier")
    for _ in range(30):
        n = rng.randint(2, 12)
        core = Poly([_rand_fraction(rng, 6, 6) for _ in range(rng.randint(1, 7))])
        f = X2_MINUS_1 * core
        corrected = approx.fourier_coeff_moments(f, n)
        assert corrected == approx.fourier_coeff_quadrature(f, n, qtable), n
    for _ in range(10):
        top = rng.randint(3, 12)
        f = Poly()
        for k in range(2, top + 1):
            f = f + qtable.q(k).scale(_rand_fraction(rng, 5, 5))
        assert approx.parseval_gap(f, top, qtable) == 0
    for k in range(2, 13):
        stated = F(k * 2 ** (k - 1) * math.factorial(k - 1) ** 2, math.factorial(2 * k - 2))
        assert stated == abs(approx.fourier_coeff_moments(Poly.monomial(k), k)), k
    x2 = Poly.monomial(2)
    assert approx.fourier_coeff_quadrature(x2, 2, qtable) == -1
    assert approx.fourier_coeff_moments(x2, 2) == 2
    print("PASS criterion 7: moment formula (sign-corrected) exact; Parseval exact; "
          "monomial magnitudes match with k=2 discrepancy recorded")


def test_criterion_08_transformed_systems():
    maps = [moebius.MoebiusMap(*params) for params in (
        (1, 0, 0, 1),
        (1, 1, 0, 1),
        (2, 0, 0, F(1, 2)),
        (2, 1, 1, 1),
        (3, 1, 2, 1),
    )]
    family = moebius.build_r_family(8)
    for mob in maps:
        assert moebius.weight_identity_gap(mob).is_zero()
        system = moebius.build_transformed_system(mob)
        matrix, worst = moebius.gram_matrix(system, 9, 1e-11)
        assert worst < 1e-11, mob
        for n in range(9):
            for m in range(n, 9):
                exact = float(
                    moebius.reference_inner_product(family.poly(n), family.poly(m))
                )
                assert abs(matrix[n][m] - exact) < 1e-11, (mob, n, m)
    ends = moebius.induced_endpoints(moebius.MoebiusMap(1, 1, 0, 1))
    assert (ends.a, ends.b) == (-2, 0)
    assert ends.stated_a == 0
    assert moebius.MoebiusMap(1, 1, 0, 1).at(ends.stated_a) != -1
    print("PASS criterion 8: transformed systems orthogonal within 1e-11; weight exact; "
          "endpoint discrepancy recorded")


def test_criterion_09_quadrature_exactness():
    for m in (2, 3, 8, 32, 128):
        rule = quad.gauss_legendre(m)
        for j in range(2 * m):
            got = math.fsum(w * x**j for x, w in zip(rule.nodes, rule.weights))
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            if exact:
                assert abs(got - exact) / exact < 1e-13, (m, j)
            else:
                assert abs(got) < 1e-13, (m, j)
    rule = quad.gauss_legendre(3)
    assert abs(rule.nodes[0] + math.sqrt(3 / 5)) < 1e-14
    assert rule.nodes[1] == 0.0
    assert abs(rule.nodes[2] - math.sqrt(3 / 5)) < 1e-14
    assert abs(rule.weights[0] - 5 / 9) < 1e-14
    assert abs(rule.weights[1] - 8 / 9) < 1e-14
    print("PASS criterion 9: quadrature exact on degree <= 2m-1 within 1e-13; "
          "order 3 matches classical values to 1e-14")


def test_criterion_10_verify_cli_at_depth_40(tmp_path, expected_non_confirmed):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "intlegendre.cli", "verify",
         "--max-degree", "40", "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1
    assert payload["max_degree"] == 40
    verdicts = {e["identity_id"]: e["verdict"] for e in payload["entries"]}
    failed = sorted(i for i, v in verdicts.items() if v == "FAILED")
    assert failed == []
    non_confirmed = {i for i, v in verdicts.items() if v != "CONFIRMED"}
    assert non_confirmed == expected_non_confirmed
    print("PASS criterion 10: verify CLI exits 0 at depth 40 with exactly the "
          "expected corrected-identity set")
