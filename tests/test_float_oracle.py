"""Float outputs at the top of the supported degree range, checked against an
independent 40-digit mpmath oracle.

Low degrees prove little here: any evaluation method is accurate there, and
the monomial-basis sums these outputs once went through lost all accuracy
only from degree ~20 on.
"""

import functools
import json
import math

import pytest

from intlegendre.cli import main
from intlegendre.qfamily import build_q_table, q_roots
from intlegendre.quad import gauss_legendre

mpmath = pytest.importorskip("mpmath")

POINTS = (0.9, 0.99, -0.999, 0.0)


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


def run_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def legendre_mp(n, x):
    return mpmath.legendre(n, mpmath.mpf(x))


def legendre_and_slope_mp(n, x):
    x = mpmath.mpf(x)
    value = legendre_mp(n, x)
    return value, n * (x * value - legendre_mp(n - 1, x)) / (x * x - 1)


def legendre_deriv_mp(n, x):
    return legendre_and_slope_mp(n, x)[1]


def q_mp(n, x):
    return (legendre_mp(n, x) - legendre_mp(n - 2, x)) / (2 * n - 1)


def r_lead(n):
    # leading coefficient of P'_{n+1}: (n+1) C(2n+2, n+1) / 2^(n+1)
    return mpmath.mpf((n + 1) * math.comb(2 * n + 2, n + 1)) / 2 ** (n + 1)


def r_mp(n, x):
    return legendre_deriv_mp(n + 1, x) / r_lead(n)  # monic r_n


@pytest.mark.parametrize("family, member", [
    ("L", legendre_mp), ("Q", q_mp), ("r", r_mp),
])
def test_table_points_at_degree_64(capsys, family, member):
    # each printed value is the exact member value rounded once to a float
    payload = run_json(capsys, "table", "--family", family, "--degrees", "64..64",
                       "--points", ",".join(map(repr, POINTS)))
    values = payload["entries"][0]["values"]
    for x in POINTS:
        assert values[repr(x)] == float(member(64, x)), x


@functools.cache
def named_coefficients_mp(name, top):
    """a_n = -(2n-1)/2 * integral of f P'_{n-1}, in closed form through
    spherical Bessel functions: integral of e^(i pi x) P_k = 2 i^k j_k(pi) and
    integral of e^x P_k = 2 i_k(1)."""
    if name == "sin-pi":
        # odd k only: 2 (-1)^((k-1)/2) j_k(pi), j_k(pi) = J_{k+1/2}(pi) / sqrt(2)
        m = [2 * (-1) ** ((k - 1) // 2) * mpmath.besselj(k + 0.5, mpmath.pi) / mpmath.sqrt(2)
             if k % 2 else 0 for k in range(top)]
        # P'_{n-1} = sum of (2k+1) P_k over k = n-2, n-4, ... >= 0
        return {n: -mpmath.mpf(2 * n - 1) / 2
                * sum((2 * k + 1) * m[k] for k in range(n - 2, -1, -2))
                for n in range(2, top + 1)}
    # f = (1 - x^2) e^x and (1 - x^2) P'_{n-1} = -n(n-1)(P_n - P_{n-2})/(2n-1)
    i = [2 * mpmath.sqrt(mpmath.pi / 2) * mpmath.besseli(k + 0.5, 1) for k in range(top + 1)]
    return {n: mpmath.mpf(n * (n - 1)) / 2 * (i[n] - i[n - 2]) for n in range(2, top + 1)}


@pytest.mark.parametrize("top", range(2, 65))
@pytest.mark.parametrize("name", ["sin-pi", "one-minus-x2-exp"])
def test_named_expansion_up_to_order_64(capsys, name, top):
    # a_n does not depend on N, so one oracle at 64 serves every N
    expected = named_coefficients_mp(name, 64)
    payload = run_json(capsys, "expand", "--fn", name, "--N", str(top))
    got = payload["coefficients"]
    assert sorted(map(int, got)) == list(range(2, top + 1))
    for n in range(2, top + 1):
        assert abs(got[str(n)] - expected[n]) <= 1e-12, n
    if top >= 20:
        assert payload["residual_sup"] < 1e-12
        assert payload["residual_weighted_l2"] < 1e-12


def test_poly_expansion_residual_at_degree_64(capsys):
    # L64 minus its projection onto Q_2..Q_62 keeps its endpoint value 1
    payload = run_json(capsys, "expand", "--poly", "L64", "--N", "62")
    assert payload["coefficients"] == {}
    assert payload["residual_sup"] == 1.0


@pytest.mark.parametrize("top", [2, 21, 40, 64])
@pytest.mark.parametrize("m", [2, 21, 40, 64])
def test_legendre_expansion_residual_sup_is_exactly_one(capsys, m, top):
    # the residual is P_m for m > N, else P_{N-1} (N - m odd) or P_N (N - m
    # even): one P_k, whose sup 1 is reached and certified at the endpoints
    payload = run_json(capsys, "expand", f"--poly=L{m}", "--N", str(top))
    assert payload["residual_sup"] == 1.0


@pytest.mark.parametrize("n", [64, 128, 257, 513])
def test_q_roots_at_high_degree(n):
    roots = q_roots(n, build_q_table(n))
    assert roots[0] == -1.0 and roots[-1] == 1.0 and len(roots) == n
    checked = roots[1:-1]
    if n > 128:
        # the 8 innermost and the 8 outermost positive roots: a root's ulp is
        # smallest near 0, and the gaps are narrowest near 1
        positive = [r for r in checked if r > 0]
        checked = positive[:8] + positive[-8:]
    for r in checked:
        assert abs(q_mp(n, r)) < 1e-16
        # one Newton step on the 40-digit member lands on the true root
        true = mpmath.mpf(r) - q_mp(n, r) / legendre_mp(n - 1, r)
        assert abs(r - true) < 2e-16


def test_gauss_legendre_512_nodes_and_weights():
    rule = gauss_legendre(512)
    # the outermost nodes and the ones nearest 0, where the rule is hardest
    for i in [*range(256, 264), *range(504, 512)]:
        x = mpmath.mpf(rule.nodes[i])
        for _ in range(3):
            x -= legendre_mp(512, x) / legendre_deriv_mp(512, x)
        weight = 2 / ((1 - x * x) * legendre_deriv_mp(512, x) ** 2)
        assert abs(rule.nodes[i] - x) < 2e-16
        # 1 - x^2 loses relative accuracy near the ends in any double computation
        assert abs(rule.weights[i] - weight) < 1e-10 * weight


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 17, 32, 64, 127, 128, 255, 256, 400, 511, 512])
def test_gauss_legendre_against_fifty_digit_roots_and_weights(m):
    rule = gauss_legendre(m)
    assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
    assert all(x == -y for x, y in zip(rule.nodes, reversed(rule.nodes)))
    assert rule.weights == tuple(reversed(rule.weights))
    with mpmath.workdps(50):
        # the negative half is the exact mirror image, so the positive half covers every node
        for node, weight in zip(rule.nodes[m // 2:], rule.weights[m // 2:]):
            x = mpmath.mpf(node)
            value, slope = legendre_and_slope_mp(m, x)
            x -= value / slope
            value, slope = legendre_and_slope_mp(m, x)
            # x is the root far below a double's ulp: the next step would move it less than 1e-24
            assert abs(value / slope) < 1e-24
            assert abs(node - x) <= 4 * math.ulp(float(x))
            true_weight = 2 / ((1 - x * x) * slope**2)
            assert abs(weight - true_weight) <= m * m * 2.0**-52 * true_weight
