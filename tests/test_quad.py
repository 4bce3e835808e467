import math
import random

import pytest

from intlegendre import legendre, qfamily, quad
from intlegendre.legendre import legendre_float
from intlegendre.quad import MAX_ORDER, gauss_legendre, integrate


def test_midpoint_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == (0.0,)
    assert rule.weights == (2.0,)
    assert rule.exact_degree == 1


def test_order_two():
    rule = gauss_legendre(2)
    assert rule.nodes[1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert rule.nodes[0] == -rule.nodes[1]
    assert rule.weights == (pytest.approx(1.0, abs=1e-14),) * 2


def test_order_three_classical():
    rule = gauss_legendre(3)
    assert rule.nodes[0] == pytest.approx(-math.sqrt(3 / 5), abs=1e-14)
    assert rule.nodes[1] == 0.0
    assert rule.nodes[2] == pytest.approx(math.sqrt(3 / 5), abs=1e-14)
    assert rule.weights[0] == pytest.approx(5 / 9, abs=1e-14)
    assert rule.weights[1] == pytest.approx(8 / 9, abs=1e-14)
    assert rule.weights[2] == pytest.approx(5 / 9, abs=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 32])
def test_rule_invariants(m):
    rule = gauss_legendre(m)
    assert abs(math.fsum(rule.weights) - 2.0) < 1e-14
    assert all(w > 0 for w in rule.weights)
    assert all(-1.0 < x < 1.0 for x in rule.nodes)
    assert all(
        rule.nodes[i] + rule.nodes[-1 - i] == 0.0 for i in range(len(rule.nodes))
    )
    assert all(
        rule.weights[i] == rule.weights[-1 - i] for i in range(len(rule.weights))
    )
    # nodes sit on the roots of the matching Legendre polynomial
    assert all(abs(legendre_float(m, x)[0]) < 1e-14 for x in rule.nodes)


@pytest.mark.parametrize("m", [2, 3, 8, 32, 128])
def test_polynomial_exactness(m):
    rule = gauss_legendre(m)
    for j in range(2 * m):
        approx = math.fsum(w * x**j for x, w in zip(rule.nodes, rule.weights))
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        if exact:
            assert abs(approx - exact) / exact < 1e-13
        else:
            assert abs(approx) < 1e-13


def test_cross_module_oracle(qtable):
    # order-m rule reproduces exact integrals of polynomials of degree <= 2m-1
    rule = gauss_legendre(8)
    for n in range(2, 8):
        p = qtable[n] * qtable[n]
        exact = float(p.integral(-1, 1))
        approx = math.fsum(w * p.at_float(x) for x, w in zip(rule.nodes, rule.weights))
        assert approx == pytest.approx(exact, rel=1e-13)


def test_integrate_basic():
    # exp is entire: a fixed order-16 rule is already at the rounding floor
    assert integrate(lambda x, w: (w * math.exp(x),), 16) == pytest.approx(
        (math.e - 1 / math.e,), abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 32, 128])
def test_integrate_is_exact_through_degree_2_order_minus_1(order):
    values = integrate(lambda x, w: [w * x**j for j in range(2 * order)], order)
    for j, value in enumerate(values):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(value - exact) < 1e-13 * max(exact, 1.0), j


def test_integrate_weighted_member(qtable):
    # Q_2^2/(1 - x^2) = (1 - x^2)/4, a quadratic, so order 2 is exact
    q2 = qtable[2]
    (value,) = integrate(lambda x, w: (w * q2.at_float(x) ** 2 / (1 - x * x),), 2)
    assert value == pytest.approx(1 / 3, abs=1e-15)


def test_integrate_all_components_in_one_pass():
    calls = []

    def f(x, w):
        calls.append((x, w))
        return (w, w * x * x, w * math.exp(x))

    values = integrate(f, 16)
    assert values == pytest.approx((2.0, 2 / 3, math.e - 1 / math.e), abs=1e-15)
    # one call per node of the one rule, shared by every component
    rule = gauss_legendre(16)
    assert calls == list(zip(rule.nodes, rule.weights))


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(MAX_ORDER + 1)


def test_rule_is_cached():
    assert gauss_legendre(16) is gauss_legendre(16)


@pytest.mark.parametrize("m", [64, 128, 256, 511, 512])
def test_two_value_passes_per_node(monkeypatch, m):
    # Tricomi's starting guess leaves Newton about two evaluations per node
    calls = []

    def counted(n, x):
        calls.append(x)
        return legendre_float(n, x)

    monkeypatch.setattr(quad, "legendre_float", counted)
    quad.gauss_legendre.__wrapped__(m)  # past the cache
    assert m // 2 <= len(calls) <= 2.25 * ((m + 1) // 2)


@pytest.mark.parametrize("n", [8, 64, 128, 513])
def test_q_roots_take_two_and_a_half_passes_per_solved_root(monkeypatch, n):
    # the Gatteschi-Pittaluga starts leave Newton about two evaluations per root,
    # and only the (n + 1) // 2 - 1 gaps at or above 0 are solved
    calls = []
    real = qfamily.q_float

    def counted(n, x):
        calls.append(x)
        return real(n, x)

    monkeypatch.setattr(qfamily, "q_float", counted)
    qfamily.q_roots(n, None)  # the table is unread
    assert min(calls) >= 0.0
    assert len(calls) <= 2.5 * ((n + 1) // 2 - 1)


def test_q_float_mirrors_bit_for_bit():
    # q_roots negates its upper half on this: Q_n has the parity of n, Q_n' = P_{n-1} the other
    rng = random.Random(29)
    for n in range(2, 65):
        for x in [rng.uniform(-1.0, 1.0) for _ in range(16)]:
            value, slope = qfamily.q_float(n, x)
            assert qfamily.q_float(n, -x) == ((-1) ** n * value, (-1) ** (n - 1) * slope)


def test_legendre_float_has_one_function_object():
    # quad owns it and legendre re-exports it: the benchmark's tracer wraps it at every alias
    assert legendre.legendre_float is quad.legendre_float
    assert legendre._steps is quad._steps
