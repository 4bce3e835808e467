import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre.exactpoly import NotDivisible, Poly, X
from intlegendre.legendre import build_legendre
from intlegendre.moebius import build_r_family
from intlegendre.qfamily import build_q_table

ONE = Poly((1,))

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys = st.lists(small_fractions, max_size=6).map(Poly)


def test_construction_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Poly((0, 0)).coeffs == ()
    assert Poly().degree is None
    assert Poly((0, 1)).degree == 1


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Poly((0.5,))
    with pytest.raises(TypeError):
        X.at(0.5)


def test_add_cancellation():
    assert (X * X - 1) + 1 == X * X


def test_mul_difference_of_squares():
    assert (X - 1) * (X + 1) == X * X - 1


def test_scale_roundtrip():
    assert (X * 2).scale(F(1, 2)) == X
    assert (X * 2) / 2 == X


def test_derivative_basic():
    assert (X**3).deriv() == Poly((0, 0, 3))
    assert ((X * X - 1) ** 2).deriv(2) == Poly((-4, 0, 12))
    assert X.deriv(5) == Poly()


def test_antiderivative():
    assert X.antideriv() == Poly((0, 0, F(1, 2)))
    assert Poly().antideriv() == Poly()
    assert X.antideriv().coeff(0) == 0


def test_definite_integrals():
    assert (1 - X * X).integral(-1, 1) == F(4, 3)
    l2 = Poly((F(-1, 2), 0, F(3, 2)))
    assert (l2 * l2).integral(-1, 1) == F(2, 5)
    assert (X * l2).integral(-1, 1) == 0
    assert (X * X).integral(0, 2) == F(8, 3)


def test_divexact():
    assert (X * X - 1).divexact(X - 1) == X + 1
    q4 = Poly((F(1, 8), 0, F(-3, 4), 0, F(5, 8)))
    assert q4.divexact(X * X - 1) == Poly((F(-1, 8), 0, F(5, 8)))
    with pytest.raises(NotDivisible):
        (X * X + 1).divexact(X - 1)
    with pytest.raises(ZeroDivisionError):
        X.divexact(Poly())


def test_eval():
    assert (X * X - 1).at(F(1, 2)) == F(-3, 4)
    q2 = Poly((F(-1, 2), 0, F(1, 2)))
    assert q2.at(0) == F(-1, 2)
    assert q2.at(1) == 0
    assert q2.at_float(0.5) == pytest.approx(-0.375)


def test_pretty():
    assert (1 - X * X).pretty() == "1 - x^2"
    assert Poly().pretty() == "0"
    assert Poly((0, F(1, 2))).pretty() == "1/2*x"


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_mul_degree(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=50, deadline=None)
@given(polys)
def test_deriv_antideriv_roundtrip(p):
    assert p.antideriv().deriv() == p


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_divexact_roundtrip(p, d):
    if d.is_zero():
        return
    assert (p * d).divexact(d) == p


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small_fractions, min_size=1, max_size=7).map(Poly),
    st.lists(small_fractions, min_size=1, max_size=7).map(Poly),
    st.integers(min_value=1, max_value=4),
)
def test_repeated_integration_by_parts(u, v, order):
    # integral of u v^(order) equals the alternating boundary sum plus
    # (-1)^order times the integral of u^(order) v, exactly
    lhs = (u * v.deriv(order)).integral(-1, 1)
    boundary = F(0)
    for k in range(1, order + 1):
        term = u.deriv(k - 1) * v.deriv(order - k)
        boundary += F((-1) ** (k - 1)) * (term.at(1) - term.at(-1))
    rhs = boundary + F((-1) ** order) * (u.deriv(order) * v).integral(-1, 1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys, small_fractions)
def test_eval_float_matches_exact(p, x):
    if abs(x) > 1:
        return
    exact = float(p.at(x))
    approx = p.at_float(float(x))
    assert approx == pytest.approx(exact, abs=1e-12)


# -- the integer-numerator core against a naive Fraction-list reference --------


def _ref(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_deriv(a, order):
    for _ in range(order):
        a = _ref([k * a[k] for k in range(1, len(a))])
    return a


def _ref_antideriv(a):
    return _ref([0] + [c / (k + 1) for k, c in enumerate(a)])


def _ref_at(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_integral(a, lo, hi):
    f = _ref_antideriv(a)
    return _ref_at(f, hi) - _ref_at(f, lo)


def _ref_divmod(a, d):
    rem, quot = list(a), [F(0)] * (len(a) - len(d) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(d) - 1] / d[-1]
        quot[k] = q
        for j, c in enumerate(d):
            rem[k + j] -= q * c
    return _ref(quot), _ref(rem)


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
wide_lists = st.lists(wide_fractions, max_size=9)


def _assert_normalised(p):
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(isinstance(c, F) for c in p.coeffs)


@settings(max_examples=150, deadline=None)
@given(wide_lists, wide_lists, wide_fractions, st.integers(0, 4), st.integers(0, 3))
def test_core_matches_fraction_reference(a, b, c, order, power):
    ra, rb = _ref(a), _ref(b)
    p, q = Poly(a), Poly(b)
    assert p.coeffs == ra
    ra_pow = (F(1),)
    for _ in range(power):
        ra_pow = _ref_mul(ra_pow, ra)
    results = {
        "add": (p + q, _ref_add(ra, rb)),
        "radd": (c + p, _ref_add(ra, (c,))),
        "sub": (p - q, _ref_add(ra, tuple(-x for x in rb))),
        "rsub": (c - p, _ref_add((c,), tuple(-x for x in ra))),
        "neg": (-p, _ref([-x for x in ra])),
        "mul": (p * q, _ref_mul(ra, rb)),
        "scale": (p.scale(c), _ref([c * x for x in ra])),
        "rmul": (c * p, _ref([c * x for x in ra])),
        "pow": (p**power, ra_pow),
        "deriv": (p.deriv(order), _ref_deriv(ra, order)),
        "antideriv": (p.antideriv(), _ref_antideriv(ra)),
    }
    if c:
        results["truediv"] = (p / c, _ref([x / c for x in ra]))
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert got == Poly(want), name
        _assert_normalised(got)
    assert p.integral(-1, 1) == _ref_integral(ra, -1, 1)
    assert p.integral(c, F(1, 3)) == _ref_integral(ra, c, F(1, 3))
    assert p.at(c) == _ref_at(ra, c)
    assert p.at(3) == _ref_at(ra, 3)
    assert p.coeff(2) == (ra[2] if len(ra) > 2 else 0)
    if abs(c) <= 1:
        assert p.at_float(float(c)) == float(_ref_at(ra, F(float(c))))  # rounded once
    assert (p * q).integral(-1, 1) == _ref_integral(_ref_mul(ra, rb), -1, 1)
    if rb and len(ra) >= len(rb):
        quot, rem = _ref_divmod(ra, rb)
        if rem:
            with pytest.raises(NotDivisible):
                p.divexact(q)
        else:
            assert p.divexact(q).coeffs == quot
    if rb:
        assert (p * q).divexact(q).coeffs == ra


def test_at_float_is_the_exact_value_rounded_once():
    # family members to the top depth, whose monomial coefficients cancel far
    # beyond double precision, and numerators far beyond 2**53
    ltable = build_legendre(64)
    members = [*ltable, *build_q_table(64)[2:], *build_r_family(64),
               Poly([F((-1) ** k * (3**45 + k), 7**22 + 2 * k) for k in range(12)])]
    for p in members:
        for x in (0.9, -0.9999, 1.0, -1.0, 5e-324):
            assert p.at_float(x) == float(p.at(F(x)))
        if p.degree >= 2:  # past the float range: the infinity IEEE rounding gives
            lead = math.copysign(math.inf, p.nums[-1])
            assert p.at_float(1e300) == lead
            assert p.at_float(-1e300) == lead * (-1) ** p.degree
    assert ltable[64].at_float(0.9) == -0.15040882054494792


def test_normalisation_makes_equal_polys_equal_and_hash_equal():
    a = Poly((F(1, 2), F(2, 4)))
    b = Poly((F(1, 2), F(1, 2)))
    c = (Poly((3, 3)) * 2).scale(F(1, 12))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert (a.den, a.nums) == (2, (1, 1))
    assert len({a, b, c}) == 1
    assert Poly((0, F(-6, 4))).den == 2 and Poly((0, F(-6, 4))).nums == (0, -3)
    assert (X - X).nums == () and (X - X) == Poly() and hash(X - X) == hash(Poly())
