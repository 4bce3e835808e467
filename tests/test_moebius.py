import math
import random
import re
from fractions import Fraction as F

import pytest

from intlegendre import moebius, quad
from intlegendre.exactpoly import Poly, X, _moment_vector
from intlegendre.legendre import legendre_values
from intlegendre.moebius import (
    DegenerateMap,
    MoebiusMap,
    build_r_family,
    build_transformed_system,
    gram_matrix,
    induced_endpoints,
    induced_weight,
    minimality_check,
    r_poly,
    reference_inner_product,
    weight_identity_gap,
)
from intlegendre.qfamily import X2_MINUS_1, build_q_table
from intlegendre.verify import TEST_MAPS, _random_unit_map

IDENTITY = MoebiusMap(1, 0, 0, 1)
SHIFT = MoebiusMap(1, 1, 0, 1)  # x + 1
SCALE = MoebiusMap(2, 0, 0, F(1, 2))  # 4x
GENERIC = MoebiusMap(2, 1, 1, 1)
GENERIC2 = MoebiusMap(3, 1, 2, 1)
ALL_MAPS = (IDENTITY, SHIFT, SCALE, GENERIC, GENERIC2)


def test_reference_family_values():
    fam = build_r_family(4)
    assert fam[0] == Poly((1,))
    assert fam[1] == X
    assert fam[2] == Poly((F(-1, 5), 0, 1))
    assert fam[3] == Poly((0, F(-3, 7), 0, 1))


def test_reference_family_holds_degrees_0_to_max_degree():
    fam = build_r_family(3)
    assert type(fam) is tuple and len(fam) == 4
    assert [p.degree for p in fam] == [0, 1, 2, 3]


def test_reference_family_orthogonal_and_monic():
    fam = build_r_family(8)
    for n in range(9):
        assert fam[n].coeffs[-1] == 1
        assert fam[n].degree == n
        for m in range(n):
            assert reference_inner_product(fam[n], fam[m]) == 0


def _gram_schmidt_family(max_degree):
    """Monic Gram-Schmidt against 1 - t^2: the reference for the recurrence."""
    polys = []
    for n in range(max_degree + 1):
        p = Poly.monomial(n)
        for prev in polys:
            coef = reference_inner_product(p, prev) / reference_inner_product(prev, prev)
            p = p - prev.scale(coef)
        polys.append(p)
    return polys


def _recurrence_family(max_degree):
    """Monic three-term recurrence r_{k+1} = x r_k - k(k+2)/((2k+1)(2k+3)) r_{k-1} of the
    Jacobi(1,1) family, in Fractions: the reference for the table to depth 64."""
    polys = [Poly((1,)), X][: max_degree + 1]
    for k in range(1, max_degree):
        polys.append(X * polys[k] - polys[k - 1].scale(F(k * (k + 2), (2 * k + 1) * (2 * k + 3))))
    return polys


def test_family_matches_the_fraction_recurrence_to_64():
    assert list(build_r_family(64)) == _recurrence_family(64)
    assert list(build_r_family(1)) == _recurrence_family(1)


def test_recurrence_family_matches_gram_schmidt():
    assert list(build_r_family(24)) == _gram_schmidt_family(24)
    assert build_r_family(0) == (Poly((1,)),)


def test_recurrence_family_monic_and_orthogonal_to_64():
    fam = build_r_family(64)
    weight = Poly((1, 0, -1))
    for k in range(65):
        assert fam[k].degree == k
        assert fam[k].coeff(k) == 1
        # the integrals of (1-x^2) r_k x^j: zero below j = k, where r_0..r_{k-1} live, and
        # at j = k the squared norm of the monic r_k
        p = fam[k] * weight
        scale, moments = _moment_vector(p.nums, range(k + 1), len(p.nums) + k + 1)
        assert not any(moments[:k]) and moments[k] > 0


def test_recurrence_family_is_monic_interior_factor_of_q():
    fam = build_r_family(40)
    qtable = build_q_table(42)
    for k in range(41):
        interior = qtable[k + 2].divexact(X2_MINUS_1)
        assert fam[k] == interior / interior.coeff(k)


def test_family_is_the_monic_legendre_derivative_to_128(reference_legendre):
    # r_k = P'_{k+1} / lead, on Legendre rows from the rational recurrence
    fam = build_r_family(127)
    for k in range(128):
        d = reference_legendre[k + 1].deriv()
        assert fam[k] == d / d.coeff(k), k
    assert r_poly(127) == fam[127]
    with pytest.raises(ValueError):
        r_poly(-1)


@pytest.mark.parametrize("fault, message", [
    ("lead", "degree-8 solution of equation 3 left a remainder at x^6"),
    ("numerator", "degree-8 solution of equation 3 left a remainder at x^4"),
    ("scale", "normalization P'_m(1) = m(m+1)/2 broken at m = 9"),
])
def test_member_certificates_catch_a_fault(row_fault, fault, message):
    # the fault is planted in legendre's one derivative row, which Q and r both read
    row_fault(fault)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        r_poly(8)


def test_determinant_enforced():
    with pytest.raises(DegenerateMap):
        MoebiusMap(1, 1, 1, 1)
    with pytest.raises(TypeError):
        MoebiusMap(1.0, 0, 0, 1)


def test_replace_and_make_validate_and_coerce():
    # a NamedTuple's _replace builds through _make, which skips a subclass __new__
    with pytest.raises(DegenerateMap):
        IDENTITY._replace(lam=2)
    with pytest.raises(DegenerateMap):
        MoebiusMap._make((2, 0, 0, 1))
    with pytest.raises(TypeError):
        IDENTITY._replace(alpha=0.5)
    shifted = IDENTITY._replace(alpha=1)
    assert shifted == SHIFT
    assert type(shifted) is MoebiusMap and type(shifted.alpha) is F


def test_endpoints_examples():
    e = induced_endpoints(IDENTITY)
    assert (e.a, e.b) == (-1, 1)
    e = induced_endpoints(SHIFT)
    assert (e.a, e.b) == (-2, 0)
    assert e.stated_a == 0  # the stated lower expression misses f(a) = -1
    e = induced_endpoints(SCALE)
    assert (e.a, e.b) == (F(-1, 4), F(1, 4))


def test_endpoints_satisfy_defining_equations():
    for m in ALL_MAPS:
        e = induced_endpoints(m)
        assert m.at(e.a) == -1
        assert m.at(e.b) == 1
        assert e.stated_b == e.b


def test_weight_at_float_is_the_exact_ratio_rounded_once():
    for m in ALL_MAPS:
        e, weight = induced_endpoints(m), induced_weight(m)
        mid, half = float(e.a + e.b) / 2, float(e.b - e.a) / 2
        for t in quad.gauss_legendre(16).nodes:
            x = mid + half * t
            assert weight.at_float(x) == float(weight.numerator.at(F(x)) / weight.denominator.at(F(x)))
    # numerator and denominator past the float range, their ratio inside it; and a ratio past it
    assert induced_weight(MoebiusMap(F("1e-100"), 0, 0, F("1e100"))).at_float(0.0) == 1e-200
    assert induced_weight(IDENTITY).at_float(1e200) == -math.inf


def test_stated_lower_endpoint_fails_defining_equation():
    e = induced_endpoints(SHIFT)
    assert SHIFT.at(e.stated_a) != -1


def test_degenerate_endpoints():
    with pytest.raises(DegenerateMap):
        induced_endpoints(MoebiusMap(1, 0, 1, 1))  # lam == mu


def test_induced_weight_examples():
    w = induced_weight(IDENTITY)
    assert w.numerator == Poly((1, 0, -1))
    assert w.denominator == Poly((1,))
    w = induced_weight(SHIFT)
    assert w.numerator == Poly((0, -2, -1))  # -x(x+2)
    w = induced_weight(SCALE)
    assert w.at_float(0.0) == pytest.approx(4.0)
    assert w.at_float(0.1) == pytest.approx((1 - 16 * 0.01) * 4)


def test_weight_identity_exact():
    rng = random.Random(31337)
    maps = list(ALL_MAPS)
    for _ in range(10):
        lam = F(rng.randint(1, 5))
        mu = F(rng.randint(-2, 2))
        alpha = F(rng.randint(-2, 2), rng.randint(1, 3))
        beta = (1 + mu * alpha) / lam
        maps.append(MoebiusMap(lam, alpha, mu, beta))
    for m in maps:
        assert weight_identity_gap(m).is_zero()


def test_weight_vanishes_at_induced_endpoints():
    for m in ALL_MAPS:
        e = induced_endpoints(m)
        w = induced_weight(m)
        assert w.numerator.at(e.a) == 0
        assert w.numerator.at(e.b) == 0


def test_system_rejects_bad_maps():
    with pytest.raises(DegenerateMap):
        build_transformed_system(MoebiusMap(0, -1, 1, 0))  # endpoints out of order
    with pytest.raises(DegenerateMap):  # float interval [-0.0, 0.0] and weight 0/0
        build_transformed_system(MoebiusMap(F(10**200), 0, 0, F(1, 10**200)))
    with pytest.raises(DegenerateMap):  # parameters past the float range
        build_transformed_system(MoebiusMap(F(10**400), 0, 0, F(1, 10**400)))


def test_transformed_orthogonality_examples():
    for m, (n, k), tol in ((IDENTITY, (1, 2), 1e-13), (SHIFT, (1, 2), 1e-12),
                           (SCALE, (2, 3), 1e-12)):
        matrix, _ = gram_matrix(build_transformed_system(m), 4)
        assert abs(matrix[n][k]) < tol * math.sqrt(matrix[n][n] * matrix[k][k])


def test_gram_matrices_nearly_diagonal():
    for m in ALL_MAPS:
        system = build_transformed_system(m)
        matrix, worst = gram_matrix(system, 6)
        assert worst < 1e-11
        for n in range(6):
            assert matrix[n][n] > 0


def test_change_of_variables_consistency():
    # transformed integrals equal the exact inner products under 1 - t^2
    # each bound scales with the exact diagonal, as the In entry's does
    fam = build_r_family(5)
    exact = [[float(reference_inner_product(fam[n], fam[k])) for k in range(6)]
             for n in range(6)]
    for m in ALL_MAPS:
        matrix, _ = gram_matrix(build_transformed_system(m), 6)
        for n in range(6):
            for k in range(n, 6):
                scale = math.sqrt(exact[n][n] * exact[k][k])
                assert abs(matrix[n][k] - exact[n][k]) < 1e-11 * scale


def test_gram_matrix_at_size_17_matches_the_exact_inner_products():
    fam = build_r_family(16)
    exact = [[float(reference_inner_product(fam[i], fam[j])) for j in range(17)]
             for i in range(17)]
    for m in ALL_MAPS:
        matrix, worst = gram_matrix(build_transformed_system(m), 17)
        for i in range(17):
            for j in range(17):
                scale = math.sqrt(exact[i][i] * exact[j][j])
                assert abs(matrix[i][j] - exact[i][j]) <= 1e-13 * scale, (m, i, j)
        assert worst < 1e-13


@pytest.fixture(scope="module")
def exact_gram_65():
    fam = build_r_family(64)
    return [[float(reference_inner_product(fam[i], fam[j])) for j in range(65)]
            for i in range(65)]


@pytest.mark.parametrize("params", [
    (1, 0, 0, 1), (1, 1, 0, 1), (2, 0, 0, F(1, 2)), (2, 1, 1, 1), (3, 1, 2, 1),
    # a pole just left of the induced interval [-1/(1 + mu), 1/(1 - mu)]
    (1, 0, F(99, 100), 1), (1, 0, F(999, 1000), 1), (1, 0, F(999999, 1000000), 1),
], ids=lambda p: ",".join(map(str, p)))
def test_gram_matrix_at_size_65_matches_the_exact_inner_products(params, exact_gram_65):
    system = build_transformed_system(MoebiusMap(*params))
    matrix, worst = gram_matrix(system, 65)
    for i in range(65):
        for j in range(65):
            scale = math.sqrt(exact_gram_65[i][i] * exact_gram_65[j][j])
            assert abs(matrix[i][j] - exact_gram_65[i][j]) <= 1e-13 * scale, (i, j)
    assert worst < 1e-13
    assert minimality_check(matrix, 64)


def test_minimality_fails_for_a_member_that_is_not_minimal(monkeypatch):
    # shift r_2 by 1/2 r_0: the perturbation by -1/4 r_0 then lowers the objective
    true_values = moebius.legendre_values

    def shifted(n, x):
        v = true_values(n, x)
        v.d[3] += 3.75  # r_2 = P'_3 / lead(P'_3) with lead 15/2, and r_0 = P'_1 = 1
        return v

    monkeypatch.setattr(moebius, "legendre_values", shifted)
    system = build_transformed_system(SHIFT)
    matrix, _ = gram_matrix(system, 3)
    assert minimality_check(matrix, 2) is False
    # here G_20 = G_00 / 2 is far from 0, so the cross term 2 eps G_20 counts in full
    perturbed = moebius._perturbed(matrix, 2)
    direct = moebius._pulled_back(
        system, 2, lambda r, w: [(r[2] + eps * r[j]) ** 2 * w for j, eps, _ in perturbed])
    assert abs(matrix[2][0]) > 0.4 * matrix[0][0]
    assert all(abs(v - want) <= 1e-12 * want for (_, _, v), want in zip(perturbed, direct))
    monkeypatch.undo()
    assert minimality_check(_gram(SHIFT, 3), 2) is True


def _pulled_back_per_node(system, top, f):
    """The integrals of moebius._pulled_back with the map's Fractions converted to
    floats, and each monic scale and each carried node and weight computed, at each
    node of the order top + 2 rule: x = f^-1(t), weight w / (lam - mu t)^2."""
    m, rule = system.map, quad.gauss_legendre(top + 2)
    rows = []
    for t, w in zip(rule.nodes, rule.weights):
        den = float(m.lam) - float(m.mu) * t
        x = (float(m.beta) * t - float(m.alpha)) / den
        d = legendre_values(top + 1, (float(m.lam) * x + float(m.alpha))
                            / (float(m.mu) * x + float(m.beta))).d
        r = [d[n + 1] * 2 ** (n + 1) / ((n + 1) * math.comb(2 * n + 2, n + 1))
             for n in range(top + 1)]
        rows.append(f(r, system.weight.at_float(x) * w / (den * den)))
    return tuple(math.fsum(col) for col in zip(*rows))


def test_per_system_constants_leave_every_integral_bit_identical(monkeypatch):
    # the In entry's Gram matrices on the five reference maps; the minimality checks read
    # those matrices and run no rule of their own
    fast, pairs = moebius._pulled_back, []

    def both(system, top, f):
        got = fast(system, top, f)
        pairs.append((got, _pulled_back_per_node(system, top, f)))
        return got

    monkeypatch.setattr(moebius, "_pulled_back", both)
    for m in ALL_MAPS:
        matrix, _ = gram_matrix(build_transformed_system(m), 9)
        assert all(minimality_check(matrix, n) for n in range(1, 4))
    assert len(pairs) == 5
    for got, want in pairs:
        assert got == want


def _gram(m, size):
    return gram_matrix(build_transformed_system(m), size)[0]


def test_minimality():
    assert minimality_check(_gram(IDENTITY, 3), 2) is True
    assert minimality_check(_gram(SHIFT, 3), 2) is True
    assert minimality_check(_gram(SCALE, 4), 3) is True


def _reference_and_random_systems():
    """The five reference maps, then the first ten valid draws of the registry's random
    unit maps."""
    systems = [build_transformed_system(MoebiusMap(*params)) for params in TEST_MAPS]
    rng, drawn = random.Random("intlegendre:minimality"), []
    while len(drawn) < 10:
        try:
            drawn.append(build_transformed_system(_random_unit_map(rng)))
        except DegenerateMap:  # endpoints out of order or a pole inside the interval
            continue
    return systems + drawn


def test_perturbed_integrals_read_off_the_gram_matrix_equal_the_direct_rule():
    # a rule is linear: G_nn + 2 eps G_nj + eps^2 G_jj is the rule applied to (r_n + eps r_j)^2 W
    for system in _reference_and_random_systems():
        matrix, _ = gram_matrix(system, 9)
        for n in range(1, 9):
            perturbed = moebius._perturbed(matrix, n)
            assert [(j, eps) for j, eps, _ in perturbed] == [
                (j, eps) for j in range(n) for eps in (0.25, -0.25, 0.0625, -0.0625)]
            direct = _pulled_back_per_node(
                system, n, lambda r, w: [(r[n] + e * r[j]) ** 2 * w for j, e, _ in perturbed])
            for (j, eps, value), want in zip(perturbed, direct, strict=True):
                assert abs(value - want) <= 1e-12 * want, (system.map, n, j, eps)


def test_minimality_perturbation_grows_quadratically():
    # under the identity map the objective increase is exactly eps^2 |r_j|^2
    fam = build_r_family(4)
    base = float(reference_inner_product(fam[2], fam[2]))
    perturbed = fam[2] + fam[0].scale(F(1, 4))
    grown = float(reference_inner_product(perturbed, perturbed))
    expected = base + float(reference_inner_product(fam[0], fam[0])) / 16
    assert grown == pytest.approx(expected, rel=1e-12)


def test_map_refuses_a_float_point():
    assert GENERIC.at(F(1, 2)) == F(4, 3)
    with pytest.raises(TypeError, match="float"):
        GENERIC.at(0.5)


def test_map_pole():
    assert IDENTITY.pole is None
    assert GENERIC.pole == -1
    assert GENERIC.pole < induced_endpoints(GENERIC).a
