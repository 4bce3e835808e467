import math
import random
from fractions import Fraction as F

import pytest

from intlegendre import moebius, quad
from intlegendre.exactpoly import Poly, X
from intlegendre.legendre import build_legendre, legendre_values
from intlegendre.moebius import (
    DegenerateMap,
    MoebiusMap,
    build_r_family,
    build_transformed_system,
    gram_matrix,
    induced_endpoints,
    induced_weight,
    minimality_check,
    reference_inner_product,
    weight_identity_gap,
)
from intlegendre.qfamily import build_q_table

IDENTITY = MoebiusMap(1, 0, 0, 1)
SHIFT = MoebiusMap(1, 1, 0, 1)  # x + 1
SCALE = MoebiusMap(2, 0, 0, F(1, 2))  # 4x
GENERIC = MoebiusMap(2, 1, 1, 1)
GENERIC2 = MoebiusMap(3, 1, 2, 1)
ALL_MAPS = (IDENTITY, SHIFT, SCALE, GENERIC, GENERIC2)


def test_reference_family_values():
    fam = build_r_family(4)
    assert fam.poly(0) == Poly((1,))
    assert fam.poly(1) == X
    assert fam.poly(2) == Poly((F(-1, 5), 0, 1))
    assert fam.poly(3) == Poly((0, F(-3, 7), 0, 1))


def test_reference_family_orthogonal_and_monic():
    fam = build_r_family(8)
    for n in range(9):
        assert fam.poly(n).coeffs[-1] == 1
        assert fam.poly(n).degree == n
        for m in range(n):
            assert reference_inner_product(fam.poly(n), fam.poly(m)) == 0


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


def test_recurrence_family_matches_gram_schmidt():
    assert list(build_r_family(24).polys) == _gram_schmidt_family(24)
    assert build_r_family(0).polys == (Poly((1,)),)


def test_recurrence_family_monic_and_orthogonal_to_64():
    fam = build_r_family(64)
    weight = Poly((1, 0, -1))
    for k in range(65):
        assert fam.poly(k).degree == k
        assert fam.poly(k).coeff(k) == 1
        pair = (fam.poly(k) * weight).pairing(64)
        for m in range(k):
            assert pair(fam.poly(m)) == 0
        assert pair(fam.poly(k)) > 0


def test_recurrence_family_is_monic_interior_factor_of_q():
    fam = build_r_family(40)
    qtable = build_q_table(42)
    for k in range(41):
        interior = qtable.interior_factor(k + 2)
        assert fam.poly(k) == interior / interior.coeff(k)


def test_recurrence_cross_check_catches_a_bad_legendre_table(monkeypatch):
    def broken(depth):
        table = build_legendre(depth)
        polys = list(table.polys)
        polys[4] = polys[4] + X
        return table._replace(polys=tuple(polys))

    monkeypatch.setattr(moebius, "build_legendre", broken)
    with pytest.raises(AssertionError, match="degree 3"):
        build_r_family(6)


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
        matrix, _ = gram_matrix(build_transformed_system(m), 4, tol)
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
    fam = build_r_family(5)
    for m in ALL_MAPS:
        matrix, _ = gram_matrix(build_transformed_system(m), 6)
        for n in range(6):
            for k in range(n, 6):
                exact = float(reference_inner_product(fam.poly(n), fam.poly(k)))
                assert abs(matrix[n][k] - exact) < 1e-11


def test_gram_matrix_at_size_17_matches_the_exact_inner_products():
    fam = build_r_family(16)
    exact = [[float(reference_inner_product(fam.poly(i), fam.poly(j))) for j in range(17)]
             for i in range(17)]
    for m in ALL_MAPS:
        matrix, worst = gram_matrix(build_transformed_system(m), 17)
        for i in range(17):
            for j in range(17):
                scale = math.sqrt(exact[i][i] * exact[j][j])
                assert abs(matrix[i][j] - exact[i][j]) <= 1e-13 * scale, (m, i, j)
        assert worst < 1e-13


def test_minimality_fails_for_a_member_that_is_not_minimal(monkeypatch):
    # shift r_2 by 1/2 r_0: the perturbation by -1/4 r_0 then lowers the objective
    true_values = moebius.legendre_values

    def shifted(n, x):
        v = true_values(n, x)
        v.d[3] += 3.75  # r_2 = P'_3 / lead(P'_3) with lead 15/2, and r_0 = P'_1 = 1
        return v

    monkeypatch.setattr(moebius, "legendre_values", shifted)
    assert minimality_check(build_transformed_system(SHIFT), 2) is False
    monkeypatch.undo()
    assert minimality_check(build_transformed_system(SHIFT), 2) is True


def _pulled_back_per_node(system, top, f, tol):
    """The integrals of moebius._pulled_back with the map's Fractions
    converted to floats, and each monic scale computed, at each node."""
    m = system.map

    def at(x):
        t = (float(m.lam) * x + float(m.alpha)) / (float(m.mu) * x + float(m.beta))
        d = legendre_values(top + 1, t).d
        r = [d[n + 1] * 2 ** (n + 1) / ((n + 1) * math.comb(2 * n + 2, n + 1))
             for n in range(top + 1)]
        return f(r, system.weight.at_float(x))

    return quad.integrate(at, float(system.a), float(system.b), tol).value


def test_per_system_constants_leave_every_integral_bit_identical(monkeypatch):
    # the In entry's Gram matrices and minimality checks on the five reference maps
    fast, pairs = moebius._pulled_back, []

    def both(system, top, f, tol):
        got = fast(system, top, f, tol)
        pairs.append((got, _pulled_back_per_node(system, top, f, tol)))
        return got

    monkeypatch.setattr(moebius, "_pulled_back", both)
    for m in ALL_MAPS:
        system = build_transformed_system(m)
        gram_matrix(system, 9, 1e-11)
        assert all(minimality_check(system, n) for n in range(1, 4))
    assert len(pairs) == 20
    for got, want in pairs:
        assert got == want


def test_minimality():
    assert minimality_check(build_transformed_system(IDENTITY), 2) is True
    assert minimality_check(build_transformed_system(SHIFT), 2) is True
    assert minimality_check(build_transformed_system(SCALE), 3) is True


def test_minimality_perturbation_grows_quadratically():
    # under the identity map the objective increase is exactly eps^2 |r_j|^2
    fam = build_r_family(4)
    base = float(reference_inner_product(fam.poly(2), fam.poly(2)))
    perturbed = fam.poly(2) + fam.poly(0).scale(F(1, 4))
    grown = float(reference_inner_product(perturbed, perturbed))
    expected = base + float(reference_inner_product(fam.poly(0), fam.poly(0))) / 16
    assert grown == pytest.approx(expected, rel=1e-12)


def test_map_pole():
    assert IDENTITY.pole is None
    assert GENERIC.pole == -1
    assert GENERIC.pole < induced_endpoints(GENERIC).a
