import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import approx
from intlegendre.exactpoly import Poly, X
from intlegendre.kernel import (
    kernel_forms,
    kernel_sections,
    kernel_sum,
    kernel_value,
    kernel_zero_stated,
)
from intlegendre.qfamily import (
    X2_MINUS_1,
    build_q_table,
    q_norm_sq,
    q_series,
    weighted_inner_product,
)


def test_section_small_cases(qtable):
    s2 = kernel_sum(2, 0, qtable)
    assert s2.poly == Poly((F(3, 4), 0, F(-3, 4)))
    assert s2.value_at_y == F(3, 4)
    # the odd member vanishes at 0, so the next section coincides
    s3 = kernel_sum(3, 0, qtable)
    assert s3.poly == s2.poly
    assert kernel_sum(4, 0, qtable).value_at_y == F(45, 32)


def _ratio(n, qtable):
    """The leading-coefficient ratio lead_n/lead_{n+1} the stated prefactor misses."""
    return qtable[n].coeff(n) / qtable[n + 1].coeff(n + 1)


def _stated(n, x, y, qtable):
    """The stated form of index n: two-term for x != y, confluent for x == y."""
    return kernel_forms(n, x, y, qtable)[1][n]


def test_cd_examples(qtable):
    # the bare prefactor happens to work at n=2, where the ratio is 1
    assert _stated(2, F(1, 2), 0, qtable) == F(9, 16) == kernel_value(2, F(1, 2), 0, qtable)
    assert _ratio(2, qtable) == 1
    r3 = _stated(3, F(1, 2), 0, qtable)
    assert r3 == F(45, 64)
    assert r3 * _ratio(3, qtable) == F(9, 16) == kernel_value(3, F(1, 2), 0, qtable)
    assert r3 != kernel_value(3, F(1, 2), 0, qtable)


def test_correction_factor(qtable):
    for n in range(2, 21):
        assert _ratio(n, qtable) == F(n + 1, 2 * n - 1)


def test_confluent_examples(qtable):
    assert _stated(2, 0, 0, qtable) * _ratio(2, qtable) == F(3, 4)
    assert _stated(4, 0, 0, qtable) * _ratio(4, qtable) == F(45, 32)
    r3 = _stated(3, 0, 0, qtable)
    assert r3 * _ratio(3, qtable) == kernel_value(3, 0, 0, qtable) == F(3, 4)
    assert r3 == F(15, 16)
    assert r3 != kernel_value(3, 0, 0, qtable)


def test_confluent_is_limit_of_cd(qtable):
    # the diagonal value matches the off-diagonal form at x +- 1e-6
    for n in (2, 3, 5, 8):
        x = F(1, 3)
        diag = float(_stated(n, x, x, qtable) * _ratio(n, qtable))
        for eps in (F(1, 10**6), -F(1, 10**6)):
            off = float(_stated(n, x + eps, x, qtable) * _ratio(n, qtable))
            assert off == pytest.approx(diag, abs=1e-6)


def test_forms_equal_the_per_index_forms_and_the_running_sums(qtable):
    # the two-term and confluent forms written out from member values, per n, next to the
    # running sums of the same pass, which meet the section at y evaluated at x
    q = qtable
    for x, y in ((F(1, 3), F(-2, 5)), (F(-7, 8), F(1, 2)), (F(2, 7), F(2, 7)), (F(0), F(0))):
        sums, values = kernel_forms(20, x, y, qtable)
        assert values[:2] == sums[:2] == [None, None]
        assert sums[2:] == [kernel_value(n, x, y, qtable) for n in range(2, 21)]
        for n in range(2, 21):
            if x != y:
                want = (q[n + 1].at(x) * q[n].at(y) - q[n + 1].at(y) * q[n].at(x)) / (x - y)
            else:
                want = q[n + 1].deriv().at(x) * q[n].at(x) - q[n + 1].at(x) * q[n].deriv().at(x)
            assert values[n] == want / q_norm_sq(n), (x, y, n)


def test_kernel_zero_closed_form(qtable):
    assert (kernel_value(2, 0, 0, qtable), kernel_zero_stated(2)) == (F(3, 4), F(-3, 4))
    assert (kernel_value(3, 0, 0, qtable), kernel_zero_stated(3)) == (F(3, 4), F(-15, 16))
    assert kernel_value(4, 0, 0, qtable) == F(45, 32)
    for n in range(2, 17):
        assert kernel_value(n, 0, 0, qtable) / kernel_zero_stated(n) == F(-(n + 1), 2 * n - 1)


def _reproduced(n, g, qtable):
    """The kernel of index n applied to g: its expansion over members 2..n, summed back."""
    return q_series(approx.fourier_coeffs(g, n), qtable)


def test_reproducing_property(qtable):
    assert _reproduced(4, qtable[2], qtable) == qtable[2]
    combo = qtable[3] * 5 - qtable[4] * 2
    assert _reproduced(4, combo, qtable) == combo
    # outside the span: a degree above the kernel index, a constant, and a
    # polynomial that vanishes at one endpoint only
    for g in (qtable[5], Poly((1,)), X * X - X):
        assert _reproduced(4, g, qtable) != g


def test_reproducing_zero_function(qtable):
    assert _reproduced(4, Poly(), qtable) == Poly()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.lists(st.fractions(max_denominator=9), min_size=11, max_size=11))
def test_span_elements_come_back_exactly(n, cofactor):
    # every (x^2 - 1) r with deg r <= n - 2 lies in the span of members 2..n
    g = X2_MINUS_1 * Poly(cofactor[: n - 1])
    assert _reproduced(n, g, _QT12) == g


def test_section_times_x_is_admissible(qtable):
    # multiplying a section at 0 by x stays inside the span one degree up,
    # which is what makes the section-sequence orthogonality work
    for n in (2, 3, 4, 6):
        section = kernel_sum(n, 0, qtable).poly
        assert _reproduced(n + 1, X * section, qtable) == X * section


def test_sequence_orthogonality(qtable):
    # integral of K_n(x,0) K_m(x,0) x/(1-x^2) over [-1, 1]
    s = {k.n: k.poly for k in kernel_sections(6, 0, qtable)}
    assert weighted_inner_product(s[2] * X, s[4]) == 0
    assert weighted_inner_product(s[2] * X, s[3]) == 0
    assert weighted_inner_product(s[4] * X, s[6]) == 0
    # the diagonal vanishes too: sections at 0 are even, the weight is odd
    assert weighted_inner_product(s[5] * X, s[5]) == 0


def test_sections_vanish_at_endpoints(qtable):
    for n in (2, 5, 9):
        p = kernel_sum(n, F(1, 3), qtable).poly
        assert p.at(1) == 0 and p.at(-1) == 0


points = st.fractions(min_value=-1, max_value=1, max_denominator=8)
_QT12 = build_q_table(12)


@settings(max_examples=30, deadline=None)
@given(points, points, st.integers(min_value=2, max_value=12))
def test_kernel_symmetry(x, y, n):
    assert kernel_value(n, x, y, _QT12) == kernel_value(n, y, x, _QT12)


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def test_running_sums_equal_the_direct_sums(qtable):
    """Every running K_n and section equals sum_{k=2..n} Q_k(x) Q_k(y)/norm_k
    summed from scratch, for n = 2..20."""
    rng = random.Random(20)
    q, norm = qtable, q_norm_sq
    for _ in range(6):
        x, y = _rational(rng), _rational(rng)
        values = kernel_forms(20, x, y, qtable)[0]
        diagonal = kernel_forms(20, y, y, qtable)[0]
        sections = {s.n: s for s in kernel_sections(20, y, qtable)}
        assert values[:2] == [None, None] and list(sections) == list(range(2, 21))
        for n in range(2, 21):
            direct = sum((q[k].at(x) * q[k].at(y) / norm(k) for k in range(2, n + 1)), F(0))
            assert values[n] == direct == kernel_value(n, x, y, qtable)
            poly = Poly()
            for k in range(2, n + 1):
                poly = poly + q[k] * (q[k].at(y) / norm(k))
            s = sections[n]
            assert (s.n, s.y, s.poly) == (n, y, poly)
            assert s.value_at_y == poly.at(y) == diagonal[n]
            assert s.poly.at(x) == values[n]
            assert kernel_sum(n, y, qtable) == s


def test_points_refuse_floats(qtable):
    # exact entry points never round a float silently, as Poly.at does not
    for call in (lambda: list(kernel_sections(3, 0.1, qtable)), lambda: kernel_sum(3, 0.1, qtable),
                 lambda: kernel_forms(3, 0.1, 0, qtable), lambda: kernel_forms(3, 0, 0.1, qtable),
                 lambda: kernel_value(3, 0.1, 0, qtable),
                 lambda: kernel_forms(3, 0.1, 0.1, qtable)):
        with pytest.raises(TypeError, match="float"):
            call()


def test_oracles_handed_in_are_used(qtable):
    # the closed forms take no oracle; the running sums still start at index 2
    for call in (kernel_value, kernel_forms):
        with pytest.raises(ValueError):
            call(1, F(1, 2), 0, qtable)
