import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre.exactpoly import Poly, X
from intlegendre.kernel import (
    InadmissibleFunction,
    cd_correction_factor,
    kernel_at_zero_closed_form,
    kernel_cd,
    kernel_confluent,
    kernel_sections,
    kernel_sequence_orthogonality,
    kernel_sum,
    kernel_value,
    kernel_values,
    reproducing_check,
)
from intlegendre.qfamily import build_q_table
from intlegendre.verdict import Verdict


def test_section_small_cases(qtable):
    s2 = kernel_sum(2, 0, qtable)
    assert s2.poly == Poly((F(3, 4), 0, F(-3, 4)))
    assert s2.value_at_y == F(3, 4)
    # the odd member vanishes at 0, so the next section coincides
    s3 = kernel_sum(3, 0, qtable)
    assert s3.poly == s2.poly
    assert kernel_sum(4, 0, qtable).value_at_y == F(45, 32)


def test_cd_examples(qtable):
    r2 = kernel_cd(2, F(1, 2), 0, qtable)
    assert r2.corrected_value == F(9, 16)
    assert r2.oracle_value == F(9, 16)
    assert r2.verdict is Verdict.CONFIRMED  # bare prefactor happens to work at n=2
    r3 = kernel_cd(3, F(1, 2), 0, qtable)
    assert r3.stated_value == F(45, 64)
    assert r3.corrected_value == F(9, 16)
    assert r3.verdict is Verdict.CORRECTED_FACTOR
    with pytest.raises(ValueError):
        kernel_cd(2, F(1, 2), F(1, 2), qtable)


def test_correction_factor(qtable):
    for n in range(2, 21):
        assert cd_correction_factor(n, qtable) == F(n + 1, 2 * n - 1)


def test_confluent_examples(qtable):
    assert kernel_confluent(2, 0, qtable).corrected_value == F(3, 4)
    assert kernel_confluent(4, 0, qtable).corrected_value == F(45, 32)
    r3 = kernel_confluent(3, 0, qtable)
    assert r3.corrected_value == r3.oracle_value == F(3, 4)
    assert r3.stated_value == F(15, 16)
    assert r3.verdict is Verdict.CORRECTED_FACTOR


def test_confluent_is_limit_of_cd(qtable):
    # corrected diagonal value matches the off-diagonal form at x +- 1e-6
    for n in (2, 3, 5, 8):
        x = F(1, 3)
        diag = float(kernel_confluent(n, x, qtable).corrected_value)
        for eps in (F(1, 10**6), -F(1, 10**6)):
            off = float(kernel_cd(n, x + eps, x, qtable).corrected_value)
            assert off == pytest.approx(diag, abs=1e-6)


def test_kernel_zero_closed_form(qtable):
    z2 = kernel_at_zero_closed_form(2, qtable)
    assert (z2.oracle, z2.stated) == (F(3, 4), F(-3, 4))
    z3 = kernel_at_zero_closed_form(3, qtable)
    assert (z3.oracle, z3.stated) == (F(3, 4), F(-15, 16))
    assert z3.verdict is Verdict.CORRECTED_FACTOR
    assert kernel_at_zero_closed_form(4, qtable).oracle == F(45, 32)
    for n in range(2, 17):
        z = kernel_at_zero_closed_form(n, qtable)
        assert z.factor == F(-(n + 1), 2 * n - 1)


def test_reproducing_property(qtable):
    assert reproducing_check(4, qtable.q(2), qtable) is Verdict.CONFIRMED
    combo = qtable.q(3) * 5 - qtable.q(4) * 2
    assert reproducing_check(4, combo, qtable) is Verdict.CONFIRMED
    with pytest.raises(InadmissibleFunction):
        reproducing_check(4, Poly((1,)), qtable)
    with pytest.raises(InadmissibleFunction):
        reproducing_check(4, qtable.q(5), qtable)  # degree above the kernel index
    with pytest.raises(InadmissibleFunction):
        reproducing_check(4, X * X - X, qtable)  # vanishes at one endpoint only


def test_reproducing_zero_function(qtable):
    assert reproducing_check(4, Poly(), qtable) is Verdict.CONFIRMED


def test_section_times_x_is_admissible(qtable):
    # multiplying a section at 0 by x stays inside the span one degree up,
    # which is what makes the section-sequence orthogonality work
    for n in (2, 3, 4, 6):
        section = kernel_sum(n, 0, qtable).poly
        assert reproducing_check(n + 1, X * section, qtable) is Verdict.CONFIRMED


def test_sequence_orthogonality(qtable):
    assert kernel_sequence_orthogonality(2, 4, qtable) == 0
    assert kernel_sequence_orthogonality(2, 3, qtable) == 0
    assert kernel_sequence_orthogonality(4, 6, qtable) == 0
    # the diagonal vanishes too: sections at 0 are even, the weight is odd
    assert kernel_sequence_orthogonality(5, 5, qtable) == 0


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
    q, norm = qtable.q, qtable.norm_sq
    for _ in range(6):
        x, y = _rational(rng), _rational(rng)
        values = kernel_values(20, x, y, qtable)
        diagonal = kernel_values(20, y, y, qtable)
        sections = {s.n: s for s in kernel_sections(20, y, qtable)}
        assert values[:2] == [None, None] and list(sections) == list(range(2, 21))
        for n in range(2, 21):
            direct = sum((q(k).at(x) * q(k).at(y) / norm(k) for k in range(2, n + 1)), F(0))
            assert values[n] == direct == kernel_value(n, x, y, qtable)
            poly = Poly()
            for k in range(2, n + 1):
                poly = poly + q(k) * (q(k).at(y) / norm(k))
            s = sections[n]
            assert (s.n, s.y, s.poly) == (n, y, poly)
            assert s.value_at_y == poly.at(y) == diagonal[n]
            assert s.poly.at(x) == values[n]
            assert kernel_sum(n, y, qtable) == s


def test_oracles_handed_in_are_used(qtable):
    # the comparison reads a supplied oracle instead of summing its own
    x, y = F(1, 2), F(0)
    assert kernel_cd(3, x, y, qtable, F(7)).oracle_value == F(7)
    assert kernel_confluent(3, x, qtable, F(7)).oracle_value == F(7)
    assert kernel_at_zero_closed_form(3, qtable, F(7)).oracle == F(7)
    sections = {s.n: s for s in kernel_sections(6, 0, qtable)}
    assert kernel_sequence_orthogonality(2, 6, qtable, sections) == 0
    with pytest.raises(ValueError):
        kernel_sequence_orthogonality(1, 4, qtable)
    with pytest.raises(ValueError):
        kernel_values(1, x, y, qtable)
