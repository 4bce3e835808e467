from fractions import Fraction as F

import pytest

from intlegendre import legendre
from intlegendre.exactpoly import Poly, X
from intlegendre.legendre import build_legendre
from intlegendre.qfamily import build_q_table

REFERENCE_DEPTH = 128


@pytest.fixture(scope="session")
def ltable():
    # depth 41 so that checks needing one neighbour above degree 40 work
    return build_legendre(41)


@pytest.fixture(scope="session")
def q_and_i():
    return build_q_table(41)


@pytest.fixture(scope="session")
def qtable(q_and_i):
    """Q_0..Q_41 indexed by degree, slots 0 and 1 None."""
    return q_and_i[0]


@pytest.fixture(scope="session")
def itable(q_and_i):
    """The interior factors i_n of Q_n = (x^2-1) i_n, indexed as qtable."""
    return q_and_i[1]


@pytest.fixture(scope="session")
def reference_legendre():
    """P_0..P_128 by the three-term recurrence on Poly arithmetic, rational step by
    rational step: a route that shares nothing with the package's constructors."""
    polys = [Poly((1,)), X]
    for n in range(1, REFERENCE_DEPTH):
        polys.append((X * polys[n]).scale(F(2 * n + 1, n + 1)) - polys[n - 1].scale(F(n, n + 1)))
    return tuple(polys)


@pytest.fixture
def row_fault(monkeypatch):
    """inject(kind) plants one fault in every equation row legendre solves, the P_n rows and
    the one derivative row Q and r share: "lead" adds 1 to each lead, "scale" doubles it, and
    "numerator" adds 1 to the first numerator a division gives."""

    def inject(kind):
        if kind == "numerator":
            quotients = []

            def perturbed(a, b):
                q, r = divmod(a, b)
                quotients.append(q)
                return q + (len(quotients) == 1), r

            monkeypatch.setattr(legendre, "divmod", perturbed, raising=False)
        else:
            change = {"lead": lambda c: c + 1, "scale": lambda c: 2 * c}[kind]
            row = legendre._equation_row
            monkeypatch.setattr(legendre, "_equation_row",
                                lambda n, e, lead: row(n, e, change(lead)))

    return inject


@pytest.fixture(scope="session")
def expected_non_confirmed():
    """Entries whose stated form holds only after a recorded correction (README table)."""
    return frozenset({"CDS11-prefactor", "Knn00", "Qnatzero", "Valuem-odd-terms", "akk",
                      "anex-sign", "endpoints-§4"})
