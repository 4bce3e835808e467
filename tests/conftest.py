import pytest

from intlegendre.legendre import build_legendre
from intlegendre.qfamily import build_q_table


@pytest.fixture(scope="session")
def ltable():
    # depth 41 so that checks needing one neighbour above degree 40 work
    return build_legendre(41)


@pytest.fixture(scope="session")
def qtable(ltable):
    return build_q_table(41, ltable)


@pytest.fixture(scope="session")
def expected_non_confirmed():
    """Entries whose stated form holds only after a recorded correction (README table)."""
    return frozenset({"CDS11-prefactor", "Knn00", "Qnatzero", "Valuem-odd-terms", "akk",
                      "anex-sign", "endpoints-§4"})
