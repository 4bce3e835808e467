"""The public result records are immutable named tuples."""

import pytest

from intlegendre import moebius
from intlegendre.approx import brute_force_minimizer, expand, minimize_constrained
from intlegendre.kernel import kernel_sum
from intlegendre.legendre import build_legendre, legendre_special_values
from intlegendre.qfamily import build_q_table
from intlegendre.quad import gauss_legendre, integrate
from intlegendre.verify import run_verification

PUBLIC_RECORDS = {
    "LegendreTable", "LegendreSpecialValues", "QTable", "KernelSection", "QuadratureRule",
    "IntegrationResult", "BruteForceResult", "ExtremalSolution", "ExpansionReport",
    "MoebiusMap", "Endpoints", "RationalWeight", "RFamily", "TransformedSystem",
    "VerificationReport", "IdentityEntry",
}


@pytest.fixture(scope="module")
def records():
    qtable = build_q_table(6)
    m = moebius.MoebiusMap(2, 1, 1, 1)
    system = moebius.build_transformed_system(m)
    report = run_verification(4)
    return [
        build_legendre(4), legendre_special_values(3), qtable, kernel_sum(4, 0, qtable),
        gauss_legendre(4), integrate(lambda x: (x * x,), -1.0, 1.0),
        brute_force_minimizer(4, qtable), minimize_constrained(4, qtable),
        expand(qtable.q(3), 4, qtable), m, moebius.induced_endpoints(m),
        moebius.induced_weight(m), moebius.build_r_family(4), system, report, report.entries[0],
    ]


def test_every_public_record_is_covered(records):
    assert {type(r).__name__ for r in records} == PUBLIC_RECORDS


def test_fields_cannot_be_assigned(records):
    for record in records:
        assert not hasattr(record, "__dict__")  # slotted, so no attribute can be added either
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_records_behave_as_tuples(records):
    for record in records:
        assert len(record) == len(record._fields)
        assert record == tuple(record) == tuple(record._asdict().values())
        assert record._replace() == record
        assert type(record._replace()) is type(record)
