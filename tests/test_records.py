"""The public result records are immutable named tuples."""

import pytest

from intlegendre import moebius
from intlegendre.approx import brute_force_minimizer, expand, minimize_constrained
from intlegendre.kernel import kernel_sum
from intlegendre.legendre import legendre_special_values
from intlegendre.qfamily import build_q_table
from intlegendre.quad import gauss_legendre
from intlegendre.verify import run_verification

PUBLIC_RECORDS = {
    "LegendreSpecialValues", "KernelSection", "QuadratureRule",
    "BruteForceResult", "ExtremalSolution", "ExpansionReport",
    "MoebiusMap", "Endpoints", "RationalWeight", "TransformedSystem",
    "VerificationReport", "IdentityEntry",
}


@pytest.fixture(scope="module")
def records():
    qtable = build_q_table(6)
    m = moebius.MoebiusMap(2, 1, 1, 1)
    system = moebius.build_transformed_system(m)
    report = run_verification(4)
    return [
        legendre_special_values(3), kernel_sum(4, 0, qtable),
        gauss_legendre(4), brute_force_minimizer(4), minimize_constrained(4),
        expand(qtable[3], 4), m, moebius.induced_endpoints(m),
        moebius.induced_weight(m), system, report, report.entries[0],
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
