import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import moebius, verify
from intlegendre.exactpoly import Poly, X
from intlegendre.legendre import build_legendre
from intlegendre.qfamily import X2_MINUS_1, build_q_table, weighted_inner_product
from intlegendre.verdict import Verdict
from intlegendre.verify import (
    IdentityEntry,
    _Ctx,
    _REGISTRY,
    _run,
    _w,
    identity,
    run_verification,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def report():
    return run_verification(8)


def test_registry_size_and_uniqueness(report):
    ids = [e.identity_id for e in report.entries]
    assert len(ids) == len(set(ids))
    assert len(ids) == 34


def test_entries_sorted(report):
    ids = [e.identity_id for e in report.entries]
    assert ids == sorted(ids)


def test_no_failures(report):
    assert report.failed_ids == []


def test_non_confirmed_set_is_exact(report, expected_non_confirmed):
    assert set(report.non_confirmed_ids) == expected_non_confirmed


def test_non_confirmed_entries_carry_witnesses(report):
    for entry in report.entries:
        if entry.verdict is not Verdict.CONFIRMED:
            assert entry.witness, entry.identity_id


def test_known_witnesses(report):
    by_id = {e.identity_id: e for e in report.entries}
    qn = by_id["Qnatzero"]
    assert qn.verdict is Verdict.CONFIRMED_UP_TO_SIGN
    assert qn.witness == {"n": 2, "oracle_value": "-1/2", "stated_value": "1/2"}
    cd = by_id["CDS11-prefactor"]
    assert cd.verdict is Verdict.CORRECTED_FACTOR
    assert cd.witness["n"] == 3
    assert "4/5" in cd.witness["factor"]
    vm = by_id["Valuem-odd-terms"]
    assert vm.witness["j"] == 3
    assert vm.witness["stated_value"] == "5/3"
    akk = by_id["akk"]
    assert akk.witness["n"] == 2
    assert akk.witness["fourier_coefficient"] == "-1"
    assert akk.witness["oracle_value"] == "2"
    ep = by_id["endpoints-§4"]
    assert ep.witness["inputs"]["map"] == ["1", "1", "0", "1"]
    assert ep.witness["oracle_value"] == "-2"
    assert ep.witness["stated_value"] == "0"
    knn = by_id["Knn00"]
    assert knn.witness["factor"] == "-(n+1)/(2n-1)"
    assert set(knn.witness["per_parity"]) == {"even", "odd"}


def test_json_roundtrip_idempotent(report):
    text = report.to_json()
    parsed = json.loads(text)
    assert parsed["schema"] == 1
    assert parsed["max_degree"] == 8
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text


def test_runs_are_deterministic():
    a = run_verification(4)
    b = run_verification(4)
    assert a.to_json() == b.to_json()


def test_depth_bounds():
    with pytest.raises(ValueError):
        run_verification(3)
    with pytest.raises(ValueError):
        run_verification(65)


def test_uncapped_entries_follow_the_run_depth():
    # an entry without a cap checks every degree of the run, whatever MAX_DEGREE was
    # when it registered; a capped entry stops at its cap
    ctx = _Ctx(70, build_legendre(71), *build_q_table(71))
    assert _run("Qqn1", ctx).degrees_checked == "2..70"
    assert _run("Second", ctx).degrees_checked == "2..20"


def test_registering_a_used_id_raises():
    before = dict(_REGISTRY)
    with pytest.raises(ValueError, match="orthLn"):
        identity("orthLn", "another check under a used id", "0..{top}")(lambda ctx, top: None)
    assert _REGISTRY == before


def test_entry_serialization():
    entry = IdentityEntry("id", "desc", "2..4", Verdict.CONFIRMED)
    assert entry.to_dict()["witness"] is None
    assert entry.to_dict()["verdict"] == "CONFIRMED"


@pytest.mark.parametrize("depth", [4, 40, 64])
def test_report_matches_golden(depth):
    # goldens were written by the all-pairs Fraction implementation
    golden = (GOLDEN / f"verify_{depth}.json").read_text()
    assert run_verification(depth).to_json() == golden


def _perturbed_ctx(depth, k, j, c):
    """Context whose degree-k members get c*(x^2-1)*x^j (Q) and c*x^j (L) added.

    j <= k - 2 keeps each member's degree; j >= k - 1 raises the degree of Q_k
    (and, for j > k, of P_k) above its index. With j None each degree-k member
    gets c times itself added, which scales it by 1 + c.
    """
    lpolys = list(build_legendre(depth + 1))
    polys, interior = map(list, build_q_table(depth + 1))
    if j is None:
        lpolys[k], polys[k], interior[k] = (p * (1 + c) for p in (lpolys[k], polys[k],
                                                                   interior[k]))
    else:
        bump = X**j * c
        lpolys[k] = lpolys[k] + bump
        polys[k] = polys[k] + X2_MINUS_1 * bump
        interior[k] = interior[k] + bump
    return _Ctx(depth, tuple(lpolys), tuple(polys), tuple(interior))


def _first_pairwise_failure(ctx):
    """(orthLn, OrthQn, NormQn) witnesses from the pairwise product path; None
    for an entry that holds."""
    top, lt, qt = ctx.max_degree, ctx.ltable, ctx.qtable
    orthln = next((
        {"n": n, "inputs": {"m": m}, "oracle_value": _w(got), "stated_value": _w(want)}
        for n in range(top + 1) for m in range(n, top + 1)
        for got, want in [((lt[n] * lt[m]).integral(-1, 1),
                           Fraction(2, 2 * n + 1) if n == m else Fraction(0))]
        if got != want
    ), None)
    orthqn = next((
        {"n": n, "inputs": {"m": m}, "oracle_value": _w(got), "stated_value": "0"}
        for n in range(2, top + 1) for m in range(n + 1, top + 1)
        for got in [weighted_inner_product(qt[n], qt[m])]
        if got != 0
    ), None)
    normqn = next((
        {"n": n, "oracle_value": _w(got), "stated_value": _w(want)}
        for n in range(2, top + 1)
        for got, want in [(weighted_inner_product(qt[n], qt[n]),
                           Fraction(2, n * (n - 1) * (2 * n - 1)))]
        if got != want
    ), None)
    return orthln, orthqn, normqn


# The depth is 12, or k above that. The differential-equation certificates of
# orthLn, OrthQn and NormQn hand every failure to the scan: (12, 11) breaks
# P_12's parity, (12, 13) its degree, (64, 62) the top member's equation, and
# the scaled P_6 (j None) still solves its equation and fails only orthLn's
# norm; the scaled Q_6 is still orthogonal, so OrthQn holds there.
@pytest.mark.parametrize("k, j, c", [(7, 3, Fraction(1, 5)), (10, 0, Fraction(-3, 7)),
                                     (12, 10, Fraction(2, 9)), (12, 11, Fraction(1)),
                                     (12, 13, Fraction(1, 3)), (6, None, Fraction(1)),
                                     (64, 62, Fraction(-1, 3))])
def test_contracted_checks_report_the_pairwise_witness(k, j, c):
    ctx = _perturbed_ctx(max(12, k), k, j, c)
    want = _first_pairwise_failure(ctx)
    for identity_id, expected in zip(("orthLn", "OrthQn", "NormQn"), want):
        entry = _run(identity_id, ctx)
        if expected is None:
            assert entry.verdict is Verdict.CONFIRMED, entry.identity_id
        else:
            assert entry.verdict is Verdict.FAILED, entry.identity_id
            assert entry.witness == expected, entry.identity_id
    if j is None:
        assert want[0]["n"] == want[0]["inputs"]["m"] == k and want[1] is None


_FAULTS = st.integers(2, 16).flatmap(lambda k: st.tuples(
    st.just(k), st.none() | st.integers(0, k + 1),
    st.fractions(-2, 2, max_denominator=9).filter(bool)))


@settings(max_examples=100, deadline=None)
@given(_FAULTS)
def test_certified_checks_agree_with_the_pair_scan(fault):
    # a certificate that passed a broken member would report CONFIRMED here
    k, j, c = fault
    ctx = _perturbed_ctx(max(12, k), k, j, c)
    for identity_id, expected in zip(("orthLn", "OrthQn", "NormQn"),
                                     _first_pairwise_failure(ctx)):
        entry = _run(identity_id, ctx)
        assert entry.verdict is (Verdict.CONFIRMED if expected is None else Verdict.FAILED)
        assert entry.witness == expected, identity_id


@pytest.mark.parametrize("depth", [64, 256])
def test_orthogonality_is_certified_without_the_scan(monkeypatch, depth):
    def scan(self, max_degree):
        raise AssertionError("the pair scan ran")

    ctx = _Ctx(depth, build_legendre(depth + 1), *build_q_table(depth + 1))
    monkeypatch.setattr(Poly, "pairing", scan)
    for identity_id in ("orthLn", "OrthQn", "NormQn"):
        description, degrees, _, check = _REGISTRY[identity_id]
        monkeypatch.setitem(_REGISTRY, identity_id, (description, degrees, depth, check))
        entry = _run(identity_id, ctx)
        assert entry.verdict is Verdict.CONFIRMED, identity_id
        assert entry.degrees_checked.endswith(f"..{depth}")


def test_orthqn_checks_the_interior_factor_degrees():
    # i_5 raised to degree 11 with every Q_n intact: each member's moments still
    # vanish, so only the interior factors' degree check sends OrthQn to the scan
    ltable = build_legendre(15)
    qtable, itable = build_q_table(15)
    interior = list(itable)
    interior[5] = interior[5] + X**11
    ctx = _Ctx(14, ltable, qtable, tuple(interior))
    got = -(interior[5] * qtable[7]).integral(-1, 1)
    assert got != 0
    entry = _run("OrthQn", ctx)
    assert entry.verdict is Verdict.FAILED
    assert entry.witness == {"n": 5, "inputs": {"m": 7}, "oracle_value": _w(got),
                             "stated_value": "0"}


def test_prefactor_reads_the_leading_coefficient_of_a_member_that_lost_its_degree():
    # Q_6 without its x^6 term has degree 4: CDS11-prefactor fails at n = 5 on the
    # ratio of the leading coefficients actually present, and never divides by zero
    qtable, itable = map(list, build_q_table(13))
    qtable[6] = qtable[6] - Poly.monomial(6).scale(qtable[6].coeff(6))
    ctx = _Ctx(12, build_legendre(13), tuple(qtable), tuple(itable))
    entry = _run("CDS11-prefactor", ctx)
    assert entry.verdict is Verdict.FAILED
    assert entry.witness == {"n": 5, "oracle_value": _w(qtable[5].coeff(5) / qtable[6].coeff(4))}


_L_IDS = {"DifLn", "Lnat1", "Qqn", "expp", "orthLn"}
_Q_IDS = {"CDS11-prefactor", "Diff2", "Diff3", "FourierQ", "NormQn", "OrthQn", "Pipcirs2",
          "Pipcirs3", "Qnderiv1", "Qqn", "Reprkernel", "Rodrigues", "anex-sign"}


# Witnesses of the kernel entries under the Q7 fault, as the from-scratch
# kernel sums (one full sum per n and point) reported them: the running sums
# must fail at the same first n and point with the same values.
_Q7_KERNEL_WITNESSES = {
    "CDS11-prefactor": {"n": 6, "inputs": {"x": "-5/7", "y": "-1/4"},
                        "oracle_value": "33116175/275365888",
                        "stated_value": "7807513725/1927561216"},
    "KernelSeqOrth": {"n": 6, "inputs": {"m": 7}, "oracle_value": "-45/16",
                      "stated_value": "0"},
    "Kernelf": {"n": 7, "oracle_value": "1 - 7*x^2 + 63/5*x^4 - 33/5*x^6",
                "stated_value": "1 - 21840/31177*x - 38527/31177*x^2 + 152880/31177*x^3"
                                " + 15435/31177*x^4 - 275184/31177*x^5 - 8085/31177*x^6"
                                " + 144144/31177*x^7"},
    "Knn00": {"n": 7, "oracle_value": "93531/1792", "stated_value": "-6825/2048"},
    "Valuem-odd-terms": {"n": 7, "oracle_value": "93531/1792", "stated_value": "525/256"},
}


@pytest.mark.parametrize("family, k, j, c, failed, witnesses", [
    # the difference form (P_6 - P_4)/11 misses Q_6 before P_6's antiderivative misses Q_7
    ("L", 6, 0, Fraction(1, 5), _L_IDS | {"L2nat0", "Lnat0"}, {"Qqn": {"n": 6}}),
    ("L", 7, 1, Fraction(1, 5), _L_IDS | {"DeriLnat0", "Lnderivat0"}, {}),
    ("Q", 7, 0, Fraction(-3, 7), _Q_IDS | {"KernelSeqOrth", "Kernelf", "Kernelm", "Knn00",
                                           "Qnatzero", "Valuem-odd-terms"},
     _Q7_KERNEL_WITNESSES),
    ("Q", 8, 2, Fraction(2, 9), _Q_IDS | {"Kernelf"}, {}),
], ids=["P6", "P7", "Q7", "Q8"])
def test_registry_fault_injection(monkeypatch, family, k, j, c, failed, witnesses):
    """One wrong member of one family fails exactly the entries that read it.

    The goldens pin only the passing path; this pins the failing one, so a
    check that stopped looking at its table would show here.
    """
    clean = run_verification(12)
    bad = _perturbed_ctx(12, k, j, c)
    ltable = bad.ltable if family == "L" else build_legendre(13)
    qtable = (bad.qtable, bad.itable) if family == "Q" else build_q_table(13)
    monkeypatch.setattr(verify, "build_legendre", lambda n: ltable)
    monkeypatch.setattr(verify, "build_q_table", lambda n: qtable)
    report = run_verification(12)
    assert set(report.failed_ids) == failed
    assert len(report.entries) == len(clean.entries)
    for entry, ref in zip(report.entries, clean.entries):
        assert (entry.identity_id, entry.description, entry.degrees_checked) == \
            (ref.identity_id, ref.description, ref.degrees_checked)
        if entry.verdict is Verdict.FAILED:
            assert entry.witness, entry.identity_id
        else:
            assert entry == ref, entry.identity_id
    by_id = {e.identity_id: e for e in report.entries}
    for identity_id, witness in witnesses.items():
        assert by_id[identity_id].witness == witness, identity_id


_CORRECTIONS = {"CDS11-prefactor": Verdict.CORRECTED_FACTOR,
                "anex-sign": Verdict.CONFIRMED_UP_TO_SIGN}


@pytest.fixture(scope="module")
def ctx_21():
    return _Ctx(21, build_legendre(21), *build_q_table(21))


@pytest.mark.parametrize("identity_id, top", [("CDS11-prefactor", top) for top in range(4, 21)]
                         + [("anex-sign", top) for top in range(4, 13)])
def test_recorded_correction_witness_comes_from_the_seeded_draw(ctx_21, identity_id, top):
    """At every top the entry can see, its id-seeded draw holds an odd-n instance
    of the correction; a change to the draws that loses it fails here."""
    entry = _run(identity_id, ctx_21._replace(max_degree=top))
    assert entry.verdict is _CORRECTIONS[identity_id]
    assert entry.witness["n"] % 2 == 1 and entry.witness["inputs"]


def test_transformed_gram_bound_scales_with_the_exact_diagonal(ctx_21, monkeypatch):
    # |r_20|^2 is about 7.4e-13, so an absolute bound of 1e-11 would pass a doubled entry
    real = moebius.gram_matrix

    def doubled(system, size):
        matrix, worst = real(system, size)
        matrix[20][20] *= 2
        return matrix, worst

    monkeypatch.setattr(verify, "_GRAM_TOP", 20)
    assert _run("In", ctx_21).verdict is Verdict.CONFIRMED
    monkeypatch.setattr(moebius, "gram_matrix", doubled)
    entry = _run("In", ctx_21)
    assert entry.verdict is Verdict.FAILED
    assert entry.witness["inputs"]["n"] == entry.witness["inputs"]["m"] == 20


@pytest.mark.parametrize("module", ["kernel", "qfamily", "approx", "moebius"])
def test_library_modules_leave_verdicts_to_the_registry(module):
    # closed forms return plain values; only the registry picks a verdict
    source = Path(verify.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "verdict" for name in names), module
