import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlegendre import cli, qfamily, quad
from intlegendre.cli import build_parser, main
from intlegendre.legendre import build_legendre
from intlegendre.moebius import build_r_family, reference_inner_product
from intlegendre.qfamily import build_q_table
from intlegendre.verify import _REGISTRY

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "Q", "--degrees", "2..4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,coeffs"
    assert lines[1] == "Q,2,-1/2 0 1/2"
    assert lines[3] == "Q,4,1/8 0 -3/4 0 5/8"


def test_table_json_with_points(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "L", "--degrees", "0..1", "--points", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "L"
    assert payload["entries"][0]["coeffs"] == ["1"]
    assert payload["entries"][1]["coeffs"] == ["0", "1"]
    assert payload["entries"][1]["values"]["0.5"] == 0.5


def test_table_points_round_the_exact_value_once(capsys):
    # near -1 the float recurrence for Q64 drifts by hundreds of ulp; the
    # printed value is the exact one rounded once, in JSON and CSV alike
    exact = float(build_q_table(64)[64].at(Fraction(-0.9999)))
    code, out, _ = run_cli(capsys, "table", "--family", "Q", "--degrees", "64..64",
                           "--points", "-0.9999")
    assert code == 0
    assert json.loads(out)["entries"][0]["values"]["-0.9999"] == exact
    code, out, _ = run_cli(capsys, "table", "--family", "Q", "--degrees", "64..64",
                           "--points", "-0.9999", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[-1] == repr(exact)


def test_table_points_past_the_float_range_print_infinities(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "L", "--degrees", "3..3",
                           "--points", "1e300,-1e300", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[-2:] == ["inf", "-inf"]


def _rounded_once(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@pytest.mark.parametrize("family", ["L", "Q", "r"])
def test_table_points_equal_the_fraction_value_rounded_once(capsys, family):
    # integer Horner on the dyadic point gives float(p.at(Fraction(x))), also at
    # the endpoints, at the smallest subnormal and past the float range
    points = (0.9, -0.9999, 1.0, -1.0, 5e-324, 1e300)
    poly = {"L": build_legendre(64).__getitem__, "Q": build_q_table(64).__getitem__,
            "r": build_r_family(64).__getitem__}[family]
    lo = 2 if family == "Q" else 0
    code, out, _ = run_cli(capsys, "table", "--family", family, "--degrees", f"{lo}..64",
                           "--points", ",".join(map(repr, points)))
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["n"] for e in entries] == list(range(lo, 65))
    for entry in entries:
        p = poly(entry["n"])
        assert entry["values"] == {repr(x): _rounded_once(p.at(Fraction(x))) for x in points}


def test_table_r_family(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "r", "--degrees", "0..2")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][2]["coeffs"] == ["-1/5", "0", "1"]


def test_table_float_backend(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "Q", "--degrees", "2..2", "--backend", "float"
    )
    assert code == 0
    assert json.loads(out)["entries"][0]["coeffs"] == [-0.5, 0.0, 0.5]


def test_table_invalid_range(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "Q", "--degrees", "5..2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "table", "--family", "Q", "--degrees", "0..4")
    assert code == 2
    code, _, _ = run_cli(capsys, "table", "--family", "Q", "--degrees", "nope")
    assert code == 2
    # a bad or non-finite point is a usage error; nan/inf would print invalid JSON
    for points in ("abc", "0.5,", "nan", "inf", "0.5,-inf"):
        code, out, err = run_cli(
            capsys, "table", "--family", "Q", "--degrees", "2..4", "--points", points
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_minimize(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == "32/45"
    assert payload["minimizer_monomial"] == ["1", "0", "-10/3", "0", "7/3"]
    assert payload["oracle_agrees"] is True


def test_minimize_n2(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--n", "2")
    payload = json.loads(out)
    assert payload["M"] == "4/3"
    assert payload["minimizer_pretty"] == "1 - x^2"


def test_minimize_odd_matches_even(capsys):
    _, out4, _ = run_cli(capsys, "minimize", "--n", "4")
    _, out5, _ = run_cli(capsys, "minimize", "--n", "5")
    a, b = json.loads(out4), json.loads(out5)
    assert a["M"] == b["M"]
    assert a["minimizer_monomial"] == b["minimizer_monomial"]


def test_minimize_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "minimize", "--n", "1")
    assert code == 2


def test_expand_poly(capsys):
    code, out, _ = run_cli(capsys, "expand", "--poly", "0,0,1,0,-1", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"2": "-2/5", "4": "-8/5"}
    assert payload["residual_sup"] == 0.0


def test_expand_member_shorthand(capsys):
    code, out, _ = run_cli(capsys, "expand", "--poly", "Q3", "--N", "3")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"3": "1"}


def test_expand_member_shorthand_reaches_the_depth_cap_at_any_n(capsys):
    # Q<k> and L<k> go to approx.expand in the Legendre basis, so k is bounded by the
    # depth cap alone and not by --N
    code, out, err = run_cli(capsys, "expand", "--poly=Q64", "--N", "2")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["coefficients"] == {}
    assert payload["residual_weighted_l2"] == math.sqrt(float(qfamily.q_norm_sq(64)))
    for spec, low in (("Q65", 2), ("Q1", 2), ("L65", 0)):
        assert run_cli(capsys, "expand", f"--poly={spec}", "--N", "2") == (
            2, "", f"error: {spec} outside {low}..64\n")


@pytest.mark.parametrize("spec", ["Q\u00b2", "L\u00b9\u2070", "Q\u00b9"])
def test_expand_superscript_degree_is_a_usage_error(capsys, spec):
    # str.isdigit accepts superscript digits, which int rejects: they must not reach int
    code, out, err = run_cli(capsys, "expand", "--poly", spec, "--N", "4")
    assert (code, out) == (2, "")
    assert err == f"error: bad rational {spec!r}\n"


@pytest.mark.parametrize("spec", ["Q2", "Q40", "L0", "L64"])
def test_expand_member_shorthand_builds_no_member(capsys, monkeypatch, spec):
    from intlegendre import approx, legendre

    def no_member(*args):
        raise AssertionError("a family member was built")

    for module, name in ((qfamily, "build_q_table"), (qfamily, "q_member"), (approx, "q_member"),
                         (legendre, "legendre_poly"), (approx, "legendre_poly")):
        monkeypatch.setattr(module, name, no_member)
    code, out, err = run_cli(capsys, "expand", f"--poly={spec}", "--N", "8")
    assert (code, err) == (0, "")
    assert json.loads(out)["input"] == spec


def test_expand_named(capsys):
    code, out, _ = run_cli(capsys, "expand", "--fn", "one-minus-x2-exp", "--N", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "quadrature_float"
    assert payload["residual_sup"] < 1e-8


def test_expand_fn_builds_no_exact_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("an exact table was built")

    monkeypatch.setattr(qfamily, "build_q_table", no_table)
    code, out, err = run_cli(capsys, "expand", "--fn", "sin-pi", "--N", "16")
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["coefficients"], key=int) == [str(n) for n in range(2, 17)]


def test_expand_csv(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--poly", "0,0,1,0,-1", "--N", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "2,-2/5"
    assert lines[-2].startswith("residual_sup,")


def test_expand_usage_errors(capsys):
    assert run_cli(capsys, "expand", "--fn", "nope", "--N", "4")[0] == 2
    assert run_cli(capsys, "expand", "--N", "4")[0] == 2
    assert run_cli(capsys, "expand", "--poly", "1,2", "--fn", "sin-pi", "--N", "4")[0] == 2
    assert run_cli(capsys, "expand", "--poly", "1,2", "--N", "1")[0] == 2


def test_numerical_limit_exits_3(capsys, monkeypatch):
    # exit 3 is left for a Newton node that does not settle
    def no_node(m):
        raise quad.ConvergenceFailure(f"node did not settle at order {m}")

    monkeypatch.setattr(quad, "gauss_legendre", no_node)
    assert run_cli(capsys, "quad", "--m", "8") == (3, "", "error: node did not settle at order 8\n")


@pytest.mark.parametrize("argv", [
    ("expand", "--fn", "sin-pi", "--N", "8", "--tol", "1e-12"),
    ("expand", "--fn", "sin-pi", "--N", "8", "--tol", "nan"),
    ("expand", "--poly", "Q3", "--N", "3", "--tol", "0"),
])
def test_bad_tol_is_a_usage_error_before_any_quadrature(capsys, monkeypatch, argv):
    # every float integral runs one fixed rule, so expand has no --tol to set
    def no_rule(m):
        raise AssertionError("a quadrature rule was requested")

    monkeypatch.setattr(quad, "gauss_legendre", no_rule)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --tol {argv[-1]}" in err


def test_transform(capsys):
    code, out, _ = run_cli(capsys, "transform", "--map", "1,1,0,1", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"] == ["-2", "0"]
    assert payload["stated_interval"] == ["0", "0"]
    assert payload["weight_pretty"].startswith("(-2*x - x^2)")
    assert payload["max_offdiag_relative"] < 1e-11


def test_transform_scale_map(capsys):
    code, out, _ = run_cli(capsys, "transform", "--map", "2,0,0,1/2", "--N", "4")
    payload = json.loads(out)
    assert payload["interval"] == ["-1/4", "1/4"]


def test_transform_identity_map(capsys):
    code, out, _ = run_cli(capsys, "transform", "--map", "1,0,0,1", "--N", "4")
    payload = json.loads(out)
    assert payload["interval"] == ["-1", "1"]
    assert payload["weight_pretty"].startswith("(1 - x^2)")
    assert payload["max_offdiag_relative"] < 1e-13


def test_transform_keeps_a_weight_whose_parts_leave_the_float_range(capsys):
    # the weight at 0 is 1e200 / 1e400 = 1e-200, finite once the exact ratio is rounded
    code, out, _ = run_cli(capsys, "transform", "--map", "1e-100,0,0,1e100", "--N", "4")
    assert code == 0
    matrix = json.loads(out)["gram_matrix"]
    family = build_r_family(4)
    for n in range(5):
        exact = reference_inner_product(family[n], family[n])
        assert matrix[n][n] == pytest.approx(float(exact), rel=1e-13)  # 4/3, 4/15, ...


@pytest.mark.parametrize("top", [0, 8, 16, 64])
@pytest.mark.parametrize("mapping", ["1,0,99/100,1", "1,0,999/1000,1", "1,0,999999/1000000,1"])
def test_transform_answers_for_a_pole_next_to_the_interval(capsys, monkeypatch, mapping, top):
    # the pole -1/mu lies just left of the induced interval [-1/(1 + mu), 1/(1 - mu)]
    orders, real = [], quad.gauss_legendre

    def recorded(m):
        orders.append(m)
        return real(m)

    monkeypatch.setattr(quad, "gauss_legendre", recorded)
    code, out, err = run_cli(capsys, "transform", "--map", mapping, "--N", str(top))
    assert (code, err) == (0, "")
    assert set(orders) == {top + 2}  # the one rule, exact for every valid map
    payload = json.loads(out)
    assert len(payload["gram_matrix"]) == top + 1
    assert payload["max_offdiag_relative"] < 1e-13


def test_transform_takes_no_tol_and_caps_n_at_the_table_depth(capsys):
    code, out, err = run_cli(capsys, "transform", "--map", "1,0,0,1", "--N", "3", "--tol", "1e-12")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1e-12" in err
    for top in ("-1", "65"):
        assert run_cli(capsys, "transform", "--map", "1,0,0,1", "--N", top) == (
            2, "", "error: --N must be in 0..64\n")


def test_transform_rejects_bad_maps(capsys):
    assert run_cli(capsys, "transform", "--map", "1,1,1,1", "--N", "4")[0] == 2
    assert run_cli(capsys, "transform", "--map", "1,1,0", "--N", "4")[0] == 2
    assert run_cli(capsys, "transform", "--map", "0,-1,1,0", "--N", "4")[0] == 2


@pytest.mark.parametrize("argv", [
    ("expand", "--poly", "1e400", "--N", "2"),
    ("expand", "--poly", "0,1e400,0,-1e400", "--N", "2"),
    ("transform", "--map", "1e200,0,0,1e-200", "--N", "2"),
])
def test_inputs_past_the_float_range_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "float range" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts ints of any length to str")
@pytest.mark.parametrize("argv", [
    ("expand", "--poly", "1e5000", "--N", "2"),
    ("expand", "--poly", "1e5000", "--N", "2", "--format", "csv"),
    ("expand", "--poly", "1e-5000,0,-1e-5000", "--N", "2"),
    ("transform", "--map", "1,1e-5000,0,1", "--N", "2"),
])
def test_values_past_the_int_to_str_limit_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"{sys.get_int_max_str_digits()} digits" in err


def _peak_bytes(capsys, *argv):
    """(exit code, the peak of memory traced while cli.main runs argv)."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return code, peak


@pytest.mark.parametrize("argv, code", [
    (("expand", "--poly", "1e10000000", "--N", "2"), 2),
    (("expand", "--poly", "1,-1e-10000000", "--N", "2", "--format", "csv"), 2),
    (("expand", "--poly", "1e2000000", "--N", "2"), 2),
    (("transform", "--map", "1,1E-30000000,0,1", "--N", "2"), 2),
    (("expand", "--poly", "0e30000000,0.00E-30000000,1", "--N", "2"), 0),
], ids=["1e10000000", "csv-1e-10000000", "1e2000000", "map-1E-30000000", "zero-mantissas"])
def test_huge_exponents_are_answered_without_building_the_value(capsys, argv, code):
    # 10**2000000 alone takes 830 kB; the traced peak shows that no such value was built
    main(["expand", "--poly", "1", "--N", "2"])  # every module the requests use, executed
    main(["transform", "--map", "1,0,0,1", "--N", "2"])
    capsys.readouterr()
    got, peak = _peak_bytes(capsys, *argv)
    assert got == code and peak < 200_000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str limit to lift")
def test_a_lifted_int_to_str_limit_still_bounds_the_exponent(capsys):
    # PYTHONINTMAXSTRDIGITS=0 lifts the limit; an exponent is then held to the default 4300
    # digits, while digits written out are read as the limit allows
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, peak = _peak_bytes(capsys, "expand", "--poly", "1e10000000", "--N", "2")
        assert code == 2 and peak < 200_000
        code, out, err = run_cli(capsys, "expand", "--poly", "1e5000", "--N", "2")
        assert (code, out, err) == (2, "", "error: rational '1e5000' has more than 4300 digits\n")
        zeros = "0" * 5000
        assert run_cli(capsys, "expand", "--poly", f"3{zeros}/1{zeros}", "--N", "2")[0] == 0
    finally:
        sys.set_int_max_str_digits(limit)


# The grammar fuzz's atoms: digits of other scripts (int() reads the Arabic-Indic, Devanagari
# and full-width ones, not the superscripts), member shorthands written with them, a value
# past the int-to-str limit, and zero denominators.
_NUMBERS = ("0", "1", "2", "3", "4", "12", "64", "65", "-1", "1/3", "-7/9", "0.5", "nan", "",
            "x", "²", "٣", "३", "３", "６４", "1e4400", "0/0", "1/0")
_SHORTHANDS = ("Q3", "q4", "L5", "l0", "Q²", "Q٣", "L३", "Q３", "Q1", "Q65", "L-1", "Q 4")
_NUMBER = st.sampled_from(_NUMBERS)
_INT = st.sampled_from(("2", "3", "12", "64", "٣", "३", "６４")) | _NUMBER  # often in range
_LIST = st.lists(_NUMBER, min_size=1, max_size=4).map(",".join)
_MAP = (st.sampled_from(("1,0,0,1", "3,1,2,1", "1,0,999/1000,1", "2,0,0,1/2", "1,1,0,1"))
        | st.lists(_NUMBER, min_size=3, max_size=5).map(",".join))
_ARGV = st.one_of(
    st.tuples(st.just(("table",)),
              st.sampled_from(("L", "Q", "r", "q", "")).map(lambda f: ("--family", f)),
              st.tuples(_INT, _INT).map(lambda r: ("--degrees", "..".join(r))),
              st.none() | _LIST.map(lambda p: ("--points", p)),
              st.sampled_from(("exact", "float")).map(lambda b: ("--backend", b)),
              st.sampled_from(("json", "csv")).map(lambda f: ("--format", f))),
    # verify runs only at depths 3, 4, 5 and 65, in several scripts
    st.tuples(st.just(("verify", "--max-degree")), st.sampled_from(("3", "٤", "५", "６５"))),
    st.tuples(st.just(("minimize",)), st.none() | _INT.map(lambda n: ("--n", n))),
    st.tuples(st.just(("expand",)),
              (_LIST | st.sampled_from(_SHORTHANDS)).map(lambda p: ("--poly", p))
              | st.sampled_from(("sin-pi", "cos")).map(lambda f: ("--fn", f)),
              st.sampled_from((None, None, ("--fn", "sin-pi"))),  # both sources: a usage error
              _INT.map(lambda n: ("--N", n)),
              st.sampled_from(("json", "csv")).map(lambda f: ("--format", f))),
    st.tuples(st.just(("transform",)), _MAP.map(lambda m: ("--map", m)),
              st.none() | _INT.map(lambda n: ("--N", n))),
    st.tuples(st.just(("quad",)), st.none() | _INT.map(lambda m: ("--m", m)),
              st.sampled_from(("json", "csv")).map(lambda f: ("--format", f))),
).map(lambda parts: [arg for part in parts if part for arg in part])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ARGV)
def test_every_command_line_exits_0_or_2_with_a_named_error(argv):
    # no --out or --stats: nothing is written but the two streams
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert "error: " in err.getvalue(), argv


def test_module_entry_runs_clean_under_warnings_as_errors():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    runs = [subprocess.run([sys.executable, "-W", "error", "-m", module, "quad", "--m", "2"],
                           env=env, capture_output=True, text=True, timeout=120)
            for module in ("intlegendre.cli", "intlegendre")]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout != ""


def test_quad_csv(capsys):
    code, out, _ = run_cli(capsys, "quad", "--m", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,weight"
    assert len(lines) == 4
    assert lines[2].startswith("0.0,")


def test_quad_json(capsys):
    code, out, _ = run_cli(capsys, "quad", "--m", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["exact_degree"] == 3
    assert payload["weights"] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_quad_bounds(capsys):
    assert run_cli(capsys, "quad", "--m", "0")[0] == 2
    assert run_cli(capsys, "quad", "--m", "513")[0] == 2


def test_verify_small(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "6", "--out", str(out_path))
    assert code == 0
    assert "NormQn: CONFIRMED" in out
    assert "Qnatzero: CONFIRMED_UP_TO_SIGN" in out
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1
    verdicts = {e["identity_id"]: e["verdict"] for e in payload["entries"]}
    assert "FAILED" not in verdicts.values()
    # re-serializing the parsed report is byte-identical
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out_path.read_text()


def test_verify_bad_degree(capsys):
    assert run_cli(capsys, "verify", "--max-degree", "3")[0] == 2
    assert run_cli(capsys, "verify", "--max-degree", "65")[0] == 2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


_EXECUTED = """
import sys, types
sys.path.insert(0, sys.argv[1])
import intlegendre.cli
if len(sys.argv) > 2:
    intlegendre.cli.main(sys.argv[2:])
executed = [name for name, module in sys.modules.items()
            if name.startswith("intlegendre.") and type(module) is types.ModuleType]
print(" ".join(sys.modules), file=sys.stderr)
print(" ".join(executed), file=sys.stderr)
"""


def _executed(*argv):
    """(modules loaded, intlegendre modules executed) in a fresh process that imports
    the CLI and runs argv, if given."""
    done = subprocess.run([sys.executable, "-S", "-c", _EXECUTED, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded, executed = done.stderr.splitlines()[-2:]
    return set(loaded.split()), {name.split(".")[1] for name in executed.split()}


def test_cold_cli_import_leaves_out_dataclasses_and_loads_every_traced_module():
    # every CLI call is a fresh process: dataclasses pulls in inspect, ast and dis;
    # the benchmark's tracer looks each intlegendre module up in sys.modules
    loaded, executed = _executed()
    assert not {"dataclasses", "inspect"} & loaded
    traced = ("legendre", "qfamily", "kernel", "approx", "moebius", "quad", "verify", "cli")
    assert {f"intlegendre.{name}" for name in traced} <= loaded
    # registered, yet not executed until first used, cli itself included
    assert not {"verify", "approx", "moebius", "cli"} & executed


def test_cold_quad_executes_only_what_it_uses():
    # quad owns the float value recurrence; the exact core and its Fractions stay unloaded
    loaded, executed = _executed("quad", "--m", "8")
    assert executed == {"cli", "quad"}
    assert not {"fractions", "decimal"} & loaded


@pytest.mark.parametrize("family, own", [("L", set()), ("Q", {"qfamily"}), ("r", {"moebius"})])
def test_cold_table_executes_only_its_own_family(family, own):
    # the member function is looked up in the printed family's module alone; a table of
    # bound functions would execute all three family modules
    _, executed = _executed("table", "--family", family, "--degrees", "2..4")
    assert executed == {"cli", "exactpoly", "legendre", "quad"} | own


def test_traced_cold_child_sees_the_lazy_modules():
    # perfbench/child.py installs the tracer right after `from intlegendre import cli`
    perfbench = SRC.parent / "perfbench"
    done = subprocess.run([sys.executable, str(perfbench / "child.py"), str(SRC), "1",
                           "quad", "--m", "8", "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["m"] == 8
    sys.path.insert(0, str(perfbench))
    try:
        from spans import SPAN_NAMES
    finally:
        sys.path.remove(str(perfbench))
    spans = {SPAN_NAMES[i] for buf in json.loads(done.stderr)["buffers"] for i in buf["name"]}
    assert {"cli.main", "quad.gauss_legendre"} <= spans


def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "intlegendre", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("first, second", [
    (["table", "--family", "Q", "--degrees", "2..4", "--points", "0.5,-0.25",
      "--backend", "float", "--format", "csv"],
     ["table", "--family", "Q", "--degrees", "2..4"]),
    (["expand", "--fn", "sin-pi", "--N", "6", "--format", "csv"],
     ["expand", "--poly", "0,0,1,0,-1", "--N", "4"]),
    (["minimize", "--n", "4", "--bogus"],
     ["minimize", "--n", "4"]),
], ids=["table-points-then-table", "expand-fn-then-expand-poly", "usage-error-then-good"])
def test_consecutive_calls_match_fresh_processes(capsys, first, second):
    # one parser serves every call in a process; no option or default of the
    # first call may reach the second
    results = [run_cli(capsys, *first), run_cli(capsys, *second)]
    assert results == [_fresh_process(first), _fresh_process(second)]
    assert results[0][0] == (2 if "--bogus" in first else 0)
    assert results[1][0] == 0


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_out_files_written(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "table", "--family", "Q", "--degrees", "2..3",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("family,n,coeffs")


@pytest.mark.parametrize("family", ["L", "Q", "r"])
def test_table_cells_are_the_fraction_forms(capsys, family):
    poly = {"L": build_legendre(40).__getitem__, "Q": build_q_table(40).__getitem__,
            "r": build_r_family(40).__getitem__}[family]
    lo = 2 if family == "Q" else 0
    for backend, cell in (("exact", str), ("float", float)):
        _, out, _ = run_cli(capsys, "table", "--family", family, "--degrees", f"{lo}..40",
                            "--backend", backend)
        entries = json.loads(out)["entries"]
        assert [e["coeffs"] for e in entries] == [
            [cell(c) for c in poly(n).coeffs] for n in range(lo, 41)]
        _, out, _ = run_cli(capsys, "table", "--family", family, "--degrees", f"{lo}..40",
                            "--backend", backend, "--format", "csv")
        rows = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert rows == [" ".join(str(cell(c)) for c in poly(n).coeffs) for n in range(lo, 41)]


@pytest.mark.parametrize("argv", [("quad", "--m", "4", "--out"),
                                  ("verify", "--max-degree", "4", "--out"),
                                  ("verify", "--max-degree", "4", "--stats")])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    # verify checks its output paths before the run, so no verdict line is printed
    target = tmp_path / "missing" / "f.json"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err
    assert not target.exists()


def test_verify_stats_sidecar(capsys, tmp_path):
    report, stats = tmp_path / "report.json", tmp_path / "stats.json"
    code, _, _ = run_cli(capsys, "verify", "--max-degree", "4", "--out", str(report),
                         "--stats", str(stats))
    assert code == 0
    golden = Path(__file__).parent / "golden" / "verify_4.json"
    assert report.read_text() == golden.read_text()
    sidecar = json.loads(stats.read_text())
    assert sidecar["max_degree"] == 4 and sidecar["clock"] == "time.perf_counter"
    assert set(sidecar["entries_s"]) == set(_REGISTRY) and len(sidecar["entries_s"]) == 34
    assert sidecar["table_build_s"] >= 0
    assert all(t >= 0 for t in sidecar["entries_s"].values())


@pytest.mark.parametrize("payload", [
    {"b": [1, 2.5, None, True], "a": {"z": "é\u2028", "y": [], "x": {}}},
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, "", [[]], [{}]],
    {"n": 3, "coeffs": ["1/2", "-3"], "values": {"0.5": 0.1 + 0.2}},
    "top-level text",
])
def test_json_text_is_json_dumps_indent_2(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_request_leaves_no_cyclic_garbage(capsys):
    requests = [("table", "--family", "r", "--degrees", "0..6"),
                ("minimize", "--n", "8"),
                ("expand", "--poly", "1,2,3", "--N", "8"),
                ("expand", "--fn", "sin-pi", "--N", "8"),
                ("quad", "--m", "5", "--format", "json")]
    for argv in requests:  # first use executes the lazily loaded submodules
        run_cli(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        for argv in requests:
            assert run_cli(capsys, *argv)[0] == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
