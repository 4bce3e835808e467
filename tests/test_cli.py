import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from intlegendre import quad
from intlegendre.cli import build_parser, main
from intlegendre.legendre import build_legendre
from intlegendre.moebius import build_r_family
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
    exact = float(build_q_table(64).q(64).at(Fraction(-0.9999)))
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
    poly = {"L": build_legendre(64).poly, "Q": build_q_table(64).q,
            "r": build_r_family(64).poly}[family]
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


def test_expand_named(capsys):
    code, out, _ = run_cli(capsys, "expand", "--fn", "one-minus-x2-exp", "--N", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "quadrature_float"
    assert payload["residual_sup"] < 1e-8


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
    code, out, err = run_cli(capsys, "expand", "--fn", "sin-pi", "--N", "29", "--tol", "1e-300")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "Traceback" not in err

    def no_node(m):
        raise quad.ConvergenceFailure(f"node did not settle at order {m}")

    monkeypatch.setattr(quad, "gauss_legendre", no_node)
    assert run_cli(capsys, "quad", "--m", "8") == (3, "", "error: node did not settle at order 8\n")


@pytest.mark.parametrize("argv", [
    ("expand", "--fn", "sin-pi", "--N", "8", "--tol", "nan"),
    ("expand", "--fn", "sin-pi", "--N", "8", "--tol", "inf"),
    ("expand", "--poly", "Q3", "--N", "3", "--tol", "0"),
    ("transform", "--map", "1,0,0,1", "--N", "3", "--tol", "-1"),
])
def test_bad_tol_is_a_usage_error_before_any_quadrature(capsys, monkeypatch, argv):
    def no_rule(m):
        raise AssertionError("a quadrature rule was requested")

    monkeypatch.setattr(quad, "gauss_legendre", no_rule)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --tol ") and "positive finite" in err


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
    # registered, yet not executed until first used
    assert not {"verify", "approx", "moebius"} & executed


def test_cold_quad_executes_only_what_it_uses():
    _, executed = _executed("quad", "--m", "8")
    assert executed == {"cli", "exactpoly", "legendre", "quad", "verdict"}


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
    (["expand", "--fn", "sin-pi", "--N", "6", "--tol", "1e-10", "--format", "csv"],
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
    poly = {"L": build_legendre(40).poly, "Q": build_q_table(40).q,
            "r": build_r_family(40).poly}[family]
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
