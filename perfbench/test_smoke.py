"""Smoke test: every workload once at toy sizes, untraced and traced, and
every metric named in BENCHMARK.json printed by name.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace)], size="toy")
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split(" ")[0]: line.split(" ")[-1] for line in lines[:-1]}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert "fail_share" in printed and "op_p90_ms" in printed


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# The float defects the float-numerics ranges stop below (workloads.SIZES).
# Once one is fixed its case passes, this test fails, and the range can grow.
KNOWN_DEFECTS = [
    ("table", "L", 20, 20, "json", "exact", (0.9, 0.99)),
    ("table", "Q", 24, 24, "json", "exact", (0.9, 0.0)),
    ("expand_fn", "one-minus-x2-exp", 20),
    ("expand_fn", "sin-pi", 21),
    ("expand_fn", "sin-pi", 29),
]


@pytest.mark.parametrize("op", KNOWN_DEFECTS, ids=lambda op: " ".join(map(str, op[:4])))
def test_known_float_defect_is_outside_the_mix(op):
    runner = workloads.Runner(run.SRC, "full")
    assert not workloads.check(op, runner.run(op, 0))
    full = workloads.SIZES["full"]
    size = op[3] if op[0] == "table" else op[2]
    assert size > full["points" if op[0] == "table" else "fn"]


def test_harrell_davis_median():
    assert run.harrell_davis_median([7.0]) == 7.0
    assert run.harrell_davis_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert run.harrell_davis_median([11.0, 1.0, 6.0, 5.0, 7.0]) == pytest.approx(6.0)
