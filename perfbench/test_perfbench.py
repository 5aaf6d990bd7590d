"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload, trace, seed=3):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _one_output(name):
    workload = WORKLOADS[name]
    items = workload.build(5, smoke=True).items
    return workload, items, workload.request(items[0])


def _failed(workload, items, good, bad):
    return len(run.check_outputs(workload, items, [(0, good), (0, bad)]))


def test_flipped_verdict_fails():
    workload, items, out = _one_output("dominance")
    first, second, m1, m2 = out
    assert _failed(workload, items, out, (not first, second, m1, m2)) == 1
    assert _failed(workload, items, out, (first, not second, m1, m2)) == 1


def _edit_report(text, **changes):
    report = json.loads(text)
    report["results"].update(changes)
    return json.dumps(report)


def test_rejected_certificate_fails():
    workload, items, out = _one_output("battery")
    solved, (_, cert_text) = out
    rejected = (1, _edit_report(cert_text, accepted=False))
    assert _failed(workload, items, out, (solved, rejected)) == 1


def test_objective_off_reference_fails():
    workload, items, out = _one_output("battery")
    (code, text), certified = out
    objective = json.loads(text)["results"]["objective"]
    off = (code, _edit_report(text, objective=objective + 2 * workload.GAP_TOL))
    assert _failed(workload, items, out, (off, certified)) == 1


def test_recomputation_mismatch_fails():
    workload, items, out = _one_output("wide")
    sol, cert = out
    for field in ("objective_value", "max_violation"):
        bad = dataclasses.replace(sol, **{field: getattr(sol, field) - 1e-3})
        assert _failed(workload, items, out, (bad, cert)) == 1


def test_raised_request_fails():
    workload, items, out = _one_output("dominance")
    assert _failed(workload, items, out, RuntimeError("boom")) == 1


def test_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        a = workload.build(1, smoke=True).digest
        assert workload.build(1, smoke=True).digest == a
        assert workload.build(2, smoke=True).digest != a


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_output_schema(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        details, result = _smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert details["seed"] == 3 and len(details["inputs_digest"]) == 64
        assert details["environment"]["blas_threads"] == "1"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first = _smoke(workload, 1)[1]["metrics"]
    second = _smoke(workload, 1)[1]["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "battery", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_malformed_answers_fail_without_stopping_the_run():
    workload, items, out = _one_output("battery")
    broken = ((2, ""), out[1])
    assert _failed(workload, items, out, broken) == 1
    assert workload.solve_gap(items[0], broken) is None
    workload, items, out = _one_output("wide")
    assert _failed(workload, items, out, (None, None)) == 1
