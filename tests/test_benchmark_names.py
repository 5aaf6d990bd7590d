"""The benchmark's tracer still finds every riskcalc name it wraps.

``perfbench/tracer.py`` looks riskcalc's public functions and methods up by
name when it installs, so a removed or renamed name makes ``install`` raise
and breaks traced benchmark runs.  It also reads result attributes
(``Solution.iterations``, ``Certificate.iterations``) for its work counters,
so a renamed attribute breaks a traced run only when it runs.  The
workloads' checks read riskcalc names too (``SolveOptions.tol_feas`` in
``wide``).  The default test run covers only ``tests/``; the tests here make
these breakages show.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import riskcalc as rc
from riskcalc import cli  # noqa: F401  (the tracer looks names up on rc.cli)
from riskcalc.cli import load_problem
from tests.conftest import instance_path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def tracer_module():
    return perfbench_module("tracer")


def traced_names(tracer):
    return [name for names, _, _ in tracer.FUNCTION_GROUPS.values() for name in names]


def public(name):
    return getattr(rc, name, None) or getattr(rc.cli, name)


def test_tracer_installs_and_uninstalls():
    tracer = tracer_module()
    names = traced_names(tracer)
    t = tracer.Tracer()
    try:
        t.install()  # AttributeError if riskcalc lost a name the tracer wraps
        wrapped = {name: public(name) for name in names}
        rc.lorenz(rc.RandomVariable(rc.equiprobable(2), [1.0, 2.0]), 0.5)
        assert t.calls["quantiles.lorenz"] == 1
    finally:
        t.uninstall()
    for name in names:
        assert public(name) is wrapped[name].__wrapped__


def test_work_counters_count_iterations_and_pricing_rounds():
    # i03 with a cap of 300 iterations stops after its first stop test, at
    # iteration 2; that test's certify runs nested inside solve, and the
    # tracer counts its pricing rounds with those of the certify called on
    # its own
    loaded = load_problem(instance_path("i03_avar_tie"))
    spec = loaded.spec
    x_meta = spec.decision(np.asarray(loaded.meta["x_hat"], dtype=float).reshape(1, -1))
    t = tracer_module().Tracer()
    try:
        t.install()
        sol = rc.solve(spec, dataclasses.replace(loaded.options, iters=300))
        cert = rc.certify(spec, x_meta)
    finally:
        t.uninstall()
    assert sol.iterations == 2
    stop_test = rc.certify(spec, sol.x_hat)
    assert stop_test.accepted and sol.gap_bound == stop_test.gap_bound
    assert t.calls["solver.solve"] == 1 and t.calls["solver.certify"] == 2
    assert t.work["solver.solve.iterations"] == sol.iterations
    assert t.work["solver.certify.fw_iterations"] == stop_test.iterations + cert.iterations


@pytest.mark.parametrize("name", list(perfbench_module("workloads").WORKLOADS))
def test_workload_request_passes_its_check(name):
    # one request on a smoke-sized pool at seed 5; a check that reads a name
    # riskcalc lost raises here instead of only under pytest perfbench
    workload = perfbench_module("workloads").WORKLOADS[name]
    item = workload.build(5, smoke=True).items[0]
    assert workload.check(item, workload.request(item)) == []
