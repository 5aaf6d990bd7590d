"""Shared builders and independent oracles for the test suite.

Oracles here recompute quantities from their definitions with plain Python
loops, deliberately avoiding the library's sorted-view code paths, so that
frozen expected values and property checks are genuinely independent.
"""

import math
import os

import numpy as np
import pytest

from riskcalc import (
    Curvature,
    DecisionPoint,
    MaxAffineIntegrand,
    ProbSpace,
    RandomVariable,
    brute_force_optimum,
    equiprobable,
    solve,
)
from riskcalc.cli import load_problem

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")


def instance_path(name: str) -> str:
    return os.path.join(INSTANCE_DIR, name + ".json")


# Shipped instances, loaded once per session, with two results that take
# seconds each: the 1e-3-grid brute-force optimum, and solve at the file's
# budget.  Acceptance criterion 7 times its own solve of each instance and
# stores it in BUDGET_SOLUTIONS; other tests read it from there.
_LOADED = {}
_BRUTE = {}
BUDGET_SOLUTIONS = {}


def load_shipped(name: str):
    if name not in _LOADED:
        _LOADED[name] = load_problem(instance_path(name))
    return _LOADED[name]


def brute_optimum(name: str):
    if name not in _BRUTE:
        _BRUTE[name] = brute_force_optimum(load_shipped(name).spec, grid_resolution=1e-3)
    return _BRUTE[name]


def solve_at_budget(name: str):
    if name not in BUDGET_SOLUTIONS:
        loaded = load_shipped(name)
        BUDGET_SOLUTIONS[name] = solve(loaded.spec, loaded.options)
    return BUDGET_SOLUTIONS[name]


def rv(values, probs=None) -> RandomVariable:
    values = np.asarray(values, dtype=float)
    space = equiprobable(values.size) if probs is None else ProbSpace(probs)
    return RandomVariable(space, values)


@pytest.fixture
def omega4():
    return rv([1.0, 2.0, 3.0, 4.0])


def integrand(space, pieces, curvature=Curvature.CONVEX) -> MaxAffineIntegrand:
    """pieces: per scenario, list of (slope_vector, offset)."""
    slopes = []
    offsets = []
    for fam in pieces:
        slopes.append(np.array([np.atleast_1d(a) for a, _ in fam], dtype=float))
        offsets.append(np.array([b for _, b in fam], dtype=float))
    return MaxAffineIntegrand(space, tuple(slopes), tuple(offsets), curvature)


def abs_integrand(space, centers) -> MaxAffineIntegrand:
    """f(x, k) = |x - centers[k]| in dimension 1."""
    return integrand(
        space, [[(1.0, -c), (-1.0, c)] for c in np.asarray(centers, dtype=float)]
    )


def random_space(rng, n) -> ProbSpace:
    w = rng.uniform(0.2, 1.0, size=n)
    return ProbSpace(w / w.sum())


def random_integrand(rng, space, dim, max_pieces=4, curvature=Curvature.CONVEX):
    slopes = []
    offsets = []
    for _ in range(space.size):
        m = int(rng.integers(1, max_pieces + 1))
        slopes.append(rng.uniform(-2.0, 2.0, size=(m, dim)))
        offsets.append(rng.uniform(-1.0, 1.0, size=m))
    return MaxAffineIntegrand(space, tuple(slopes), tuple(offsets), curvature)


def point(x, partition=None) -> DecisionPoint:
    return DecisionPoint(np.asarray(x, dtype=float), partition)


# ---------------------------------------------------------------------------
# Independent oracles (plain loops, no shared code with the library).


def oracle_expectation(values, probs) -> float:
    total = 0.0
    for p, v in zip(probs, values):
        total += p * v
    return total


def oracle_cdf(values, probs, eta) -> float:
    total = 0.0
    for p, v in zip(probs, values):
        if v <= eta:
            total += p
    return total


def oracle_quantile(values, probs, p) -> float:
    # inf{eta : P[Z <= eta] >= p} scanned over the atoms in value order.
    order = sorted(range(len(values)), key=lambda k: values[k])
    acc = 0.0
    for k in order:
        acc += probs[k]
        if acc >= p - 1e-15:
            return values[k]
    return values[order[-1]]


def oracle_integrated_cdf(values, probs, eta) -> float:
    total = 0.0
    for p, v in zip(probs, values):
        total += p * max(eta - v, 0.0)
    return total


def oracle_lorenz(values, probs, p) -> float:
    # Integrate the quantile function atom by atom from 0 to p.
    if p < 0.0 or p > 1.0:
        return math.inf
    order = sorted(range(len(values)), key=lambda k: values[k])
    total = 0.0
    left = 0.0
    for k in order:
        right = min(left + probs[k], p)
        if right > left:
            total += (right - left) * values[k]
        left += probs[k]
        if left >= p:
            break
    return total


def oracle_avar_upper(values, probs, p) -> float:
    # Mean of the worst (largest) p-tail.
    order = sorted(range(len(values)), key=lambda k: values[k], reverse=True)
    total = 0.0
    remaining = p
    for k in order:
        take = min(probs[k], remaining)
        total += take * values[k]
        remaining -= take
        if remaining <= 1e-15:
            break
    return total / p


def oracle_avar_lower(values, probs, p) -> float:
    return -oracle_lorenz(values, probs, p) / p


def random_variable(rng, space, lo=-10.0, hi=10.0) -> RandomVariable:
    return RandomVariable(space, rng.uniform(lo, hi, size=space.size))
