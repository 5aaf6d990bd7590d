"""Acceptance gate for the toolkit.

One test per advertised guarantee, each enforcing its stated tolerance and
runtime budget.  Run ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from riskcalc import (
    DecisionPoint,
    InfoPartition,
    Orientation,
    RandomVariable,
    SpectralMeasure,
    blend_selectors,
    brute_force_optimum,
    certify,
    composite_directional,
    composite_subgradient,
    composite_value,
    differential_quotient,
    directional_derivative,
    dominates_first_order,
    dominates_second_order,
    equiprobable,
    evaluate,
    local_property_check,
    lorenz,
    lorenz_conjugate,
    lorenz_supergradient,
    solve,
    strassen_gradient,
    subgradient_selector,
)
from riskcalc.cli import load_problem
from tests.conftest import instance_path, point, random_integrand, random_space

SHIPPED = (
    "i01_median_kinks",
    "i02_active_scalar",
    "i03_avar_tie",
    "i04_spectral_tie",
    "i05_block_medians",
    "i06_portfolio",
    "i07_full_interval",
    "i08_avar_pushed",
    "i09_separable_medians",
    "i10_boundary_pinned",
)

_BRUTE_CACHE = {}
_LOAD_CACHE = {}


def _load(name):
    if name not in _LOAD_CACHE:
        _LOAD_CACHE[name] = load_problem(instance_path(name))
    return _LOAD_CACHE[name]


def _brute(name):
    if name not in _BRUTE_CACHE:
        _BRUTE_CACHE[name] = brute_force_optimum(_load(name).spec, grid_resolution=1e-3)
    return _BRUTE_CACHE[name]


def _random_variable(rng, n, lo=-10.0, hi=10.0):
    space = equiprobable(n) if rng.random() < 0.5 else random_space(rng, n)
    return RandomVariable(space, rng.uniform(lo, hi, n))


def test_criterion_1_fenchel_pairing():
    # 100 random Z (N <= 50, values in [-10, 10]), 101-point level grid:
    # the Lorenz function and its conjugate route agree to 1e-9 in < 5 s.
    rng = np.random.default_rng(4201)
    grid = np.linspace(0.0, 1.0, 101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        Z = _random_variable(rng, int(rng.integers(1, 51)))
        for p in grid:
            worst = max(worst, abs(lorenz(Z, float(p)) - lorenz_conjugate(Z, float(p))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"max pairing gap {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_dominance_route_agreement():
    # 1000 random pairs: the distribution-side and quantile-side routes must
    # return identical booleans (both functions raise InvariantViolation on
    # disagreement), and first-order dominance implies second-order on every
    # pair.  Ties are provoked deliberately with rounded and integer values.
    rng = np.random.default_rng(4202)
    start = time.monotonic()
    first_hits = 0
    for trial in range(1000):
        m = int(rng.integers(2, 26))
        if trial % 3 == 0:
            xv = rng.integers(-4, 5, m).astype(float)
        else:
            xv = np.round(rng.uniform(-5.0, 5.0, m), 1)
        X = RandomVariable(
            equiprobable(m) if trial % 2 else random_space(rng, m), xv
        )
        if rng.random() < 0.35:
            # guaranteed-dominance branch keeps the implication non-vacuous
            Y = RandomVariable(X.space, X.values - float(rng.uniform(0.0, 2.0)))
        else:
            k = int(rng.integers(2, 26))
            yv = (
                rng.integers(-4, 5, k).astype(float)
                if trial % 3 == 0
                else np.round(rng.uniform(-5.0, 5.0, k), 1)
            )
            Y = RandomVariable(equiprobable(k), yv)
        first = dominates_first_order(X, Y)
        second = dominates_second_order(X, Y)
        if first:
            first_hits += 1
            assert second, "first-order dominance without second-order"
    elapsed = time.monotonic() - start
    assert first_hits >= 100, f"only {first_hits} first-order pairs exercised"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _composite_instances():
    """50 shared random composite instances: N <= 10 scenarios, dimension <= 3,
    <= 4 affine pieces, risk cycling through expectation / AVaR(0.3) /
    a random 2-atom spectral mixture."""
    rng = np.random.default_rng(4203)
    out = []
    for i in range(50):
        n = int(rng.integers(2, 11))
        dim = int(rng.integers(1, 4))
        space = random_space(rng, n)
        F = random_integrand(rng, space, dim)
        if i % 3 == 0:
            risky = SpectralMeasure.expectation()
        elif i % 3 == 1:
            risky = SpectralMeasure.single_avar(0.3)
        else:
            p1 = float(rng.uniform(0.1, 0.6))
            p2 = float(rng.uniform(p1 + 0.05, 1.0))
            w = float(rng.uniform(0.2, 0.8))
            risky = SpectralMeasure((p1, p2), (w, 1.0 - w), Orientation.UPPER)
        out.append((space, F, risky, dim))
    return out


def _smooth_probe(rng, risk, F, dim):
    # resample until the composite is differentiable at x along h, so the
    # central difference below is taken away from kinks
    for _ in range(200):
        x = point(rng.uniform(-1.0, 1.0, dim))
        h = point(rng.uniform(-1.0, 1.0, dim))
        fwd = composite_directional(risk, F, x, h)
        bwd = composite_directional(risk, F, x, point(-h.vectors[0]))
        if abs(fwd + bwd) <= 1e-9:
            return x, h, fwd
    raise AssertionError("could not find a smooth probe point")


def test_criterion_3_composite_chain_rule():
    # 50 random composites: (a) the one-point directional derivative matches
    # a central finite difference at t=1e-7 within 1e-6 away from kinks,
    # (b) every returned subgradient satisfies the global inequality on 1000
    # random points within 1e-10, (c) the direction-aligned subgradient
    # attains the directional derivative within 1e-10.
    rng = np.random.default_rng(4204)
    t = 1e-7
    for space, F, risk, dim in _composite_instances():
        x, h, fwd = _smooth_probe(rng, risk, F, dim)
        fd = (
            composite_value(risk, F, x.combine(1.0, h, t))
            - composite_value(risk, F, x.combine(1.0, h, -t))
        ) / (2.0 * t)
        assert abs(fd - fwd) <= 1e-6

        g = composite_subgradient(risk, F, x)
        base = composite_value(risk, F, x)
        xrow = x.vectors[0]
        for yrow in rng.uniform(-2.0, 2.0, (1000, dim)):
            gap = (
                composite_value(risk, F, point(yrow))
                - base
                - g.pair(point(yrow - xrow))
            )
            assert gap >= -1e-10

        aligned = composite_subgradient(risk, F, x, direction=h)
        assert abs(aligned.pair(h) - fwd) <= 1e-10
        assert g.pair(h) <= fwd + 1e-10


def test_criterion_4_partial_information():
    # Same 50 instances under a random 2-block information partition with
    # block-constant decisions: the conditional subgradient satisfies the
    # inequality over measurable y within 1e-10, and the expectation risk
    # with no information constraint reduces to the exact scenario-average
    # of the selector rows.
    rng = np.random.default_rng(4205)
    for space, F, risk, dim in _composite_instances():
        n = space.size
        cut = int(rng.integers(1, n))
        order = list(rng.permutation(n))
        part = InfoPartition(space, (tuple(order[:cut]), tuple(order[cut:])))

        xb = rng.uniform(-1.0, 1.0, (2, dim))
        x = DecisionPoint(xb, part)
        g = composite_subgradient(risk, F, x, partition=part)
        base = composite_value(risk, F, x)
        for _ in range(200):
            yb = rng.uniform(-2.0, 2.0, (2, dim))
            gap = (
                composite_value(risk, F, DecisionPoint(yb, part))
                - base
                - g.pair(DecisionPoint(yb - xb, part))
            )
            assert gap >= -1e-10

        xd = point(rng.uniform(-1.0, 1.0, dim))
        g0 = strassen_gradient(F, xd)
        avg = np.zeros(dim)
        for k in range(n):
            avg += space.probs[k] * g0.selector.rows[k]
        assert g0.vectors[0].tolist() == avg.tolist()


def _lorenz_rows(sorted_vals, cum, p):
    # greedy mass fill along each pre-sorted row, vectorized over rows
    prev = np.concatenate([np.zeros((cum.shape[0], 1)), cum[:, :-1]], axis=1)
    take = np.clip(np.minimum(cum, p) - prev, 0.0, None)
    return (sorted_vals * take).sum(axis=1)


def test_criterion_5_lorenz_identifier():
    # 200 random Z, 20 levels each: the supergradient p*zeta has a feasible
    # density (E[zeta]=1, 0 <= zeta <= 1/p), satisfies the value equation
    # E[zeta Z] = lorenz(Z,p)/p, and the concave supergradient inequality
    # against 200 random V, all within 1e-10.
    rng = np.random.default_rng(4206)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        Z = _random_variable(rng, n, -5.0, 5.0)
        probs = Z.space.probs

        Vm = rng.uniform(-5.0, 5.0, (200, n))
        order = np.argsort(Vm, axis=1, kind="stable")
        vs = np.take_along_axis(Vm, order, axis=1)
        ps = np.take_along_axis(np.broadcast_to(probs, Vm.shape), order, axis=1)
        cum = np.cumsum(ps, axis=1)

        levels = rng.uniform(0.01, 1.0, 19)
        for p in [1.0] + [float(q) for q in levels]:
            g = lorenz_supergradient(Z, p)
            zeta = g / p
            assert abs(float(probs @ zeta) - 1.0) <= 1e-10
            assert float(np.min(zeta)) >= -1e-10
            assert float(np.max(zeta)) <= 1.0 / p + 1e-10
            lz = lorenz(Z, p)
            assert abs(float(probs @ (zeta * Z.values)) - lz / p) <= 1e-10

            lorenz_v = _lorenz_rows(vs, cum, p)
            linear = (Vm - Z.values) @ (probs * g)
            assert float(np.max(lorenz_v - lz - linear)) <= 1e-10


def test_criterion_5_helper_matches_library():
    # keeps the vectorized oracle used above honest against the public API
    rng = np.random.default_rng(4216)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        space = random_space(rng, n)
        vals = rng.uniform(-5.0, 5.0, n)
        V = RandomVariable(space, vals)
        order = np.argsort(vals[None, :], axis=1, kind="stable")
        vs = np.take_along_axis(vals[None, :], order, axis=1)
        ps = np.take_along_axis(space.probs[None, :], order, axis=1)
        cum = np.cumsum(ps, axis=1)
        for p in rng.uniform(0.01, 1.0, 8):
            got = float(_lorenz_rows(vs, cum, float(p))[0])
            assert got == pytest.approx(lorenz(V, float(p)), abs=1e-12)


def test_criterion_6_local_property_and_blends():
    # exact indicator commutation on 500 random draws, and 100 random
    # scenario-wise blends of two selectors keep the subgradient inequality
    # within 1e-10
    rng = np.random.default_rng(4207)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        space = random_space(rng, n)
        F = random_integrand(rng, space, dim)
        x = point(rng.uniform(-1.0, 1.0, dim))
        h = point(rng.uniform(-1.0, 1.0, dim))
        size = int(rng.integers(0, n + 1))
        B = sorted(int(k) for k in rng.choice(n, size=size, replace=False))
        assert local_property_check(F, x, h, B) is True

    for _ in range(100):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        space = random_space(rng, n)
        F = random_integrand(rng, space, dim)
        x = point(rng.uniform(-1.0, 1.0, dim))
        s1 = subgradient_selector(F, x, point(rng.uniform(-1.0, 1.0, dim)))
        s2 = subgradient_selector(F, x, point(rng.uniform(-1.0, 1.0, dim)))
        s = blend_selectors(s1, s2, rng.uniform(0.0, 1.0, n))
        fx = evaluate(F, x).values
        xrow = x.vectors[0]
        for _ in range(30):
            yrow = rng.uniform(-2.0, 2.0, dim)
            fy = evaluate(F, point(yrow)).values
            lower = fx + s.rows @ (yrow - xrow)
            assert float(np.min(fy - lower)) >= -1e-10


def test_criterion_7_solve_matches_brute_force():
    # every shipped instance: the solver's best-feasible objective is within
    # 1e-4 of a 1e-3-grid exhaustive optimum, in under 30 s per instance, at
    # a point with no violation on the checked levels
    for name in SHIPPED:
        loaded = _load(name)
        start = time.monotonic()
        sol = solve(loaded.spec, loaded.options)
        ref = _brute(name)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{name} took {elapsed:.2f}s"
        assert sol.feasible, f"{name}: solver found no feasible point"
        assert sol.max_violation <= 0.0, f"{name}: violation {sol.max_violation!r}"
        assert ref.feasible, f"{name}: brute force found no feasible point"
        gap = abs(sol.objective_value - ref.value)
        assert gap <= 1e-4, f"{name}: |solve - brute| = {gap:.3e}"


def test_criterion_8_certificates():
    # certify accepts the exhaustive optimum of every instance that declares
    # an interior (Slater) point, with residual <= 1e-5 and complementarity
    # gap <= 1e-8; the residual grows strictly along a feasible perturbation
    # ray on every instance; dual level weights reproduce (kappa/p) * w
    # bitwise
    kappa_seen = False
    for name in SHIPPED:
        loaded = _load(name)
        spec = loaded.spec

        if "slater_point" in loaded.meta:
            ref = _brute(name)
            cert = certify(spec, ref.x)
            assert cert.accepted, f"{name}: certificate rejected, r={cert.residual:.3e}"
            assert cert.residual <= 1e-5, f"{name}: residual {cert.residual:.3e}"
            assert cert.c_gap <= 1e-8, f"{name}: complementarity {cert.c_gap:.3e}"
            if cert.kappa == 0.0:
                assert cert.nu == ()
            else:
                kappa_seen = True
                assert len(cert.nu) == len(cert.levels)
                for (lv, lw), p, w in zip(cert.nu, cert.levels, cert.weights):
                    assert lv == p
                    assert lw == (cert.kappa / p) * w

        x_hat = np.asarray(loaded.meta["x_hat"], dtype=float).reshape(
            spec.num_blocks, spec.dim
        )
        ray = np.asarray(loaded.meta["perturb_direction"], dtype=float).reshape(
            spec.num_blocks, spec.dim
        )
        residuals = [
            certify(spec, spec.decision(x_hat + delta * ray)).residual
            for delta in (0.01, 0.05, 0.1)
        ]
        assert residuals[0] < residuals[1] < residuals[2], (
            f"{name}: perturbation residuals not strictly increasing: {residuals}"
        )
    assert kappa_seen, "no instance exercised an active dominance constraint"


def test_gap_bounds_cover_the_brute_force_gap():
    # solve's stop rests on certify's gap_bound: at 300 iterations and at the
    # file's budget, the bound solve reports (when a stop test was made at
    # x_hat) and certify's bound at x_hat are at least solve's objective
    # minus the exhaustive optimum (cached by criterion 7), which is at most
    # the true gap; on i02 and i08 the bound equals that gap to the last bit
    stopped = {}
    for name in SHIPPED:
        loaded = _load(name)
        ref = _brute(name)
        for opts in (dataclasses.replace(loaded.options, iters=300), loaded.options):
            sol = solve(loaded.spec, opts)
            assert not sol.feasible or sol.max_violation <= 0.0, f"{name} at {opts.iters}"
            gap = sol.objective_value - ref.value
            bounds = [certify(loaded.spec, sol.x_hat).gap_bound]
            if sol.gap_bound is not None:
                bounds.append(sol.gap_bound)
            for bound in bounds:
                assert bound >= gap, f"{name} at {opts.iters}: bound {bound!r} < gap {gap!r}"
            if opts is loaded.options and sol.iterations < opts.iters:
                stopped[name] = sol.iterations
    assert stopped == {
        "i01_median_kinks": 2,
        "i02_active_scalar": 512,
        "i03_avar_tie": 2,
        "i08_avar_pushed": 1024,
        "i10_boundary_pinned": 2,
    }


def test_criterion_9_quotient_monotone_sandwich():
    # 500 random (F, x, h, t1 < t2): scenario-wise the difference quotient
    # is nondecreasing in t and bounded below by the directional derivative,
    # within 1e-12
    rng = np.random.default_rng(4209)
    done = 0
    while done < 500:
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        space = random_space(rng, n)
        F = random_integrand(rng, space, dim)
        x = point(rng.uniform(-1.0, 1.0, dim))
        h = point(rng.uniform(-1.0, 1.0, dim))
        t1, t2 = sorted(rng.uniform(0.01, 2.0, 2))
        if t1 == t2:
            continue
        q1 = differential_quotient(F, x, h, float(t1)).values
        q2 = differential_quotient(F, x, h, float(t2)).values
        d0 = directional_derivative(F, x, h).values
        assert float(np.max(q1 - q2)) <= 1e-12
        assert float(np.max(d0 - q1)) <= 1e-12
        done += 1
