import dataclasses
import os

import numpy as np
import pytest

from riskcalc import (
    ConfigurationError,
    Curvature,
    DecisionPoint,
    DominanceConstraint,
    DomainError,
    MaxAffineIntegrand,
    Orientation,
    ProblemSpec,
    Solution,
    SolveOptions,
    SpectralMeasure,
    StructuralError,
    brute_force_optimum,
    certify,
    composite_subgradient,
    composite_value,
    constraint_subgradient,
    deterministic,
    equiprobable,
    evaluate,
    InfoPartition,
    RandomVariable,
    avar_identifier_lmo,
    directional_derivative,
    lagrangian_value,
    solve,
    spectral_identifier_lmo,
    subgradient_selector,
)
from riskcalc import solver
from riskcalc.cli import load_problem
from riskcalc.composite import _conditional_blocks
from riskcalc.solver import ACT_TOL, STOP_GAP, _ResidualGeometry
from tests.test_benchmark_names import perfbench_module
from tests.conftest import (
    INSTANCE_DIR,
    abs_integrand,
    brute_optimum,
    instance_path,
    integrand,
    load_shipped,
    random_space,
    rv,
    solve_at_budget,
)

E = SpectralMeasure.expectation()
SHIPPED = sorted(f[: -len(".json")] for f in os.listdir(INSTANCE_DIR) if f.endswith(".json"))


def slack_constraint(space, benchmark_value=-100.0):
    """G(x) = x with a benchmark so low the constraint never binds."""
    Y = rv([benchmark_value] * space.size)
    G = integrand(space, [[(1.0, 0.0)]] * space.size, Curvature.CONCAVE)
    return G, DominanceConstraint(Y, 1.0, 1.0, (1.0,))


def median_problem():
    space = equiprobable(2)
    F = abs_integrand(space, [1.0, 2.0])
    G, C = slack_constraint(space)
    return ProblemSpec(
        space, E, F, G, C, np.array([0.0]), np.array([3.0]), name="median"
    )


def forcing_problem():
    # minimize x subject to E[G(x)] = x >= 1 on [0, 3]
    space = equiprobable(2)
    F = integrand(space, [[(1.0, 0.0)]] * 2)
    G = integrand(space, [[(1.0, 0.0)]] * 2, Curvature.CONCAVE)
    C = DominanceConstraint(rv([1.0, 1.0]), 1.0, 1.0, (1.0,))
    return ProblemSpec(space, E, F, G, C, np.array([0.0]), np.array([3.0]))


def off_grid_problem():
    # minimize E[x] s.t. G(x) = x + (0, 1, 2) dominates Y = (0, 2.5, 2.5) on
    # [0.5, 1]: the constraint binds only at the breakpoint 2/3, off the grid
    space = equiprobable(3)
    F = integrand(space, [[(1.0, 0.0)]] * 3)
    G = integrand(space, [[(1.0, c)] for c in (0.0, 1.0, 2.0)], Curvature.CONCAVE)
    C = DominanceConstraint(rv([0.0, 2.5, 2.5]), 0.5, 1.0, (0.5, 1.0))
    return ProblemSpec(space, E, F, G, C, np.array([-2.0]), np.array([2.0]))


def infeasible_problem():
    # G(x) = min(x, 0) - 1 <= -1 < 0 = E[Y] for every x in the box
    space = equiprobable(2)
    F = integrand(space, [[(1.0, 0.0)]] * 2)
    G = integrand(
        space, [[(1.0, -1.0), (0.0, -1.0)]] * 2, Curvature.CONCAVE
    )
    C = DominanceConstraint(rv([0.0, 0.0]), 1.0, 1.0, (1.0,))
    return ProblemSpec(space, E, F, G, C, np.array([0.0]), np.array([3.0]))


class TestSolve:
    def test_median_instance(self):
        sol = solve(median_problem(), SolveOptions(iters=20000, gamma0=0.5))
        assert sol.feasible
        x = sol.x_hat.vectors[0][0]
        assert 1.0 - 1e-3 <= x <= 2.0 + 1e-3
        assert sol.objective_value == pytest.approx(0.5, abs=1e-4)

    def test_constraint_forcing(self):
        sol = solve(forcing_problem(), SolveOptions(iters=20000, gamma0=0.5))
        assert sol.feasible
        assert sol.x_hat.vectors[0][0] == pytest.approx(1.0, abs=1e-3)

    def test_infeasible_flagged(self):
        sol = solve(infeasible_problem(), SolveOptions(iters=500, gamma0=0.5))
        assert not sol.feasible
        assert sol.max_violation > 0.5

    def test_iterate_stays_in_box(self):
        sol = solve(median_problem(), SolveOptions(iters=200, gamma0=5.0))
        x = sol.x_hat.vectors
        assert np.all(x >= 0.0) and np.all(x <= 3.0)

    def test_objective_value_recomputes(self):
        prob = median_problem()
        sol = solve(prob, SolveOptions(iters=2000, gamma0=0.5))
        recomputed = composite_value(prob.risk, prob.objective, sol.x_hat)
        assert sol.objective_value == recomputed

    def test_deterministic(self):
        prob = median_problem()
        opts = SolveOptions(iters=3000, gamma0=0.5)
        a = solve(prob, opts)
        b = solve(prob, opts)
        assert a.x_hat.vectors.tolist() == b.x_hat.vectors.tolist()
        assert a.objective_value == b.objective_value
        assert a.trace == b.trace

    def test_best_feasible_nonincreasing_in_budget(self):
        prob = median_problem()
        values = [
            solve(prob, SolveOptions(iters=n, gamma0=0.5)).objective_value
            for n in (200, 2000, 20000)
        ]
        assert values[0] >= values[1] - 1e-12
        assert values[1] >= values[2] - 1e-12

    def test_stops_only_on_an_accepted_certificate(self):
        # F = s * |x - 1| with s = 2e-5: every point but x = 1 has residual
        # s > CERT_TOL, so certify rejects, although its bound 3 * s on
        # [0, 3] is below STOP_GAP; solve moves by at most 6e-5 per step
        # and runs its whole budget
        s = 2e-5
        space = equiprobable(2)
        F = integrand(space, [[(s, -s), (-s, s)]] * 2)
        G, C = slack_constraint(space)
        prob = ProblemSpec(space, E, F, G, C, np.array([0.0]), np.array([3.0]))
        sol = solve(prob, SolveOptions(iters=64))
        assert sol.iterations == 64
        cert = certify(prob, sol.x_hat)
        assert not cert.accepted and 0.0 < cert.gap_bound <= STOP_GAP

    def test_iteration_budget_below_one_rejected(self):
        # a budget below one evaluated nothing, yet reported the box centre
        for iters in (0, -3):
            with pytest.raises(DomainError):
                solve(median_problem(), SolveOptions(iters=iters))


class TestBruteForce:
    def test_median_matches(self):
        bf = brute_force_optimum(median_problem(), grid_resolution=1e-3)
        assert bf.feasible
        assert bf.value == pytest.approx(0.5, abs=1e-9)

    def test_forcing_matches(self):
        bf = brute_force_optimum(forcing_problem(), grid_resolution=1e-3)
        assert bf.feasible
        assert bf.x.vectors[0][0] == pytest.approx(1.0, abs=1e-9)
        assert bf.value == pytest.approx(1.0, abs=1e-9)

    def test_refinement_monotone(self):
        prob = median_problem()
        coarse = brute_force_optimum(prob, grid_resolution=0.25)
        fine = brute_force_optimum(prob, grid_resolution=0.05)
        assert fine.value <= coarse.value + 1e-12

    def test_infeasible_reports_empty(self):
        bf = brute_force_optimum(infeasible_problem(), grid_resolution=0.1)
        assert not bf.feasible
        assert bf.num_feasible == 0
        assert bf.x is None

    def test_dimension_refused(self):
        space = equiprobable(1)
        F = integrand(space, [[(np.zeros(5), 0.0)]])
        G = integrand(space, [[(np.zeros(5), 0.0)]], Curvature.CONCAVE)
        C = DominanceConstraint(rv([-100.0]), 1.0, 1.0, (1.0,))
        prob = ProblemSpec(space, E, F, G, C, np.zeros(5), np.ones(5))
        with pytest.raises(DomainError):
            brute_force_optimum(prob, grid_resolution=0.5)

    def test_resolution_must_be_positive(self):
        with pytest.raises(DomainError):
            brute_force_optimum(median_problem(), grid_resolution=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_resolution": float("nan")},
            {"grid_resolution": float("inf")},
            {"grid_resolution": -0.1},
            {"grid_resolution": None},
        ],
    )
    def test_arguments_checked(self, kwargs):
        # a NaN resolution failed inside numpy
        with pytest.raises(DomainError):
            brute_force_optimum(load("i02_active_scalar").spec, **kwargs)

    def test_small_chunks_change_nothing(self, monkeypatch):
        prob = forcing_problem()
        whole = brute_force_optimum(prob, grid_resolution=0.01)
        monkeypatch.setattr(solver, "BRUTE_CHUNK", 7)
        split = brute_force_optimum(prob, grid_resolution=0.01)
        assert (split.value, split.num_feasible) == (whole.value, whole.num_feasible)
        assert split.x.vectors.tobytes() == whole.x.vectors.tobytes()


class TestProblemSpecValidation:
    def test_lower_risk_rejected(self):
        space = equiprobable(2)
        F = abs_integrand(space, [1.0, 2.0])
        G, C = slack_constraint(space)
        lower = SpectralMeasure((0.5,), (1.0,), Orientation.LOWER)
        with pytest.raises(ConfigurationError):
            ProblemSpec(space, lower, F, G, C, np.array([0.0]), np.array([3.0]))

    def test_convex_constraint_rejected(self):
        space = equiprobable(2)
        F = abs_integrand(space, [1.0, 2.0])
        G_bad = integrand(space, [[(1.0, 0.0)]] * 2, Curvature.CONVEX)
        _, C = slack_constraint(space)
        with pytest.raises(ConfigurationError):
            ProblemSpec(space, E, F, G_bad, C, np.array([0.0]), np.array([3.0]))

    def test_box_order_checked(self):
        space = equiprobable(2)
        F = abs_integrand(space, [1.0, 2.0])
        G, C = slack_constraint(space)
        with pytest.raises(DomainError):
            ProblemSpec(space, E, F, G, C, np.array([3.0]), np.array([0.0]))

    def test_dimension_mismatch_checked(self):
        space = equiprobable(2)
        F = abs_integrand(space, [1.0, 2.0])
        G = integrand(space, [[(np.zeros(2), 0.0)]] * 2, Curvature.CONCAVE)
        _, C = slack_constraint(space)
        with pytest.raises(StructuralError):
            ProblemSpec(space, E, F, G, C, np.array([0.0]), np.array([3.0]))


class TestLagrangian:
    def test_zero_multiplier_is_objective(self):
        prob = median_problem()
        x = deterministic(1.3)
        mu = SpectralMeasure((1.0,), (1.0,), Orientation.LOWER)
        base = composite_value(prob.risk, prob.objective, x)
        assert lagrangian_value(prob, x, 0.0, mu) == base

    def test_point_mass_on_deterministic_map(self):
        # G(x) = x deterministic: avar_lower at any level of a constant is -x
        prob = forcing_problem()
        mu = SpectralMeasure((1.0,), (1.0,), Orientation.LOWER)
        for kappa in (0.5, 2.0):
            for xv in (0.3, 1.7):
                got = lagrangian_value(prob, deterministic(xv), kappa, mu)
                assert got == pytest.approx(xv + kappa * (-xv), abs=1e-12)

    def test_upper_oriented_multiplier_rejected(self):
        prob = forcing_problem()
        mu = SpectralMeasure((1.0,), (1.0,), Orientation.UPPER)
        with pytest.raises(ConfigurationError):
            lagrangian_value(prob, deterministic(1.0), 1.0, mu)

    def test_support_outside_interval_rejected(self):
        prob = forcing_problem()  # interval [1, 1]
        mu = SpectralMeasure((0.5,), (1.0,), Orientation.LOWER)
        with pytest.raises(DomainError):
            lagrangian_value(prob, deterministic(1.0), 1.0, mu)

    def test_negative_kappa_rejected(self):
        prob = forcing_problem()
        mu = SpectralMeasure((1.0,), (1.0,), Orientation.LOWER)
        with pytest.raises(DomainError):
            lagrangian_value(prob, deterministic(1.0), -0.1, mu)

    def test_certified_point_minimizes_lagrangian(self):
        # the off-grid problem binds at level 2/3, where weighting the level
        # by 1/p would give the wrong Lagrangian
        for prob in (forcing_problem(), off_grid_problem()):
            bf = brute_force_optimum(prob, grid_resolution=1e-3)
            cert = certify(prob, bf.x)
            assert cert.accepted and cert.kappa > 0.0
            mu = SpectralMeasure(cert.levels, cert.weights, Orientation.LOWER)
            base = lagrangian_value(prob, bf.x, cert.kappa, mu)
            rng = np.random.default_rng(100)
            for _ in range(1000):
                y = deterministic(rng.uniform(prob.box_lower[0], prob.box_upper[0]))
                assert lagrangian_value(prob, y, cert.kappa, mu) >= base - 1e-6


class TestNuFromMu:
    """``Certificate.nu`` is the derived measure (kappa/p) mu of the
    certificate's multipliers (kappa, levels, weights)."""

    def binding(self):
        for prob, x in ((forcing_problem(), 1.0), (off_grid_problem(), 0.75)):
            cert = certify(prob, deterministic(x))
            assert cert.accepted and cert.kappa > 0.0
            yield cert

    def test_zero_kappa(self):
        cert = certify(median_problem(), deterministic(1.5))
        assert cert.accepted and cert.kappa == 0.0
        assert cert.nu == ()

    def test_point_mass_arithmetic(self):
        for cert in self.binding():
            assert cert.nu == tuple(
                (p, (cert.kappa / p) * w) for p, w in zip(cert.levels, cert.weights)
            )

    def test_total_mass_at_least_kappa(self):
        for cert in self.binding():
            assert sum(w for _, w in cert.nu) >= cert.kappa - 1e-15


class TestCertify:
    def test_interior_minimizer_zero_kappa(self):
        # smooth strictly convex-ish instance: pieces form a V with the
        # vertex strictly inside the box and the constraint slack
        space = equiprobable(2)
        F = abs_integrand(space, [1.5, 1.5])
        G, C = slack_constraint(space)
        prob = ProblemSpec(space, E, F, G, C, np.array([0.0]), np.array([3.0]))
        cert = certify(prob, deterministic(1.5))
        assert cert.accepted
        assert cert.kappa == 0.0
        assert cert.residual <= 1e-10
        assert cert.nu == ()

    def test_active_scalar_instance(self):
        prob = forcing_problem()
        cert = certify(prob, deterministic(1.0))
        assert cert.accepted
        assert cert.kappa > 0.0
        assert len(cert.levels) == 1
        assert cert.residual <= 1e-6
        assert cert.c_gap <= 1e-8
        assert cert.nu == tuple(
            (p, (cert.kappa / p) * w) for p, w in zip(cert.levels, cert.weights)
        )

    def test_weights_form_probability_when_kappa_positive(self):
        prob = forcing_problem()
        cert = certify(prob, deterministic(1.0))
        assert all(w >= 0 for w in cert.weights)
        assert sum(cert.weights) == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_ladder_monotone(self):
        # the steep-piece instance makes the subdifferential grow with the
        # offset, so the residual must climb strictly along the ladder
        loaded = load_problem(instance_path("i02_active_scalar"))
        prob = loaded.spec
        x_star = np.asarray(loaded.meta["x_hat"], dtype=float).reshape(
            prob.num_blocks, prob.dim
        )
        d = np.asarray(
            loaded.meta.get("perturb_direction", np.ones(prob.stacked_dim)),
            dtype=float,
        ).reshape(prob.num_blocks, prob.dim)
        rs = [
            certify(prob, prob.decision(x_star + delta * d)).residual
            for delta in (0.01, 0.05, 0.1)
        ]
        assert rs[0] > 1e-5
        assert rs[0] < rs[1] < rs[2]

    def test_point_outside_box_rejected(self):
        with pytest.raises(DomainError):
            certify(median_problem(), deterministic(5.0))

    def test_boundary_point_normal_cone(self):
        # minimize x with slack constraint: optimum pinned at the lower bound,
        # certified through the normal cone alone (kappa = 0)
        space = equiprobable(2)
        F = integrand(space, [[(1.0, 0.0)]] * 2)
        G, C = slack_constraint(space)
        prob = ProblemSpec(space, E, F, G, C, np.array([0.5]), np.array([3.0]))
        cert = certify(prob, deterministic(0.5))
        assert cert.accepted
        assert cert.kappa == 0.0

    def test_accepts_optimum_binding_off_grid(self):
        prob = off_grid_problem()
        bf = brute_force_optimum(prob, 1e-3)
        assert bf.x.vectors[0][0] == pytest.approx(0.75, abs=1e-12)
        cert = certify(prob, bf.x)
        assert cert.accepted
        assert cert.levels == pytest.approx((2.0 / 3.0,), abs=1e-12)
        assert cert.kappa == pytest.approx(1.5, abs=1e-6)

    def test_margin_sees_off_grid_violation(self):
        # x = 0.7 satisfies the constraint on the grid but not at 2/3
        prob = off_grid_problem()
        Z = evaluate(prob.constraint_integrand, deterministic(0.7))
        assert prob.constraint.rho(Z, prob.constraint.grid)[1].max() <= 0.0
        margin = -float(np.max(prob.constraint.rho(Z)[1]))
        assert margin == pytest.approx(-1.0 / 30.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": -1.0},
            {"tol": float("-inf")},
            {"tol": "0.1"},
            {"max_iters": -1},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_iters": 0},
        ],
    )
    def test_tolerances_and_budget_checked(self, kwargs):
        # tol = inf accepted any point and tol = -1 rejected an exact one;
        # max_iters = 2.5 failed with TypeError
        with pytest.raises(DomainError):
            certify(forcing_problem(), deterministic(1.0), **kwargs)

    def test_boundary_tolerances_accepted(self):
        cert = certify(forcing_problem(), deterministic(1.0), tol=0, max_iters=np.int64(3))
        assert cert.levels == (1.0,)
        assert cert.iterations <= 3

    def test_deterministic_point_repeated_on_blocks(self):
        # a deterministic point is the same decision in every block
        prob = load("i05_block_medians").spec
        for v in (0.5, 1.0, 1.7):
            lifted = prob.decision(np.full((prob.num_blocks, prob.dim), v))
            a = certify(prob, deterministic(np.full(prob.dim, v)))
            assert certificate_bytes(a) == certificate_bytes(certify(prob, lifted))

    def test_point_structure_checked(self):
        prob = load("i05_block_medians").spec
        space = prob.space
        other = InfoPartition(space, tuple((k,) for k in range(space.size)))
        bad = [
            deterministic(np.ones(prob.dim + 1)),
            DecisionPoint(np.ones((prob.num_blocks, prob.dim + 1)), prob.partition),
            DecisionPoint(np.ones((space.size, prob.dim)), other),
        ]
        for x in bad:
            with pytest.raises(StructuralError):
                certify(prob, x)
        # and a block-structured point on a deterministic problem
        flat = forcing_problem()
        halves = InfoPartition(flat.space, ((0,), (1,)))
        with pytest.raises(StructuralError):
            certify(flat, DecisionPoint(np.ones((2, 1)), halves))

    def test_deterministic_certificates(self):
        prob = forcing_problem()
        a = certify(prob, deterministic(1.0))
        b = certify(prob, deterministic(1.0))
        assert a.residual == b.residual
        assert a.kappa == b.kappa
        assert a.levels == b.levels
        assert a.weights == b.weights


class TestGapBound:
    def test_residual_times_diameter_plus_complementarity(self):
        # forcing_problem on [0, 3] at x = 1 is accepted with kappa 1; at
        # 1.5 nothing is active, the residual is the objective's slope 1
        # and the bound is 3 against a gap of 0.5
        prob = forcing_problem()
        for x in (1.0, 1.5):
            cert = certify(prob, deterministic(x))
            assert cert.gap_bound == cert.residual * 3.0 + cert.c_gap
            assert cert.gap_bound >= x - 1.0
        assert certify(prob, deterministic(1.0)).gap_bound == 0.0
        assert certify(prob, deterministic(1.5)).gap_bound == 3.0

    def test_dropped_multipliers_keep_their_complementarity(self):
        # with kappa <= tol no weights are reported and c_gap is 0, but the
        # residual used the multipliers: kappa * ACT_TOL bounds their term
        cert = certify(forcing_problem(), deterministic(1.0), tol=1.0)
        assert cert.levels == () and cert.c_gap == 0.0 and cert.kappa > 0.0
        assert cert.gap_bound == cert.residual * 3.0 + cert.kappa * ACT_TOL

    def test_bound_holds_whether_or_not_accepted(self):
        # at the brute-force point, a uniform point and a half-lattice point
        # of the box, the bound is at least the objective there minus the
        # objective at the brute-force optimum (both by composite_value)
        rng = np.random.default_rng(31)
        seen = set()
        for i in range(160):
            prob = random_problem(rng, i)
            if prob.stacked_dim > 2:
                continue
            bf = brute_force_optimum(prob, grid_resolution=2e-2)
            if not bf.feasible:
                continue
            best = composite_value(prob.risk, prob.objective, bf.x)
            lo, hi = prob.block_bounds()
            for rows in (bf.x.vectors, rng.uniform(lo, hi), np.round(rng.uniform(lo, hi) * 2) / 2):
                x = prob.decision(rows)
                cert = certify(prob, x)
                assert cert.gap_bound >= composite_value(prob.risk, prob.objective, x) - best
                seen.add(cert.accepted)
        assert seen == {True, False}


def load(name):
    return load_problem(instance_path(name))


class TestShippedInstances:
    @pytest.mark.parametrize("name, stop_at", [("i02_active_scalar", 512), ("i08_avar_pushed", 1024)])
    def test_larger_cap_worse_by_at_most_stop_gap(self, name, stop_at):
        # a cap of 8 * stop_at tests at stop_at and stops there; a cap one
        # below tests no later than stop_at / 2 and runs to the end, where
        # i08 finds a lower point, so the objective falls with the cap only
        # up to STOP_GAP
        loaded = load(name)
        below = solve(loaded.spec, dataclasses.replace(loaded.options, iters=8 * stop_at - 1))
        at = solve(loaded.spec, dataclasses.replace(loaded.options, iters=8 * stop_at))
        assert below.iterations == 8 * stop_at - 1 and below.gap_bound is None
        assert at.iterations == stop_at and at.gap_bound <= STOP_GAP
        assert at.objective_value - below.objective_value <= STOP_GAP
        for sol in (below, at):
            assert sol.feasible and sol.max_violation <= 0.0

    def test_full_interval_soundness(self):
        # accepted certificate in [0, 1] mode bounds the true optimum
        loaded = load("i07_full_interval")
        prob = loaded.spec
        assert prob.constraint.alpha == 0.0 and prob.constraint.beta == 1.0
        bf = brute_force_optimum(prob, grid_resolution=1e-3)
        cert = certify(prob, bf.x)
        assert cert.accepted
        assert bf.value >= composite_value(prob.risk, prob.objective, bf.x) - 1e-4

    def test_certify_stops_once_no_column_improves(self):
        # two dominance levels and the x2 lower bound are active at the
        # optimum; the exact master reaches it in a few pricing rounds
        loaded = load("i06_portfolio")
        prob = loaded.spec
        x = prob.decision(np.asarray(loaded.meta["x_hat"], dtype=float).reshape(1, -1))
        cert = certify(prob, x)
        assert cert.accepted
        assert cert.iterations <= 3
        assert cert.residual <= 1e-12
        assert certify(prob, x, max_iters=1).iterations == 1

    def test_certify_needs_one_pricing_round(self):
        # a bound below one would price nothing and reject i06's optimum
        loaded = load("i06_portfolio")
        prob = loaded.spec
        x = prob.decision(np.asarray(loaded.meta["x_hat"], dtype=float).reshape(1, -1))
        for bound in (0, -5):
            with pytest.raises(DomainError):
                certify(prob, x, max_iters=bound)

    def test_partitioned_instance_roundtrip(self):
        # the solution at the file's budget and the brute-force optimum are
        # shared with acceptance criterion 7
        name = "i05_block_medians"
        assert load_shipped(name).spec.num_blocks == 2
        sol = solve_at_budget(name)
        assert sol.feasible
        assert sol.objective_value <= brute_optimum(name).value + 1e-4

    @pytest.mark.parametrize("name", ["median", "i05_block_medians"])
    def test_one_kernel_call_per_integrand_and_iteration(self, name, monkeypatch):
        # one G evaluation per iteration run, one F evaluation per objective
        # step, and at most the final evaluation at x_hat; each stop test's
        # certify makes one F and one G evaluation of its own; solve calls
        # the unchecked array kernel and never the checked route
        calls = {"loop": [], "tests": []}
        where = ["loop"]
        pieces = MaxAffineIntegrand._pieces
        certified = solver.certify

        def counted(self, *args, **kwargs):
            calls[where[0]].append(self)
            return pieces(self, *args, **kwargs)

        def counted_certify(*args, **kwargs):
            where[0] = "tests"
            try:
                return certified(*args, **kwargs)
            finally:
                where[0] = "loop"

        def unexpected(self, *args, **kwargs):
            raise AssertionError("solve went through the checked route")

        monkeypatch.setattr(MaxAffineIntegrand, "_pieces", counted)
        monkeypatch.setattr(MaxAffineIntegrand, "_select", unexpected)
        monkeypatch.setattr(solver, "certify", counted_certify)
        iters = 300
        spec = load(name).spec
        sol = solve(spec, SolveOptions(iters=iters))
        loop = calls["loop"]
        assert sum(1 for F in loop if F is spec.constraint_integrand) == sol.iterations
        assert len(loop) <= 2 * sol.iterations + 1
        # a stop test after r iterations exactly when the best point improved
        # in an iteration since the previous test point
        points = [r for r in (2, 4, 8, 16, 32) if r <= sol.iterations]
        tests = sum(
            1
            for before, r in zip([0] + points, points)
            if any(before <= t < r for t, _ in sol.trace)
        )
        assert tests >= 1
        assert sorted(map(id, calls["tests"])) == sorted(
            [id(spec.objective), id(spec.constraint_integrand)] * tests
        )

    def test_levels_once_and_one_sort_per_iteration_for_an_expectation(self, monkeypatch):
        # i07 is equiprobable, so G(x)'s prefix mass never changes and the
        # loop derives the checked levels once; each stop test's certify
        # derives them once more.  Its objective is an expectation: the loop
        # sorts G(x) once per iteration and F(x) never, and no identifier
        # needs a greedy order
        calls = {"loop": {"levels": 0, "sorts": 0}, "tests": {"levels": 0, "sorts": 0}}
        where, tests = ["loop"], []
        levels_on, sort_prefix, certified = (
            DominanceConstraint._levels_on,
            solver._sort_prefix,
            solver.certify,
        )

        def counted(kind, method):
            def wrapper(*args):
                calls[where[0]][kind] += 1
                return method(*args)

            return wrapper

        def counted_certify(*args, **kwargs):
            where[0] = "tests"
            tests.append(args)
            try:
                return certified(*args, **kwargs)
            finally:
                where[0] = "loop"

        def unexpected(*args):
            raise AssertionError("an expectation's identifier built a greedy order")

        monkeypatch.setattr(DominanceConstraint, "_levels_on", counted("levels", levels_on))
        monkeypatch.setattr(solver, "_sort_prefix", counted("sorts", sort_prefix))
        monkeypatch.setattr(solver, "certify", counted_certify)
        monkeypatch.setattr("riskcalc.risk._greedy_order", unexpected)
        spec = load("i07_full_interval").spec
        assert spec.risk.is_expectation
        sol = solve(spec, SolveOptions(iters=300))
        assert sol.feasible and sol.trace and tests
        assert calls["loop"] == {"levels": 1, "sorts": sol.iterations}
        assert calls["tests"] == {"levels": len(tests), "sorts": len(tests)}

    def test_solution_trace_records_improvements(self):
        loaded = load("i01_median_kinks")
        sol = solve(loaded.spec, loaded.options)
        trace = sol.trace
        assert len(trace) >= 1
        iters = [t for t, _ in trace]
        vals = [v for _, v in trace]
        assert iters == sorted(iters)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# solve's array loop against the same method written with public objects.


def reference_solve(problem, opts):
    """The switching subgradient loop through the public, checked functions:
    a DecisionPoint, G(x) as a RandomVariable, the constraint's rho and the
    two public subgradients at every iteration, and the stop tests through
    the public certify."""
    lo, hi = problem.block_bounds()
    gamma0 = opts.gamma0
    if gamma0 is None:
        gamma0 = float(np.linalg.norm((hi - lo).ravel()))
        if gamma0 <= 0.0:
            gamma0 = 1.0
    F, G, C = problem.objective, problem.constraint_integrand, problem.constraint
    # After 2, 4, 8, ... iterations while 8 times that count fits the budget.
    test_after = {2**k for k in range(1, opts.iters.bit_length()) if 8 * 2**k <= opts.iters}
    x = 0.5 * (lo + hi)
    best_obj, best_x, least_viol = np.inf, None, np.inf
    moved, cert, cert_at_best = False, None, False
    trace = []
    for t in range(opts.iters):
        xp = problem.decision(x)
        levels, rho = C.rho(evaluate(G, xp))
        viol = float(np.max(rho))
        if viol < least_viol:
            least_viol, least_viol_x = viol, x.copy()
        if viol <= 0.0:
            obj = composite_value(problem.risk, F, xp)
            if obj < best_obj:
                best_obj, best_viol, best_x = obj, viol, x.copy()
                trace.append((t, obj))
                moved, cert_at_best = True, False
            step = composite_subgradient(problem.risk, F, xp, problem.partition).vectors
        else:
            p = float(levels[int(np.argmax(rho))])
            step = constraint_subgradient(G, xp, p, problem.partition)
        gamma = gamma0 / np.sqrt(t + 1.0)
        x = np.clip(x - gamma * step, lo, hi)
        if t + 1 in test_after and moved:
            moved, cert_at_best = False, True
            cert = certify(problem, problem.decision(best_x))
            if cert.accepted and cert.gap_bound <= STOP_GAP:
                break
    feasible = best_x is not None
    if not feasible:
        best_x, best_viol = least_viol_x, least_viol
        best_obj = composite_value(problem.risk, F, problem.decision(best_x))
    return Solution(
        problem.decision(best_x),
        best_obj,
        best_viol,
        t + 1,
        feasible,
        tuple(trace),
        cert.gap_bound if cert_at_best else None,
    )


def solution_bytes(sol):
    """Every Solution field, as bytes or exact reprs with their types."""
    return (
        sol.x_hat.vectors.tobytes(),
        sol.x_hat.vectors.shape,
        sol.x_hat.partition,
        type(sol.objective_value),
        repr(sol.objective_value),
        type(sol.max_violation),
        repr(sol.max_violation),
        sol.iterations,
        sol.feasible,
        tuple((t, type(v), repr(v)) for t, v in sol.trace),
        repr(sol.gap_bound),
    )


def random_problem(rng, i):
    """A small problem: tied values on lattices every other time, a
    partition every other pair, 1-3 level spectral objectives, and a
    benchmark above G everywhere (infeasible) one time in four."""
    n = int(rng.integers(1, 10))
    dim = int(rng.integers(1, 4))
    space = equiprobable(n) if i % 2 == 0 else random_space(rng, n)

    def pieces(curvature):
        fams = []
        for _ in range(n):
            m = int(rng.integers(1, 5))
            if i % 2 == 0:
                fam = [(rng.integers(-2, 3, dim), float(rng.integers(-2, 3))) for _ in range(m)]
            else:
                fam = [(rng.uniform(-2, 2, dim), rng.uniform(-1, 1)) for _ in range(m)]
            fams.append(fam)
        return integrand(space, fams, curvature)

    F, G = pieces(Curvature.CONVEX), pieces(Curvature.CONCAVE)
    drawn = rng.choice([0.1, 0.25, 0.5, 0.8, 1.0], int(rng.integers(1, 4)))
    levels = sorted(set(float(v) for v in drawn))
    w = rng.uniform(0.1, 1.0, len(levels))
    weights = list(w / w.sum())
    weights[-1] = 1.0 - sum(weights[:-1])
    risk = SpectralMeasure(tuple(levels), tuple(weights), Orientation.UPPER)
    centre = evaluate(G, deterministic(np.zeros(dim))).values
    shift = 0.5 if i % 4 == 3 else -0.2
    ceiling = np.max(np.abs(G.slopes).sum(axis=2) + np.abs(G.offsets))
    Y = RandomVariable(space, centre + shift if shift < 0 else np.full(n, ceiling + shift))
    alpha = float(rng.choice([0.2, 0.5, 1.0]))
    grid = (alpha,) if alpha == 1.0 else (alpha, 0.5 * (alpha + 1.0), 1.0)
    C = DominanceConstraint(Y, alpha, 1.0, grid)
    partition = None
    if (i // 2) % 2 == 1 and n > 1:
        perm = [int(k) for k in rng.permutation(n)]
        cut = int(rng.integers(1, n))
        partition = InfoPartition(space, (tuple(perm[:cut]), tuple(perm[cut:])))
    return ProblemSpec(space, risk, F, G, C, -np.ones(dim), np.ones(dim), partition)


class TestArrayLoopMatchesPublicLoop:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_instances_bitwise(self, name):
        spec = load(name).spec
        for opts in (SolveOptions(iters=300), SolveOptions(iters=120, gamma0=0.25)):
            got = solution_bytes(solve(spec, opts))
            assert got == solution_bytes(reference_solve(spec, opts))

    def test_random_problems_bitwise(self, monkeypatch):
        rng = np.random.default_rng(7)
        kinds = set()
        bounds = []
        certified = solver.certify

        def recorded(*args, **kwargs):
            cert = certified(*args, **kwargs)
            bounds.append(cert.gap_bound)
            return cert

        monkeypatch.setattr(solver, "certify", recorded)
        for i in range(40):
            prob = random_problem(rng, i)
            opts = SolveOptions(iters=int(rng.integers(1, 80)))
            got = solve(prob, opts)
            assert solution_bytes(got) == solution_bytes(reference_solve(prob, opts))
            assert not got.feasible or got.max_violation <= 0.0
            kinds.add((got.feasible, prob.partition is not None, len(prob.risk.levels) > 1))
        # both outcomes, with and without blocks, and multi-level objectives
        assert {f for f, _, _ in kinds} == {True, False}
        assert {b for _, b, _ in kinds} == {True, False}
        assert any(m for _, _, m in kinds)
        # every stop test's bound is a bound: nonnegative
        assert bounds and all(b >= 0.0 for b in bounds)

    @pytest.mark.parametrize("weight", [1 - 4e-13, 1 + 9e-13])
    @pytest.mark.parametrize(
        "name", ["i02_active_scalar", "i05_block_medians", "i07_full_interval"]
    )
    def test_level_one_weight_off_one_bitwise(self, name, weight):
        # a level-1 weight may differ from 1 within SPECTRAL_WEIGHT_TOL, and
        # the objective is then that weight times the mean, not the mean;
        # random_problem never draws this, its last weight being exactly
        # 1 - sum(rest)
        risk = SpectralMeasure((1.0,), (weight,), Orientation.UPPER)
        spec = dataclasses.replace(load(name).spec, risk=risk)
        opts = SolveOptions(iters=300)
        sol = solve(spec, opts)
        assert solution_bytes(sol) == solution_bytes(reference_solve(spec, opts))
        D = spec.stacked_dim
        directions = [np.zeros(D), np.random.default_rng(3).normal(size=D)]
        assert_vertices_match(spec, sol.x_hat, directions)

    def test_benchmark_wide_problems_bitwise(self, monkeypatch):
        # the benchmark's wide problems have random weights, partitions and
        # three levels below 1: G(x)'s prefix mass moves with its order, so
        # solve re-derives the checked levels whenever it does
        wide = perfbench_module("workloads").Wide()
        levels_on = DominanceConstraint._levels_on
        derived = []

        def counted(*args):
            derived.append(args)
            return levels_on(*args)

        opts = SolveOptions(iters=10)
        items = wide.build(5, smoke=True).items
        assert {spec.partition is not None for spec in items} == {True, False}
        for spec in items:
            derived.clear()
            with monkeypatch.context() as m:
                m.setattr(DominanceConstraint, "_levels_on", counted)
                got = solve(spec, opts)
            assert len(derived) > 1
            assert solution_bytes(got) == solution_bytes(reference_solve(spec, opts))


class TestSolveOptionsChecked:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iters": 0},
            {"iters": -3},
            {"iters": 2.0},
            {"iters": True},
            {"gamma0": 0.0},
            {"gamma0": -1.0},
            {"gamma0": float("nan")},
            {"gamma0": float("inf")},
            {"iters": None},
            {"gamma0": True},
            {"gamma0": "0.5"},
        ],
    )
    def test_rejected_on_construction(self, kwargs):
        # gamma0 = 0 never moved and gamma0 = -1 stepped uphill
        with pytest.raises(DomainError):
            SolveOptions(**kwargs)
        with pytest.raises(DomainError):
            dataclasses.replace(SolveOptions(), **kwargs)

    def test_accepted_values(self):
        SolveOptions(iters=np.int64(5), gamma0=None)
        SolveOptions(iters=1, gamma0=1e-300)

    def test_no_feasibility_slack(self):
        # feasible means rho <= 0 on every checked level; the bound is a
        # constant, not an option
        assert SolveOptions.tol_feas == 0.0
        assert [f.name for f in dataclasses.fields(SolveOptions)] == ["iters", "gamma0"]
        with pytest.raises(TypeError):
            SolveOptions(tol_feas=1e-6)


# ---------------------------------------------------------------------------
# certify's array oracles against the same oracles on the public routes.


def certificate_bytes(cert):
    """Every Certificate field, as bytes or exact reprs."""
    return (
        repr(cert.kappa),
        cert.levels,
        tuple(map(repr, cert.weights)),
        repr(cert.residual),
        repr(cert.c_gap),
        repr(cert.gap_bound),
        tuple((repr(p), repr(w)) for p, w in cert.nu),
        cert.accepted,
        cert.normal_part.tobytes(),
        cert.normal_part.shape,
        repr(cert.pricing_gap),
        cert.iterations,
        repr(cert.tol),
    )


def certify_points(name):
    """x_hat from meta (when the file has one) and from a 300-step solve."""
    loaded = load(name)
    spec = loaded.spec
    points = [solve(spec, SolveOptions(iters=300)).x_hat]
    if "x_hat" in loaded.meta:
        rows = np.asarray(loaded.meta["x_hat"], dtype=float)
        points.append(spec.decision(rows.reshape(spec.num_blocks, spec.dim)))
    return spec, points


def reference_vertices(problem, x, c):
    """certify's two oracles through the public routes: the selector and
    its rates along -c, the identifier LMO tilted by rates / P(B), and the
    conditional block sums.  Returns (objective vertex, level -> vertex)."""
    space, part = problem.space, problem.partition
    minus_c = problem.decision(-c.reshape(x.vectors.shape))
    block_prob = np.ones(space.size) if part is None else part.block_probs[part.block_of]

    def along(F):
        rows = subgradient_selector(F, x, minus_c).rows
        return evaluate(F, x), rows, directional_derivative(F, x, minus_c).values / block_prob

    Zf, rows, tilt = along(problem.objective)
    zeta = spectral_identifier_lmo(Zf, problem.risk, tilt)
    objective = _conditional_blocks(space, part, zeta, rows).ravel()
    Zg, rows, tilt = along(problem.constraint_integrand)
    constraint = {}
    for p in problem.constraint.rho(Zg)[0]:
        zeta = avar_identifier_lmo(Zg, float(p), Orientation.LOWER, -tilt).zeta
        constraint[float(p)] = -_conditional_blocks(space, part, p * zeta, rows).ravel()
    return objective, constraint


def assert_vertices_match(problem, x, directions):
    geom = _ResidualGeometry(problem, x.vectors)
    for c in directions:
        objective, constraint = reference_vertices(problem, x, c)
        assert geom.objective_vertex(c).tobytes() == objective.tobytes()
        for p, vertex in constraint.items():
            assert geom.constraint_vertex(p, c).tobytes() == vertex.tobytes()


class TestCertifyArrayPath:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_one_kernel_call_per_integrand(self, name, monkeypatch):
        # one _pieces call for F and one for G at x_hat, one rates product
        # per oracle call beyond those two, and never the checked route
        spec, points = certify_points(name)
        pieces, rates = MaxAffineIntegrand._pieces, MaxAffineIntegrand._rates
        calls = {"pieces": [], "rates": 0, "oracles": 0}

        def counted_pieces(self, *args):
            calls["pieces"].append(self)
            return pieces(self, *args)

        def counted_rates(self, *args):
            calls["rates"] += 1
            return rates(self, *args)

        def unexpected(self, *args, **kwargs):
            raise AssertionError("certify went through the checked route")

        def counted_oracle(method):
            def oracle(self, *args):
                calls["oracles"] += 1
                return method(self, *args)

            return oracle

        monkeypatch.setattr(MaxAffineIntegrand, "_pieces", counted_pieces)
        monkeypatch.setattr(MaxAffineIntegrand, "_rates", counted_rates)
        monkeypatch.setattr(MaxAffineIntegrand, "_select", unexpected)
        for method in ("objective_vertex", "constraint_vertex"):
            original = getattr(_ResidualGeometry, method)
            monkeypatch.setattr(_ResidualGeometry, method, counted_oracle(original))
        for x in points:
            calls.update(pieces=[], rates=0, oracles=0)
            certify(spec, x)
            assert sorted(map(id, calls["pieces"])) == sorted(
                (id(spec.objective), id(spec.constraint_integrand))
            )
            # _pieces forms its values with one rates product of its own
            assert calls["rates"] == calls["oracles"] + 2
            assert calls["oracles"] >= 1

    @pytest.mark.parametrize("name", SHIPPED)
    def test_oracles_match_public_routes_on_instances(self, name):
        rng = np.random.default_rng(11)
        spec, points = certify_points(name)
        directions = [np.zeros(spec.stacked_dim), rng.normal(size=spec.stacked_dim)]
        for x in points:
            assert_vertices_match(spec, x, directions)

    def test_oracles_match_public_routes_on_random_problems(self):
        # even problems have lattice coefficients, so at lattice points the
        # piece values and G(x) tie
        rng = np.random.default_rng(5)
        blocks = set()
        for i in range(24):
            prob = random_problem(rng, i)
            lattice = rng.integers(-2, 3, (prob.num_blocks, prob.dim)) / 2.0
            uniform = rng.uniform(-1.0, 1.0, (prob.num_blocks, prob.dim))
            directions = [np.zeros(prob.stacked_dim), rng.normal(size=prob.stacked_dim)]
            for rows in (lattice, uniform):
                assert_vertices_match(prob, prob.decision(rows), directions)
            blocks.add(prob.partition is not None)
        assert blocks == {True, False}

    def test_oracles_tilt_by_rate_over_block_probability(self):
        # every scenario ties at x = 0, in blocks of probability 1/3 and 2/3,
        # so the identifiers fill the atom of largest rate / P(B): along the
        # rates (1, 1.5, 1.5) that is scenario 0, not scenarios 1 and 2
        space = equiprobable(3)
        F = integrand(space, [[(1.0, 0.0)]] * 3)
        G = integrand(space, [[(1.0, 0.0)]] * 3, Curvature.CONCAVE)
        third = 1.0 / 3.0
        C = DominanceConstraint(rv([-1.0] * 3), third, 1.0, (third, 1.0))
        risk = SpectralMeasure.single_avar(third)
        partition = InfoPartition(space, ((0,), (1, 2)))
        prob = ProblemSpec(space, risk, F, G, C, -np.ones(1), np.ones(1), partition)
        x = prob.decision(np.zeros((2, 1)))
        c = np.array([-1.0, -1.5])
        assert_vertices_match(prob, x, [c, -c, np.array([1.0, -1.5])])
        geom = _ResidualGeometry(prob, x.vectors)
        assert geom.objective_vertex(c).tolist() == [3.0, 0.0]
