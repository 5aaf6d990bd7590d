import numpy as np
import pytest

from riskcalc import (
    ConfigurationError,
    Curvature,
    DominanceConstraint,
    DomainError,
    MaxAffineIntegrand,
    Orientation,
    ProblemSpec,
    SolveOptions,
    SpectralMeasure,
    StructuralError,
    brute_force_optimum,
    certify,
    composite_value,
    deterministic,
    equiprobable,
    lagrangian_value,
    nu_from_mu,
    solve,
    uniform_dominance_margin,
)
from riskcalc.cli import load_problem
from tests.conftest import abs_integrand, instance_path, integrand, rv

E = SpectralMeasure.expectation()


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
    def test_zero_kappa(self):
        mu = SpectralMeasure((0.5,), (1.0,), Orientation.LOWER)
        assert nu_from_mu(0.0, mu) == ()

    def test_point_mass_arithmetic(self):
        mu = SpectralMeasure((0.5,), (1.0,), Orientation.LOWER)
        assert nu_from_mu(2.0, mu) == ((0.5, 4.0),)

    def test_total_mass_at_least_kappa(self):
        mu = SpectralMeasure((0.25, 0.5, 1.0), (0.2, 0.3, 0.5), Orientation.LOWER)
        for kappa in (0.5, 1.0, 3.0):
            nu = nu_from_mu(kappa, mu)
            assert sum(w for _, w in nu) >= kappa - 1e-15


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
        margin = uniform_dominance_margin(
            prob.constraint_integrand, deterministic(0.7), prob.constraint
        )
        assert margin == pytest.approx(-1.0 / 30.0, abs=1e-12)

    def test_deterministic_certificates(self):
        prob = forcing_problem()
        a = certify(prob, deterministic(1.0))
        b = certify(prob, deterministic(1.0))
        assert a.residual == b.residual
        assert a.kappa == b.kappa
        assert a.levels == b.levels
        assert a.weights == b.weights


def load(name):
    return load_problem(instance_path(name))


class TestShippedInstances:
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
        loaded = load("i05_block_medians")
        prob = loaded.spec
        assert prob.num_blocks == 2
        sol = solve(prob, loaded.options)
        assert sol.feasible
        bf = brute_force_optimum(prob, grid_resolution=1e-3)
        assert sol.objective_value <= bf.value + 1e-4

    @pytest.mark.parametrize("name", ["median", "i05_block_medians"])
    def test_one_kernel_call_per_integrand_and_iteration(self, name, monkeypatch):
        # one G evaluation per iteration, one F evaluation per objective
        # step, and at most the final evaluation at x_hat
        calls = []
        select = MaxAffineIntegrand._select

        def counted(self, *args, **kwargs):
            calls.append(self)
            return select(self, *args, **kwargs)

        monkeypatch.setattr(MaxAffineIntegrand, "_select", counted)
        iters = 300
        solve(load(name).spec, SolveOptions(iters=iters))
        assert len(calls) <= 2 * iters + 2

    def test_solution_trace_records_improvements(self):
        loaded = load("i01_median_kinks")
        sol = solve(loaded.spec, loaded.options)
        trace = sol.trace
        assert len(trace) >= 1
        iters = [t for t, _ in trace]
        vals = [v for _, v in trace]
        assert iters == sorted(iters)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
