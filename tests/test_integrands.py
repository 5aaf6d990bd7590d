import numpy as np
import pytest

from riskcalc import (
    Curvature,
    DecisionPoint,
    DomainError,
    InfoPartition,
    MaxAffineIntegrand,
    ProbSpace,
    StructuralError,
    blend_selectors,
    deterministic,
    differential_quotient,
    directional_derivative,
    equiprobable,
    evaluate,
    local_property_check,
    subgradient_selector,
)
from tests.conftest import (
    abs_integrand,
    integrand,
    point,
    random_integrand,
    random_space,
)


def abs_at_zero():
    # single scenario, f(x) = |x|, kink at the origin
    return abs_integrand(equiprobable(1), [0.0])


def max_x_2x():
    return integrand(equiprobable(1), [[(1.0, 0.0), (2.0, 0.0)]])


class TestConstruction:
    def test_rejects_empty_piece_family(self):
        space = equiprobable(2)
        with pytest.raises(StructuralError):
            MaxAffineIntegrand(
                space,
                (np.zeros((1, 1)), np.zeros((0, 1))),
                (np.zeros(1), np.zeros(0)),
                Curvature.CONVEX,
            )

    def test_rejects_nonfinite_coefficients(self):
        space = equiprobable(1)
        with pytest.raises(DomainError):
            MaxAffineIntegrand(
                space, (np.array([[np.inf]]),), (np.zeros(1),), Curvature.CONVEX
            )

    def test_rejects_scenario_count_mismatch(self):
        space = equiprobable(3)
        with pytest.raises(StructuralError):
            MaxAffineIntegrand(
                space,
                (np.ones((1, 1)), np.ones((1, 1))),
                (np.zeros(1), np.zeros(1)),
                Curvature.CONVEX,
            )

    def test_rejects_inconsistent_dimension_across_scenarios(self):
        space = equiprobable(2)
        with pytest.raises(StructuralError):
            MaxAffineIntegrand(
                space,
                (np.ones((1, 1)), np.ones((1, 2))),
                (np.zeros(1), np.zeros(1)),
                Curvature.CONVEX,
            )


class TestEvaluate:
    def test_absolute_value(self):
        F = abs_at_zero()
        assert evaluate(F, deterministic(3.0)).values.tolist() == [3.0]

    def test_two_scenario_centers(self):
        F = abs_integrand(equiprobable(2), [1.0, 2.0])
        assert evaluate(F, deterministic(1.5)).values.tolist() == [0.5, 0.5]

    def test_affine_case_is_linear(self):
        rng = np.random.default_rng(50)
        space = random_space(rng, 4)
        F = random_integrand(rng, space, dim=3, max_pieces=1)
        x = point(rng.uniform(-1, 1, size=3))
        y = point(rng.uniform(-1, 1, size=3))
        z = x.combine(1.0, y, 1.0)
        fx = evaluate(F, x).values
        fy = evaluate(F, y).values
        f0 = evaluate(F, deterministic(np.zeros(3))).values
        fz = evaluate(F, z).values
        assert np.allclose(fz, fx + fy - f0, atol=1e-12)

    def test_concave_takes_min(self):
        G = integrand(
            equiprobable(1), [[(1.0, 0.0), (-1.0, 0.0)]], Curvature.CONCAVE
        )
        assert evaluate(G, deterministic(3.0)).values.tolist() == [-3.0]

    def test_dimension_mismatch(self):
        F = abs_at_zero()
        with pytest.raises(StructuralError):
            evaluate(F, point([1.0, 2.0]))

    def test_block_measurable_decision(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        F = abs_integrand(space, [0.0, 0.0, 0.0, 0.0])
        x = DecisionPoint(np.array([[1.0], [2.0]]), part)
        assert evaluate(F, x).values.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_operator_convexity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            space = random_space(rng, 5)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-2, 2, size=2))
            y = point(rng.uniform(-2, 2, size=2))
            lam = float(rng.uniform(0, 1))
            mix = x.combine(lam, y, 1 - lam)
            bound = lam * evaluate(F, x).values + (1 - lam) * evaluate(F, y).values
            assert np.all(evaluate(F, mix).values <= bound + 1e-12)


class TestDirectionalDerivative:
    def test_abs_kink_both_sides(self):
        F = abs_at_zero()
        x = deterministic(0.0)
        assert directional_derivative(F, x, deterministic(1.0)).values.tolist() == [1.0]
        assert directional_derivative(F, x, deterministic(-1.0)).values.tolist() == [1.0]

    def test_max_x_2x_at_origin(self):
        F = max_x_2x()
        x = deterministic(0.0)
        assert directional_derivative(F, x, deterministic(-1.0)).values.tolist() == [-1.0]
        assert directional_derivative(F, x, deterministic(1.0)).values.tolist() == [2.0]

    def test_smooth_point_is_gradient_pairing(self):
        F = abs_integrand(equiprobable(2), [0.0, 0.0])
        d = directional_derivative(F, deterministic(2.0), deterministic(-3.0))
        assert d.values.tolist() == [-3.0, -3.0]

    def test_concave_takes_min_rate(self):
        G = integrand(
            equiprobable(1), [[(1.0, 0.0), (2.0, 0.0)]], Curvature.CONCAVE
        )
        x = deterministic(0.0)
        assert directional_derivative(G, x, deterministic(1.0)).values.tolist() == [1.0]

    def test_structure_mismatch(self):
        space = equiprobable(2)
        part = InfoPartition(space, ((0,), (1,)))
        F = abs_integrand(space, [0.0, 0.0])
        x = deterministic(0.0)
        h = DecisionPoint(np.array([[1.0], [1.0]]), part)
        with pytest.raises(StructuralError):
            directional_derivative(F, x, h)

    def test_positively_homogeneous_in_direction(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            t = float(rng.uniform(0.1, 5))
            th = deterministic(np.zeros(2)).combine(0.0, h, t)
            lhs = directional_derivative(F, x, th).values
            rhs = t * directional_derivative(F, x, h).values
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestDifferentialQuotient:
    def test_abs_example(self):
        F = abs_at_zero()
        q = differential_quotient(F, deterministic(0.0), deterministic(1.0), 0.5)
        assert q.values.tolist() == [1.0]

    def test_nonpositive_step_rejected(self):
        F = abs_at_zero()
        for t in (0.0, -1e-9, -2.0):
            with pytest.raises(DomainError):
                differential_quotient(F, deterministic(0.0), deterministic(1.0), t)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            t1, t2 = np.sort(rng.uniform(1e-3, 2.0, size=2))
            if t1 == t2:
                continue
            q1 = differential_quotient(F, x, h, t1).values
            q2 = differential_quotient(F, x, h, t2).values
            assert np.all(q1 <= q2 + 1e-12)

    def test_sandwich(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            t = float(rng.uniform(1e-3, 1.0))
            q = differential_quotient(F, x, h, t).values
            upper = evaluate(F, x.combine(1.0, h, 1.0)).values - evaluate(F, x).values
            lower = evaluate(F, x).values - evaluate(F, x.combine(1.0, h, -1.0)).values
            assert np.all(q <= upper + 1e-12)
            assert np.all(lower <= q + 1e-12)

    def test_exact_limit_below_breakpoint(self):
        # f(x) = |x| at x = 1 along h = -1: the nearest kink is 1 unit away,
        # so for any t < 1 the quotient equals the directional derivative
        F = abs_integrand(equiprobable(1), [0.0])
        x, h = deterministic(1.0), deterministic(-1.0)
        d = directional_derivative(F, x, h).values
        # dyadic steps keep the secant arithmetic itself exact
        for t in (0.5, 0.25, 2.0**-10, 2.0**-20):
            assert differential_quotient(F, x, h, t).values.tolist() == d.tolist()

    def test_quotient_tends_to_derivative(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            space = random_space(rng, 3)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            d = directional_derivative(F, x, h).values
            q = differential_quotient(F, x, h, 1e-9).values
            assert np.allclose(q, d, atol=1e-6)


class TestSubgradientSelector:
    def test_abs_kink_direction_positive(self):
        F = abs_at_zero()
        s = subgradient_selector(F, deterministic(0.0), deterministic(1.0))
        assert s.rows.tolist() == [[1.0]]

    def test_abs_kink_direction_negative(self):
        F = abs_at_zero()
        s = subgradient_selector(F, deterministic(0.0), deterministic(-1.0))
        assert s.rows.tolist() == [[-1.0]]

    def test_no_direction_takes_lowest_index_active(self):
        # pieces listed as (-1, 0) then (1, 0): both active at 0
        F = integrand(equiprobable(1), [[(-1.0, 0.0), (1.0, 0.0)]])
        s = subgradient_selector(F, deterministic(0.0))
        assert s.rows.tolist() == [[-1.0]]

    def test_selector_realizes_directional_derivative(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            space = random_space(rng, 5)
            F = random_integrand(rng, space, dim=3)
            x = point(rng.uniform(-1, 1, size=3))
            d = point(rng.uniform(-1, 1, size=3))
            s = subgradient_selector(F, x, d)
            rates = s.rows @ d.vectors[0]
            target = directional_derivative(F, x, d).values
            assert np.allclose(rates, target, atol=1e-12)

    def test_subgradient_inequality_all_directions(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            s = subgradient_selector(F, x)
            for _ in range(20):
                h = point(rng.uniform(-2, 2, size=2))
                rates = s.rows @ h.vectors[0]
                target = directional_derivative(F, x, h).values
                assert np.all(rates <= target + 1e-10)

    def test_selector_supports_function_value(self):
        # global inequality F(y) >= F(x) + <s, y - x> scenario-wise
        rng = np.random.default_rng(58)
        for _ in range(50):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            y = point(rng.uniform(-3, 3, size=2))
            s = subgradient_selector(F, x)
            gain = s.rows @ (y.vectors[0] - x.vectors[0])
            assert np.all(
                evaluate(F, y).values >= evaluate(F, x).values + gain - 1e-10
            )

    def test_rows_are_active_piece_gradients(self):
        F = abs_integrand(equiprobable(3), [0.0, 1.0, -1.0])
        s = subgradient_selector(F, deterministic(2.0))
        assert s.rows.tolist() == [[1.0], [1.0], [1.0]]


class TestBlends:
    def test_blend_stays_valid_subgradient(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            d1 = point(rng.uniform(-1, 1, size=2))
            d2 = point(rng.uniform(-1, 1, size=2))
            s1 = subgradient_selector(F, x, d1)
            s2 = subgradient_selector(F, x, d2)
            alphas = rng.uniform(0, 1, size=space.size)
            s = blend_selectors(s1, s2, alphas)
            for _ in range(5):
                h = point(rng.uniform(-2, 2, size=2))
                rates = s.rows @ h.vectors[0]
                target = directional_derivative(F, x, h).values
                assert np.all(rates <= target + 1e-10)

    def test_blend_coefficient_validation(self):
        F = abs_at_zero()
        s = subgradient_selector(F, deterministic(0.0))
        with pytest.raises(DomainError):
            blend_selectors(s, s, np.array([1.5]))
        with pytest.raises(StructuralError):
            blend_selectors(s, s, np.array([0.5, 0.5]))

    def test_blend_endpoints(self):
        F = abs_at_zero()
        s1 = subgradient_selector(F, deterministic(0.0), deterministic(1.0))
        s2 = subgradient_selector(F, deterministic(0.0), deterministic(-1.0))
        assert blend_selectors(s1, s2, np.array([1.0])).rows.tolist() == [[1.0]]
        assert blend_selectors(s1, s2, np.array([0.0])).rows.tolist() == [[-1.0]]
        assert blend_selectors(s1, s2, np.array([0.5])).rows.tolist() == [[0.0]]


class TestLocalProperty:
    def test_empty_event(self):
        F = abs_at_zero()
        assert local_property_check(F, deterministic(0.0), deterministic(1.0), [])

    def test_full_event(self):
        F = abs_integrand(equiprobable(3), [0.0, 1.0, 2.0])
        assert local_property_check(
            F, deterministic(0.5), deterministic(1.0), [0, 1, 2]
        )

    def test_random_events(self):
        rng = np.random.default_rng(60)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            space = random_space(rng, n)
            dim = int(rng.integers(1, 4))
            F = random_integrand(rng, space, dim)
            x = point(rng.uniform(-1, 1, size=dim))
            h = point(rng.uniform(-1, 1, size=dim))
            B = [k for k in range(n) if rng.random() < 0.5]
            assert local_property_check(F, x, h, B)

    def test_index_out_of_range(self):
        F = abs_at_zero()
        with pytest.raises(StructuralError):
            local_property_check(F, deterministic(0.0), deterministic(1.0), [5])


class TestDecisionPoint:
    def test_row_count_must_match_partition(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        with pytest.raises(StructuralError):
            DecisionPoint(np.ones((3, 1)), part)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            DecisionPoint(np.array([np.nan]))

    def test_combine_requires_same_structure(self):
        space = equiprobable(2)
        part = InfoPartition(space, ((0,), (1,)))
        a = deterministic([1.0])
        b = DecisionPoint(np.ones((2, 1)), part)
        with pytest.raises(StructuralError):
            a.combine(1.0, b, 1.0)

    def test_scenario_matrix_expands_blocks(self):
        space = equiprobable(3)
        part = InfoPartition(space, ((0, 2), (1,)))
        x = DecisionPoint(np.array([[5.0], [7.0]]), part)
        assert x.scenario_matrix(space).tolist() == [[5.0], [7.0], [5.0]]


class TestPadding:
    """Ragged families are stored padded with each scenario's last piece; the
    answers must equal a per-scenario loop over the pieces as given.  Small
    integer and half-integer coefficients make every product and sum exact,
    so ties are real ties and equality is exact."""

    @staticmethod
    def reference(pieces, curvature, space, x, h):
        convex = curvature is Curvature.CONVEX
        xs = x.scenario_matrix(space)
        hs = None if h is None else h.scenario_matrix(space)
        values, rates, rows = [], [], []
        for k, (A, b) in enumerate(pieces):
            vals = A @ xs[k] + b
            best = max(vals) if convex else min(vals)
            act = [j for j, v in enumerate(vals) if abs(v - best) <= 1e-10]
            values.append(best)
            if hs is None:
                rows.append(A[act[0]])
                continue
            r = [float(A[j] @ hs[k]) for j in act]
            pos = r.index(max(r) if convex else min(r))
            rates.append(r[pos])
            rows.append(A[act[pos]])
        return np.array(values), np.array(rates), np.array(rows)

    @pytest.mark.parametrize("curvature", [Curvature.CONVEX, Curvature.CONCAVE])
    @pytest.mark.parametrize("blocks", [None, ((0, 3, 5), (1, 2), (4,))])
    def test_matches_per_scenario_loop(self, curvature, blocks):
        rng = np.random.default_rng(11)
        n, dim = 6, 2
        space = equiprobable(n)
        part = None if blocks is None else InfoPartition(space, blocks)
        rows_needed = 1 if part is None else part.num_blocks
        for _ in range(40):
            pieces = []
            for k in range(n):
                m = int(rng.integers(1, 5))
                A = rng.integers(-2, 3, (m, dim)).astype(float)
                b = rng.integers(-2, 3, m).astype(float)
                if m > 1 and k % 2 == 0:
                    # a duplicated piece, and a tie with the first piece
                    A[-1], b[-1] = A[0], b[0]
                pieces.append((A, b))
            F = MaxAffineIntegrand(
                space, tuple(A for A, _ in pieces), tuple(b for _, b in pieces), curvature
            )
            assert F.slopes.shape == (n, max(A.shape[0] for A, _ in pieces), dim)
            x = DecisionPoint(rng.integers(-2, 3, (rows_needed, dim)) / 2.0, part)
            h = DecisionPoint(rng.integers(-2, 3, (rows_needed, dim)) / 2.0, part)
            values, _, rows = self.reference(pieces, curvature, space, x, None)
            _, rates, dir_rows = self.reference(pieces, curvature, space, x, h)
            assert np.array_equal(evaluate(F, x).values, values)
            assert np.array_equal(subgradient_selector(F, x).rows, rows)
            assert np.array_equal(directional_derivative(F, x, h).values, rates)
            assert np.array_equal(subgradient_selector(F, x, h).rows, dir_rows)
