import time
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from riskcalc import (
    ConfigurationError,
    Curvature,
    DecisionPoint,
    DominanceConstraint,
    DomainError,
    InfoPartition,
    ProbSpace,
    RandomVariable,
    StructuralError,
    constraint_subgradient,
    constraint_values_at,
    deterministic,
    dominates_first_order,
    dominates_second_order,
    equiprobable,
    evaluate,
    expectation,
    lorenz,
    lorenz_breakpoints,
)
from riskcalc.dominance import _first_order, _gaps, _second_order
from tests.conftest import integrand, point, random_space, rv


def concave(space, pieces):
    return integrand(space, pieces, Curvature.CONCAVE)


def linear_map(space, coeffs, offsets=None):
    offsets = [0.0] * space.size if offsets is None else offsets
    return concave(
        space, [[(np.atleast_1d(a), b)] for a, b in zip(coeffs, offsets)]
    )


class TestFirstOrder:
    def test_shift_dominates(self):
        rng = np.random.default_rng(90)
        Y = rv(rng.uniform(-5, 5, size=6))
        X = RandomVariable(Y.space, Y.values + 1.0)
        assert dominates_first_order(X, Y)
        assert not dominates_first_order(Y, X)

    def test_reflexive(self):
        Z = rv([3.0, 1.0, 2.0])
        assert dominates_first_order(Z, Z)

    def test_spread_fails(self):
        assert not dominates_first_order(rv([0.0, 2.0]), rv([1.0, 1.0]))

    def test_different_spaces_compared_in_distribution(self):
        X = rv([1.0, 2.0, 3.0])
        Y = rv([0.5, 1.5], probs=[0.4, 0.6])
        assert dominates_first_order(X, Y)


class TestSecondOrder:
    def test_mean_preserving_contraction(self):
        assert dominates_second_order(rv([1.0, 1.0]), rv([0.0, 2.0]))
        assert not dominates_second_order(rv([0.0, 2.0]), rv([1.0, 1.0]))

    def test_reflexive(self):
        Z = rv([4.0, -1.0, 0.5])
        assert dominates_second_order(Z, Z)

    def test_first_order_implies_second_order(self):
        rng = np.random.default_rng(91)
        found = 0
        for _ in range(500):
            n = int(rng.integers(1, 8))
            Y = rv(rng.uniform(-3, 3, size=n))
            X = RandomVariable(Y.space, Y.values + rng.uniform(0, 1, size=n))
            assert dominates_first_order(X, Y)
            assert dominates_second_order(X, Y)
            found += 1
        assert found == 500

    def test_route_agreement_random_pairs(self):
        # the boolean itself is the agreement check: a route disagreement
        # raises InvariantViolation inside the call
        rng = np.random.default_rng(92)
        hits = 0
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, 31))
            X = rv(rng.integers(-3, 4, size=n).astype(float))
            Y = rv(rng.integers(-3, 4, size=m).astype(float))
            if dominates_second_order(X, Y):
                hits += 1
            dominates_first_order(X, Y)
        assert hits > 0


def brute_margins(X, Y):
    """Both dominance gaps as Fractions, straight from their definitions:
    min of P(Y <= a) - P(X <= a) over the atoms, and min of
    lorenz_X - lorenz_Y over the cumulative probabilities."""

    def pairs(Z):
        probs = [Fraction(float(p)) for p in Z.space.probs]
        total = sum(probs)
        return sorted((Fraction(float(v)), p / total) for v, p in zip(Z.values, probs))

    def below(ps, a):
        return sum((p for v, p in ps if v <= a), Fraction(0))

    def lorenz_exact(ps, level):
        out, before = Fraction(0), Fraction(0)
        for v, p in ps:
            out += v * min(p, max(Fraction(0), level - before))
            before += p
        return out

    px, py = pairs(X), pairs(Y)
    atoms = {v for v, _ in px + py}
    levels = {sum(p for _, p in ps[: k + 1]) for ps in (px, py) for k in range(len(ps))}
    first = min(below(py, a) - below(px, a) for a in atoms)
    second = min(lorenz_exact(px, q) - lorenz_exact(py, q) for q in levels)
    return first, second


def margins(X, Y):
    gaps = _gaps(X, Y)
    return _first_order(gaps)[1], _second_order(gaps)[1]


class TestExactMargins:
    """The margins the CLI reports: exact gaps rounded once, so that each
    margin's sign is its verdict."""

    def pairs(self, rng, count):
        for k in range(count):
            n = int(rng.integers(1, 9))
            space = equiprobable(n) if k % 2 else random_space(rng, n)
            Y = RandomVariable(space, np.round(rng.uniform(-3.0, 3.0, n), 1))
            kind = k % 3
            if kind == 0:
                x = np.round(rng.uniform(-3.0, 3.0, n), 1)
            elif kind == 1:
                x = Y.values + np.round(rng.uniform(-0.3, 0.3), 1)
            else:
                toward = np.where(rng.random(n) < 0.5, -np.inf, np.inf)
                x = np.nextafter(Y.values, toward)
            yield RandomVariable(space, x), Y

    def two_space_pairs(self, rng, count):
        """X and Y on spaces of their own, so the running sums cross both
        spaces' merged breakpoints: different sizes, X a shifted Y with
        every atom split in two, and power-of-two weights on both sides as
        the dominance benchmark builds them."""

        def dyadic(n):
            total = 2 ** (n.bit_length() + 3)
            cuts = np.sort(rng.choice(np.arange(1, total), n - 1, replace=False))
            return ProbSpace(np.diff(np.concatenate([[0], cuts, [total]])) / total)

        for k in range(count):
            n, m = (int(v) for v in rng.integers(1, 9, size=2))
            family = k % 3
            space = dyadic(n) if family == 2 else random_space(rng, n)
            Y = RandomVariable(space, np.round(rng.uniform(-3.0, 3.0, n), 1))
            if family == 1:
                split = ProbSpace(np.repeat(space.probs / 2.0, 2))
                x = np.repeat(Y.values + np.round(rng.uniform(-0.3, 0.3), 1), 2)
                yield RandomVariable(split, x), Y
            else:
                other = dyadic(m) if family == 2 else random_space(rng, m)
                yield RandomVariable(other, np.round(rng.uniform(-3.0, 3.0, m), 1)), Y

    def test_signs_match_the_verdicts(self):
        rng = np.random.default_rng(93)
        held = [0, 0]
        for X, Y in chain(self.pairs(rng, 2400), self.two_space_pairs(rng, 600)):
            first, second = margins(X, Y)
            fo, so = dominates_first_order(X, Y), dominates_second_order(X, Y)
            assert (first >= 0.0) == fo
            assert (second >= 0.0) == so
            held[0] += fo
            held[1] += so
        assert 0 < held[0] < held[1] < 3000

    def test_values_are_the_rounded_exact_gaps(self):
        rng = np.random.default_rng(94)
        underflows = 0
        for X, Y in chain(self.pairs(rng, 600), self.two_space_pairs(rng, 300)):
            for margin, gap in zip(margins(X, Y), brute_margins(X, Y)):
                if gap < 0 and float(gap) == 0.0:
                    # too small for a float: the sign is kept, not the value
                    assert margin == -np.nextafter(0.0, 1.0)
                    underflows += 1
                else:
                    assert margin == float(gap)
        assert underflows > 0

    EXTREMES = (5e-324, -2.5e-310, 0.0, -0.0, 1e-300, 0.1, 1.7e308, -1.7e308)

    def extreme_pairs(self, rng, count):
        """Values from EXTREMES, so the integer scale spans 2**-1074 to
        2**1023, on spaces of their own with non-dyadic weights whose binary
        exponents differ within and across the two sides."""

        def side():
            n = int(rng.integers(1, 6))
            weights = rng.integers(1, 1000, n) / 3.0 * 2.0 ** rng.integers(-60, 1, n)
            return RandomVariable(ProbSpace(weights / weights.sum()), rng.choice(self.EXTREMES, n))

        for _ in range(count):
            yield side(), side()

    def test_extreme_exponents_match_the_oracle(self):
        rng = np.random.default_rng(95)
        seen = {"finite": 0, "underflow": 0, "infinite": 0}
        for X, Y in self.extreme_pairs(rng, 400):
            for margin, gap in zip(margins(X, Y), brute_margins(X, Y)):
                try:
                    expected = float(gap)
                except OverflowError:
                    # beyond the float range: IEEE rounds to +-inf
                    assert margin == (np.inf if gap > 0 else -np.inf)
                    seen["infinite"] += 1
                    continue
                if gap < 0 and expected == 0.0:
                    assert margin == -np.nextafter(0.0, 1.0)
                    seen["underflow"] += 1
                else:
                    assert margin == expected
                    seen["finite"] += 1
        assert min(seen.values()) > 0, seen

    def test_margin_beyond_the_float_range_is_infinite(self):
        # the Lorenz gap is 3.4e308; the CDF gap stays in [-1, 1]
        X, Y = rv([1.7e308]), rv([-1.7e308])
        assert margins(X, Y) == (0.0, np.inf)
        assert margins(Y, X) == (-1.0, -np.inf)
        assert dominates_second_order(X, Y)
        assert not dominates_second_order(Y, X)

    def test_large_pass_stays_within_its_cpu_budget(self):
        # 20,000 atoms per side with non-dyadic weights: one exact pass and
        # both orders take about 0.2 s of CPU on integers, 2.5 s on Fractions
        rng = np.random.default_rng(96)
        n = 20_000

        def side(loc, scale):
            weights = rng.uniform(0.5, 2.0, n)
            return RandomVariable(ProbSpace(weights / weights.sum()), rng.normal(loc, scale, n))

        # X shifted up and less spread than Y: second order only
        X, Y = side(0.5, 1.0), side(0.0, 2.0)
        start = time.process_time()
        gaps = _gaps(X, Y)
        first, second = _first_order(gaps), _second_order(gaps)
        elapsed = time.process_time() - start
        assert first[0] is False and second[0] is True
        assert elapsed < 1.5, f"took {elapsed:.2f}s of CPU"


def make_constraint(Y_vals, alpha, beta, grid):
    return DominanceConstraint(rv(list(Y_vals)), alpha, beta, tuple(grid))


class TestConstraintConstruction:
    def test_valid(self):
        C = make_constraint([1.0, 2.0], 0.5, 1.0, [0.5, 0.75, 1.0])
        assert C.alpha == 0.5

    def test_alpha_zero_requires_beta_one(self):
        with pytest.raises(DomainError):
            make_constraint([1.0], 0.0, 0.9, [0.5, 0.9])
        C = make_constraint([1.0], 0.0, 1.0, [0.5, 1.0])
        assert C.beta == 1.0

    def test_interval_order(self):
        with pytest.raises(DomainError):
            make_constraint([1.0], 0.8, 0.5, [0.8])
        with pytest.raises(DomainError):
            make_constraint([1.0], 0.5, 1.2, [0.5, 1.2])

    def test_grid_must_be_increasing(self):
        with pytest.raises(StructuralError):
            make_constraint([1.0], 0.5, 1.0, [0.5, 0.5, 1.0])
        with pytest.raises(StructuralError):
            make_constraint([1.0], 0.5, 1.0, [1.0, 0.5])

    def test_grid_inside_interval_with_endpoints(self):
        with pytest.raises(DomainError):
            make_constraint([1.0], 0.5, 1.0, [0.4, 1.0])  # below alpha
        with pytest.raises(StructuralError):
            make_constraint([1.0], 0.5, 1.0, [0.75, 1.0])  # alpha missing
        with pytest.raises(StructuralError):
            make_constraint([1.0], 0.5, 0.9, [0.5, 0.7])  # beta missing

    @pytest.mark.parametrize(
        "alpha, grid", [(0.2, [0.2, float("nan"), 1.0]), (0.0, [float("nan"), 1.0])]
    )
    def test_nan_grid_level_rejected(self, alpha, grid):
        # a NaN level passed the order and range tests, so rho was NaN there:
        # solve failed mid-loop and certify ignored the level
        with pytest.raises(DomainError, match="finite"):
            make_constraint([1.0, 2.0], alpha, 1.0, grid)

    def test_grid_nonempty_and_positive(self):
        with pytest.raises(StructuralError):
            make_constraint([1.0], 0.5, 1.0, [])
        with pytest.raises(DomainError):
            make_constraint([1.0], 0.0, 1.0, [0.0, 1.0])

    @pytest.mark.parametrize(
        "alpha, beta, grid, code, where",
        [
            (0.9, 0.5, [0.9], "E_INTERVAL", "[0.9, 0.5]"),
            (0.0, 0.5, [0.5], "E_INTERVAL", "[0.0, 0.5]"),
            (0.5, 1.5, [0.5, 1.5], "E_INTERVAL", "[0.5, 1.5]"),
            (0.5, 1.0, [0.5, 0.75, 1.2], "E_GRID_DOMAIN", "grid[2] = 1.2"),
            # every level's domain is checked before the order
            (0.5, 1.0, [0.5, 1.0, 0.75, 0.4], "E_GRID_DOMAIN", "grid[3] = 0.4"),
            (0.5, 1.0, [0.5, 1.0, 0.75], "E_GRID_ORDER", "grid[2] = 0.75"),
            (0.5, 1.0, [0.5, 0.75, 0.75, 1.0], "E_GRID_ORDER", "grid[2] = 0.75"),
            (0.5, 1.0, [0.75, 1.0], "E_GRID_DOMAIN", "alpha"),
            (0.5, 1.0, [], "E_GRID_DOMAIN", "alpha"),
            (0.0, 1.0, [0.5], "E_GRID_DOMAIN", "beta"),
        ],
    )
    def test_rules_carry_their_codes(self, alpha, beta, grid, code, where):
        # the problem-file reader reports these codes as they are raised
        with pytest.raises((DomainError, StructuralError)) as err:
            make_constraint([1.0], alpha, beta, grid)
        assert err.value.code == code
        assert where in str(err.value)

    def test_augmented_levels_include_breakpoints(self):
        C = make_constraint([1.0, 2.0, 3.0, 4.0], 0.5, 1.0, [0.5, 1.0])
        Z = rv([0.0, 1.0, 5.0])
        levels = C.augmented_levels(Z)
        # benchmark breakpoints at 0.25k are filtered to [0.5, 1]; Z's thirds
        # enter where they fall inside the interval
        assert np.isclose(levels, 0.75).any()
        assert np.isclose(levels, 2.0 / 3.0).any()
        assert levels[0] >= 0.5 and levels[-1] == 1.0
        assert np.all(np.diff(levels) > 0)

    def test_augmented_levels_match_unique_of_breakpoints(self):
        # the single merge returns the bits np.unique over the grid and every
        # variable's in-range Lorenz breakpoints returns
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            space = random_space(rng, n)
            Y = RandomVariable(space, rng.integers(-2, 3, size=n).astype(float))
            alpha = float(rng.choice([0.0, 0.3, 0.5]))
            grid = (0.5, 1.0) if alpha == 0.0 else (alpha, 0.8, 1.0)
            C = DominanceConstraint(Y, alpha, 1.0, grid)
            Zs = [RandomVariable(space, rng.standard_normal(n)) for _ in range(2)]

            def inside(V):
                bp = lorenz_breakpoints(V)
                return bp[(bp >= C.alpha) & (bp <= C.beta)]

            fixed = np.unique(np.concatenate([C.grid, inside(Y)]))
            assert C.augmented_levels().tobytes() == fixed.tobytes()
            for variables in ([Zs[0]], Zs):
                expected = np.unique(np.concatenate([fixed, *map(inside, variables)]))
                assert C.augmented_levels(*variables).tobytes() == expected.tobytes()


class TestConstraintValues:
    def setup_method(self):
        self.space = equiprobable(4)
        self.Y = rv([1.0, 2.0, 3.0, 4.0])
        self.C = DominanceConstraint(self.Y, 0.25, 1.0, (0.25, 0.5, 0.75, 1.0))
        # G(x) = x + c_k so G at x=0 reproduces the benchmark exactly
        self.G = linear_map(
            self.space, [1.0] * 4, offsets=[1.0, 2.0, 3.0, 4.0]
        )

    def on_grid(self, G, x):
        return constraint_values_at(G, x, self.C, self.C.grid)

    def test_benchmark_matching_is_zero(self):
        vals = self.on_grid(self.G, deterministic(0.0))
        assert vals.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_shift_up_gives_minus_p(self):
        vals = self.on_grid(self.G, deterministic(1.0))
        assert np.allclose(vals, [-0.25, -0.5, -0.75, -1.0], atol=1e-12)

    def test_shift_down_gives_plus_p(self):
        vals = self.on_grid(self.G, deterministic(-1.0))
        assert np.allclose(vals, [0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_convex_integrand_rejected(self):
        F = integrand(self.space, [[(1.0, 0.0)]] * 4, Curvature.CONVEX)
        with pytest.raises(ConfigurationError):
            self.on_grid(F, deterministic(0.0))

    def test_values_at_arbitrary_levels(self):
        out = constraint_values_at(
            self.G, deterministic(1.0), self.C, [0.3, 0.6]
        )
        assert np.allclose(out, [-0.3, -0.6], atol=1e-12)


def member(X, C):
    """X is in the Lorenz-dominance set over C's benchmark: rho_p <= 0 at
    every checked level."""
    return bool(np.all(C.rho(X)[1] <= 0.0))


class TestMembership:
    def test_reflexive(self):
        Y = rv([1.0, 2.0, 3.0])
        C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 1.0))
        assert member(Y, C)

    def test_downward_shift_leaves(self):
        Y = rv([1.0, 2.0])
        C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 1.0))
        X = RandomVariable(Y.space, Y.values - 1e-6)
        assert not member(X, C)

    def test_off_grid_violation_leaves(self):
        # At level 2/3, a breakpoint off the grid (0.5, 1), lorenz(X) = 0.8
        # falls below lorenz(Y) = 5/6 by 1/30; both grid levels hold.
        space = equiprobable(3)
        X = RandomVariable(space, np.array([0.7, 1.7, 2.7]))
        Y = RandomVariable(space, np.array([0.0, 2.5, 2.5]))
        C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 1.0))
        assert not member(X, C)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(93)
        count = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            space = equiprobable(n)
            Y = RandomVariable(space, rng.uniform(-2, 2, size=n))
            C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 0.75, 1.0))
            shift1 = rng.uniform(0, 2)
            shift2 = rng.uniform(0, 2)
            X1 = RandomVariable(space, Y.values + shift1)
            X2 = RandomVariable(space, np.sort(Y.values)[::-1] + shift2)
            if not (member(X1, C) and member(X2, C)):
                continue
            mid = RandomVariable(space, 0.5 * X1.values + 0.5 * X2.values)
            assert member(mid, C)
            count += 1
        assert count > 100


class TestMargin:
    def setup_method(self):
        self.space = equiprobable(4)
        self.Y = rv([1.0, 2.0, 3.0, 4.0])
        self.G = linear_map(self.space, [1.0] * 4, offsets=[1.0, 2.0, 3.0, 4.0])

    def check(self, alpha, beta, grid):
        C = DominanceConstraint(self.Y, alpha, beta, grid)

        def margin(x):
            return -float(np.max(C.rho(evaluate(self.G, x))[1]))

        assert margin(deterministic(1.0)) == pytest.approx(alpha, abs=1e-12)
        assert margin(deterministic(0.0)) == 0.0
        assert margin(deterministic(-1.0)) == pytest.approx(-beta, abs=1e-12)

    def test_margin_shift_identities(self):
        self.check(0.25, 1.0, (0.25, 0.5, 1.0))
        self.check(0.5, 0.75, (0.5, 0.75))


class TestConstraintSubgradient:
    def test_affine_formula(self):
        rng = np.random.default_rng(94)
        space = random_space(rng, 5)
        coeffs = [rng.uniform(-1, 1, size=2) for _ in range(5)]
        offsets = list(rng.uniform(-1, 1, size=5))
        G = linear_map(space, coeffs, offsets)
        Y = rv(list(rng.uniform(-1, 1, size=5)))
        C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 1.0))
        x = point(rng.uniform(-1, 1, size=2))
        p = 0.5
        d = constraint_subgradient(G, x, p)
        from riskcalc import Orientation, avar_identifier

        Z = evaluate(G, x)
        zeta = avar_identifier(Z, p, Orientation.LOWER).zeta
        expect = -p * sum(
            space.probs[k] * zeta[k] * np.asarray(coeffs[k]) for k in range(5)
        )
        assert np.allclose(d[0], expect, atol=1e-12)

    def test_full_level_is_negated_mean_slope(self):
        rng = np.random.default_rng(95)
        space = random_space(rng, 4)
        coeffs = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        G = linear_map(space, coeffs)
        x = point(rng.uniform(-1, 1, size=3))
        d = constraint_subgradient(G, x, 1.0)
        mean_slope = sum(space.probs[k] * np.asarray(coeffs[k]) for k in range(4))
        assert np.allclose(d[0], -mean_slope, atol=1e-12)

    def test_constant_map_gives_zero(self):
        space = equiprobable(3)
        G = concave(space, [[(0.0, 2.0)], [(0.0, 3.0)], [(0.0, 4.0)]])
        d = constraint_subgradient(G, point([5.0]), 0.5)
        assert d.tolist() == [[0.0]]

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(96)
        Y = rv([0.0, 0.0, 0.0, 0.0])
        C = DominanceConstraint(Y, 0.5, 1.0, (0.5, 1.0))
        for _ in range(10):
            space = equiprobable(4)
            pieces = [
                [
                    (rng.uniform(-1, 1, size=2), rng.uniform(-1, 1))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                for _ in range(4)
            ]
            G = concave(space, pieces)
            x = point(rng.uniform(-1, 1, size=2))
            p = float(rng.choice([0.25, 0.5, 1.0]))
            d = constraint_subgradient(G, x, p)[0]
            rho_x = constraint_values_at(G, x, C, [p])[0]
            for _ in range(50):
                y = point(rng.uniform(-2, 2, size=2))
                rho_y = constraint_values_at(G, y, C, [p])[0]
                gain = float(d @ (y.vectors[0] - x.vectors[0]))
                assert rho_y >= rho_x + gain - 1e-10

    def test_partitioned_blocks(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        G = linear_map(space, [1.0, 1.0, 2.0, 2.0])
        x = DecisionPoint(np.array([[1.0], [1.0]]), part)
        d = constraint_subgradient(G, x, 1.0, part)
        assert d.shape == (2, 1)
        # per block: -E[zeta * slope | block] with zeta = 1 at p = 1
        assert d[0][0] == pytest.approx(-1.0, abs=1e-12)
        assert d[1][0] == pytest.approx(-2.0, abs=1e-12)

    def test_measurability_precondition(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        other = InfoPartition(space, ((0, 2), (1, 3)))
        G = linear_map(space, [1.0] * 4)
        x = DecisionPoint(np.ones((2, 1)), other)
        with pytest.raises(StructuralError):
            constraint_subgradient(G, x, 0.5, part)


class TestLorenzComposition:
    def test_positive_homogeneity_in_Z(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            Z = rv(list(rng.uniform(-3, 3, size=5)))
            t = float(rng.uniform(0, 4))
            tZ = RandomVariable(Z.space, t * Z.values)
            for p in (0.3, 0.8, 1.0):
                assert lorenz(tZ, p) == pytest.approx(
                    t * lorenz(Z, p), abs=1e-10
                )

    def test_concavity_in_decision(self):
        rng = np.random.default_rng(98)
        for _ in range(50):
            space = equiprobable(4)
            pieces = [
                [
                    (rng.uniform(-1, 1, size=2), rng.uniform(-1, 1))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                for _ in range(4)
            ]
            G = concave(space, pieces)
            x = point(rng.uniform(-2, 2, size=2))
            y = point(rng.uniform(-2, 2, size=2))
            lam = float(rng.uniform(0, 1))
            mix = x.combine(lam, y, 1 - lam)
            for p in (0.25, 0.75):
                lhs = lorenz(evaluate(G, mix), p)
                rhs = lam * lorenz(evaluate(G, x), p) + (1 - lam) * lorenz(
                    evaluate(G, y), p
                )
                assert lhs >= rhs - 1e-10
