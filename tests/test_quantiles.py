import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcalc import (
    DomainError,
    ProbSpace,
    RandomVariable,
    almost_sure_leq,
    cdf,
    expectation,
    integrated_cdf,
    lorenz,
    lorenz_breakpoints,
    lorenz_conjugate,
    quantile,
    sorted_view,
)
from riskcalc.quantiles import _lorenz_at
from tests.conftest import (
    oracle_cdf,
    oracle_integrated_cdf,
    oracle_lorenz,
    oracle_quantile,
    random_variable,
    rv,
)


class TestCdf:
    def test_staircase_midpoint(self, omega4):
        assert cdf(omega4, 2.5) == 0.5

    def test_below_min(self, omega4):
        assert cdf(omega4, 0.5) == 0.0

    def test_at_and_above_max(self, omega4):
        assert cdf(omega4, 4.0) == 1.0
        assert cdf(omega4, 9.0) == 1.0

    def test_right_continuity_at_atom(self, omega4):
        # P[Z <= 2] includes the atom at 2
        assert cdf(omega4, 2.0) == 0.5
        assert cdf(omega4, 2.0 - 1e-9) == 0.25

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            Z = random_variable(rng, ProbSpace(np.full(6, 1 / 6)))
            eta = rng.uniform(-12, 12)
            assert cdf(Z, eta) == pytest.approx(
                oracle_cdf(Z.values, Z.space.probs, eta), abs=1e-12
            )


class TestQuantile:
    def test_staircase_median(self, omega4):
        assert quantile(omega4, 0.5) == 2.0

    def test_p_one_is_max(self, omega4):
        assert quantile(omega4, 1.0) == 4.0

    def test_constant_variable(self):
        Z = rv([3.5, 3.5, 3.5])
        for p in (0.1, 0.5, 1.0):
            assert quantile(Z, p) == 3.5

    def test_left_continuous_at_breakpoint(self, omega4):
        # at cumulative probability 0.25 the quantile takes the left atom
        assert quantile(omega4, 0.25) == 1.0
        assert quantile(omega4, 0.25 + 1e-12) == 2.0

    def test_domain_errors(self, omega4):
        with pytest.raises(DomainError):
            quantile(omega4, 0.0)
        with pytest.raises(DomainError):
            quantile(omega4, 1.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            w = rng.uniform(0.1, 1, size=5)
            Z = random_variable(rng, ProbSpace(w / w.sum()))
            p = rng.uniform(0.01, 1.0)
            assert quantile(Z, p) == oracle_quantile(
                Z.values, Z.space.probs, p
            )


class TestIntegratedCdf:
    def test_staircase(self, omega4):
        assert integrated_cdf(omega4, 3.0) == 0.75

    def test_no_shortfall(self, omega4):
        assert integrated_cdf(omega4, 1.0) == 0.0
        assert integrated_cdf(omega4, 0.0) == 0.0

    def test_single_atom_slope(self):
        Z = rv([1.0, 5.0, 6.0], [0.3, 0.4, 0.3])
        assert integrated_cdf(Z, 1.0 + 0.5) == pytest.approx(0.3 * 0.5, abs=1e-15)

    def test_convex_nondecreasing(self):
        rng = np.random.default_rng(23)
        Z = random_variable(rng, ProbSpace(np.full(7, 1 / 7)))
        grid = np.linspace(-12, 12, 101)
        vals = [integrated_cdf(Z, e) for e in grid]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            Z = random_variable(rng, ProbSpace(np.full(4, 0.25)))
            eta = rng.uniform(-12, 12)
            assert integrated_cdf(Z, eta) == pytest.approx(
                oracle_integrated_cdf(Z.values, Z.space.probs, eta), abs=1e-12
            )


class TestLorenz:
    def test_staircase_half(self, omega4):
        assert lorenz(omega4, 0.5) == 0.75

    def test_full_integral_is_mean(self, omega4):
        assert lorenz(omega4, 1.0) == pytest.approx(expectation(omega4), abs=1e-15)

    def test_zero_convention(self, omega4):
        assert lorenz(omega4, 0.0) == 0.0

    def test_outside_unit_interval_is_infinite(self, omega4):
        assert lorenz(omega4, -0.1) == math.inf
        assert lorenz(omega4, 1.1) == math.inf

    def test_convex_in_p(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            Z = random_variable(rng, ProbSpace(np.full(6, 1 / 6)))
            grid = np.linspace(0, 1, 53)
            vals = np.array([lorenz(Z, p) for p in grid])
            assert np.all(np.diff(vals, 2) >= -1e-12)

    def test_monotone_in_almost_sure_order(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=6)
            Z = rv(z)
            V = RandomVariable(Z.space, z + rng.uniform(0, 3, size=6))
            assert almost_sure_leq(Z, V)
            for p in np.linspace(0.05, 1.0, 11):
                assert lorenz(Z, p) <= lorenz(V, p) + 1e-12

    def test_right_slope_equals_quantile(self, omega4):
        # away from breakpoints the derivative of the Lorenz function is the
        # quantile at that level
        for p in (0.1, 0.3, 0.6, 0.9):
            h = 1e-6
            slope = (lorenz(omega4, p + h) - lorenz(omega4, p)) / h
            assert slope == pytest.approx(quantile(omega4, p + h / 2), abs=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            w = rng.uniform(0.1, 1, size=8)
            Z = random_variable(rng, ProbSpace(w / w.sum()))
            p = rng.uniform(0, 1)
            assert lorenz(Z, p) == pytest.approx(
                oracle_lorenz(Z.values, Z.space.probs, p), abs=1e-12
            )

    def test_breakpoints_end_at_one(self, omega4):
        bp = lorenz_breakpoints(omega4)
        assert bp[-1] == 1.0
        assert np.all(np.diff(bp) > 0)


class TestConjugate:
    def test_staircase(self, omega4):
        assert lorenz_conjugate(omega4, 0.5) == 0.75

    def test_endpoints(self, omega4):
        assert lorenz_conjugate(omega4, 0.0) == 0.0
        assert lorenz_conjugate(omega4, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_fenchel_identity_random(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            w = rng.uniform(0.1, 1, size=n)
            Z = random_variable(rng, ProbSpace(w / w.sum()))
            for p in np.linspace(0, 1, 23):
                assert abs(lorenz(Z, p) - lorenz_conjugate(Z, p)) <= 1e-9

    def test_domain_error(self, omega4):
        with pytest.raises(DomainError):
            lorenz_conjugate(omega4, 1.2)

    def test_linear_memory_at_two_thousand_atoms(self):
        # the integrated CDF at the distinct atoms was an N x N matrix:
        # 65 MB and 150 ms per call at N = 2,000
        rng = np.random.default_rng(2000)
        w = rng.uniform(0.1, 1, size=2000)
        Z = RandomVariable(ProbSpace(w / w.sum()), rng.normal(0.0, 1.0, 2000))
        tracemalloc.start()
        try:
            got = [lorenz_conjugate(Z, p) for p in (0.1, 0.5, 1.0)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for p, value in zip((0.1, 0.5, 1.0), got):
            assert abs(value - lorenz(Z, p)) <= 1e-9


class TestSortedView:
    def test_cached_view_is_value_identical(self, omega4):
        v1 = sorted_view(omega4)
        v2 = sorted_view(omega4)
        assert np.array_equal(v1.order, v2.order)
        assert np.array_equal(v1.cum_probs, v2.cum_probs)
        assert v1.cum_probs[-1] == 1.0

    def test_cached_view_leaves_no_reference_cycle(self):
        # the view held the variable: the cache made a cycle that only the
        # cyclic garbage collector freed
        Z = rv([1.0, 2.0, 3.0, 4.0])
        ref = weakref.ref(Z)
        gc.disable()
        try:
            cdf(Z, 0.0)
            del Z
            assert ref() is None
        finally:
            gc.enable()

    def test_sorted_values_nondecreasing(self):
        rng = np.random.default_rng(29)
        Z = random_variable(rng, ProbSpace(np.full(9, 1 / 9)))
        view = sorted_view(Z)
        assert np.all(np.diff(Z.values[view.order]) >= 0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(0, 1))
@settings(max_examples=120, deadline=None)
def test_lorenz_matches_oracle_hypothesis(values, p):
    Z = rv(values)
    assert lorenz(Z, p) == pytest.approx(
        oracle_lorenz(Z.values, Z.space.probs, p), abs=1e-10
    )


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(0.01, 1))
@settings(max_examples=120, deadline=None)
def test_fenchel_duality_hypothesis(values, p):
    Z = rv(values)
    assert abs(lorenz(Z, p) - lorenz_conjugate(Z, p)) <= 1e-9


# Values with ties and both signed zeros mixed into arbitrary floats.
_atom_values = st.one_of(st.floats(-50, 50), st.sampled_from([-1.0, -0.0, 0.0, 2.5]))


@given(
    st.lists(st.tuples(_atom_values, st.floats(0.05, 1.0)), min_size=1, max_size=12),
    st.lists(st.floats(0, 1), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_lorenz_at_matches_scalar_bitwise_hypothesis(atoms, levels):
    values, weights = (np.array(col) for col in zip(*atoms))
    Z = rv(values, weights / weights.sum())
    cum = sorted_view(Z).cum_probs
    # 0, 1, levels exactly at cum_probs entries, midpoints and free levels
    mids = (np.concatenate([[0.0], cum[:-1]]) + cum) / 2
    grid = np.concatenate([[0.0, 1.0], cum, mids, levels])
    expected = np.array([lorenz(Z, float(p)) for p in grid])
    assert _lorenz_at(Z, grid).tobytes() == expected.tobytes()
