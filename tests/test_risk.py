import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcalc import (
    DomainError,
    Orientation,
    ProbSpace,
    RandomVariable,
    StructuralError,
    almost_sure_leq,
    avar_identifier,
    avar_identifier_lmo,
    avar_lower,
    avar_upper,
    expectation,
    lorenz,
    lorenz_supergradient,
    spectral_identifier,
    spectral_identifier_lmo,
    spectral_risk,
    SpectralMeasure,
)
from riskcalc.risk import IDENTIFIER_TOL, _greedy_fill, _greedy_order
from tests.conftest import (
    oracle_avar_lower,
    oracle_avar_upper,
    random_variable,
    rv,
)

UP = Orientation.UPPER
LO = Orientation.LOWER


class TestAvarValues:
    def test_lower_staircase(self, omega4):
        assert avar_lower(omega4, 0.5) == -1.5

    def test_lower_full_tail(self, omega4):
        assert avar_lower(omega4, 1.0) == -2.5

    def test_lower_constant(self):
        Z = rv([3.0, 3.0, 3.0])
        for p in (0.2, 0.7, 1.0):
            assert avar_lower(Z, p) == pytest.approx(-3.0, abs=1e-15)

    def test_upper_staircase(self, omega4):
        assert avar_upper(omega4, 0.5) == 3.5

    def test_upper_full_tail_is_mean(self, omega4):
        assert avar_upper(omega4, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_reflection_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            Z = random_variable(rng, ProbSpace(np.full(6, 1 / 6)))
            neg = RandomVariable(Z.space, -Z.values)
            for p in np.linspace(0.05, 1.0, 20):
                assert avar_upper(neg, p) == pytest.approx(
                    avar_lower(Z, p), abs=1e-12
                )

    def test_level_domain_errors(self, omega4):
        for bad in (0.0, -0.2, 1.01):
            with pytest.raises(DomainError):
                avar_lower(omega4, bad)
            with pytest.raises(DomainError):
                avar_upper(omega4, bad)

    def test_matches_oracles(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            w = rng.uniform(0.1, 1, size=7)
            Z = random_variable(rng, ProbSpace(w / w.sum()))
            p = rng.uniform(0.05, 1.0)
            assert avar_upper(Z, p) == pytest.approx(
                oracle_avar_upper(Z.values, Z.space.probs, p), abs=1e-10
            )
            assert avar_lower(Z, p) == pytest.approx(
                oracle_avar_lower(Z.values, Z.space.probs, p), abs=1e-10
            )

    def test_lorenz_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            Z = random_variable(rng, ProbSpace(np.full(5, 0.2)))
            for p in np.linspace(0.05, 1.0, 13):
                assert lorenz(Z, p) == pytest.approx(
                    -p * avar_lower(Z, p), rel=1e-14, abs=1e-15
                )


class TestCoherence:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            Z = random_variable(rng, ProbSpace(np.full(6, 1 / 6)))
            t = rng.uniform(0, 4)
            tZ = RandomVariable(Z.space, t * Z.values)
            for p in (0.3, 0.8):
                assert avar_upper(tZ, p) == pytest.approx(
                    t * avar_upper(Z, p), abs=1e-10
                )
                assert avar_lower(tZ, p) == pytest.approx(
                    t * avar_lower(Z, p), abs=1e-10
                )

    def test_translation(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            Z = random_variable(rng, ProbSpace(np.full(5, 0.2)))
            c = rng.uniform(-3, 3)
            Zc = RandomVariable(Z.space, Z.values + c)
            for p in (0.25, 0.6, 1.0):
                assert avar_upper(Zc, p) == pytest.approx(
                    avar_upper(Z, p) + c, abs=1e-12
                )
                assert avar_lower(Zc, p) == pytest.approx(
                    avar_lower(Z, p) - c, abs=1e-12
                )

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            space = ProbSpace(np.full(6, 1 / 6))
            Z = random_variable(rng, space)
            V = random_variable(rng, space)
            lam = rng.uniform(0, 1)
            mix = RandomVariable(space, lam * Z.values + (1 - lam) * V.values)
            for p in (0.3, 0.9):
                bound = lam * avar_upper(Z, p) + (1 - lam) * avar_upper(V, p)
                assert avar_upper(mix, p) <= bound + 1e-10

    def test_monotone_in_almost_sure_order(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            z = rng.uniform(-5, 5, size=6)
            Z = rv(z)
            V = RandomVariable(Z.space, z + rng.uniform(0, 2, size=6))
            assert almost_sure_leq(Z, V)
            for p in (0.2, 0.7, 1.0):
                assert avar_upper(Z, p) <= avar_upper(V, p) + 1e-12


def check_identifier(ident, Z, p):
    zeta = ident.zeta
    assert np.all(zeta >= -1e-10)
    assert np.all(zeta <= 1.0 / p + 1e-10)
    assert abs(float(np.dot(Z.space.probs, zeta)) - 1.0) <= 1e-10


class TestAvarIdentifier:
    def test_upper_staircase(self, omega4):
        ident = avar_identifier(omega4, 0.5, UP)
        assert ident.zeta.tolist() == [0.0, 0.0, 2.0, 2.0]
        assert float(np.dot(omega4.space.probs, ident.zeta * omega4.values)) == 3.5

    def test_lower_staircase(self, omega4):
        ident = avar_identifier(omega4, 0.5, LO)
        assert ident.zeta.tolist() == [2.0, 2.0, 0.0, 0.0]
        assert float(np.dot(omega4.space.probs, ident.zeta * omega4.values)) == 1.5

    def test_p_one_is_all_ones(self, omega4):
        for orient in (UP, LO):
            assert avar_identifier(omega4, 1.0, orient).zeta.tolist() == [1.0] * 4

    def test_feasibility_random(self):
        rng = np.random.default_rng(38)
        for _ in range(40):
            w = rng.uniform(0.1, 1, size=8)
            Z = random_variable(rng, ProbSpace(w / w.sum()))
            p = rng.uniform(0.05, 1.0)
            for orient in (UP, LO):
                check_identifier(avar_identifier(Z, p, orient), Z, p)

    def test_value_equations(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            Z = random_variable(rng, ProbSpace(np.full(7, 1 / 7)))
            p = rng.uniform(0.05, 1.0)
            zu = avar_identifier(Z, p, UP).zeta
            zl = avar_identifier(Z, p, LO).zeta
            assert float(np.dot(Z.space.probs, zu * Z.values)) == pytest.approx(
                avar_upper(Z, p), abs=1e-10
            )
            assert float(np.dot(Z.space.probs, zl * Z.values)) == pytest.approx(
                lorenz(Z, p) / p, abs=1e-10
            )

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(40)
        space = ProbSpace(np.full(6, 1 / 6))
        for _ in range(200):
            Z = random_variable(rng, space)
            V = random_variable(rng, space)
            p = rng.uniform(0.05, 1.0)
            zeta = avar_identifier(Z, p, UP).zeta
            gain = float(np.dot(space.probs, zeta * (V.values - Z.values)))
            assert avar_upper(V, p) >= avar_upper(Z, p) + gain - 1e-10

    def test_tie_break_ascending_index(self):
        Z = rv([2.0, 1.0, 1.0, 3.0])
        ident = avar_identifier(Z, 0.25, LO)
        # scenarios 1 and 2 tie at the smallest value; index 1 wins
        assert ident.zeta.tolist() == [0.0, 4.0, 0.0, 0.0]


class TestLorenzSupergradient:
    def test_staircase(self, omega4):
        assert lorenz_supergradient(omega4, 0.5).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_p_one_gradient_of_mean(self, omega4):
        assert lorenz_supergradient(omega4, 1.0).tolist() == [1.0] * 4

    def test_constant_variable_tie_break(self):
        Z = rv([2.0, 2.0, 2.0, 2.0])
        g = lorenz_supergradient(Z, 0.5)
        # deterministic greedy fill from scenario 0
        assert g.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_concave_superdifferential_inequality(self):
        rng = np.random.default_rng(41)
        space = ProbSpace(np.full(6, 1 / 6))
        for _ in range(200):
            Z = random_variable(rng, space)
            V = random_variable(rng, space)
            p = rng.uniform(0.05, 1.0)
            g = lorenz_supergradient(Z, p)
            gain = float(np.dot(space.probs, g * (V.values - Z.values)))
            assert lorenz(V, p) <= lorenz(Z, p) + gain + 1e-10


class TestLmo:
    def brute_max(self, Z, p, direction, orientation):
        # the greedy LMO claims to maximize E[zeta * direction] over the
        # identifier face; compare against the best of many random feasible
        # face points generated by re-sorting with perturbed keys
        best = -np.inf
        rng = np.random.default_rng(0)
        for _ in range(200):
            keys = Z.values + 1e-9 * rng.standard_normal(Z.space.size)
            order = np.argsort(keys if orientation is LO else -keys, kind="stable")
            remaining = p
            zeta = np.zeros(Z.space.size)
            for k in order:
                take = min(Z.space.probs[k], remaining)
                zeta[k] = take / (Z.space.probs[k] * p)
                remaining -= take
                if remaining <= 0:
                    break
            value_ok = (
                abs(
                    float(np.dot(Z.space.probs, zeta * Z.values))
                    - (
                        -avar_lower(Z, p)
                        if orientation is LO
                        else avar_upper(Z, p)
                    )
                )
                <= 1e-9
            )
            if value_ok:
                best = max(best, float(np.dot(Z.space.probs, zeta * direction)))
        return best

    def test_lmo_dominates_random_face_points(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            vals = rng.integers(-3, 4, size=6).astype(float)  # ties likely
            Z = rv(vals)
            p = float(rng.choice([0.25, 0.5, 0.75]))
            d = rng.uniform(-1, 1, size=6)
            for orient in (UP, LO):
                ident = avar_identifier_lmo(Z, p, orient, d)
                check_identifier(ident, Z, p)
                got = float(np.dot(Z.space.probs, ident.zeta * d))
                ref = self.brute_max(Z, p, d, orient)
                assert got >= ref - 1e-9

    def test_lmo_preserves_avar_value(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            Z = rv(rng.integers(-2, 3, size=5).astype(float))
            p = 0.4
            d = rng.uniform(-1, 1, size=5)
            ident = avar_identifier_lmo(Z, p, UP, d)
            assert float(
                np.dot(Z.space.probs, ident.zeta * Z.values)
            ) == pytest.approx(avar_upper(Z, p), abs=1e-10)


class TestSpectral:
    def test_point_mass_equals_avar(self, omega4):
        mu = SpectralMeasure.single_avar(0.5, UP)
        assert spectral_risk(omega4, mu) == avar_upper(omega4, 0.5)

    def test_two_atom_mixture_lower(self, omega4):
        mu = SpectralMeasure((0.5, 1.0), (0.5, 0.5), LO)
        assert spectral_risk(omega4, mu) == pytest.approx(-2.0, abs=1e-15)

    def test_constant_variable(self):
        Z = rv([4.0, 4.0])
        mu = SpectralMeasure((0.3, 0.9), (0.4, 0.6), LO)
        assert spectral_risk(Z, mu) == pytest.approx(-4.0, abs=1e-12)

    def test_expectation_measure(self, omega4):
        mu = SpectralMeasure.expectation(UP)
        assert mu.is_expectation
        assert spectral_risk(omega4, mu) == pytest.approx(
            expectation(omega4), abs=1e-15
        )

    def test_invalid_constructions(self):
        with pytest.raises(StructuralError):
            SpectralMeasure((0.5, 0.5), (0.5, 0.5), UP)  # not increasing
        with pytest.raises(DomainError):
            SpectralMeasure((0.5, 1.0), (0.7, 0.7), UP)  # weights sum 1.4
        with pytest.raises(DomainError):
            SpectralMeasure((0.0,), (1.0,), UP)  # level 0
        with pytest.raises(DomainError):
            SpectralMeasure((0.5,), (-1.0,), UP)

    def test_identifier_point_mass_matches_avar(self, omega4):
        mu = SpectralMeasure.single_avar(0.5, UP)
        zeta = spectral_identifier(omega4, mu)
        assert zeta.tolist() == avar_identifier(omega4, 0.5, UP).zeta.tolist()

    def test_identifier_two_atom_combination(self, omega4):
        mu = SpectralMeasure((0.5, 1.0), (0.5, 0.5), UP)
        zeta = spectral_identifier(omega4, mu)
        expect = 0.5 * avar_identifier(omega4, 0.5, UP).zeta + 0.5 * np.ones(4)
        assert zeta.tolist() == expect.tolist()

    def test_identifier_p1_is_ones_any_orientation(self, omega4):
        for orient in (UP, LO):
            mu = SpectralMeasure((1.0,), (1.0,), orient)
            assert spectral_identifier(omega4, mu).tolist() == [1.0] * 4

    def test_spectral_subgradient_inequality(self):
        rng = np.random.default_rng(44)
        space = ProbSpace(np.full(6, 1 / 6))
        mu = SpectralMeasure((0.3, 0.8), (0.6, 0.4), UP)
        for _ in range(100):
            Z = random_variable(rng, space)
            V = random_variable(rng, space)
            zeta = spectral_identifier(Z, mu)
            gain = float(np.dot(space.probs, zeta * (V.values - Z.values)))
            assert spectral_risk(V, mu) >= spectral_risk(Z, mu) + gain - 1e-10

    def test_spectral_lmo_supports_value(self):
        rng = np.random.default_rng(45)
        space = ProbSpace(np.full(5, 0.2))
        mu = SpectralMeasure((0.4, 1.0), (0.5, 0.5), UP)
        for _ in range(30):
            Z = rv(rng.integers(-2, 3, size=5).astype(float))
            d = rng.uniform(-1, 1, size=5)
            base = spectral_identifier(Z, mu)
            best = spectral_identifier_lmo(Z, mu, d)
            assert float(np.dot(space.probs, best * d)) >= float(
                np.dot(space.probs, base * d)
            ) - 1e-12


@given(
    st.lists(st.floats(-20, 20), min_size=1, max_size=10),
    st.floats(0.05, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_avar_identifier_feasible_hypothesis(values, p):
    Z = rv(values)
    for orient in (UP, LO):
        ident = avar_identifier(Z, p, orient)
        assert np.all(ident.zeta >= -1e-10)
        assert np.all(ident.zeta <= 1.0 / p + 1e-10)
        assert abs(float(np.dot(Z.space.probs, ident.zeta)) - 1.0) <= 1e-10


def loop_identifier(Z, p, orientation, tilt):
    """Reference greedy fill: sort with a key, then place mass atom by atom."""
    n = Z.space.size
    probs = Z.space.probs
    if p == 1.0:
        return np.ones(n)
    if tilt is None:
        tilt = np.zeros(n)
    primary = Z.values if orientation is LO else -Z.values
    order = sorted(range(n), key=lambda k: (primary[k], -tilt[k], k))
    cap = 1.0 / p
    zeta = np.zeros(n)
    remaining = p
    for k in order:
        if remaining <= 0.0:
            break
        take = min(probs[k], remaining)
        zeta[k] = cap * (take / probs[k])
        remaining -= take
    mean = 0.0
    for term in probs * zeta:
        mean += float(term)
    if abs(mean - 1.0) > IDENTIFIER_TOL and mean > 0.0:
        zeta /= mean
    return zeta


class TestGreedyMatchesLoop:
    def assert_same(self, Z, p, orientation, tilt):
        got = _greedy_fill(_greedy_order(Z.values, orientation, tilt), Z.space.probs, p)
        assert got.tobytes() == loop_identifier(Z, p, orientation, tilt).tobytes()

    def test_ties_in_value_and_tilt(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            w = rng.uniform(0.1, 1.0, size=n)
            Z = rv(rng.integers(-2, 3, size=n).astype(float), w / w.sum())
            tilts = [None, rng.integers(-1, 2, size=n).astype(float), rng.uniform(-1, 1, n)]
            for p in (float(rng.uniform(0.01, 1.0)), 0.25, 0.5, 1.0):
                for orient in (UP, LO):
                    for tilt in tilts:
                        self.assert_same(Z, p, orient, tilt)

    def test_level_at_cumulative_probability(self):
        # p equal to the mass of the first atoms: the covering atom is full
        Z = rv([3.0, 1.0, 2.0, 1.0])
        for p in (0.25, 0.5, 0.75):
            for orient in (UP, LO):
                self.assert_same(Z, p, orient, None)
                self.assert_same(Z, p, orient, np.array([0.0, -0.0, 1.0, 1.0]))

    def test_rounding_leaves_mass(self):
        # subtracting the three probabilities from the largest level below
        # one leaves 5.6e-17: every atom is full and the mean is repaired
        probs = np.array([0.27822579296637623, 0.28814276494919583, 0.43363144208442783])
        Z = rv([1.0, 2.0, 3.0], probs)
        p = float(np.nextafter(1.0, 0.0))
        remaining = p
        for q in probs:
            assert q < remaining
            remaining -= q
        assert remaining > 0.0
        for orient in (UP, LO):
            self.assert_same(Z, p, orient, None)
