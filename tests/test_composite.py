import numpy as np
import pytest

from riskcalc import (
    CompositeGradient,
    ConfigurationError,
    Curvature,
    DecisionPoint,
    InfoPartition,
    Orientation,
    SpectralMeasure,
    StructuralError,
    blend_selectors,
    composite_directional,
    composite_subgradient,
    composite_value,
    deterministic,
    directional_derivative,
    equiprobable,
    evaluate,
    spectral_identifier_lmo,
    strassen_gradient,
    subgradient_selector,
    trivial_partition,
)
from riskcalc.composite import _conditional_blocks
from tests.conftest import (
    abs_integrand,
    integrand,
    point,
    random_integrand,
    random_space,
)

E = SpectralMeasure.expectation()
AVAR_HALF = SpectralMeasure.single_avar(0.5)


def two_center():
    return abs_integrand(equiprobable(2), [1.0, 2.0])


class TestCompositeValue:
    def test_expectation_of_distances(self):
        assert composite_value(E, two_center(), deterministic(1.5)) == 0.5

    def test_avar_equal_scenarios(self):
        assert composite_value(AVAR_HALF, two_center(), deterministic(1.5)) == 0.5

    def test_zero_integrand(self):
        F = integrand(equiprobable(3), [[(0.0, 0.0)]] * 3)
        x = deterministic(0.7)
        assert composite_value(E, F, x) == 0.0
        assert composite_value(AVAR_HALF, F, x) == 0.0

    def test_lower_orientation_rejected(self):
        lower = SpectralMeasure((0.5,), (1.0,), Orientation.LOWER)
        with pytest.raises(ConfigurationError):
            composite_value(lower, two_center(), deterministic(1.0))

    def test_concave_integrand_rejected(self):
        G = integrand(equiprobable(1), [[(1.0, 0.0)]], Curvature.CONCAVE)
        with pytest.raises(ConfigurationError):
            composite_value(E, G, deterministic(0.0))


class TestCompositeDirectional:
    def test_expectation_is_mean_rate(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            space = random_space(rng, 5)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            rate = directional_derivative(F, x, h)
            expect = float(np.dot(space.probs, rate.values))
            got = composite_directional(E, F, x, h)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_abs_kink(self):
        F = abs_integrand(equiprobable(1), [0.0])
        got = composite_directional(E, F, deterministic(0.0), deterministic(1.0))
        assert got == 1.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(71)
        t = 1e-7
        for _ in range(40):
            n = int(rng.integers(1, 11))
            dim = int(rng.integers(1, 4))
            space = random_space(rng, n)
            F = random_integrand(rng, space, dim)
            risk = (
                AVAR_HALF
                if rng.random() < 0.5
                else SpectralMeasure((0.3, 1.0), (0.5, 0.5), Orientation.UPPER)
            )
            x = point(rng.uniform(-1, 1, size=dim))
            h = point(rng.uniform(-1, 1, size=dim))
            fd = (
                composite_value(risk, F, x.combine(1.0, h, t))
                - composite_value(risk, F, x)
            ) / t
            got = composite_directional(risk, F, x, h)
            assert got == pytest.approx(fd, abs=1e-6)

    def test_one_sided_monotone_in_t(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            quotients = [
                (composite_value(AVAR_HALF, F, x.combine(1.0, h, t))
                 - composite_value(AVAR_HALF, F, x)) / t
                for t in (0.1, 0.4, 1.0)
            ]
            assert quotients[0] <= quotients[1] + 1e-12
            assert quotients[1] <= quotients[2] + 1e-12


def random_partition(rng, space):
    n = space.size
    if n == 1:
        return trivial_partition(space)
    cut = int(rng.integers(1, n))
    idx = list(rng.permutation(n))
    return InfoPartition(space, (tuple(idx[:cut]), tuple(idx[cut:])))


def measurable_point(rng, partition, dim):
    return DecisionPoint(
        rng.uniform(-2, 2, size=(partition.num_blocks, dim)), partition
    )


class TestCompositeSubgradient:
    def test_smooth_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(73)
        space = random_space(rng, 4)
        F = random_integrand(rng, space, dim=2, max_pieces=3)
        x = point([10.0, -10.0])  # far from any kink of bounded random pieces
        g = composite_subgradient(E, F, x)
        t = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            fd = (
                composite_value(E, F, x.combine(1.0, point(e), t))
                - composite_value(E, F, x.combine(1.0, point(e), -t))
            ) / (2 * t)
            assert g.vectors[0][i] == pytest.approx(fd, abs=1e-6)

    def test_singleton_blocks_scenario_products(self):
        space = equiprobable(3)
        part = InfoPartition(space, ((0,), (1,), (2,)))
        F = abs_integrand(space, [0.0, 1.0, 2.0])
        x = DecisionPoint(np.array([[3.0], [3.0], [3.0]]), part)
        g = composite_subgradient(AVAR_HALF, F, x, part)
        Z = evaluate(F, x)
        zeta = g.zeta
        sel = g.selector
        for k in range(3):
            assert g.vectors[k][0] == pytest.approx(
                zeta[k] * sel.rows[k][0], abs=1e-15
            )

    def test_affine_full_level_gives_mean_slope(self):
        rng = np.random.default_rng(74)
        space = random_space(rng, 5)
        F = random_integrand(rng, space, dim=2, max_pieces=1)
        slopes = np.array([F.slopes[k][0] for k in range(5)])
        mean_slope = space.probs @ slopes
        x = point(rng.uniform(-1, 1, size=2))
        g = composite_subgradient(E, F, x)
        assert np.allclose(g.vectors[0], mean_slope, atol=1e-12)
        part = random_partition(rng, space)
        xb = measurable_point(rng, part, 2)
        gb = composite_subgradient(E, F, xb, part)
        # zeta = 1 everywhere, so each block averages its own slopes
        for j, b in enumerate(part.blocks):
            idx = list(b)
            blk = space.probs[idx] @ slopes[idx] / part.block_probs[j]
            assert np.allclose(gb.vectors[j], blk, atol=1e-12)

    def test_chain_rule_inequality_deterministic(self):
        rng = np.random.default_rng(75)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 4))
            space = random_space(rng, n)
            F = random_integrand(rng, space, dim)
            risk = SpectralMeasure((0.4, 1.0), (0.6, 0.4), Orientation.UPPER)
            x = point(rng.uniform(-1, 1, size=dim))
            g = composite_subgradient(risk, F, x)
            vx = composite_value(risk, F, x)
            for _ in range(40):
                y = point(rng.uniform(-3, 3, size=dim))
                gain = g.pair(y.combine(1.0, x, -1.0))
                assert composite_value(risk, F, y) >= vx + gain - 1e-10

    def test_chain_rule_inequality_partitioned(self):
        rng = np.random.default_rng(76)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 3))
            space = random_space(rng, n)
            part = random_partition(rng, space)
            F = random_integrand(rng, space, dim)
            x = measurable_point(rng, part, dim)
            g = composite_subgradient(AVAR_HALF, F, x, part)
            vx = composite_value(AVAR_HALF, F, x)
            for _ in range(40):
                y = measurable_point(rng, part, dim)
                gain = g.pair(y.combine(1.0, x, -1.0))
                assert composite_value(AVAR_HALF, F, y) >= vx + gain - 1e-10

    def test_measurability_precondition(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        other = InfoPartition(space, ((0, 2), (1, 3)))
        F = abs_integrand(space, [0.0] * 4)
        x = DecisionPoint(np.ones((2, 1)), other)
        with pytest.raises(StructuralError):
            composite_subgradient(E, F, x, part)

    def test_deterministic_point_expands_over_partition(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0, 1), (2, 3)))
        F = abs_integrand(space, [0.0, 0.0, 2.0, 2.0])
        g = composite_subgradient(E, F, deterministic(1.0), part)
        assert g.vectors.shape == (2, 1)
        # block one sits right of both kinks, block two left of both
        assert g.vectors[0][0] == 1.0
        assert g.vectors[1][0] == -1.0

    def test_support_function_consistency(self):
        rng = np.random.default_rng(77)
        risk = SpectralMeasure((0.5, 1.0), (0.5, 0.5), Orientation.UPPER)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 3))
            space = random_space(rng, n)
            F = random_integrand(rng, space, dim)
            x = point(rng.uniform(-1, 1, size=dim))
            h = point(rng.uniform(-1, 1, size=dim))
            g = composite_subgradient(risk, F, x, direction=h)
            paired = g.pair(h)
            target = composite_directional(risk, F, x, h)
            assert paired == pytest.approx(target, abs=1e-10)

    def test_directional_element_is_maximal(self):
        # no other (identifier, selector) pairing exceeds the aligned one
        rng = np.random.default_rng(78)
        for _ in range(30):
            space = random_space(rng, 5)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            h = point(rng.uniform(-1, 1, size=2))
            aligned = composite_subgradient(AVAR_HALF, F, x, direction=h).pair(h)
            plain = composite_subgradient(AVAR_HALF, F, x).pair(h)
            assert plain <= aligned + 1e-10

    def test_blended_selectors_stay_valid(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            space = random_space(rng, 4)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            d1 = point(rng.uniform(-1, 1, size=2))
            d2 = point(rng.uniform(-1, 1, size=2))
            s1 = subgradient_selector(F, x, d1)
            s2 = subgradient_selector(F, x, d2)
            s = blend_selectors(s1, s2, rng.uniform(0, 1, size=space.size))
            Z = evaluate(F, x)
            zeta = np.asarray(
                spectral_identifier_lmo(Z, AVAR_HALF, rng.uniform(-1, 1, size=space.size))
            )
            acc = np.zeros(2)
            for k in range(space.size):
                acc += space.probs[k] * zeta[k] * s.rows[k]
            g = CompositeGradient(acc.reshape(1, -1), None, zeta, s)
            vx = composite_value(AVAR_HALF, F, x)
            for _ in range(10):
                y = point(rng.uniform(-3, 3, size=2))
                gain = g.pair(y.combine(1.0, x, -1.0))
                assert composite_value(AVAR_HALF, F, y) >= vx + gain - 1e-10


class TestStrassen:
    def test_median_point_zero_gradient(self):
        g = strassen_gradient(two_center(), deterministic(1.5))
        assert g.vectors.tolist() == [[0.0]]

    def test_single_scenario_is_selector(self):
        rng = np.random.default_rng(80)
        space = equiprobable(1)
        F = random_integrand(rng, space, dim=3)
        x = point(rng.uniform(-1, 1, size=3))
        g = strassen_gradient(F, x)
        s = subgradient_selector(F, x)
        assert g.vectors[0].tolist() == s.rows[0].tolist()

    def test_affine_mean_slope(self):
        rng = np.random.default_rng(81)
        space = random_space(rng, 6)
        F = random_integrand(rng, space, dim=2, max_pieces=1)
        slopes = np.array([F.slopes[k][0] for k in range(6)])
        g = strassen_gradient(F, point([0.3, -0.4]))
        assert np.allclose(g.vectors[0], space.probs @ slopes, atol=1e-12)

    def test_equals_average_of_selector_rows(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            space = random_space(rng, 5)
            F = random_integrand(rng, space, dim=2)
            x = point(rng.uniform(-1, 1, size=2))
            g = strassen_gradient(F, x)
            s = g.selector
            avg = np.zeros(2)
            for k in range(space.size):
                avg += space.probs[k] * s.rows[k]
            assert g.vectors[0].tolist() == avg.tolist()

    def test_rejects_block_decision(self):
        space = equiprobable(2)
        part = InfoPartition(space, ((0,), (1,)))
        F = abs_integrand(space, [0.0, 0.0])
        x = DecisionPoint(np.ones((2, 1)), part)
        with pytest.raises(StructuralError):
            strassen_gradient(F, x)


class TestPairing:
    def test_deterministic_pairing_is_inner_product(self):
        g = CompositeGradient(
            np.array([[2.0, -1.0]]),
            None,
            np.ones(1),
            subgradient_selector(
                integrand(equiprobable(1), [[(2.0, 0.0)]]),
                point([0.0]),
            ),
        )
        assert g.pair(point([3.0, 4.0])) == 2.0

    def test_block_pairing_weights_by_probability(self):
        space = equiprobable(4)
        part = InfoPartition(space, ((0,), (1, 2, 3)))
        F = abs_integrand(space, [0.0] * 4)
        x = DecisionPoint(np.full((2, 1), 5.0), part)
        g = composite_subgradient(E, F, x, part)
        delta = DecisionPoint(np.array([[1.0], [1.0]]), part)
        # every selector row is +1 right of the kink, so the pairing is
        # 0.25*1 + 0.75*1 = 1
        assert g.pair(delta) == pytest.approx(1.0, abs=1e-15)

    def test_pairing_structure_mismatch(self):
        g = strassen_gradient(two_center(), deterministic(1.5))
        with pytest.raises(StructuralError):
            g.pair(point([1.0, 2.0]))


def loop_blocks(space, partition, weights, rows):
    """Reference: accumulate pi_k * weights_k * rows_k scenario by scenario."""
    blocks = [range(space.size)] if partition is None else partition.blocks
    probs = [1.0] if partition is None else partition.block_probs
    out = np.zeros((len(blocks), rows.shape[1]))
    for j, b in enumerate(blocks):
        acc = np.zeros(rows.shape[1])
        for k in b:
            acc += space.probs[k] * weights[k] * rows[k]
        out[j] = acc if partition is None else acc / probs[j]
    return out


class TestConditionalBlocksMatchLoop:
    def test_random_blocks_bitwise(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            space = random_space(rng, n)
            # magnitudes far apart, so another summation order moves bits
            weights = rng.uniform(0.0, 3.0, size=n) * 10.0 ** rng.integers(-8, 9, size=n)
            rows = rng.standard_normal((n, int(rng.integers(1, 4))))
            for partition in (None, random_partition(rng, space)):
                got = _conditional_blocks(space, partition, weights, rows)
                ref = loop_blocks(space, partition, weights, rows)
                assert got.tobytes() == ref.tobytes()

    def test_all_negative_zero_terms(self):
        space = equiprobable(4)
        weights = np.zeros(4)
        rows = -np.ones((4, 2))
        partition = InfoPartition(space, ((0, 2), (1, 3)))
        for part in (None, partition):
            got = _conditional_blocks(space, part, weights, rows)
            ref = loop_blocks(space, part, weights, rows)
            assert got.tobytes() == ref.tobytes()
            assert not np.any(np.signbit(got))
