import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcalc import (
    DomainError,
    InfoPartition,
    ProbSpace,
    RandomVariable,
    StructuralError,
    almost_sure_leq,
    conditional_expectation,
    equiprobable,
    expectation,
    is_measurable,
    singleton_partition,
    trivial_partition,
)
from riskcalc.scenario import _running_sum
from tests.conftest import oracle_expectation, rv


class TestProbSpace:
    def test_renormalized_sum_is_exactly_one(self):
        space = ProbSpace([0.1, 0.2, 0.3, 0.4])
        assert float(np.sum(space.probs)) == 1.0

    def test_rejects_sum_beyond_tolerance(self):
        with pytest.raises(Exception):
            ProbSpace([0.45, 0.45])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(Exception):
            ProbSpace([0.5, 0.5, 0.0])
        with pytest.raises(Exception):
            ProbSpace([1.5, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            ProbSpace([])

    def test_value_rules_carry_their_codes(self):
        # the problem-file reader reports these codes as they are raised
        with pytest.raises(DomainError) as err:
            ProbSpace([1.5, -0.5])
        assert err.value.code == "E_PROB_POSITIVE"
        assert "probs[1] = -0.5" in str(err.value)
        with pytest.raises(DomainError) as err:
            ProbSpace([0.45, 0.45])
        assert err.value.code == "E_PROB_SUM"

    def test_singleton_space(self):
        space = ProbSpace([1.0])
        assert space.size == 1

    def test_small_drift_renormalized(self):
        # sum off by < 1e-12 is accepted and fixed up
        probs = [1.0 / 3.0] * 3
        space = ProbSpace(probs)
        assert float(np.sum(space.probs)) == 1.0


class TestExpectation:
    def test_staircase(self, omega4):
        assert expectation(omega4) == 2.5

    def test_zero_variable(self):
        Z = rv([0.0, 0.0, 0.0], [0.2, 0.3, 0.5])
        assert expectation(Z) == 0.0

    def test_singleton(self):
        assert expectation(rv([7.0], [1.0])) == 7.0

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            w = rng.uniform(0.1, 1.0, size=n)
            probs = w / w.sum()
            vals = rng.uniform(-5, 5, size=n)
            Z = RandomVariable(ProbSpace(probs), vals)
            got = expectation(Z)
            want = oracle_expectation(vals, Z.space.probs)
            assert abs(got - want) <= 1e-12

    def test_length_mismatch_rejected(self):
        space = equiprobable(3)
        with pytest.raises(StructuralError):
            RandomVariable(space, np.array([1.0, 2.0]))


class TestConditionalExpectation:
    def test_two_block_staircase(self, omega4):
        G = InfoPartition(omega4.space, ((0, 1), (2, 3)))
        out = conditional_expectation(omega4, G)
        assert out.values.tolist() == [1.5, 1.5, 3.5, 3.5]

    def test_trivial_partition_gives_mean(self, omega4):
        G = trivial_partition(omega4.space)
        out = conditional_expectation(omega4, G)
        assert np.all(out.values == expectation(omega4))

    def test_singleton_partition_is_identity(self, omega4):
        G = singleton_partition(omega4.space)
        out = conditional_expectation(omega4, G)
        assert np.array_equal(out.values, omega4.values)

    def test_projection_property(self):
        rng = np.random.default_rng(3)
        Z = rv(rng.uniform(-4, 4, size=6), [0.1, 0.15, 0.2, 0.25, 0.2, 0.1])
        G = InfoPartition(Z.space, ((0, 2, 4), (1, 3), (5,)))
        once = conditional_expectation(Z, G)
        twice = conditional_expectation(once, G)
        assert np.array_equal(once.values, twice.values)

    def test_tower_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            Z = rv(rng.uniform(-4, 4, size=5), [0.1, 0.2, 0.3, 0.25, 0.15])
            G = InfoPartition(Z.space, ((0, 3), (1, 2, 4)))
            cond = conditional_expectation(Z, G)
            assert abs(expectation(cond) - expectation(Z)) <= 1e-12

    def test_result_is_measurable(self):
        rng = np.random.default_rng(5)
        Z = rv(rng.uniform(-1, 1, size=6))
        G = InfoPartition(Z.space, ((0, 1, 2), (3, 4, 5)))
        assert is_measurable(conditional_expectation(Z, G), G)


class TestInfoPartition:
    def test_rejects_overlap(self):
        space = equiprobable(3)
        with pytest.raises(StructuralError):
            InfoPartition(space, ((0, 1), (1, 2)))

    def test_rejects_gap(self):
        space = equiprobable(3)
        with pytest.raises(StructuralError):
            InfoPartition(space, ((0,), (2,)))

    def test_rejects_empty_block(self):
        space = equiprobable(2)
        with pytest.raises(StructuralError):
            InfoPartition(space, ((0, 1), ()))

    @pytest.mark.parametrize("index", [1.7, 1.0, True])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        # 1.7 was truncated to 1, and True counted as 1
        space = equiprobable(2)
        with pytest.raises(StructuralError):
            InfoPartition(space, ((0,), (index,)))

    def test_accepts_numpy_integer_indices(self):
        space = equiprobable(3)
        labels = np.array([1, 0, 1])
        G = InfoPartition(space, tuple(tuple(np.nonzero(labels == j)[0]) for j in (0, 1)))
        assert G.blocks == ((1,), (0, 2))
        assert all(type(i) is int for b in G.blocks for i in b)


class TestRandomVariableHash:
    def test_equal_variables_hash_equal_across_signed_zeros(self):
        space = equiprobable(2)
        X = RandomVariable(space, [0.0, 1.0])
        Y = RandomVariable(space, [-0.0, 1.0])
        assert X == Y
        assert hash(X) == hash(Y)
        assert len({X, Y}) == 1


class TestMeasurability:
    def test_block_constant_true(self):
        Z = rv([1.5, 1.5, 3.5, 3.5])
        G = InfoPartition(Z.space, ((0, 1), (2, 3)))
        assert is_measurable(Z, G)

    def test_non_constant_false(self, omega4):
        G = InfoPartition(omega4.space, ((0, 1), (2, 3)))
        assert not is_measurable(omega4, G)

    def test_singleton_blocks_always_true(self, omega4):
        assert is_measurable(omega4, singleton_partition(omega4.space))


class TestAlmostSureOrder:
    def test_pointwise_true(self):
        assert almost_sure_leq(rv([1.0, 2.0]), rv([1.0, 3.0]))

    def test_pointwise_false(self):
        assert not almost_sure_leq(rv([1.0, 4.0]), rv([2.0, 3.0]))

    def test_reflexive(self, omega4):
        assert almost_sure_leq(omega4, omega4)

    def test_implies_mean_order(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            z = rng.uniform(-3, 3, size=7)
            v = z + rng.uniform(0, 2, size=7)
            Z, V = rv(z), RandomVariable(rv(z).space, v)
            assert almost_sure_leq(Z, V)
            assert expectation(Z) <= expectation(V) + 1e-12


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_conditional_expectation_tower_hypothesis(values, seed):
    rng = np.random.default_rng(seed)
    n = len(values)
    w = rng.uniform(0.1, 1.0, size=n)
    Z = RandomVariable(ProbSpace(w / w.sum()), np.array(values))
    cut = int(rng.integers(1, n + 1))
    blocks = ((tuple(range(cut)),) if cut == n
              else (tuple(range(cut)), tuple(range(cut, n))))
    G = InfoPartition(Z.space, blocks)
    cond = conditional_expectation(Z, G)
    assert is_measurable(cond, G)
    assert abs(expectation(cond) - expectation(Z)) <= 1e-9 * (1 + abs(expectation(Z)))


def loop_sum(values) -> float:
    """Reference: 0.0 + v0 + v1 + ..., one Python float at a time."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


@given(
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mixed", "zeros", "negative_zeros", "cancelling"]),
)
@settings(max_examples=150, deadline=None)
def test_running_sum_matches_loop_bitwise_hypothesis(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "negative_zeros":
        values = np.full(n, -0.0)
    elif kind == "zeros":
        values = rng.choice([0.0, -0.0], size=n)
    else:
        # wide magnitudes force rounding; signed zeros sit among them
        values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
        values[rng.random(n) < 0.2] = -0.0
        values[rng.random(n) < 0.1] = 0.0
        if kind == "cancelling":
            values = np.concatenate([values, -values[::-1]])
    got = _running_sum(values)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(loop_sum(values)).tobytes()
