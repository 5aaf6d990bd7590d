"""Finite probability spaces, random variables, and information partitions.

Everything downstream works on a fixed finite scenario set with strictly
positive probabilities.  Expectations use an explicit left-to-right
accumulation in scenario order so results are bit-reproducible regardless of
BLAS threading.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError

# Probabilities must sum to one within this before exact renormalization.
PROB_SUM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_finite(values: np.ndarray):
    """The finiteness check of every random variable's values."""
    if not np.isfinite(values).all():
        raise DomainError("random variable values must be finite")


def _running_sum(terms: np.ndarray):
    """0 + terms[0] + terms[1] + ... over the first axis (a float for a
    vector; 0.0 for no terms): the last row of a cumulative sum, which numpy
    adds in order.  Adding the zero last rather than first changes no bit:
    it only turns a -0.0 sum into 0.0."""
    if not len(terms):
        return 0.0
    total = terms.cumsum(axis=0)[-1] + 0.0
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class ProbSpace:
    """Finite scenario set with strictly positive probabilities summing to one.

    Input weights may be off by at most PROB_SUM_TOL; they are renormalized by
    their exact sum so that downstream cumulative sums terminate at 1.  A
    weight <= 0 raises DomainError with code E_PROB_POSITIVE, naming the
    first such entry; a sum off by more, code E_PROB_SUM.
    """

    probs: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise StructuralError("probabilities must be a nonempty vector")
        if not np.all(np.isfinite(p)):
            raise DomainError("probabilities must be finite")
        if np.any(p <= 0.0):
            i = int(np.argmax(p <= 0.0))
            raise DomainError(
                f"probabilities must be strictly positive: probs[{i}] = {float(p[i])!r}",
                code="E_PROB_POSITIVE",
            )
        total = _running_sum(p)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"probabilities sum to {total!r}, off by more than {PROB_SUM_TOL}",
                code="E_PROB_SUM",
            )
        object.__setattr__(self, "probs", _readonly(p / total))
        if self.labels:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != p.size:
                raise StructuralError("one label per scenario required")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        if other is self:
            # Exact: the probabilities are finite, so each equals itself.
            return True
        if not isinstance(other, ProbSpace):
            return NotImplemented
        return (
            self.probs.shape == other.probs.shape
            and bool(np.all(self.probs == other.probs))
        )

    def __hash__(self):
        return hash((self.probs.shape, self.probs.tobytes()))


def equiprobable(n: int, labels: tuple[str, ...] = ()) -> ProbSpace:
    if n <= 0:
        raise StructuralError("need at least one scenario")
    return ProbSpace(np.full(n, 1.0 / n), labels)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Real-valued map on the scenarios of a ProbSpace."""

    space: ProbSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.size,):
            raise StructuralError(
                f"values shape {v.shape} does not match {self.space.size} scenarios"
            )
        _check_finite(v)
        object.__setattr__(self, "values", _readonly(v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomVariable):
            return NotImplemented
        return self.space == other.space and bool(np.all(self.values == other.values))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == treats as equal
        return hash((hash(self.space), (self.values + 0.0).tobytes()))


@dataclass(frozen=True, eq=False)
class InfoPartition:
    """Partition of the scenario set into blocks (a finite sigma-algebra).

    Blocks are tuples of scenario indices; together they must cover every
    scenario exactly once.  Each block's indices are also kept as one integer
    array, built once here, for the per-block sums downstream.
    """

    space: ProbSpace
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.space.size
        indices = [i for b in self.blocks for i in b]
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in indices):
            raise StructuralError("partition indices must be integers")
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise StructuralError("partition blocks must be nonempty")
        seen = sorted(i for b in blocks for i in b)
        if seen != list(range(n)):
            raise StructuralError("blocks must cover each scenario exactly once")
        object.__setattr__(self, "blocks", blocks)
        index = tuple(np.array(b, dtype=int) for b in blocks)
        block_of = np.empty(n, dtype=int)
        for j, idx in enumerate(index):
            idx.flags.writeable = False
            block_of[idx] = j
        block_of.flags.writeable = False
        object.__setattr__(self, "_block_index", index)
        object.__setattr__(self, "_block_of", block_of)
        bp = np.array([_running_sum(self.space.probs[idx]) for idx in index])
        bp.flags.writeable = False
        object.__setattr__(self, "_block_probs", bp)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_of(self) -> np.ndarray:
        """Index of the block containing each scenario."""
        return self._block_of

    @property
    def block_probs(self) -> np.ndarray:
        return self._block_probs

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfoPartition):
            return NotImplemented
        return self.space == other.space and self.blocks == other.blocks

    def __hash__(self):
        return hash((hash(self.space), self.blocks))


def trivial_partition(space: ProbSpace) -> InfoPartition:
    """Single block holding every scenario (no information)."""
    return InfoPartition(space, (tuple(range(space.size)),))


def singleton_partition(space: ProbSpace) -> InfoPartition:
    """One block per scenario (full information)."""
    return InfoPartition(space, tuple((i,) for i in range(space.size)))


def expectation(Z: RandomVariable) -> float:
    """E[Z], accumulated in ascending scenario order."""
    return _running_sum(Z.space.probs * Z.values)


def conditional_expectation(Z: RandomVariable, G: InfoPartition) -> RandomVariable:
    """E[Z | G] as a block-constant random variable on the same space."""
    if G.space != Z.space:
        raise StructuralError("partition and variable live on different spaces")
    out = np.empty(Z.space.size)
    for j, idx in enumerate(G._block_index):
        block_vals = Z.values[idx]
        if np.all(block_vals == block_vals[0]):
            # already constant here: averaging must act as the identity so
            # that the operator is an exact projection
            out[idx] = block_vals[0]
            continue
        mass = G.block_probs[j]
        out[idx] = _running_sum(Z.space.probs[idx] * block_vals) / mass
    return RandomVariable(Z.space, out)


def is_measurable(Z: RandomVariable, G: InfoPartition) -> bool:
    """True when Z is constant on every block of G (exact comparison)."""
    if G.space != Z.space:
        raise StructuralError("partition and variable live on different spaces")
    for idx in G._block_index:
        block_vals = Z.values[idx]
        if not np.all(block_vals == block_vals[0]):
            return False
    return True


def almost_sure_leq(Z: RandomVariable, V: RandomVariable) -> bool:
    """Z <= V scenario-wise (all probabilities are positive)."""
    if Z.space != V.space:
        raise StructuralError("variables live on different spaces")
    return bool(np.all(Z.values <= V.values))
