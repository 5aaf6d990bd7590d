"""Scenario-indexed max-affine (or min-affine) integrands.

An integrand maps a decision to a random variable, scenario by scenario:
CONVEX integrands take the max of finitely many affine pieces, CONCAVE ones
the min.  Decisions may be deterministic (one vector) or measurable with
respect to an information partition (one vector per block).

Because every piece is affine, directional derivatives, differential
quotients, and subgradient selectors are all exact: a selector picks one
active piece per scenario, and any scenario-wise convex combination of
selectors is again a valid selector.

The pieces are stored once, as an (N, m, n) slope tensor and an (N, m)
offset array, m being the largest piece count; a scenario with fewer pieces
repeats its last one.  One kernel (``MaxAffineIntegrand._select``) evaluates
every piece of every scenario in a single batched product and picks the
active piece per scenario; evaluate, the directional derivative, the
selector and the certifier's linear minimisation oracles all call it.  It
is the checked route to two unchecked array functions, ``_pieces`` (the
batched product and the max/min) and ``_active_rows`` (the chosen piece),
which ``solve`` calls directly on its block-row iterate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .scenario import InfoPartition, ProbSpace, RandomVariable, _readonly

# A piece is active when its value is within this of the scenario max/min.
ACTIVITY_TOL = 1e-10


class Curvature(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True, eq=False)
class DecisionPoint:
    """Decision vector(s): one row per partition block.

    ``partition is None`` means a deterministic decision, stored as a single
    row.  Block-measurable decisions carry the partition they refer to.
    """

    vectors: np.ndarray
    partition: InfoPartition | None = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[1] == 0:
            raise StructuralError("decision must be a vector or a stack of vectors")
        if not np.all(np.isfinite(v)):
            raise DomainError("decision coordinates must be finite")
        expected = 1 if self.partition is None else self.partition.num_blocks
        if v.shape[0] != expected:
            raise StructuralError(
                f"decision has {v.shape[0]} rows, partition has {expected} blocks"
            )
        object.__setattr__(self, "vectors", _readonly(v))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_blocks(self) -> int:
        return self.vectors.shape[0]

    def same_structure(self, other: "DecisionPoint") -> bool:
        return (
            self.dim == other.dim
            and self.num_blocks == other.num_blocks
            and (
                (self.partition is None and other.partition is None)
                or self.partition == other.partition
            )
        )

    def scenario_matrix(self, space: ProbSpace) -> np.ndarray:
        """Expand to one row per scenario."""
        if self.partition is None:
            return np.broadcast_to(self.vectors[0], (space.size, self.dim))
        return self.vectors[self.partition.block_of]

    def combine(self, coeff: float, other: "DecisionPoint", ocoeff: float) -> "DecisionPoint":
        if not self.same_structure(other):
            raise StructuralError("decisions have different block structure")
        return DecisionPoint(coeff * self.vectors + ocoeff * other.vectors, self.partition)


def deterministic(x) -> DecisionPoint:
    return DecisionPoint(np.atleast_1d(np.asarray(x, dtype=float)))


@dataclass(frozen=True, eq=False)
class MaxAffineIntegrand:
    """Per scenario k: f(x, k) = max_j (<slopes[k, j], x> + offsets[k, j])
    for CONVEX curvature, min over the same pieces for CONCAVE.

    Built from one (m_k, n) slope array and one (m_k,) offset array per
    scenario, every scenario with at least one piece.  Stored as a read-only
    (N, m, n) ``slopes`` tensor and (N, m) ``offsets`` array with m the
    largest m_k: a scenario with fewer pieces repeats its last piece up to m.
    Repeating a piece changes no max or min, and since ties go to the lowest
    index it changes no chosen piece either.
    """

    space: ProbSpace
    slopes: np.ndarray
    offsets: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        if len(self.slopes) != self.space.size or len(self.offsets) != self.space.size:
            raise StructuralError("need one piece family per scenario")
        slopes = [np.asarray(A, dtype=float) for A in self.slopes]
        offsets = [np.asarray(b, dtype=float) for b in self.offsets]
        for k, (A, b) in enumerate(zip(slopes, offsets)):
            if A.ndim != 2 or A.shape[0] == 0:
                raise StructuralError(f"scenario {k} needs at least one affine piece")
            if b.shape != (A.shape[0],):
                raise StructuralError(f"scenario {k}: offsets do not match pieces")
        if len({A.shape[1] for A in slopes}) != 1:
            raise StructuralError("all scenarios must share the decision dimension")
        counts = np.array([A.shape[0] for A in slopes])
        # Row j of scenario k is its piece min(j, m_k - 1).
        take = (np.cumsum(counts) - counts)[:, None] + np.minimum(
            np.arange(counts.max()), counts[:, None] - 1
        )
        S = np.concatenate(slopes)[take]
        b = np.concatenate(offsets)[take]
        finite = np.all(np.isfinite(S), axis=(1, 2)) & np.all(np.isfinite(b), axis=1)
        if not np.all(finite):
            k = int(np.argmin(finite))
            raise DomainError(f"scenario {k}: piece coefficients must be finite")
        object.__setattr__(self, "slopes", _readonly(S))
        object.__setattr__(self, "offsets", _readonly(b))

    @property
    def dim(self) -> int:
        return self.slopes.shape[2]

    def _check_decision(self, x: DecisionPoint):
        if x.dim != self.dim:
            raise StructuralError(
                f"decision dimension {x.dim} does not match integrand dimension {self.dim}"
            )
        if x.partition is not None and x.partition.space != self.space:
            raise StructuralError("decision partition lives on a different space")

    def _rates(self, vectors: np.ndarray, block_of: np.ndarray | None) -> np.ndarray:
        """(N, m): <slopes[k, j], x_k> for every piece of every scenario, x
        given as block rows with ``block_of`` from its partition (None when
        deterministic).

        Both forms run one matrix-vector product per scenario, so they give
        the same bits; the deterministic one skips the broadcast row matrix,
        which costs more than the product itself at a few scenarios.
        """
        if block_of is None:
            return self.slopes @ vectors[0]
        return np.matmul(self.slopes, vectors[block_of][:, :, None])[:, :, 0]

    def _pieces(
        self, vectors: np.ndarray, block_of: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The array kernel, unchecked: (every piece value (N, m), the
        scenario max (CONVEX) or min (CONCAVE)) at x given as block rows."""
        vals = self._rates(vectors, block_of) + self.offsets
        best = vals.max(axis=1) if self.curvature is Curvature.CONVEX else vals.min(axis=1)
        return vals, best

    def _active_rows(
        self, vals: np.ndarray, best: np.ndarray, all_rates: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows, rates) from the kernel's piece values: per scenario the
        gradient of one active piece (within ACTIVITY_TOL of the max/min).
        Without ``all_rates`` it is the lowest-index active piece and
        ``rates`` is None.  With the (N, m) rates of a direction, it is the
        active piece of largest rate (smallest for CONCAVE), ties to the
        lowest index, and ``rates`` holds that rate.
        """
        convex = self.curvature is Curvature.CONVEX
        if convex:
            active = vals >= best[:, None] - ACTIVITY_TOL
        else:
            active = vals <= best[:, None] + ACTIVITY_TOL
        scenarios = np.arange(self.space.size)
        if all_rates is None:
            chosen = active.argmax(axis=1)
            rates = None
        else:
            if convex:
                chosen = np.where(active, all_rates, -np.inf).argmax(axis=1)
            else:
                chosen = np.where(active, all_rates, np.inf).argmin(axis=1)
            rates = all_rates[scenarios, chosen]
        return self.slopes[scenarios, chosen], rates

    def _select(
        self, x: DecisionPoint, direction: DecisionPoint | None = None, choose: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(values, rows, rates): the checked route to the kernel.

        ``values`` holds the scenario max (CONVEX) or min (CONCAVE) at x.
        Unless ``choose`` is false, ``rows`` and ``rates`` are those of
        ``_active_rows``, along ``direction`` when one is given.
        """
        self._check_decision(x)
        if direction is not None and not x.same_structure(direction):
            raise StructuralError("point and direction have different block structure")
        block_of = None if x.partition is None else x.partition.block_of
        vals, best = self._pieces(x.vectors, block_of)
        if not choose:
            return best, None, None
        all_rates = None if direction is None else self._rates(direction.vectors, block_of)
        rows, rates = self._active_rows(vals, best, all_rates)
        return best, rows, rates


@dataclass(frozen=True, eq=False)
class SubgradientSelector:
    """One active-piece gradient per scenario: rows[k] in the scenario-k
    subdifferential (superdifferential for concave integrands)."""

    space: ProbSpace
    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] != self.space.size:
            raise StructuralError("selector needs one gradient row per scenario")
        object.__setattr__(self, "rows", _readonly(r))


def evaluate(F: MaxAffineIntegrand, x: DecisionPoint) -> RandomVariable:
    """The random variable F(x)."""
    return RandomVariable(F.space, F._select(x, choose=False)[0])


def directional_derivative(
    F: MaxAffineIntegrand, x: DecisionPoint, h: DecisionPoint
) -> RandomVariable:
    """Scenario-wise one-sided directional derivative F'(x; h).

    Exact for max-affine pieces: max over active pieces of <slope, h_k> for
    CONVEX, min for CONCAVE.
    """
    return RandomVariable(F.space, F._select(x, h)[2])


def differential_quotient(
    F: MaxAffineIntegrand, x: DecisionPoint, h: DecisionPoint, t: float
) -> RandomVariable:
    """(F(x + t*h) - F(x)) / t, scenario-wise; requires t > 0.

    Nondecreasing in t for CONVEX integrands (nonincreasing for CONCAVE) and
    sandwiched between the t = -1 and t = 1 secants.
    """
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"quotient step must be positive, got {t!r}")
    shifted = evaluate(F, x.combine(1.0, h, t))
    base = evaluate(F, x)
    return RandomVariable(F.space, (shifted.values - base.values) / t)


def subgradient_selector(
    F: MaxAffineIntegrand,
    x: DecisionPoint,
    direction: DecisionPoint | None = None,
) -> SubgradientSelector:
    """Measurable selector of the scenario-wise subdifferential at x.

    Without a direction, picks the lowest-index active piece.  With one,
    picks per scenario the active piece maximizing <slope, direction_k>
    (minimizing for CONCAVE), so that <rows[k], direction_k> equals the
    directional derivative scenario-wise.  Ties go to the lowest index.
    """
    return SubgradientSelector(F.space, F._select(x, direction)[1])


def blend_selectors(
    s1: SubgradientSelector, s2: SubgradientSelector, alphas: np.ndarray
) -> SubgradientSelector:
    """Scenario-wise convex combination alphas[k]*s1 + (1-alphas[k])*s2.

    Valid subgradient selectors are closed under such blends.
    """
    if s1.space != s2.space:
        raise StructuralError("selectors live on different spaces")
    a = np.asarray(alphas, dtype=float)
    if a.shape != (s1.space.size,):
        raise StructuralError("need one blend coefficient per scenario")
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise DomainError("blend coefficients must lie in [0, 1]")
    return SubgradientSelector(s1.space, a[:, None] * s1.rows + (1.0 - a[:, None]) * s2.rows)


def local_property_check(F: MaxAffineIntegrand, x: DecisionPoint, h: DecisionPoint, B) -> bool:
    """Check that the selector-induced operator S is local: S(1_B h) = 1_B (Sh).

    ``B`` is a set of scenario indices.  S maps a direction to the scenario
    rates <s_k, h_k> of a fixed selector at x, so restricting the direction to
    an event commutes with restricting the output, scenario by scenario, with
    exact equality.
    """
    F._check_decision(x)
    if not x.same_structure(h):
        raise StructuralError("point and direction have different block structure")
    mask = np.zeros(F.space.size, dtype=bool)
    for i in B:
        i = int(i)
        if not 0 <= i < F.space.size:
            raise StructuralError(f"scenario index {i} out of range")
        mask[i] = True
    s = subgradient_selector(F, x)
    h_mat = h.scenario_matrix(F.space)
    rates_full = np.einsum("kd,kd->k", s.rows, h_mat)
    rates_local = np.einsum("kd,kd->k", s.rows, h_mat * mask[:, None])
    return bool(np.all(rates_local == mask * rates_full))
