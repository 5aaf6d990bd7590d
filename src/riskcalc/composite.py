"""The composition phi = rho(F(x)): values, directional derivatives, and the
subgradient chain rule.

A composite subgradient pairs a risk identifier zeta (at F(x)) with a
subgradient selector s (at x) and conditions the scenario products on the
decision's information partition:

    g_B = (1/P(B)) * sum_{k in B} pi_k * zeta_k * s_k     (= E[zeta s | G] on B)

With this block form the subgradient inequality holds in the probability-
weighted pairing sum_B P(B) <g_B, h_B>, which collapses to the plain inner
product for deterministic decisions.

Each subgradient makes one active-piece kernel call at x (checked for the
public functions, unchecked for ``solve`` and ``certify``), takes the
identifier at F(x) and forms g_B with ``_conditional_blocks``.  Along a
direction the identifier is tilted by the selector's rates (the weighted
pairing above), in certify by the rates over P(B) (the Euclidean pairing
of stacked coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StructuralError
from .integrands import (
    Curvature,
    DecisionPoint,
    MaxAffineIntegrand,
    SubgradientSelector,
    evaluate,
)
from .risk import (
    Orientation,
    SpectralMeasure,
    spectral_identifier,
    spectral_identifier_lmo,
    spectral_risk,
)
from .scenario import (
    InfoPartition,
    RandomVariable,
    _readonly,
    _running_sum,
)


@dataclass(frozen=True, eq=False)
class CompositeGradient:
    """Element of the composite subdifferential in block coordinates.

    ``vectors`` has one row per block of ``partition`` (a single row for a
    deterministic decision).  ``zeta`` and ``selector`` record the provenance
    pair that produced it.
    """

    vectors: np.ndarray
    partition: InfoPartition | None
    zeta: np.ndarray
    selector: SubgradientSelector

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise StructuralError("gradient must be a stack of block rows")
        expected = 1 if self.partition is None else self.partition.num_blocks
        if v.shape[0] != expected:
            raise StructuralError("gradient rows do not match the partition")
        object.__setattr__(self, "vectors", _readonly(v))

    def pair(self, delta: DecisionPoint) -> float:
        """Probability-weighted pairing sum_B P(B) <g_B, delta_B>."""
        if delta.num_blocks != self.vectors.shape[0] or delta.dim != self.vectors.shape[1]:
            raise StructuralError("pairing requires matching block structure")
        if self.partition is None:
            return float(self.vectors[0] @ delta.vectors[0])
        weights = self.partition.block_probs
        dots = [float(g @ d) for g, d in zip(self.vectors, delta.vectors)]
        return _running_sum(weights * np.array(dots))


def _require_objective_pair(risk: SpectralMeasure, F: MaxAffineIntegrand):
    if risk.orientation is not Orientation.UPPER:
        raise ConfigurationError(
            "objective risk must be upper-oriented to keep the composition convex"
        )
    if F.curvature is not Curvature.CONVEX:
        raise ConfigurationError("objective integrand must be convex-flagged")


def composite_value(risk: SpectralMeasure, F: MaxAffineIntegrand, x: DecisionPoint) -> float:
    """phi(x) = risk(F(x))."""
    _require_objective_pair(risk, F)
    return spectral_risk(evaluate(F, x), risk)


def composite_directional(
    risk: SpectralMeasure, F: MaxAffineIntegrand, x: DecisionPoint, h: DecisionPoint
) -> float:
    """phi'(x; h) = risk'(F(x); F'(x; h)).

    The outer directional derivative is the support function of the
    identifier polytope in the direction F'(x; h), evaluated by the exact
    sorting LMO.
    """
    _require_objective_pair(risk, F)
    values, _, rates = F._select(x, h)
    zeta = spectral_identifier_lmo(RandomVariable(F.space, values), risk, rates)
    return _running_sum(F.space.probs * zeta * rates)


def _conditional_blocks(
    space, partition: InfoPartition | None, weights: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Per block B: (1/P(B)) sum_{k in B} pi_k * weights_k * rows_k, summed
    in scenario order by ``_running_sum`` over the block's index array that
    the partition built once."""
    terms = (space.probs * weights)[:, None] * rows
    if partition is None:
        return _running_sum(terms).reshape(1, -1)
    out = np.zeros((partition.num_blocks, rows.shape[1]))
    for j, idx in enumerate(partition._block_index):
        out[j] = _running_sum(terms[idx]) / partition.block_probs[j]
    return out


def _on_blocks(x: DecisionPoint, partition: InfoPartition | None) -> DecisionPoint:
    """x with one row per block of ``partition``: a deterministic x is
    repeated, a block-structured x must carry exactly that partition."""
    if x.partition is None:
        if partition is None:
            return x
        return DecisionPoint(np.repeat(x.vectors, partition.num_blocks, axis=0), partition)
    if partition is None or x.partition != partition:
        raise StructuralError("decision is not measurable for the declared partition")
    return x


def composite_subgradient(
    risk: SpectralMeasure,
    F: MaxAffineIntegrand,
    x: DecisionPoint,
    partition: InfoPartition | None = None,
    direction: DecisionPoint | None = None,
) -> CompositeGradient:
    """Exact element of the composite subdifferential at x, in block form.

    Default provenance: the deterministic extreme identifier of the risk at
    F(x) and the lowest-index active selector of F at x.  With ``direction``,
    both are aligned to it, producing the element attaining phi'(x; direction)
    in the weighted pairing.

    The identifier is checked to be nonnegative before products are formed;
    a negative entry would break the monotonicity the chain rule relies on.
    """
    _require_objective_pair(risk, F)
    x = _on_blocks(x, partition)
    if direction is not None:
        direction = _on_blocks(direction, partition)
    values, rows, rates = F._select(x, direction)
    Z = RandomVariable(F.space, values)
    if direction is None:
        zeta = spectral_identifier(Z, risk)
    else:
        zeta = spectral_identifier_lmo(Z, risk, rates)
    if np.any(zeta < 0.0):
        raise StructuralError("risk identifier has a negative entry")
    sel = SubgradientSelector(F.space, rows)
    g = _conditional_blocks(F.space, partition, zeta, rows)
    return CompositeGradient(g, partition, _readonly(zeta.copy()), sel)


def strassen_gradient(F: MaxAffineIntegrand, x: DecisionPoint) -> CompositeGradient:
    """Gradient of x -> E[F(x)] for deterministic x: the scenario average
    E[s] of a selector (expectation and subdifferential commute)."""
    if x.partition is not None:
        raise StructuralError("Strassen form expects a deterministic decision")
    return composite_subgradient(SpectralMeasure.expectation(), F, x, None)
