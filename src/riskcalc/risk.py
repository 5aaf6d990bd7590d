"""Average value-at-risk and finite spectral risk measures with exact
subdifferential information.

Orientation convention: UPPER averages the worst upper tail (loss
orientation, the coherent risk measure used for objectives); LOWER averages
the worst lower tail (profit orientation, the form appearing in Lorenz
dominance).  The two are linked by avar_upper(-Z, p) = avar_lower(Z, p).

Identifiers are the exact maximizers/minimizers of the dual representation:
densities 0 <= zeta <= 1/p with E[zeta] = 1 satisfying the tail value
equation.  They are constructed greedily on the sorted scenarios, with ties
broken by ascending scenario index, so every identifier is reproducible: one
``np.lexsort`` orders the scenarios (tail value, then descending tilt, then
index), and one sequential subtraction of the sorted probabilities from p
gives the mass each atom takes (``_greedy_fill``).  ``RiskIdentifier``'s
box and mean check is ``_check_identifier``; ``solve`` calls the fill and
the check on its arrays, the public constructors through the same code.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .quantiles import _lorenz_prefix, _Prefix, sorted_view
from .scenario import ProbSpace, RandomVariable, _running_sum, expectation

# Identifier feasibility is enforced to this absolute tolerance.
IDENTIFIER_TOL = 1e-10
# Spectral weights must sum to one within this.
SPECTRAL_WEIGHT_TOL = 1e-12


class Orientation(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class RiskIdentifier:
    """Extreme density of the AVaR dual polytope at a given level.

    Feasibility (box and unit mean) is validated on construction; the value
    equation ties the identifier to the random variable it was built from and
    is checked by the constructors, not here.
    """

    space: ProbSpace
    level: float
    orientation: Orientation
    zeta: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(self.zeta, dtype=float)
        if z.shape != (self.space.size,):
            raise StructuralError("identifier density has wrong shape")
        _check_identifier(self.space.probs, self.level, z)
        z.flags.writeable = False
        object.__setattr__(self, "zeta", z)


def _check_identifier(probs: np.ndarray, p: float, zeta: np.ndarray):
    """The feasibility check of an identifier density at level p: the box
    0 <= zeta <= 1/p and the unit mean, to IDENTIFIER_TOL."""
    if zeta.min() < -IDENTIFIER_TOL or zeta.max() > 1.0 / p + IDENTIFIER_TOL:
        raise StructuralError("identifier density violates its box")
    mean = _running_sum(probs * zeta)
    if abs(mean - 1.0) > IDENTIFIER_TOL:
        raise StructuralError(f"identifier density has mean {mean!r}, not 1")


def _check_level(p: float) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0 or math.isnan(p):
        raise DomainError(f"risk level must lie in (0, 1], got {p!r}")
    return p


def _avars(pre: _Prefix, mean: float, levels: np.ndarray, orientation: Orientation) -> np.ndarray:
    """AVaR at each level from the variable's mean and prefix arrays: for
    LOWER -lorenz(Z, p) / p, for UPPER (E[Z] - lorenz(Z, 1 - p)) / p."""
    if orientation is Orientation.UPPER:
        return (mean - _lorenz_prefix(pre, 1.0 - levels)) / levels
    return -_lorenz_prefix(pre, levels) / levels


def avar_lower(Z: RandomVariable, p: float) -> float:
    """Average of the worst (smallest) p-tail quantiles, negated:
    -(1/p) * integral of the quantile function over (0, p]."""
    return avar(Z, p, Orientation.LOWER)


def avar_upper(Z: RandomVariable, p: float) -> float:
    """Average of the largest p-tail quantiles:
    (1/p) * integral of the quantile function over (1-p, 1]."""
    return avar(Z, p, Orientation.UPPER)


def avar(Z: RandomVariable, p: float, orientation: Orientation) -> float:
    p = _check_level(p)
    return float(_avars(sorted_view(Z)._prefix, expectation(Z), p, orientation))


def _greedy_order(values: np.ndarray, orientation: Orientation, tilt: np.ndarray | None):
    """The order in which the greedy fill visits the scenarios: tail value
    first (ascending for LOWER, descending for UPPER), then descending tilt,
    then ascending scenario index."""
    primary = values if orientation is Orientation.LOWER else -values
    return np.lexsort((primary,) if tilt is None else (-tilt, primary))


def _greedy_fill(order: np.ndarray, probs: np.ndarray, p: float) -> np.ndarray:
    """Fill 1/p density mass over the scenarios in ``order``.

    The mass still to place before each atom is p minus the atoms before it,
    subtracted one at a time; each atom takes min(its probability, that
    mass), none below zero, and its density is 1/p times the share of its
    probability it takes.
    """
    n = probs.size
    if p == 1.0:
        # Full-mass level: the box pins zeta to the constant density.
        return np.ones(n)
    q = probs[order]
    remaining = np.empty(n)
    remaining[0] = p
    remaining[1:] = q[:-1]
    np.subtract.accumulate(remaining, out=remaining)
    zeta = np.empty(n)
    zeta[order] = (1.0 / p) * (np.minimum(np.maximum(remaining, 0.0), q) / q)
    # Mass can only be left over through rounding; the mean is repaired
    # against the exact target below.
    mean = _running_sum(probs * zeta)
    if abs(mean - 1.0) > IDENTIFIER_TOL and mean > 0.0:
        zeta /= mean
    return zeta


def avar_identifier(
    Z: RandomVariable, p: float, orientation: Orientation
) -> RiskIdentifier:
    """Deterministic extreme identifier attaining the AVaR dual value.

    E[zeta * Z] equals (1/p) * lorenz(Z, p) for LOWER and avar_upper(Z, p)
    for UPPER.
    """
    p = _check_level(p)
    zeta = _greedy_fill(_greedy_order(Z.values, orientation, None), Z.space.probs, p)
    return RiskIdentifier(Z.space, p, orientation, zeta)


def _check_direction(Z: RandomVariable, direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape != (Z.space.size,):
        raise StructuralError("direction has wrong shape")
    return d


def avar_identifier_lmo(
    Z: RandomVariable, p: float, orientation: Orientation, direction: np.ndarray
) -> RiskIdentifier:
    """Identifier maximizing E[zeta * direction] over the optimal face.

    Among all identifiers attaining the AVaR dual value at Z, returns one
    maximizing the linear form given by ``direction``; this is the exact
    linear minimization oracle over the subdifferential of AVaR at Z.
    """
    p = _check_level(p)
    d = _check_direction(Z, direction)
    zeta = _greedy_fill(_greedy_order(Z.values, orientation, d), Z.space.probs, p)
    return RiskIdentifier(Z.space, p, orientation, zeta)


def lorenz_supergradient(Z: RandomVariable, p: float) -> np.ndarray:
    """Supergradient density of V -> lorenz(V, p) at Z, namely p * zeta
    for the lower identifier zeta."""
    ident = avar_identifier(Z, p, Orientation.LOWER)
    return p * ident.zeta


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite mixture of AVaRs: sum_i weights[i] * AVaR_{levels[i]}.

    Levels are strictly increasing in (0, 1]; weights are nonnegative and sum
    to one within SPECTRAL_WEIGHT_TOL.  A single level of weight one is a
    plain AVaR; level 1 alone is the expectation.
    """

    levels: tuple[float, ...]
    weights: tuple[float, ...]
    orientation: Orientation

    def __post_init__(self):
        levels = tuple(float(p) for p in self.levels)
        weights = tuple(float(w) for w in self.weights)
        if not levels or len(levels) != len(weights):
            raise StructuralError("need matching nonempty levels and weights")
        for p in levels:
            _check_level(p)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise StructuralError("levels must be strictly increasing")
        if any(w < 0.0 or not math.isfinite(w) for w in weights):
            raise DomainError("weights must be nonnegative and finite")
        total = _running_sum(np.array(weights))
        if abs(total - 1.0) > SPECTRAL_WEIGHT_TOL:
            raise DomainError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def expectation(orientation: Orientation = Orientation.UPPER) -> "SpectralMeasure":
        return SpectralMeasure((1.0,), (1.0,), orientation)

    @staticmethod
    def single_avar(
        p: float, orientation: Orientation = Orientation.UPPER
    ) -> "SpectralMeasure":
        return SpectralMeasure((float(p),), (1.0,), orientation)

    @property
    def is_expectation(self) -> bool:
        return self.levels == (1.0,)


def _spectral_value(pre: _Prefix, mean: float, measure: SpectralMeasure) -> float:
    """sum_i weights[i] * AVaR_{levels[i]}(Z) from Z's mean and prefix
    arrays, summed in level order."""
    avars = _avars(pre, mean, np.array(measure.levels), measure.orientation)
    return _running_sum(np.array(measure.weights) * avars)


def spectral_risk(Z: RandomVariable, measure: SpectralMeasure) -> float:
    return _spectral_value(sorted_view(Z)._prefix, expectation(Z), measure)


def _spectral_zeta(
    values: np.ndarray | None,
    probs: np.ndarray,
    measure: SpectralMeasure,
    tilt: np.ndarray | None,
) -> np.ndarray:
    """Weighted mixture of the per-level greedy identifiers, each checked for
    its box and mean.  Their one greedy order is built only when a level is
    below 1: at level 1 the box pins the identifier to the constant density,
    so an expectation's mixture reads neither ``values`` nor ``tilt``."""
    order = None if measure.is_expectation else _greedy_order(values, measure.orientation, tilt)
    out = np.zeros(probs.size)
    for p, w in zip(measure.levels, measure.weights):
        zeta = _greedy_fill(order, probs, p)
        _check_identifier(probs, p, zeta)
        out += w * zeta
    return out


def spectral_identifier(Z: RandomVariable, measure: SpectralMeasure) -> np.ndarray:
    """Weighted mixture of the per-level extreme identifiers.

    An exact subgradient density of the spectral measure at Z: the
    subdifferential is the weighted Minkowski sum of the per-level
    identifier polytopes.
    """
    return _spectral_zeta(Z.values, Z.space.probs, measure, None)


def spectral_identifier_lmo(
    Z: RandomVariable, measure: SpectralMeasure, direction: np.ndarray
) -> np.ndarray:
    """Mixture density maximizing E[zeta * direction] over the spectral
    subdifferential (the LMO of a Minkowski sum is the sum of the LMOs)."""
    return _spectral_zeta(Z.values, Z.space.probs, measure, _check_direction(Z, direction))
