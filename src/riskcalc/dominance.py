"""Stochastic dominance tests and interval-restricted Lorenz dominance
constraints.

Exact dominance reads two first-order gaps of X over Y, built once by
``_gaps``: the CDF gap on the merged atoms and the quantile gap on the merged
cumulative breakpoints.  Each order runs two routes, one per gap (the second
order on their integrals, the integrated-CDF and Lorenz gaps); a disagreement
raises an invariant violation, a built-in bug trap for the duality between the
integrated CDF and the Lorenz function.  Each order's margin is the smallest
gap one of its routes compares (the CDF gap in the first order, the Lorenz gap
in the second), rounded once, so its sign is its verdict.

The interval constraint "rho_p <= 0 for all p in [alpha, beta]" is reduced to
finitely many levels: both Lorenz functions are piecewise linear with
breakpoints among the cumulative scenario probabilities, so a grid augmented
with those breakpoints checks the continuum exactly.

``constraint_subgradient`` is the chain rule with the lower AVaR identifier
at level p scaled by p (``lorenz_supergradient``) and a concave selector,
negated: rho_p falls as G(x) rises.  certify forms it on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, sub

import numpy as np

from .errors import ConfigurationError, DomainError, InvariantViolation, StructuralError
from .composite import _conditional_blocks, _on_blocks
from .integrands import Curvature, DecisionPoint, MaxAffineIntegrand, evaluate
from .quantiles import _lorenz_prefix, _Prefix, sorted_view
from .risk import lorenz_supergradient
from .scenario import InfoPartition, RandomVariable


@dataclass(frozen=True)
class DominanceConstraint:
    """Benchmark Y with a level interval [alpha, beta] and a finite grid.

    Grid levels are strictly increasing inside [alpha, beta] and include both
    endpoints.  alpha = 0 is allowed only together with beta = 1 (the full-
    interval mode of the converse optimality branch); in that mode the grid
    stays inside (0, 1] and the p -> 0 endpoint is enforced through the
    augmented breakpoints, which is equivalent to comparing essential infima.
    """

    benchmark: RandomVariable
    alpha: float
    beta: float
    grid: tuple[float, ...]

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (0.0 <= a <= b <= 1.0):
            raise DomainError(f"interval [{a}, {b}] must satisfy 0 <= alpha <= beta <= 1")
        if a == 0.0 and b < 1.0:
            raise DomainError("alpha = 0 requires beta = 1 (full-interval mode)")
        grid = tuple(float(p) for p in self.grid)
        if not grid:
            raise StructuralError("grid must be nonempty")
        if not all(map(math.isfinite, grid)):
            raise DomainError("grid levels must be finite")
        if any(q <= p for p, q in zip(grid, grid[1:])):
            raise StructuralError("grid levels must be strictly increasing")
        if grid[0] < a or grid[-1] > b:
            raise DomainError("grid levels must lie inside [alpha, beta]")
        if grid[0] <= 0.0:
            raise DomainError("grid levels must be strictly positive")
        if a > 0.0 and grid[0] != a:
            raise StructuralError("grid must include alpha")
        if grid[-1] != b:
            raise StructuralError("grid must include beta")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "grid", grid)

    def augmented_levels(self, *variables: RandomVariable) -> np.ndarray:
        """The checked level set: the grid plus the Lorenz breakpoints of the
        benchmark and of the given variables inside [alpha, beta], all > 0.

        rho_p is linear between consecutive breakpoints of Y and Z, so the
        continuum constraint holds iff it holds on these levels; Z's are
        needed because rho_p can peak inside a linear piece of Y.  With no
        variable, returns the fixed part, computed once per constraint.
        """
        return self._levels_on(*(sorted_view(Z)._prefix for Z in variables))

    def _levels_on(self, *prefixes: _Prefix) -> np.ndarray:
        """``augmented_levels`` of the variables with these prefix arrays:
        np.unique's sort and neighbour test, without its fixed cost."""
        levels = np.concatenate([self._fixed_levels, *map(self._breakpoints_inside, prefixes)])
        levels.sort()
        keep = np.empty(levels.size, dtype=bool)
        keep[0] = True
        np.not_equal(levels[1:], levels[:-1], out=keep[1:])
        return levels[keep]

    @cached_property
    def _fixed_levels(self) -> np.ndarray:
        Y = self._benchmark_prefix
        return np.unique(np.concatenate([self.grid, self._breakpoints_inside(Y)]))

    @cached_property
    def _benchmark_prefix(self) -> _Prefix:
        return sorted_view(self.benchmark)._prefix

    def _breakpoints_inside(self, pre: _Prefix) -> np.ndarray:
        # Repeats are left in: the caller's one sort and neighbour test
        # merges them.
        cp = pre.mass[1:]
        return cp[(cp >= self.alpha) & (cp <= self.beta)]

    def _rho_on(self, pre: _Prefix, levels: np.ndarray) -> np.ndarray:
        """lorenz(Y, p) - lorenz(Z, p) at each level, for the Z with these
        prefix arrays."""
        return _lorenz_prefix(self._benchmark_prefix, levels) - _lorenz_prefix(pre, levels)

    def rho(self, Z: RandomVariable, levels=None) -> tuple[np.ndarray, np.ndarray]:
        """(levels, lorenz(Y, p) - lorenz(Z, p) at each level p); ``levels``
        defaults to ``augmented_levels(Z)``, where Z is feasible iff all <= 0."""
        pre = sorted_view(Z)._prefix
        if levels is None:
            levels = self._levels_on(pre)
        return levels, self._rho_on(pre, np.asarray(levels, dtype=float))


# Dominance booleans run in exact rational arithmetic.  Every stored float is
# a rational number; renormalizing the probabilities inside Fraction makes an
# equiprobable space exactly equiprobable again, so tie cases (shifted copies,
# repeated lattice values) cannot be flipped by rounding and the two routes of
# each test agree identically whenever the implementation is correct.  Each
# route takes the merged points in ascending order, in one forward pass.


def _exact_distribution(Z: RandomVariable) -> list[tuple[Fraction, Fraction]]:
    """(value, probability) pairs sorted by value, then by probability (the
    floats are sorted, not the Fractions, in the same order), mass
    renormalized to 1."""
    probs = [Fraction(float(p)) for p in Z.space.probs]
    total = sum(probs)
    order = np.lexsort((Z.space.probs, Z.values)).tolist()
    return [(Fraction(float(Z.values[k])), probs[k] / total) for k in order]


def _exact_cdf(pairs, points) -> list[Fraction]:
    """P(Z <= eta) at each eta of the ascending ``points``."""
    out, mass, i = [], Fraction(0), 0
    for eta in points:
        while i < len(pairs) and pairs[i][0] <= eta:
            mass, i = mass + pairs[i][1], i + 1
        out.append(mass)
    return out


def _exact_quantiles(pairs, levels) -> list[Fraction]:
    """Lower quantile at each ascending level (the largest value if no mass reaches it)."""
    out, mass, i = [], pairs[0][1], 0
    for level in levels:
        while mass < level and i + 1 < len(pairs):
            i, mass = i + 1, mass + pairs[i + 1][1]
        out.append(pairs[i][0])
    return out


def _gaps(X: RandomVariable, Y: RandomVariable):
    """The first-order gaps of X over Y, from both exact distributions built
    once: the merged atoms, H_Y - H_X at each, the merged cumulative
    breakpoints and quantile_X - quantile_Y at each, all ascending."""
    px, py = _exact_distribution(X), _exact_distribution(Y)
    atoms = sorted({v for v, _ in px} | {v for v, _ in py})
    levels = sorted(set(accumulate(p for _, p in px)) | set(accumulate(p for _, p in py)))
    cdf_gap = list(map(sub, _exact_cdf(py, atoms), _exact_cdf(px, atoms)))
    quantile_gap = list(map(sub, _exact_quantiles(px, levels), _exact_quantiles(py, levels)))
    return atoms, cdf_gap, levels, quantile_gap


def _first_order(gaps) -> tuple[bool, float]:
    """(X dominates Y in the first order, min of H_Y - H_X over the merged
    atoms), for ``gaps = _gaps(X, Y)``.

    Distribution route: that gap is >= 0.  Quantile route: quantile_X >=
    quantile_Y on the merged cumulative breakpoints.  Both are exact for step
    functions; they must agree.
    """
    _, cdf_gap, _, quantile_gap = gaps
    gap = min(cdf_gap)
    direct = gap >= 0
    inverse = min(quantile_gap) >= 0
    if direct != inverse:
        raise InvariantViolation(
            "first-order dominance routes disagree "
            f"(distribution: {direct}, quantile: {inverse})"
        )
    return direct, _rounded(gap)


def _second_order(gaps) -> tuple[bool, float]:
    """(X dominates Y in the second order, min of lorenz_X - lorenz_Y over
    the merged cumulative breakpoints), for ``gaps = _gaps(X, Y)``.

    Direct route: integrated_cdf_Y - integrated_cdf_X >= 0 on the merged
    atoms.  Inverse route: the Lorenz gap is >= 0.  Both integrate a gap
    that is constant between consecutive merged points, so each is an exact
    running sum.  The routes are conjugate-dual and must agree.
    """
    atoms, cdf_gap, levels, quantile_gap = gaps
    direct = min(accumulate(map(mul, cdf_gap, map(sub, atoms[1:], atoms)), initial=0)) >= 0
    gap = min(accumulate(map(mul, quantile_gap, map(sub, levels, [0, *levels]))))
    inverse = gap >= 0
    if direct != inverse:
        raise InvariantViolation(
            "second-order dominance routes disagree "
            f"(integrated-CDF: {direct}, Lorenz: {inverse})"
        )
    return direct, _rounded(gap)


def _rounded(gap: Fraction) -> float:
    """The gap rounded to a float once; a negative gap too small for any
    float rounds to the smallest negative float, not to -0.0, so the sign
    is kept."""
    out = float(gap)
    return -math.ulp(0.0) if gap < 0 and out == 0.0 else out


def dominates_first_order(X: RandomVariable, Y: RandomVariable) -> bool:
    """X dominates Y in the first order (every nondecreasing utility prefers
    X); both exact routes of ``_first_order`` must agree."""
    return _first_order(_gaps(X, Y))[0]


def dominates_second_order(X: RandomVariable, Y: RandomVariable) -> bool:
    """X dominates Y in the second order (every risk-averse utility prefers
    X); both exact routes of ``_second_order`` must agree."""
    return _second_order(_gaps(X, Y))[0]


def _require_concave(G: MaxAffineIntegrand):
    if G.curvature is not Curvature.CONCAVE:
        raise ConfigurationError("constraint integrand must be concave-flagged")


def constraint_values_at(
    G: MaxAffineIntegrand, x: DecisionPoint, C: DominanceConstraint, levels
) -> np.ndarray:
    """rho_p at arbitrary levels in (0, 1] (used with augmented grids)."""
    _require_concave(G)
    return C.rho(evaluate(G, x), levels)[1]


def constraint_subgradient(
    G: MaxAffineIntegrand,
    x: DecisionPoint,
    p: float,
    info: InfoPartition | None = None,
) -> np.ndarray:
    """Subgradient (block rows) of the convex map x -> rho_p(G(x)).

    Built from the lower identifier zeta of G(x) at level p and a concave
    selector s of G at x:  per block, -E[p * zeta * s | info].
    """
    _require_concave(G)
    values, rows, _ = G._select(_on_blocks(x, info))
    zeta = lorenz_supergradient(RandomVariable(G.space, values), p)
    return -_conditional_blocks(G.space, info, zeta, rows)
