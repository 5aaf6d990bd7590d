"""Stochastic dominance tests and interval-restricted Lorenz dominance
constraints.

Exact dominance reads two first-order gaps of X over Y, built once by
``_gaps``: the CDF gap on the merged atoms and the quantile gap on the merged
cumulative breakpoints.  Each order runs two routes, one per gap (the second
order on their integrals, the integrated-CDF and Lorenz gaps); a disagreement
raises an invariant violation, a built-in bug trap for the duality between the
integrated CDF and the Lorenz function.  Each order's margin is the smallest
gap one of its routes compares (the CDF gap in the first order, the Lorenz gap
in the second), rounded once, so its sign is its verdict; a gap beyond the
float range rounds to +-inf.

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
from functools import cached_property
from itertools import accumulate, groupby
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

    A bad interval raises DomainError with code E_INTERVAL.  The grid's
    rules run in this order: every level in (0, 1] and inside [alpha, beta]
    (DomainError, E_GRID_DOMAIN, naming the first level that is not), then
    strictly increasing (StructuralError, E_GRID_ORDER), then alpha (when
    > 0) and beta among the levels (StructuralError, E_GRID_DOMAIN).
    """

    benchmark: RandomVariable
    alpha: float
    beta: float
    grid: tuple[float, ...]

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (0.0 <= a <= b <= 1.0) or (a == 0.0 and b < 1.0):
            raise DomainError(
                f"interval [{a!r}, {b!r}] must satisfy 0 <= alpha <= beta <= 1,"
                " with alpha = 0 only when beta = 1 (full-interval mode)",
                code="E_INTERVAL",
            )
        grid = tuple(float(p) for p in self.grid)
        for i, p in enumerate(grid):
            # b <= 1, so this also rejects a level that is not finite
            if not (p > 0.0 and a <= p <= b):
                raise DomainError(
                    f"grid levels must be finite and lie in (0, 1], inside [{a!r}, {b!r}]:"
                    f" grid[{i}] = {p!r}",
                    code="E_GRID_DOMAIN",
                )
        for i in range(1, len(grid)):
            if grid[i] <= grid[i - 1]:
                raise StructuralError(
                    f"grid levels must be strictly increasing: grid[{i}] = {grid[i]!r}"
                    f" after {grid[i - 1]!r}",
                    code="E_GRID_ORDER",
                )
        if a > 0.0 and grid[:1] != (a,):
            raise StructuralError("grid must include alpha", code="E_GRID_DOMAIN")
        if grid[-1:] != (b,):
            raise StructuralError("grid must include beta", code="E_GRID_DOMAIN")
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


# Dominance booleans run in exact integer arithmetic.  Every stored float is
# a dyadic rational, so each side's values become integers on one power-of-two
# scale and its probabilities integer masses out of their exact sum; ``_gaps``
# brings both sides to the finer value scale and multiplies each side's masses
# by the other side's total, so both share the mass unit 1/(Tx*Ty) and no sum
# needs a gcd.  Renormalizing by the exact totals makes an equiprobable space
# exactly equiprobable again, so tie cases (shifted copies, repeated lattice
# values) cannot be flipped by rounding and the two routes of each test agree
# identically whenever the implementation is correct.  Each route takes the
# merged points in ascending order, in one forward pass.  A margin is the one
# division: an integer gap over its unit, rounded once by ``_rounded``.


def _exact_distribution(Z: RandomVariable) -> tuple[list[tuple[int, int]], int, int]:
    """(pairs, shift, total): (value, mass) integer pairs sorted by value,
    then by probability, where a value v stands for v / 2**shift and a mass
    m for the probability m / total, total being the masses' exact sum."""
    order = np.lexsort((Z.space.probs, Z.values))
    values = [v.as_integer_ratio() for v in Z.values[order].tolist()]
    probs = [p.as_integer_ratio() for p in Z.space.probs[order].tolist()]
    scale = max(d for _, d in values)
    unit = max(d for _, d in probs)
    pairs = [(v * (scale // dv), p * (unit // dp)) for (v, dv), (p, dp) in zip(values, probs)]
    return pairs, scale.bit_length() - 1, sum(m for _, m in pairs)


def _exact_cdf(pairs, points) -> list[int]:
    """P(Z <= eta), as a mass, at each eta of the ascending ``points``."""
    out, mass, i = [], 0, 0
    for eta in points:
        while i < len(pairs) and pairs[i][0] <= eta:
            mass, i = mass + pairs[i][1], i + 1
        out.append(mass)
    return out


def _exact_quantiles(pairs, levels) -> list[int]:
    """Lower quantile at each ascending level (the largest value if no mass reaches it)."""
    out, mass, i = [], pairs[0][1], 0
    for level in levels:
        while mass < level and i + 1 < len(pairs):
            i, mass = i + 1, mass + pairs[i + 1][1]
        out.append(pairs[i][0])
    return out


def _merged(xs, ys) -> list[int]:
    """The distinct points of two ascending sequences, ascending: the sort
    finds the two runs and merges them in linear time."""
    return [point for point, _ in groupby(sorted([*xs, *ys]))]


def _gaps(X: RandomVariable, Y: RandomVariable):
    """The first-order gaps of X over Y, from both exact distributions built
    once: the merged atoms, H_Y - H_X at each, the merged cumulative
    breakpoints and quantile_X - quantile_Y at each, all ascending; then the
    mass unit 1/total and the value unit 2**-shift they are counted in."""
    (px, sx, tx), (py, sy, ty) = _exact_distribution(X), _exact_distribution(Y)
    shift = max(sx, sy)
    px = [(v << (shift - sx), m * ty) for v, m in px]
    py = [(v << (shift - sy), m * tx) for v, m in py]
    atoms = _merged([v for v, _ in px], [v for v, _ in py])
    levels = _merged(accumulate(m for _, m in px), accumulate(m for _, m in py))
    cdf_gap = list(map(sub, _exact_cdf(py, atoms), _exact_cdf(px, atoms)))
    quantile_gap = list(map(sub, _exact_quantiles(px, levels), _exact_quantiles(py, levels)))
    return atoms, cdf_gap, levels, quantile_gap, tx * ty, shift


def _first_order(gaps) -> tuple[bool, float]:
    """(X dominates Y in the first order, min of H_Y - H_X over the merged
    atoms), for ``gaps = _gaps(X, Y)``.

    Distribution route: that gap is >= 0.  Quantile route: quantile_X >=
    quantile_Y on the merged cumulative breakpoints.  Both are exact for step
    functions; they must agree.
    """
    _, cdf_gap, _, quantile_gap, total, _ = gaps
    gap = min(cdf_gap)
    direct = gap >= 0
    inverse = min(quantile_gap) >= 0
    if direct != inverse:
        raise InvariantViolation(
            "first-order dominance routes disagree "
            f"(distribution: {direct}, quantile: {inverse})"
        )
    return direct, _rounded(gap, total)


def _second_order(gaps) -> tuple[bool, float]:
    """(X dominates Y in the second order, min of lorenz_X - lorenz_Y over
    the merged cumulative breakpoints), for ``gaps = _gaps(X, Y)``.

    Direct route: integrated_cdf_Y - integrated_cdf_X >= 0 on the merged
    atoms.  Inverse route: the Lorenz gap is >= 0.  Both integrate a gap
    that is constant between consecutive merged points, so each is an exact
    running sum.  The routes are conjugate-dual and must agree.
    """
    atoms, cdf_gap, levels, quantile_gap, total, shift = gaps
    direct = min(accumulate(map(mul, cdf_gap, map(sub, atoms[1:], atoms)), initial=0)) >= 0
    gap = min(accumulate(map(mul, quantile_gap, map(sub, levels, [0, *levels]))))
    inverse = gap >= 0
    if direct != inverse:
        raise InvariantViolation(
            "second-order dominance routes disagree "
            f"(integrated-CDF: {direct}, Lorenz: {inverse})"
        )
    return direct, _rounded(gap, total << shift)


def _rounded(gap: int, unit: int) -> float:
    """gap / unit rounded to a float once: integer true division rounds
    correctly, as float(Fraction) does.  A gap beyond the float range rounds
    to +-inf, as IEEE round-to-nearest does on overflow, and a negative gap
    too small for any float rounds to the smallest negative float, not to
    -0.0, so the sign is kept either way."""
    try:
        out = gap / unit
    except OverflowError:
        return math.inf if gap > 0 else -math.inf
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
