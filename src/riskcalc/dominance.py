"""Stochastic dominance tests and interval-restricted Lorenz dominance
constraints.

First- and second-order dominance each run two logically equivalent routes
(the distribution side and the quantile side); a disagreement raises an
invariant violation, acting as a built-in bug trap for the duality between
the integrated CDF and the Lorenz function.

The interval constraint "rho_p <= 0 for all p in [alpha, beta]" is reduced to
finitely many levels: both Lorenz functions are piecewise linear with
breakpoints among the cumulative scenario probabilities, so a grid augmented
with those breakpoints checks the continuum exactly.

``constraint_subgradient`` is the chain rule (``composite._ChainRule``) with
the lower AVaR identifier at level p scaled by p (``lorenz_supergradient``),
negated: rho_p falls as G(x) rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, InvariantViolation, StructuralError
from .composite import _ChainRule
from .integrands import Curvature, DecisionPoint, MaxAffineIntegrand, evaluate
from .quantiles import _lorenz_at, _lorenz_prefix, _Prefix, sorted_view
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
    """(value, probability) pairs sorted by value, mass renormalized to 1."""
    probs = [Fraction(float(p)) for p in Z.space.probs]
    total = sum(probs)
    return sorted(
        (Fraction(float(v)), p / total) for v, p in zip(Z.values, probs)
    )


def _exact_below(pairs, points) -> list[tuple[Fraction, Fraction]]:
    """(P(Z <= eta), E[Z; Z <= eta]) at each eta of the ascending ``points``;
    eta * P(Z <= eta) - E[Z; Z <= eta] is the integrated CDF E[(eta - Z)_+]."""
    out, mass, moment, i = [], Fraction(0), Fraction(0), 0
    for eta in points:
        while i < len(pairs) and pairs[i][0] <= eta:
            mass, moment, i = mass + pairs[i][1], moment + pairs[i][1] * pairs[i][0], i + 1
        out.append((mass, moment))
    return out


def _exact_quantiles(pairs, levels) -> list[Fraction]:
    """Lower quantile at each ascending level (the largest value if no mass reaches it)."""
    out, mass, i = [], pairs[0][1], 0
    for level in levels:
        while mass < level and i + 1 < len(pairs):
            i, mass = i + 1, mass + pairs[i + 1][1]
        out.append(pairs[i][0])
    return out


def _exact_lorenzes(pairs, levels) -> list[Fraction]:
    """Integral of the quantile over [0, level] at each ascending level."""
    out, mass, moment, i = [], Fraction(0), Fraction(0), 0
    for level in levels:
        while i < len(pairs) and mass + pairs[i][1] <= level:
            mass, moment, i = mass + pairs[i][1], moment + pairs[i][1] * pairs[i][0], i + 1
        rest = level - mass
        out.append(moment + rest * pairs[i][0] if rest > 0 and i < len(pairs) else moment)
    return out


def _merged_atoms(px, py) -> list[Fraction]:
    return sorted({v for v, _ in px} | {v for v, _ in py})


def _merged_breakpoints(px, py) -> list[Fraction]:
    out = set()
    for pairs in (px, py):
        acc = Fraction(0)
        for _, p in pairs:
            acc += p
            out.add(acc)
    return sorted(out)


def dominates_first_order(X: RandomVariable, Y: RandomVariable) -> bool:
    """X dominates Y in the first order (every nondecreasing utility prefers X).

    Distribution route: H_X <= H_Y on the merged atoms.  Quantile route:
    quantile_X >= quantile_Y on the merged cumulative breakpoints.  Both are
    exact for step functions; they must agree.
    """
    px, py = _exact_distribution(X), _exact_distribution(Y)
    atoms, levels = _merged_atoms(px, py), _merged_breakpoints(px, py)
    below_x, below_y = _exact_below(px, atoms), _exact_below(py, atoms)
    direct = all(hx <= hy for (hx, _), (hy, _) in zip(below_x, below_y))
    inverse = all(a >= b for a, b in zip(_exact_quantiles(px, levels), _exact_quantiles(py, levels)))
    if direct != inverse:
        raise InvariantViolation(
            "first-order dominance routes disagree "
            f"(distribution: {direct}, quantile: {inverse})"
        )
    return direct


def dominates_second_order(X: RandomVariable, Y: RandomVariable) -> bool:
    """X dominates Y in the second order (every risk-averse utility prefers X).

    Direct route: integrated_cdf_X <= integrated_cdf_Y on the merged atoms
    (both sides are piecewise linear in eta with breakpoints at atoms).
    Inverse route: lorenz_X >= lorenz_Y on the merged cumulative breakpoints.
    The routes are conjugate-dual and must agree.
    """
    px, py = _exact_distribution(X), _exact_distribution(Y)
    atoms, levels = _merged_atoms(px, py), _merged_breakpoints(px, py)
    below_x, below_y = _exact_below(px, atoms), _exact_below(py, atoms)
    direct = all(
        eta * hx - mx <= eta * hy - my
        for eta, (hx, mx), (hy, my) in zip(atoms, below_x, below_y)
    )
    inverse = all(a >= b for a, b in zip(_exact_lorenzes(px, levels), _exact_lorenzes(py, levels)))
    if direct != inverse:
        raise InvariantViolation(
            "second-order dominance routes disagree "
            f"(integrated-CDF: {direct}, Lorenz: {inverse})"
        )
    return direct


def _require_concave(G: MaxAffineIntegrand):
    if G.curvature is not Curvature.CONCAVE:
        raise ConfigurationError("constraint integrand must be concave-flagged")


def constraint_values(
    G: MaxAffineIntegrand, x: DecisionPoint, C: DominanceConstraint
) -> list[float]:
    """rho_p = lorenz(Y, p) - lorenz(G(x), p) at each grid level.

    Feasibility of the dominance constraint on the grid means all values
    are <= 0.
    """
    _require_concave(G)
    return C.rho(evaluate(G, x), C.grid)[1].tolist()


def constraint_values_at(
    G: MaxAffineIntegrand, x: DecisionPoint, C: DominanceConstraint, levels
) -> np.ndarray:
    """rho_p at arbitrary levels in (0, 1] (used with augmented grids)."""
    _require_concave(G)
    return C.rho(evaluate(G, x), levels)[1]


def in_B(X: RandomVariable, Y: RandomVariable, C: DominanceConstraint) -> bool:
    """Membership of X in the Lorenz-dominance set over Y on [alpha, beta]:
    lorenz(X, p) >= lorenz(Y, p) at every level of
    ``C.augmented_levels(X, Y)``, which decides the whole interval because
    both sides are linear between those levels."""
    levels = C.augmented_levels(X, Y)
    return bool(np.all(_lorenz_at(X, levels) >= _lorenz_at(Y, levels)))


def uniform_dominance_margin(
    G: MaxAffineIntegrand, x_tilde: DecisionPoint, C: DominanceConstraint
) -> float:
    """min of lorenz(G(x_tilde), p) - lorenz(Y, p) over the checked levels
    ``C.augmented_levels(G(x_tilde))``, which equals the infimum over
    [alpha, beta].

    A strictly positive margin is the Slater-type constraint qualification.
    """
    _require_concave(G)
    return -float(np.max(C.rho(evaluate(G, x_tilde))[1]))


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
    rule = _ChainRule(G, x, info)
    return -rule.blocks(lorenz_supergradient(rule.Z, p))
