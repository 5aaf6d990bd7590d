"""Distribution, quantile, and integrated (second-order) functions.

All four functions are evaluated exactly from a sorted scenario view: the CDF
is a right-continuous step function, the quantile function its left-continuous
inverse, and the two second-order functions are the piecewise-linear integrals
of those.  The Lorenz-type integral `lorenz` is the convex conjugate of
`integrated_cdf`; `lorenz_conjugate` evaluates that conjugate directly so the
pair can be cross-checked.

One private routine, `_sort_prefix`, makes the stable sort and the prefix
arrays, and one, `_lorenz_prefix`, evaluates the Lorenz function from them
at an array of levels; the sorted view, `_lorenz_at`, the AVaRs, the
dominance constraint's rho and `solve` all read these two.  The scalar
`lorenz` reads the same arrays in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .scenario import RandomVariable, _running_sum


class _Prefix(NamedTuple):
    """One stable sort of a variable's values (ties keep ascending scenario
    index): the permutation, the sorted values and probabilities, and the
    probability mass and the sum of p_(i) * z_(i) over the first j sorted
    atoms (N + 1 entries each, 0 at j = 0; the total mass is clamped to
    exactly 1)."""

    order: np.ndarray
    values: np.ndarray
    probs: np.ndarray
    mass: np.ndarray
    weighted: np.ndarray


def _sort_prefix(values: np.ndarray, probs: np.ndarray) -> _Prefix:
    """The prefix arrays of the variable with these values and probabilities."""
    order = values.argsort(kind="stable")
    v = values[order]
    q = probs[order]
    mass = np.empty(v.size + 1)
    weighted = np.empty(v.size + 1)
    mass[0] = weighted[0] = 0.0
    q.cumsum(out=mass[1:])
    (q * v).cumsum(out=weighted[1:])
    mass[-1] = 1.0
    return _Prefix(order, v, q, mass, weighted)


def _lorenz_prefix(pre: _Prefix, levels):
    """The Lorenz function at levels inside [0, 1] (a scalar or an array)
    from prefix arrays: the full atoms below p from ``weighted``, plus the
    partial atom containing p.  Memory is O(levels + N)."""
    j = np.minimum(pre.mass[1:].searchsorted(levels), pre.values.size - 1)
    return pre.weighted[j] + (levels - pre.mass[j]) * pre.values[j]


@dataclass(frozen=True)
class SortedScenarioView:
    """Scenarios of a random variable in nondecreasing value order.

    ``order`` is a stable permutation (ties keep ascending scenario index).
    ``prefix_mass[j]`` and ``prefix_weighted[j]`` are the probability mass
    and the sum of p_(i) * z_(i) over the first j sorted atoms (N + 1 entries
    each, 0 at j = 0); the total mass is clamped to exactly 1, and
    ``cum_probs`` is ``prefix_mass[1:]``.  All of them come from one
    ``_sort_prefix`` call, made on first use.
    """

    rv: RandomVariable

    @cached_property
    def _prefix(self) -> _Prefix:
        pre = _sort_prefix(self.rv.values, self.rv.space.probs)
        for a in pre:
            a.flags.writeable = False
        return pre

    @cached_property
    def order(self) -> np.ndarray:
        return self._prefix.order

    @cached_property
    def sorted_values(self) -> np.ndarray:
        return self._prefix.values

    @cached_property
    def sorted_probs(self) -> np.ndarray:
        return self._prefix.probs

    @cached_property
    def prefix_mass(self) -> np.ndarray:
        return self._prefix.mass

    @cached_property
    def cum_probs(self) -> np.ndarray:
        return self.prefix_mass[1:]

    @cached_property
    def prefix_weighted(self) -> np.ndarray:
        return self._prefix.weighted

    @cached_property
    def distinct_values(self) -> np.ndarray:
        v = np.unique(self.sorted_values)
        v.flags.writeable = False
        return v

    @cached_property
    def distinct_integrated_cdf(self) -> np.ndarray:
        """E[max(eta - Z, 0)] evaluated at each distinct atom eta."""
        eta = self.distinct_values
        gaps = np.maximum(eta[:, None] - self.rv.values[None, :], 0.0)
        h2 = gaps @ self.rv.space.probs
        h2.flags.writeable = False
        return h2


def sorted_view(Z: RandomVariable) -> SortedScenarioView:
    """Sorted view of Z, cached on the (immutable) random variable."""
    cache = Z.__dict__.get("_sorted_view")
    if cache is None:
        cache = SortedScenarioView(Z)
        Z.__dict__["_sorted_view"] = cache
    return cache


def cdf(Z: RandomVariable, eta: float) -> float:
    """P[Z <= eta] (right-continuous step function)."""
    eta = float(eta)
    if math.isnan(eta):
        raise DomainError("cdf argument must not be NaN")
    view = sorted_view(Z)
    j = int(np.searchsorted(view.sorted_values, eta, side="right"))
    if j == 0:
        return 0.0
    return float(view.cum_probs[j - 1])


def quantile(Z: RandomVariable, p: float) -> float:
    """Left-continuous quantile: inf{eta : P[Z <= eta] >= p}, for p in (0, 1]."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise DomainError(f"quantile level must lie in (0, 1], got {p!r}")
    view = sorted_view(Z)
    j = int(np.searchsorted(view.cum_probs, p, side="left"))
    if j >= view.cum_probs.size:
        j = view.cum_probs.size - 1
    return float(view.sorted_values[j])


def integrated_cdf(Z: RandomVariable, eta: float) -> float:
    """E[max(eta - Z, 0)]: the integral of the CDF up to eta.

    Convex, nondecreasing, piecewise linear in eta with breakpoints at the
    atoms of Z.
    """
    eta = float(eta)
    if math.isnan(eta):
        raise DomainError("integrated_cdf argument must not be NaN")
    return _running_sum(Z.space.probs * np.maximum(eta - Z.values, 0.0))


def lorenz(Z: RandomVariable, p: float) -> float:
    """Integral of the quantile function over (0, p].

    Convex (its slope, the quantile function, is nondecreasing) and piecewise
    linear on [0, 1] with breakpoints at the cumulative probabilities of the
    sorted atoms; returns +inf outside [0, 1] (the convex extended-real
    convention).  lorenz(Z, 1) equals E[Z].
    """
    p = float(p)
    if math.isnan(p):
        raise DomainError("lorenz level must not be NaN")
    if p < 0.0 or p > 1.0:
        return math.inf
    if p == 0.0:
        return 0.0
    view = sorted_view(Z)
    # The formula of _lorenz_prefix in Python floats, which cost less than
    # numpy scalars for a single level.
    j = min(int(np.searchsorted(view.cum_probs, p, side="left")), view.cum_probs.size - 1)
    lower = float(view.prefix_mass[j])
    return float(view.prefix_weighted[j]) + (p - lower) * float(view.sorted_values[j])


def _lorenz_at(Z: RandomVariable, levels) -> np.ndarray:
    """lorenz(Z, p) at each level of a 1-D array inside [0, 1], bit-equal to
    the scalar route."""
    return _lorenz_prefix(sorted_view(Z)._prefix, np.asarray(levels, dtype=float))


def lorenz_breakpoints(Z: RandomVariable) -> np.ndarray:
    """Levels in (0, 1] where the slope of lorenz(Z, .) can change."""
    return np.unique(sorted_view(Z).cum_probs)


def lorenz_conjugate(Z: RandomVariable, p: float) -> float:
    """sup_eta [p * eta - integrated_cdf(Z, eta)], for p in [0, 1].

    The supremum is attained at an atom of Z, so only the distinct scenario
    values need to be scanned.  Equals lorenz(Z, p) by conjugate duality.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"conjugate level must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return 0.0
    view = sorted_view(Z)
    return float(np.max(p * view.distinct_values - view.distinct_integrated_cdf))
