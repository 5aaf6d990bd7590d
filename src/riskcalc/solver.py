"""Solve dominance-constrained risk minimization problems and certify
optimality through the subdifferential inclusion.

solve, certify and brute_force_optimum check the dominance constraint on the
same levels (``DominanceConstraint.augmented_levels``): the grid, plus the
Lorenz breakpoints of Y and of G(x) inside [alpha, beta].

solve: projected switching subgradient method (feasibility step at the most
violated checked level, objective step otherwise).  No inner LP or QP is
ever formed.
  - Checked once, before the loop: the problem by ``ProblemSpec`` (kinds,
    spaces, dimensions, a finite box) and the options by ``SolveOptions``
    (iters an integer >= 1, gamma0 None or finite > 0, tol_feas finite
    >= 0).
  - On arrays, in the loop: the iterate is a (blocks, n) array.  Each
    iteration makes one unchecked kernel call for G (``_pieces``); one
    stable sort of G(x) (``_sort_prefix``) gives the checked levels, rho
    and, on a feasibility step, the lower identifier's greedy order.
    Objective steps make one kernel call for F, whose prefix arrays give
    the spectral risk, and whose identifier comes from the same greedy
    fill as ``spectral_identifier``.  Selector rows are chosen from the
    kernel's piece values only for the step taken.
  - Checks that can fail stay in the loop: G(x) and F(x) must be finite
    (DomainError; large coefficients can overflow) and every identifier
    passes its box and mean check (StructuralError).
  - Public objects (``DecisionPoint``, ``Solution``) are built only for
    the result.  The public routes (``evaluate``, ``rho``,
    ``spectral_risk``, ``spectral_identifier``, ``lorenz_supergradient``,
    the chain rule's block sums) are checked wrappers over these same
    private functions.

certify: measures the distance from 0 to  g + sum_p eta_p d_p + n  with g in
the composite subdifferential polytope, d_p in the constraint subgradient
polytope at each active checked level p, eta_p >= 0, and n in the box normal
cone, by column generation over the exact sorting/active-piece LMOs.
  - Columns: objective vertices, whose weights sum to one; one constraint
    vertex per active level and round, conic with no cap; the normal-cone
    generators -e_i / +e_i where x sits at a lower / upper bound, conic and
    present from the start.
  - Master: min ||M w||^2 over w >= 0 with the objective weights summing to
    one, solved exactly by Lawson-Hanson's active-set method with one
    equality constraint.
  - Pricing: at the master's residual y each LMO gives one column per
    polytope, with reduced cost <y, v> - ||y||^2 (objective) or <y, d>
    (conic).  The loop stops when no priced column gains more than tol^2/4,
    when every gaining column is present already, or after max_iters rounds.
  - Witness: a Certificate holds the multipliers (kappa, levels, weights and
    nu), the residual, c_gap, the box normal-cone part of the residual
    vector and the search's stop data, all O(D + levels); it keeps no
    per-scenario array, so the columns' identifiers and selectors are
    dropped once their stacked vectors are formed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .composite import _ChainRule, _conditional_blocks, composite_value
from .dominance import DominanceConstraint
from .errors import ConfigurationError, DomainError, StructuralError
from .integrands import Curvature, DecisionPoint, MaxAffineIntegrand, evaluate
from .quantiles import _lorenz_at, _sort_prefix, lorenz, lorenz_breakpoints
from .risk import (
    Orientation,
    SpectralMeasure,
    _check_identifier,
    _greedy_fill,
    _spectral_value,
    _spectral_zeta,
    avar_identifier_lmo,
    spectral_identifier_lmo,
)
from .scenario import (
    InfoPartition,
    ProbSpace,
    _check_finite,
    _running_sum,
    _sum_ascending,
)

# Residual search defaults.
CERT_TOL = 1e-5
ACT_TOL = 1e-5
BOUND_ACTIVITY_TOL = 1e-9
# Relative share of ||M w|| below which the master drops a conic weight.
CONIC_ZERO_TOL = 1e-12
# Feasibility slack for the switching rule.
TOL_FEAS = 1e-6
# Absolute float guard when the brute-force oracle classifies feasibility.
BRUTE_FEAS_GUARD = 1e-12


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """min risk(F(x)) over the box, subject to G(x) Lorenz-dominating the
    benchmark on the constraint interval."""

    space: ProbSpace
    risk: SpectralMeasure
    objective: MaxAffineIntegrand
    constraint_integrand: MaxAffineIntegrand
    constraint: DominanceConstraint
    box_lower: np.ndarray
    box_upper: np.ndarray
    partition: InfoPartition | None = None
    name: str = ""

    def __post_init__(self):
        if self.risk.orientation is not Orientation.UPPER:
            raise ConfigurationError("objective risk must be upper-oriented")
        if self.objective.curvature is not Curvature.CONVEX:
            raise ConfigurationError("objective integrand must be convex-flagged")
        if self.constraint_integrand.curvature is not Curvature.CONCAVE:
            raise ConfigurationError("constraint integrand must be concave-flagged")
        if self.objective.space != self.space or self.constraint_integrand.space != self.space:
            raise StructuralError("integrands must live on the problem space")
        if self.constraint.benchmark.space != self.space:
            raise StructuralError("benchmark must live on the problem space")
        if self.partition is not None and self.partition.space != self.space:
            raise StructuralError("partition must live on the problem space")
        if self.objective.dim != self.constraint_integrand.dim:
            raise StructuralError("objective and constraint dimensions differ")
        lo = np.ascontiguousarray(self.box_lower, dtype=float)
        hi = np.ascontiguousarray(self.box_upper, dtype=float)
        if lo.shape != (self.objective.dim,) or hi.shape != (self.objective.dim,):
            raise StructuralError("box bounds must have one entry per coordinate")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError("box bounds must be finite")
        if np.any(lo > hi):
            raise DomainError("box lower bounds exceed upper bounds")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "box_lower", lo)
        object.__setattr__(self, "box_upper", hi)

    @property
    def dim(self) -> int:
        return self.objective.dim

    @property
    def num_blocks(self) -> int:
        return 1 if self.partition is None else self.partition.num_blocks

    @property
    def stacked_dim(self) -> int:
        return self.num_blocks * self.dim

    def decision(self, rows) -> DecisionPoint:
        return DecisionPoint(np.asarray(rows, dtype=float), self.partition)

    def block_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.tile(self.box_lower, (self.num_blocks, 1))
        hi = np.tile(self.box_upper, (self.num_blocks, 1))
        return lo, hi


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Per solver option: the test its value must pass, and the rule in words.
# SolveOptions applies them on construction; the CLI applies them to the
# problem file's "solver" section, field by field.
_OPTION_RULES = {
    "iters": (
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1,
        "an integer >= 1",
    ),
    "gamma0": (
        lambda v: v is None or (_is_real(v) and math.isfinite(v) and v > 0),
        "a finite number > 0",
    ),
    "tol_feas": (
        lambda v: _is_real(v) and math.isfinite(v) and v >= 0,
        "a finite number >= 0",
    ),
}


@dataclass(frozen=True)
class SolveOptions:
    """solve's iteration budget, initial step (None: the box diameter) and
    feasibility slack; checked on construction against _OPTION_RULES
    (DomainError)."""

    iters: int = 20000
    gamma0: float | None = None
    tol_feas: float = TOL_FEAS

    def __post_init__(self):
        for name, (valid, rule) in _OPTION_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise DomainError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Solution:
    x_hat: DecisionPoint
    objective_value: float
    max_violation: float
    iterations: int
    feasible: bool
    trace: tuple[tuple[int, float], ...]


def _objective_at(problem: ProblemSpec, x: np.ndarray, block_of):
    """(piece values, F(x), the objective risk at x) by one kernel call."""
    vals, Z = problem.objective._pieces(x, block_of)
    _check_finite(Z)
    probs = problem.space.probs
    return vals, Z, _spectral_value(_sort_prefix(Z, probs), _running_sum(probs * Z), problem.risk)


def solve(problem: ProblemSpec, opts: SolveOptions | None = None) -> Solution:
    """Projected switching subgradient method; deterministic given options.

    Returns the best iterate whose violation on the checked levels is at most
    tol_feas; if none exists, the least-violation iterate flagged infeasible.
    The problem and the options were checked when they were built; the loop
    runs on the (blocks, n) iterate array and keeps only the checks that can
    fail there: G(x) and F(x) finite (DomainError) and each identifier in
    its box with unit mean (StructuralError).
    """
    opts = opts or SolveOptions()
    lo, hi = problem.block_bounds()
    gamma0 = opts.gamma0
    if gamma0 is None:
        gamma0 = float(np.linalg.norm((hi - lo).ravel()))
        if gamma0 <= 0.0:
            gamma0 = 1.0
    G, C, probs = problem.constraint_integrand, problem.constraint, problem.space.probs
    block_of = None if problem.partition is None else problem.partition.block_of

    def blocks(weights, rows):
        return _conditional_blocks(problem.space, problem.partition, weights, rows)

    x = 0.5 * (lo + hi)
    best_obj = np.inf
    best_x = None
    least_viol = np.inf
    trace: list[tuple[int, float]] = []
    for t in range(opts.iters):
        g_vals, Zg = G._pieces(x, block_of)
        _check_finite(Zg)
        pre = _sort_prefix(Zg, probs)
        levels = C._levels_on(pre)
        rho = C._rho_on(pre, levels)
        viol = float(np.max(rho))
        if viol < least_viol:
            least_viol = viol
            least_viol_x = x.copy()
        if viol <= opts.tol_feas:
            f_vals, Zf, obj = _objective_at(problem, x, block_of)
            if obj < best_obj:
                best_obj, best_viol = obj, viol
                best_x = x.copy()
                trace.append((t, obj))
            zeta = _spectral_zeta(Zf, probs, problem.risk, None)
            step = blocks(zeta, problem.objective._active_rows(f_vals, Zf)[0])
        else:
            p = float(levels[int(np.argmax(rho))])
            # The lower identifier's greedy order is G(x)'s stable sort.
            zeta = _greedy_fill(pre.order, probs, p)
            _check_identifier(probs, p, zeta)
            step = -blocks(p * zeta, G._active_rows(g_vals, Zg)[0])
        gamma = gamma0 / np.sqrt(t + 1.0)
        x = np.clip(x - gamma * step, lo, hi)
    feasible = best_x is not None
    if not feasible:
        best_x, best_viol = least_viol_x, least_viol
        best_obj = _objective_at(problem, best_x, block_of)[2]
    return Solution(
        problem.decision(best_x), best_obj, best_viol, opts.iters, feasible, tuple(trace)
    )


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    x: DecisionPoint | None
    value: float
    feasible: bool
    num_feasible: int


def _scenario_stacked_pieces(
    problem: ProblemSpec, integrand: MaxAffineIntegrand
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per scenario, affine pieces lifted to the stacked block coordinates."""
    n = problem.dim
    D = problem.stacked_dim
    out = []
    for k in range(problem.space.size):
        j = 0 if problem.partition is None else int(problem.partition.block_of[k])
        A = integrand.slopes[k]
        lifted = np.zeros((A.shape[0], D))
        lifted[:, j * n : (j + 1) * n] = A
        out.append((lifted, integrand.offsets[k]))
    return out


def _chunk_lorenz(values: np.ndarray, probs: np.ndarray, p: float) -> np.ndarray:
    """lorenz(Z, p) for a chunk of variables given as sorted rows.

    ``values``: (rows, N) sorted nondecreasing; probs already permuted
    accordingly per row.  The oracle keeps this Lorenz evaluation of its
    own on purpose, apart from ``quantiles``, so that it stays an
    independent reference for what solve and certify compute.
    """
    cums = np.cumsum(probs, axis=1)
    cums[:, -1] = 1.0
    weighted = np.cumsum(probs * values, axis=1)
    j = np.sum(cums < p, axis=1)
    j = np.minimum(j, values.shape[1] - 1)
    prev_w = np.where(j > 0, np.take_along_axis(weighted, np.maximum(j - 1, 0)[:, None], 1)[:, 0], 0.0)
    prev_c = np.where(j > 0, np.take_along_axis(cums, np.maximum(j - 1, 0)[:, None], 1)[:, 0], 0.0)
    vj = np.take_along_axis(values, j[:, None], 1)[:, 0]
    return prev_w + (p - prev_c) * vj


def brute_force_optimum(
    problem: ProblemSpec, grid_resolution: float = 1e-3, chunk: int = 65536
) -> BruteForceResult:
    """Exhaustive box-grid search; the independent optimization oracle.

    Feasibility is the Lorenz comparison on the levels that solve and certify
    check (the grid, plus the Lorenz breakpoints of Y and of G(x) inside
    [alpha, beta]), with a BRUTE_FEAS_GUARD float guard so that active
    constraints are not misclassified through last-ulp noise.  G(x)'s
    breakpoints are scanned by a vectorised pass of its own.  Refuses
    stacked dimension above 4.
    """
    D = problem.stacked_dim
    if D > 4:
        raise DomainError(f"brute force limited to stacked dimension <= 4, got {D}")
    res = float(grid_resolution)
    if res <= 0.0:
        raise DomainError("grid resolution must be positive")
    lo, hi = problem.block_bounds()
    lo_f, hi_f = lo.ravel(), hi.ravel()
    axes = []
    for d in range(D):
        count = int(round((hi_f[d] - lo_f[d]) / res)) + 1
        axes.append(np.linspace(lo_f[d], hi_f[d], max(count, 1)))
    sizes = [len(a) for a in axes]
    total = int(np.prod(sizes))

    probs = problem.space.probs
    N = problem.space.size
    g_pieces = _scenario_stacked_pieces(problem, problem.constraint_integrand)
    f_pieces = _scenario_stacked_pieces(problem, problem.objective)
    Y = problem.constraint.benchmark
    ybp = lorenz_breakpoints(Y)
    y_xs = np.concatenate([[0.0], ybp])
    y_ys = np.concatenate([[0.0], _lorenz_at(Y, ybp)])
    fixed_levels = problem.constraint.augmented_levels()
    y_at_fixed = _lorenz_at(Y, fixed_levels)
    alpha, beta = problem.constraint.alpha, problem.constraint.beta

    best_val = np.inf
    best_x = None
    num_feasible = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.empty((idx.size, D))
        rem = idx
        for d in range(D - 1, -1, -1):
            rem, pos = np.divmod(rem, sizes[d])
            coords[:, d] = axes[d][pos]
        # Constraint variable per point.
        Zg = np.empty((idx.size, N))
        for k, (A, b) in enumerate(g_pieces):
            Zg[:, k] = np.min(coords @ A.T + b, axis=1)
        order = np.argsort(Zg, axis=1, kind="stable")
        zs = np.take_along_axis(Zg, order, axis=1)
        ps = np.broadcast_to(probs, Zg.shape)
        ps = np.take_along_axis(ps, order, axis=1)
        cums = np.cumsum(ps, axis=1)
        cums[:, -1] = 1.0
        weighted = np.cumsum(ps * zs, axis=1)
        feasible = np.ones(idx.size, dtype=bool)
        for li, p in enumerate(fixed_levels):
            lz = _chunk_lorenz(zs, ps, float(p))
            feasible &= lz - y_at_fixed[li] >= -BRUTE_FEAS_GUARD
        # Own breakpoints of Zg inside [alpha, beta]: lorenz(Zg) is exact
        # there (a prefix sum); lorenz(Y) by linear interpolation.
        in_range = (cums >= alpha) & (cums <= beta)
        y_vals = np.interp(cums, y_xs, y_ys)
        diff_ok = weighted - y_vals >= -BRUTE_FEAS_GUARD
        feasible &= np.all(diff_ok | ~in_range, axis=1)
        if not np.any(feasible):
            continue
        num_feasible += int(np.count_nonzero(feasible))
        # Objective on the surviving points.
        rows = np.nonzero(feasible)[0]
        Zf = np.empty((rows.size, N))
        sub = coords[rows]
        for k, (A, b) in enumerate(f_pieces):
            Zf[:, k] = np.max(sub @ A.T + b, axis=1)
        forder = np.argsort(Zf, axis=1, kind="stable")
        fz = np.take_along_axis(Zf, forder, axis=1)
        fp = np.broadcast_to(probs, Zf.shape)
        fp = np.take_along_axis(fp, forder, axis=1)
        means = np.sum(fp * fz, axis=1)
        obj = np.zeros(rows.size)
        for p, w in zip(problem.risk.levels, problem.risk.weights):
            if p == 1.0:
                obj += w * means
            else:
                tail = means - _chunk_lorenz(fz, fp, 1.0 - p)
                obj += w * (tail / p)
        pos = int(np.argmin(obj))
        if obj[pos] < best_val:
            best_val = float(obj[pos])
            best_x = sub[pos].copy()
    if best_x is None:
        return BruteForceResult(None, np.inf, False, 0)
    x = problem.decision(best_x.reshape(problem.num_blocks, problem.dim))
    return BruteForceResult(x, best_val, True, num_feasible)


def lagrangian_value(
    problem: ProblemSpec, x: DecisionPoint, kappa: float, mu: SpectralMeasure
) -> float:
    """objective(x) - kappa * sum_p mu_p * lorenz(G(x), p), with lower-oriented
    mu supported inside the constraint interval.

    This is the Lagrangian whose stationarity certify checks, with the
    multipliers eta_p = kappa * mu_p of a certificate (kappa, levels,
    weights), less the constant kappa * sum_p mu_p * lorenz(Y, p).
    """
    if mu.orientation is not Orientation.LOWER:
        raise ConfigurationError("multiplier measure must be lower-oriented")
    kappa = float(kappa)
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")
    a, b = problem.constraint.alpha, problem.constraint.beta
    if any(p < a or p > b for p in mu.levels):
        raise DomainError("multiplier measure must be supported in [alpha, beta]")
    base = composite_value(problem.risk, problem.objective, x)
    Zg = evaluate(problem.constraint_integrand, x)
    lorenz_mix = _sum_ascending(w * lorenz(Zg, p) for p, w in zip(mu.levels, mu.weights))
    return base - kappa * lorenz_mix


def nu_from_mu(kappa: float, mu: SpectralMeasure) -> tuple[tuple[float, float], ...]:
    """The derived measure (kappa/p) mu as (level, weight) pairs; the zero
    measure (empty tuple) when kappa is zero."""
    kappa = float(kappa)
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")
    if kappa == 0.0:
        return ()
    return tuple((p, (kappa / p) * w) for p, w in zip(mu.levels, mu.weights))


# --------------------------------------------------------------------------
# Certification
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Certificate:
    kappa: float
    levels: tuple[float, ...]
    weights: tuple[float, ...]
    residual: float
    c_gap: float
    nu: tuple[tuple[float, float], ...]
    accepted: bool
    normal_part: np.ndarray
    fw_gap: float
    iterations: int
    tol: float
    act_tol: float


class _ResidualGeometry:
    """Frozen data for one certification run: the point, its active levels
    and the box normal-cone generators."""

    def __init__(self, problem: ProblemSpec, x_hat: DecisionPoint, act_tol: float):
        self.problem = problem
        self.x = x_hat
        self.partition = problem.partition
        self.D = problem.stacked_dim
        levels, rho = problem.constraint.rho(evaluate(problem.constraint_integrand, x_hat))
        active = np.abs(rho) <= act_tol
        # Active level -> its Lorenz gap lorenz(Y, p) - lorenz(G(x), p).
        self.active_rho = {float(p): float(r) for p, r in zip(levels[active], rho[active])}
        # Per scenario, the probability of its block (1 when deterministic).
        if self.partition is None:
            self.block_prob = np.ones(problem.space.size)
        else:
            self.block_prob = self.partition.block_probs[self.partition.block_of]
        # Box normal-cone generators, one per row on stacked coordinates:
        # -e_i where x sits at a lower bound, +e_i where it sits at an upper one.
        flat = x_hat.vectors.ravel()
        lo, hi = problem.block_bounds()
        eye = np.eye(self.D)
        self.normals = np.concatenate(
            [
                -eye[flat - lo.ravel() <= BOUND_ACTIVITY_TOL],
                eye[hi.ravel() - flat <= BOUND_ACTIVITY_TOL],
            ]
        )

    def objective_vertex(self, c: np.ndarray) -> np.ndarray:
        """Minimize <g, c> over the composite subdifferential polytope; the
        minimizer in stacked coordinates."""
        minus_c = DecisionPoint(-c.reshape(self.x.vectors.shape), self.x.partition)
        rule = _ChainRule(self.problem.objective, self.x, self.partition, minus_c)
        # Stacked coordinates pair blocks without P(B): tilt by rates / P(B).
        tilt = rule.rates / self.block_prob
        zeta = spectral_identifier_lmo(rule.Z, self.problem.risk, tilt)
        return rule.blocks(zeta).ravel()

    def constraint_vertex(self, p: float, c: np.ndarray) -> np.ndarray:
        """Minimize <d, c> over the level-p constraint subgradient polytope."""
        minus_c = DecisionPoint(-c.reshape(self.x.vectors.shape), self.x.partition)
        rule = _ChainRule(self.problem.constraint_integrand, self.x, self.partition, minus_c)
        tilt = rule.rates / self.block_prob
        zeta = avar_identifier_lmo(rule.Z, p, Orientation.LOWER, -tilt).zeta
        return -rule.blocks(p * zeta).ravel()


def _simplex_least_squares(M: np.ndarray, simplex: np.ndarray, free: np.ndarray) -> np.ndarray:
    """argmin ||M z|| over z supported on ``free`` with sum(z[simplex]) = 1.

    The first free simplex weight is eliminated through the constraint and
    the others solve an unconstrained least-squares problem (no normal
    equations, so an exact zero residual stays exact where it can).
    """
    idx = np.flatnonzero(free)
    first = idx[simplex[idx]][0]
    rest = idx[idx != first]
    B = M[:, rest] - np.outer(M[:, first], simplex[rest])
    z = np.zeros(M.shape[1])
    z[rest] = np.linalg.lstsq(B, -M[:, first], rcond=None)[0]
    z[first] = 1.0 - _sum_ascending(z[rest][simplex[rest]])
    # A conic weight whose column adds only rounding to M z is zero.
    share = np.abs(z) * np.linalg.norm(M, axis=0)
    z[~simplex & (share <= CONIC_ZERO_TOL * share.sum())] = 0.0
    return z


def _nearest_point(
    M: np.ndarray, simplex: np.ndarray, w: np.ndarray, min_gain: float
) -> np.ndarray:
    """Weights w >= 0 with sum(w[simplex]) = 1 minimizing ||M w||^2, from a
    feasible ``w`` that is optimal on its own support.

    Lawson-Hanson's active-set method with one equality constraint.  Each
    round frees the column of most negative reduced cost at y = M w, which
    is <M_j, y> - ||y||^2 for a simplex column and <M_j, y> for a conic one,
    solves the equality-constrained least squares on the free columns, and
    steps back to the boundary while a free weight is nonpositive.  It stops
    when no reduced cost is below -min_gain, or when a round does not lower
    ||M w||^2 (rounding), keeping the weights it had.
    """
    y = M @ w
    value = float(y @ y)
    while True:
        reduced = M.T @ y - np.where(simplex, value, 0.0)
        reduced[w > 0.0] = 0.0
        j = int(np.argmin(reduced))
        if reduced[j] >= -min_gain:
            return w
        free = w > 0.0
        free[j] = True
        z = _simplex_least_squares(M, simplex, free)
        if z[j] <= 0.0:
            return w
        trial = w
        while np.any(z[free] <= 0.0):
            blocked = free & (z <= 0.0)
            ratios = np.full(w.shape, np.inf)
            ratios[blocked] = trial[blocked] / (trial[blocked] - z[blocked])
            k = int(np.argmin(ratios))
            trial = np.maximum(trial + ratios[k] * (z - trial), 0.0)
            trial[k] = 0.0
            free = trial > 0.0
            z = _simplex_least_squares(M, simplex, free)
        y_new = M @ z
        if float(y_new @ y_new) >= value:
            return w
        w, y, value = z, y_new, float(y_new @ y_new)


def _column_generation(geom: _ResidualGeometry, stop_gap: float, max_iters: int):
    """Distance from 0 to (objective polytope) + (constraint cones) + (box
    normal cone) by column generation over the exact LMOs.

    Returns (M, w, levels, gap, rounds): the column matrix, whose first
    len(geom.normals) columns are the box normal-cone generators, the master
    weights, the level of each later column (None for an objective vertex),
    the last pricing gap and the number of pricing rounds.
    """
    vecs = list(geom.normals)
    simplex = [False] * len(vecs)
    levels: list[float | None] = []
    keys: set[tuple[float | None, bytes]] = set()

    def add(level, vec):
        vecs.append(vec)
        simplex.append(level is None)
        levels.append(level)
        keys.add((level, vec.tobytes()))

    add(None, geom.objective_vertex(np.zeros(geom.D)))
    M = np.column_stack(vecs)
    w = np.zeros(len(vecs))
    w[-1] = 1.0
    w = _nearest_point(M, np.array(simplex), w, stop_gap)
    gap = np.inf
    for rounds in range(1, max_iters + 1):
        y = M @ w
        priced = [(None, geom.objective_vertex(y))]
        priced += [(p, geom.constraint_vertex(p, y)) for p in geom.active_rho]
        # Gain of a column: minus its reduced cost at the master's optimum.
        gains = [
            (float(y @ y) if level is None else 0.0) - float(y @ vec)
            for level, vec in priced
        ]
        gap = max(gains)
        new = [
            col
            for col, gain in zip(priced, gains)
            if gain > stop_gap and (col[0], col[1].tobytes()) not in keys
        ]
        if not new:
            break
        for col in new:
            add(*col)
        M = np.column_stack(vecs)
        w = _nearest_point(
            M, np.array(simplex), np.concatenate([w, np.zeros(len(new))]), stop_gap
        )
    return M, w, levels, gap, rounds


def certify(
    problem: ProblemSpec,
    x_hat: DecisionPoint,
    tol: float = CERT_TOL,
    act_tol: float = ACT_TOL,
    max_iters: int = 2000,
) -> Certificate:
    """Search for multipliers witnessing the optimality inclusion at x_hat.

    residual is the distance from 0 to  g + sum_p eta_p d_p + n  over g in
    the composite subdifferential, d_p in the level-p constraint
    subgradient polytope at each level p with |rho_p| <= act_tol, eta_p >= 0
    and n in the box normal cone, as found by column generation (see the
    module docstring); fw_gap is its final pricing gap and iterations its
    number of pricing rounds.  kappa = sum_p eta_p, weights = eta_p / kappa
    on the levels with eta_p > 0 (none unless kappa > tol), and nu pairs
    each level with (kappa / p) * weight.  c_gap = |kappa * sum_p
    weights_p * rho_p| is the complementarity term that matches the
    residual's cone term, with rho_p = lorenz(Y, p) - lorenz(G(x_hat), p).

    Returns the best residual found; never raises on a failed search, only
    on a point outside the box or max_iters < 1 (DomainError).  The
    certificate is accepted iff residual <= tol and c_gap <= tol.
    """
    lo, hi = problem.block_bounds()
    flat = x_hat.vectors.ravel()
    if np.any(flat < lo.ravel() - BOUND_ACTIVITY_TOL) or np.any(
        flat > hi.ravel() + BOUND_ACTIVITY_TOL
    ):
        raise DomainError("certification point must lie inside the box")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")
    geom = _ResidualGeometry(problem, x_hat, act_tol)
    M, w, levels, gap, iters = _column_generation(geom, tol * tol / 4.0, max_iters)
    residual = float(np.linalg.norm(M @ w))
    k = len(geom.normals)
    normal_part = M[:, :k] @ w[:k]
    eta: dict[float, float] = {}
    for wj, level in zip(w[k:], levels):
        if level is not None and wj > 0.0:
            eta[level] = eta.get(level, 0.0) + float(wj)
    kappa = _sum_ascending(eta.values())
    support = sorted(eta) if kappa > tol else []
    weights = [eta[p] / kappa for p in support]
    c_gap = abs(
        kappa * _sum_ascending(wt * geom.active_rho[p] for p, wt in zip(support, weights))
    )
    nu = tuple((p, (kappa / p) * wt) for p, wt in zip(support, weights))
    accepted = residual <= tol and c_gap <= tol
    return Certificate(
        kappa=kappa,
        levels=tuple(support),
        weights=tuple(weights),
        residual=residual,
        c_gap=c_gap,
        nu=nu,
        accepted=accepted,
        normal_part=normal_part,
        fw_gap=gap,
        iterations=iters,
        tol=tol,
        act_tol=act_tol,
    )
