"""Solve dominance-constrained risk minimization problems and certify
optimality through the subdifferential inclusion.

solve, certify and brute_force_optimum check the dominance constraint on the
same levels (``DominanceConstraint.augmented_levels``): the grid, plus the
Lorenz breakpoints of Y and of G(x) inside [alpha, beta].

solve: projected switching subgradient method (feasibility step at the most
violated checked level, objective step otherwise).  No inner LP or QP is
ever formed.  ``opts.iters`` is a cap: solve stops early once certify proves
its best point within STOP_GAP of optimal (see below).
  - Checked once, before the loop: the problem by ``ProblemSpec`` (kinds,
    spaces, dimensions, a finite box) and the options by ``SolveOptions``
    (iters an integer >= 1, gamma0 None or finite > 0).
  - Feasible means no violation: an iterate is a candidate for the best
    point only if rho <= 0 on every checked level, the levels certify and
    brute_force_optimum check too.
  - On arrays, in the loop: the iterate is a (blocks, n) array.  Each
    iteration calls ``_constraint_at``: one unchecked kernel call for G
    (``_pieces``) and one stable sort of G(x) (``_sort_prefix``), which give
    rho and, on a feasibility step, the lower identifier's greedy order.
    The checked levels and lorenz(Y) on them depend on G(x) only through
    its prefix mass; ``_CheckedLevels`` keeps them for the last mass seen
    (compared as bytes) and re-derives both only when it changes, which on
    an equiprobable space is never.  Objective steps make one kernel call
    for F, whose prefix arrays give the spectral risk, and whose identifier
    comes from the same greedy fill as ``spectral_identifier``.  An
    expectation needs neither: its value is the weighted mean, and its
    identifier, the constant density, is built and checked once before the
    loop.  Selector rows are chosen from the kernel's piece values only for
    the step taken.
  - Checks that can fail stay in the loop: G(x) and F(x) must be finite
    (DomainError; large coefficients can overflow) and every identifier
    that depends on x passes its box and mean check (StructuralError).
  - Public objects (``DecisionPoint``, ``Solution``) are built only for
    the result and the stop tests.  The public routes (``evaluate``,
    ``rho``, ``spectral_risk``, ``spectral_identifier``,
    ``lorenz_supergradient``, the public subgradients' block sums) are
    checked wrappers over these same private functions.
  - Stop tests: after 2, 4, 8, ... iterations, while 8 times that count is
    at most ``opts.iters``, and only when the best feasible point changed
    since the last test, solve calls ``certify`` on that point at its
    default tolerance.  It stops when the certificate is accepted and its
    ``gap_bound`` is at most STOP_GAP.  So a budget of iters makes at most
    log2(iters / 8) tests, and none below 16, and a larger budget can return
    a point up to STOP_GAP worse than a smaller one.

certify: measures the distance from 0 to  g + sum_p eta_p d_p + n  with g in
the composite subdifferential polytope, d_p in the constraint subgradient
polytope at each active checked level p, eta_p >= 0, and n in the box normal
cone, by column generation over the exact sorting/active-piece LMOs.
  - Checked once, at entry: the arguments, by ``SolveOptions``' rules, and
    the point; then ``_ResidualGeometry`` holds arrays: x_hat's block rows,
    F's and G's piece values there (one kernel call each) and the active
    levels from ``_constraint_at``, as ``solve`` reads them.  Each oracle
    call makes one ``_rates`` product and builds no public object.
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
    vector, the search's stop data and gap_bound, all O(D + levels).
  - Gap bound: with L(x) = f(x) + sum_p eta_p rho_p(x) and r the residual
    vector, every feasible x has f(x) >= L(x) >= f(x_hat) + sum_p eta_p
    rho_p(x_hat) - ||r|| ||x - x_hat||, so f(x_hat) - min f <= residual *
    diam + c_gap, diam the stacked box diameter (which bounds the
    P(B)-weighted one).  The bound holds whether or not the certificate is
    accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .composite import _conditional_blocks, _on_blocks, _require_objective_pair, composite_value
from .dominance import DominanceConstraint, _require_concave
from .errors import ConfigurationError, DomainError, StructuralError
from .integrands import DecisionPoint, MaxAffineIntegrand, evaluate
from .quantiles import (
    _lorenz_at,
    _lorenz_prefix,
    _Prefix,
    _sort_prefix,
    lorenz,
    lorenz_breakpoints,
)
from .risk import (
    Orientation,
    SpectralMeasure,
    _greedy_fill,
    _greedy_order,
    _spectral_value,
    _spectral_zeta,
)
from .scenario import (
    InfoPartition,
    ProbSpace,
    _check_finite,
    _running_sum,
)

# Residual search defaults.
CERT_TOL = 1e-5
ACT_TOL = 1e-5
BOUND_ACTIVITY_TOL = 1e-9
# Relative share of ||M w|| below which the master drops a conic weight.
CONIC_ZERO_TOL = 1e-12
# Absolute float guard when the brute-force oracle classifies feasibility.
BRUTE_FEAS_GUARD = 1e-12
# Grid points per vectorised brute-force pass.
BRUTE_CHUNK = 65536
# solve stops once certify bounds its best point's gap by this
# (acceptance criterion 7's tolerance against brute force).
STOP_GAP = 1e-4


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """min risk(F(x)) over the box, subject to G(x) Lorenz-dominating the
    benchmark on the constraint interval.  A box with a lower bound above
    its upper bound raises DomainError with code E_BOX."""

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
        _require_objective_pair(self.risk, self.objective)
        _require_concave(self.constraint_integrand)
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
            raise DomainError("box lower bounds exceed upper bounds", code="E_BOX")
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

    @property
    def diameter(self) -> float:
        """The box's diameter over the stacked block coordinates."""
        lo, hi = self.block_bounds()
        return float(np.linalg.norm((hi - lo).ravel()))


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Argument rules: the test a value must pass, and the rule in words.  Per
# solver option, SolveOptions applies its rule on construction and the CLI
# to the problem file's "solver" section; certify and brute_force_optimum
# check their arguments by the same rules.
_COUNT = (
    lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1,
    "an integer >= 1",
)
_POSITIVE = (lambda v: _is_real(v) and math.isfinite(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (lambda v: _is_real(v) and math.isfinite(v) and v >= 0, "a finite number >= 0")
_OPTION_RULES = {
    "iters": _COUNT,
    "gamma0": (lambda v: v is None or _POSITIVE[0](v), _POSITIVE[1]),
}


def _check_arg(name: str, value, rule):
    valid, words = rule
    if not valid(value):
        raise DomainError(f"{name} must be {words}, got {value!r}")


@dataclass(frozen=True)
class SolveOptions:
    """solve's iteration cap and initial step (None: the box diameter);
    checked on construction against _OPTION_RULES (DomainError).  A larger
    cap can make a stop test that a smaller one does not, so the returned
    objective falls with iters only up to STOP_GAP.  ``tol_feas`` is not an
    option: it is the largest violation solve calls feasible, none."""

    tol_feas: ClassVar[float] = 0.0
    iters: int = 20000
    gamma0: float | None = None

    def __post_init__(self):
        for name, rule in _OPTION_RULES.items():
            _check_arg(name, getattr(self, name), rule)


@dataclass(frozen=True, eq=False)
class Solution:
    """solve's result.  ``iterations`` is the number of iterations run;
    ``gap_bound`` is the Certificate.gap_bound of a stop test made at x_hat
    itself, None when no test was made there."""

    x_hat: DecisionPoint
    objective_value: float
    max_violation: float
    iterations: int
    feasible: bool
    trace: tuple[tuple[int, float], ...]
    gap_bound: float | None


def _objective_at(problem: ProblemSpec, x: np.ndarray, block_of):
    """(piece values, F(x), the objective risk at x) by one kernel call, and
    one stable sort of F(x) unless the risk is an expectation: the upper
    AVaR at level 1 is (mean - lorenz(F(x), 0)) / 1, where lorenz(F(x), 0)
    is exactly +0.0, so its value is the mean times the weight, which may
    differ from 1 by up to SPECTRAL_WEIGHT_TOL."""
    vals, Z = problem.objective._pieces(x, block_of)
    _check_finite(Z)
    probs, risk = problem.space.probs, problem.risk
    mean = _running_sum(probs * Z)
    if risk.is_expectation:
        return vals, Z, _running_sum(np.array(risk.weights) * mean)
    return vals, Z, _spectral_value(_sort_prefix(Z, probs), mean, risk)


class _CheckedLevels:
    """The checked levels of the last G(x) seen and lorenz(Y) at them, kept
    while G(x)'s prefix mass stays the same: both depend on G(x) only through
    that mass, which never changes on an equiprobable space.  One per solve
    and one per certify; the public ``DominanceConstraint.rho`` and
    ``augmented_levels`` keep none and compute both on every call."""

    def __init__(self, constraint: DominanceConstraint):
        self.constraint, self.key = constraint, None

    def on(self, pre: _Prefix) -> tuple[np.ndarray, np.ndarray]:
        key = pre.mass.tobytes()
        if key != self.key:
            C = self.constraint
            self.key, self.levels = key, C._levels_on(pre)
            self.benchmark = _lorenz_prefix(C._benchmark_prefix, self.levels)
        return self.levels, self.benchmark


def _constraint_at(problem: ProblemSpec, x: np.ndarray, block_of, checked: _CheckedLevels):
    """(piece values, G(x), its prefix arrays, the checked levels, rho on
    them) by one kernel call and one stable sort, the levels and lorenz(Y)
    on them from ``checked``: the one place where solve and certify decide
    which levels are violated and which are active."""
    vals, Z = problem.constraint_integrand._pieces(x, block_of)
    _check_finite(Z)
    pre = _sort_prefix(Z, problem.space.probs)
    levels, benchmark = checked.on(pre)
    return vals, Z, pre, levels, benchmark - _lorenz_prefix(pre, levels)


def solve(problem: ProblemSpec, opts: SolveOptions | None = None) -> Solution:
    """Projected switching subgradient method; deterministic given options.

    Returns the best iterate with no violation (rho <= 0) on the checked
    levels; if none exists, the least-violation iterate flagged infeasible.
    Runs at most opts.iters iterations: after 2, 4, 8, ... of them, while 8
    times that count is at most opts.iters, a best point that changed since
    the last such test is certified (``certify`` at its default tolerance),
    and solve stops when the certificate is accepted with gap_bound at most
    STOP_GAP.  ``Solution.iterations`` counts the iterations run.  So a
    larger cap can stop earlier than a smaller one ran: the objective falls
    with opts.iters only up to STOP_GAP (i08: a cap of 8,191 runs to the
    end, 8,192 stops at 1,024 about 7.9e-6 higher).
    The problem and the options were checked when they were built; the loop
    runs on the (blocks, n) iterate array and keeps only the checks that can
    fail there: G(x) and F(x) finite (DomainError) and each identifier in
    its box with unit mean (StructuralError); an expectation's identifier
    does not depend on x and is checked once, before the loop.
    """
    opts = opts or SolveOptions()
    lo, hi = problem.block_bounds()
    gamma0 = opts.gamma0
    if gamma0 is None:
        gamma0 = problem.diameter
        if gamma0 <= 0.0:
            gamma0 = 1.0
    G, probs = problem.constraint_integrand, problem.space.probs
    block_of = None if problem.partition is None else problem.partition.block_of

    def blocks(weights, rows):
        return _conditional_blocks(problem.space, problem.partition, weights, rows)

    x = 0.5 * (lo + hi)
    best_obj = np.inf
    best_x = None
    least_viol = np.inf
    trace: list[tuple[int, float]] = []
    next_test, tested_x, cert = 2, None, None
    checked = _CheckedLevels(problem.constraint)
    # An expectation's identifier is the constant density whatever F(x) is:
    # built and checked once, here.
    fixed_zeta = None
    if problem.risk.is_expectation:
        fixed_zeta = _spectral_zeta(None, probs, problem.risk, None)
    for t in range(opts.iters):
        g_vals, Zg, pre, levels, rho = _constraint_at(problem, x, block_of, checked)
        viol = float(rho.max())
        if viol < least_viol:
            least_viol = viol
            least_viol_x = x.copy()
        if viol <= SolveOptions.tol_feas:
            f_vals, Zf, obj = _objective_at(problem, x, block_of)
            if obj < best_obj:
                best_obj, best_viol = obj, viol
                best_x = x.copy()
                trace.append((t, obj))
            zeta = fixed_zeta
            if zeta is None:
                zeta = _spectral_zeta(Zf, probs, problem.risk, None)
            step = blocks(zeta, problem.objective._active_rows(f_vals, Zf)[0])
        else:
            p = float(levels[int(np.argmax(rho))])
            # The lower identifier's greedy order is G(x)'s stable sort.
            zeta = _greedy_fill(pre.order, probs, p)
            step = -blocks(p * zeta, G._active_rows(g_vals, Zg)[0])
        gamma = gamma0 / math.sqrt(t + 1.0)
        x = np.minimum(np.maximum(x - gamma * step, lo), hi)
        if t + 1 == next_test and 8 * next_test <= opts.iters:
            next_test *= 2
            # best_x is a new array whenever the best point changes.
            if best_x is not None and best_x is not tested_x:
                tested_x = best_x
                cert = certify(problem, problem.decision(best_x))
                if cert.accepted and cert.gap_bound <= STOP_GAP:
                    break
    feasible = best_x is not None
    if not feasible:
        best_x, best_viol = least_viol_x, least_viol
        best_obj = _objective_at(problem, best_x, block_of)[2]
    gap_bound = cert.gap_bound if best_x is tested_x else None
    return Solution(
        problem.decision(best_x), best_obj, best_viol, t + 1, feasible, tuple(trace), gap_bound
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


def brute_force_optimum(problem: ProblemSpec, grid_resolution: float = 1e-3) -> BruteForceResult:
    """Exhaustive box-grid search; the independent optimization oracle.

    Feasibility is the Lorenz comparison on the levels that solve and certify
    check (the grid, plus the Lorenz breakpoints of Y and of G(x) inside
    [alpha, beta]), with a BRUTE_FEAS_GUARD float guard so that active
    constraints are not misclassified through last-ulp noise.  G(x)'s
    breakpoints are scanned by a vectorised pass of its own, BRUTE_CHUNK
    grid points at a time.  Refuses stacked dimension above 4 and a grid
    resolution that is not a finite number > 0 (DomainError).
    """
    _check_arg("grid_resolution", grid_resolution, _POSITIVE)
    D = problem.stacked_dim
    if D > 4:
        raise DomainError(f"brute force limited to stacked dimension <= 4, got {D}")
    res = float(grid_resolution)
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
    for start in range(0, total, BRUTE_CHUNK):
        idx = np.arange(start, min(start + BRUTE_CHUNK, total))
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
    lorenz_mix = _running_sum(np.array([w * lorenz(Zg, p) for p, w in zip(mu.levels, mu.weights)]))
    return base - kappa * lorenz_mix


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
    gap_bound: float
    nu: tuple[tuple[float, float], ...]
    accepted: bool
    normal_part: np.ndarray
    pricing_gap: float
    iterations: int
    tol: float


class _ResidualGeometry:
    """Arrays for one certification run at x_hat (block rows): F's and G's
    piece values, the active levels and the box normal-cone generators."""

    def __init__(self, problem: ProblemSpec, x: np.ndarray):
        self.problem, self.x, self.D = problem, x, x.size
        partition = problem.partition
        self.block_of = None if partition is None else partition.block_of
        self.f_vals, self.Zf = problem.objective._pieces(x, self.block_of)
        _check_finite(self.Zf)
        self.g_vals, self.Zg, _, levels, rho = _constraint_at(
            problem, x, self.block_of, _CheckedLevels(problem.constraint)
        )
        active = np.abs(rho) <= ACT_TOL
        # Active level -> its Lorenz gap lorenz(Y, p) - lorenz(G(x), p).
        self.active_rho = {float(p): float(r) for p, r in zip(levels[active], rho[active])}
        # Per scenario, the probability of its block (1 when deterministic).
        if partition is None:
            self.block_prob = np.ones(problem.space.size)
        else:
            self.block_prob = partition.block_probs[partition.block_of]
        # Box normal-cone generators, one per row on stacked coordinates:
        # -e_i where x sits at a lower bound, +e_i where it sits at an upper one.
        flat = x.ravel()
        lo, hi = problem.block_bounds()
        eye = np.eye(self.D)
        self.normals = np.concatenate(
            [
                -eye[flat - lo.ravel() <= BOUND_ACTIVITY_TOL],
                eye[hi.ravel() - flat <= BOUND_ACTIVITY_TOL],
            ]
        )

    def _along(self, F: MaxAffineIntegrand, vals: np.ndarray, Z: np.ndarray, c: np.ndarray):
        """(rows, tilt): F's selector at x_hat along -c and its rates over
        P(B), as stacked coordinates pair blocks without P(B)."""
        if not np.isfinite(c).all():
            raise DomainError("pricing direction must be finite")
        rows, rates = F._active_rows(vals, Z, F._rates(-c.reshape(self.x.shape), self.block_of))
        return rows, rates / self.block_prob

    def objective_vertex(self, c: np.ndarray) -> np.ndarray:
        """Minimize <g, c> over the composite subdifferential polytope; the
        minimizer in stacked coordinates."""
        problem = self.problem
        rows, tilt = self._along(problem.objective, self.f_vals, self.Zf, c)
        zeta = _spectral_zeta(self.Zf, problem.space.probs, problem.risk, tilt)
        return _conditional_blocks(problem.space, problem.partition, zeta, rows).ravel()

    def constraint_vertex(self, p: float, c: np.ndarray) -> np.ndarray:
        """Minimize <d, c> over the level-p constraint subgradient polytope."""
        problem, probs = self.problem, self.problem.space.probs
        rows, tilt = self._along(problem.constraint_integrand, self.g_vals, self.Zg, c)
        zeta = _greedy_fill(_greedy_order(self.Zg, Orientation.LOWER, -tilt), probs, p)
        return -_conditional_blocks(problem.space, problem.partition, p * zeta, rows).ravel()


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
    z[first] = 1.0 - _running_sum(z[rest][simplex[rest]])
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
    max_iters: int = 2000,
) -> Certificate:
    """Search for multipliers witnessing the optimality inclusion at x_hat.

    residual is the distance from 0 to  g + sum_p eta_p d_p + n  over g in
    the composite subdifferential, d_p in the level-p constraint
    subgradient polytope at each level p with |rho_p| <= ACT_TOL, eta_p >= 0
    and n in the box normal cone, as found by column generation (see the
    module docstring); pricing_gap is its final pricing gap and iterations
    its number of pricing rounds.  kappa = sum_p eta_p, weights = eta_p /
    kappa on the levels with eta_p > 0 (none unless kappa > tol), and nu
    pairs each level with (kappa / p) * weight.  c_gap = |kappa * sum_p
    weights_p * rho_p| is the complementarity term that matches the
    residual's cone term, with rho_p = lorenz(Y, p) - lorenz(G(x_hat), p).
    gap_bound = residual * problem.diameter + c_gap bounds objective(x_hat)
    minus the optimum (module docstring); when the weights are dropped
    (0 < kappa <= tol) it adds kappa * ACT_TOL, which bounds their
    complementarity term.

    Raises DomainError for tol not finite >= 0, max_iters not an
    integer >= 1 or x_hat outside the box, and StructuralError for an x_hat
    of another dimension or partition (a deterministic one is repeated on
    every block); never on a failed search.  The certificate is accepted iff
    residual <= tol and c_gap <= tol.
    """
    _check_arg("tol", tol, _NONNEGATIVE)
    _check_arg("max_iters", max_iters, _COUNT)
    x = _on_blocks(x_hat, problem.partition)
    problem.objective._check_decision(x)
    lo, hi = problem.block_bounds()
    if np.any(x.vectors < lo - BOUND_ACTIVITY_TOL) or np.any(x.vectors > hi + BOUND_ACTIVITY_TOL):
        raise DomainError("certification point must lie inside the box")
    geom = _ResidualGeometry(problem, x.vectors)
    M, w, levels, gap, iters = _column_generation(geom, tol * tol / 4.0, max_iters)
    residual = float(np.linalg.norm(M @ w))
    k = len(geom.normals)
    normal_part = M[:, :k] @ w[:k]
    eta: dict[float, float] = {}
    for wj, level in zip(w[k:], levels):
        if level is not None and wj > 0.0:
            eta[level] = eta.get(level, 0.0) + float(wj)
    kappa = _running_sum(np.array(list(eta.values())))
    support = sorted(eta) if kappa > tol else []
    weights = [eta[p] / kappa for p in support]
    c_gap = abs(
        kappa * _running_sum(np.array([wt * geom.active_rho[p] for p, wt in zip(support, weights)]))
    )
    nu = tuple((p, (kappa / p) * wt) for p, wt in zip(support, weights))
    accepted = residual <= tol and c_gap <= tol
    # Every active level has |rho_p| <= ACT_TOL.
    dropped = 0.0 if support else kappa * ACT_TOL
    return Certificate(
        kappa=kappa,
        levels=tuple(support),
        weights=tuple(weights),
        residual=residual,
        c_gap=c_gap,
        gap_bound=residual * problem.diameter + c_gap + dropped,
        nu=nu,
        accepted=accepted,
        normal_part=normal_part,
        pricing_gap=gap,
        iterations=iters,
        tol=tol,
    )
