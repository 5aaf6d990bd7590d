"""Solve dominance-constrained risk minimization problems and certify
optimality through the subdifferential inclusion.

solve, certify and brute_force_optimum check the dominance constraint on the
same levels (``DominanceConstraint.augmented_levels``): the grid, plus the
Lorenz breakpoints of Y and of G(x) inside [alpha, beta].

solve: projected switching subgradient method (feasibility step at the most
violated checked level, objective step otherwise).  No inner LP or QP is
ever formed.

certify: searches for a zero of  g_phi + sum_i eta_i d_i + n  with
g_phi in the composite subdifferential, d_i in the constraint subdifferential
generators at near-active levels, and n in the box normal cone.  The normal
cone is eliminated in closed form; the rest is a distance-to-polytope problem
solved by Frank-Wolfe with pairwise steps over the exact sorting/active-piece
LMOs, plus an exact least-squares polish on the discovered vertex support
(accepted only when it verifiably lowers the true residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import _conditional_blocks, composite_subgradient, composite_value
from .dominance import DominanceConstraint, constraint_subgradient
from .errors import ConfigurationError, DomainError, StructuralError
from .integrands import Curvature, DecisionPoint, MaxAffineIntegrand, evaluate
from .quantiles import lorenz, lorenz_breakpoints
from .risk import (
    Orientation,
    SpectralMeasure,
    avar_identifier_lmo,
    avar_lower,
    spectral_identifier_lmo,
    spectral_risk,
)
from .scenario import InfoPartition, ProbSpace, _sum_ascending

# Residual search defaults.
CERT_TOL = 1e-5
ACT_TOL = 1e-5
BOUND_ACTIVITY_TOL = 1e-9
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


@dataclass(frozen=True)
class SolveOptions:
    iters: int = 20000
    gamma0: float | None = None
    tol_feas: float = TOL_FEAS


@dataclass(frozen=True, eq=False)
class Solution:
    x_hat: DecisionPoint
    objective_value: float
    max_violation: float
    iterations: int
    feasible: bool
    trace: tuple[tuple[int, float], ...]


def solve(problem: ProblemSpec, opts: SolveOptions | None = None) -> Solution:
    """Projected switching subgradient method; deterministic given options.

    Returns the best iterate whose violation on the checked levels is at most
    tol_feas; if none exists, the least-violation iterate flagged infeasible.
    """
    opts = opts or SolveOptions()
    lo, hi = problem.block_bounds()
    gamma0 = opts.gamma0
    if gamma0 is None:
        gamma0 = float(np.linalg.norm((hi - lo).ravel()))
        if gamma0 <= 0.0:
            gamma0 = 1.0
    x = 0.5 * (lo + hi)
    best_obj = np.inf
    best_x = None
    least_viol = np.inf
    least_viol_x = x.copy()
    trace: list[tuple[int, float]] = []
    for t in range(opts.iters):
        xp = problem.decision(x)
        Zg = evaluate(problem.constraint_integrand, xp)
        levels, rho = problem.constraint.rho(Zg)
        viol = float(np.max(rho))
        if viol < least_viol:
            least_viol = viol
            least_viol_x = x.copy()
        if viol <= opts.tol_feas:
            obj = composite_value(problem.risk, problem.objective, xp)
            if obj < best_obj:
                best_obj = obj
                best_x = x.copy()
                trace.append((t, obj))
            step = composite_subgradient(
                problem.risk, problem.objective, xp, problem.partition
            ).vectors
        else:
            worst = float(levels[int(np.argmax(rho))])
            step = constraint_subgradient(
                problem.constraint_integrand, xp, worst, problem.partition
            )
        gamma = gamma0 / np.sqrt(t + 1.0)
        x = np.clip(x - gamma * step, lo, hi)
    if best_x is None:
        x_hat = problem.decision(least_viol_x)
        return Solution(
            x_hat,
            composite_value(problem.risk, problem.objective, x_hat),
            least_viol,
            opts.iters,
            False,
            tuple(trace),
        )
    x_hat = problem.decision(best_x)
    _, rho = problem.constraint.rho(evaluate(problem.constraint_integrand, x_hat))
    return Solution(
        x_hat,
        composite_value(problem.risk, problem.objective, x_hat),
        float(np.max(rho)),
        opts.iters,
        True,
        tuple(trace),
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
    accordingly per row.
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
    y_ys = np.array([0.0] + [lorenz(Y, float(p)) for p in ybp])
    fixed_levels = problem.constraint.augmented_levels()
    y_at_fixed = np.array([lorenz(Y, float(p)) for p in fixed_levels])
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
    """objective(x) + kappa * spectral_risk(G(x), mu) with lower-oriented mu
    supported inside the constraint interval."""
    if mu.orientation is not Orientation.LOWER:
        raise ConfigurationError("multiplier measure must be lower-oriented")
    kappa = float(kappa)
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")
    a, b = problem.constraint.alpha, problem.constraint.beta
    if any(p < a or p > b for p in mu.levels):
        raise DomainError("multiplier measure must be supported in [alpha, beta]")
    base = composite_value(problem.risk, problem.objective, x)
    penalty = spectral_risk(evaluate(problem.constraint_integrand, x), mu)
    return base + kappa * penalty


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
    objective_identifier: np.ndarray
    objective_selector: np.ndarray
    constraint_identifiers: tuple[np.ndarray, ...]
    constraint_selectors: tuple[np.ndarray, ...]
    normal_part: np.ndarray
    fw_gap: float
    iterations: int
    tol: float
    act_tol: float


@dataclass(eq=False)
class _Vertex:
    vec: np.ndarray           # stacked total (objective part + cone part)
    obj_zeta: np.ndarray
    obj_rows: np.ndarray
    cone_level: float | None  # None when the cone part is zero
    cone_zeta: np.ndarray | None
    cone_rows: np.ndarray | None
    key: bytes = b""


class _ResidualGeometry:
    """Frozen data for one certification run."""

    def __init__(self, problem: ProblemSpec, x_hat: DecisionPoint, act_tol: float):
        self.problem = problem
        self.x = x_hat
        self.space = problem.space
        self.partition = problem.partition
        self.n = problem.dim
        self.B = problem.num_blocks
        self.D = problem.stacked_dim
        self.Zf = evaluate(problem.objective, x_hat)
        self.Zg = evaluate(problem.constraint_integrand, x_hat)
        levels, rho = problem.constraint.rho(self.Zg)
        self.active_levels = tuple(float(p) for p in levels[np.abs(rho) <= act_tol])
        # Per scenario, the probability of its block (1 when deterministic).
        if self.partition is None:
            self.block_prob = np.ones(self.space.size)
        else:
            self.block_prob = self.partition.block_probs[self.partition.block_of]
        # Normal-cone reduction masks on stacked coordinates.
        flat = x_hat.vectors.ravel()
        lo, hi = problem.block_bounds()
        self.at_lower = flat - lo.ravel() <= BOUND_ACTIVITY_TOL
        self.at_upper = hi.ravel() - flat <= BOUND_ACTIVITY_TOL

    def reduce(self, y: np.ndarray) -> np.ndarray:
        """Distance-to-normal-cone residual, coordinate-wise closed form."""
        out = y.copy()
        out[self.at_lower] = np.minimum(out[self.at_lower], 0.0)
        out[self.at_upper] = np.maximum(out[self.at_upper], 0.0)
        return out

    def _active_choice(
        self, integrand: MaxAffineIntegrand, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per scenario, the active piece of ``integrand`` at x that is extreme
        along -c (largest rate for CONVEX, smallest for CONCAVE), as (selector
        rows, tilt): the rates along -c divided by the block probability."""
        minus_c = DecisionPoint(-c.reshape(self.B, self.n), self.x.partition)
        _, rows, rates = integrand._select(self.x, minus_c)
        return rows, rates / self.block_prob

    def objective_vertex(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimize <g, c> over the composite subdifferential polytope.

        Returns (stacked vector, zeta, selector rows).
        """
        rows, tilt = self._active_choice(self.problem.objective, c)
        zeta = spectral_identifier_lmo(self.Zf, self.problem.risk, tilt)
        blocks = _conditional_blocks(self.space, self.partition, zeta, rows)
        return blocks.ravel(), zeta, rows

    def constraint_vertex(
        self, p: float, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimize <d, c> over the level-p constraint subgradient polytope."""
        rows, tilt = self._active_choice(self.problem.constraint_integrand, c)
        zeta = avar_identifier_lmo(self.Zg, p, Orientation.LOWER, -tilt).zeta
        blocks = _conditional_blocks(self.space, self.partition, p * zeta, rows)
        return -blocks.ravel(), zeta, rows

    def make_vertex(self, grad: np.ndarray, kappa_cap: float) -> _Vertex:
        """LMO of the Minkowski sum (objective polytope + capped cone)."""
        obj_vec, obj_zeta, obj_rows = self.objective_vertex(grad)
        best_level = None
        best_val = 0.0
        best = None
        for p in self.active_levels:
            d_vec, d_zeta, d_rows = self.constraint_vertex(p, grad)
            val = kappa_cap * float(d_vec @ grad)
            if val < best_val:
                best_val = val
                best_level = p
                best = (kappa_cap * d_vec, d_zeta, d_rows)
        if best_level is None:
            vec = obj_vec
            vertex = _Vertex(vec, obj_zeta, obj_rows, None, None, None)
        else:
            vec = obj_vec + best[0]
            vertex = _Vertex(vec, obj_zeta, obj_rows, best_level, best[1], best[2])
        level_tag = b"-" if vertex.cone_level is None else repr(vertex.cone_level).encode()
        vertex.key = np.round(vec, 12).tobytes() + level_tag
        return vertex


def _line_search(geom: _ResidualGeometry, y: np.ndarray, d: np.ndarray, gmax: float) -> float:
    """Exact-enough minimization of psi(y + g*d) on [0, gmax] by bisection on
    the nondecreasing derivative 2<R(y+g d), d>."""

    def slope(g: float) -> float:
        return float(geom.reduce(y + g * d) @ d)

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(gmax) <= 0.0:
        return gmax
    lo_g, hi_g = 0.0, gmax
    for _ in range(80):
        mid = 0.5 * (lo_g + hi_g)
        if slope(mid) <= 0.0:
            lo_g = mid
        else:
            hi_g = mid
    return 0.5 * (lo_g + hi_g)


def _polish(
    geom: _ResidualGeometry, verts: list[_Vertex], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Equality-constrained least squares on the current support with the
    residual pattern frozen; returns (lam, y) only if it truly improves."""
    live = np.ones(geom.D, dtype=bool)
    live[geom.at_lower & (y >= 0.0)] = False
    live[geom.at_upper & (y <= 0.0)] = False
    V = np.stack([v.vec for v in verts], axis=1)
    A = V[live]
    m = len(verts)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * (A.T @ A)
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    lam_new = sol[:m]
    if np.any(lam_new < -1e-9):
        return None
    lam_new = np.maximum(lam_new, 0.0)
    s = lam_new.sum()
    if s <= 0.0:
        return None
    lam_new = lam_new / s
    y_new = V @ lam_new
    if float(geom.reduce(y_new) @ geom.reduce(y_new)) < float(
        geom.reduce(y) @ geom.reduce(y)
    ):
        return lam_new, y_new
    return None


def _fw_residual(
    geom: _ResidualGeometry, kappa_cap: float, stop_gap: float, max_iters: int
) -> tuple[np.ndarray, list[_Vertex], np.ndarray, float, int]:
    """Pairwise Frank-Wolfe over (objective polytope) + (capped conic hull)."""
    verts: list[_Vertex] = []
    index: dict[bytes, int] = {}

    def add_vertex(v: _Vertex) -> int:
        pos = index.get(v.key)
        if pos is None:
            pos = len(verts)
            verts.append(v)
            index[v.key] = pos
        return pos

    v0 = geom.make_vertex(np.zeros(geom.D), kappa_cap)
    add_vertex(v0)
    lam = np.array([1.0])
    y = v0.vec.copy()
    best_y = y.copy()
    best_lam = lam.copy()
    best_psi = float(geom.reduce(y) @ geom.reduce(y))
    gap = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        grad = 2.0 * geom.reduce(y)
        fw = geom.make_vertex(grad, kappa_cap)
        gap = float(grad @ y) - float(grad @ fw.vec)
        if gap <= stop_gap:
            break
        active = np.nonzero(lam > 0.0)[0]
        away_pos = active[
            int(np.argmax([float(grad @ verts[j].vec) for j in active]))
        ]
        fw_pos = add_vertex(fw)
        if lam.size < len(verts):
            lam = np.concatenate([lam, np.zeros(len(verts) - lam.size)])
        if fw_pos == away_pos:
            break
        d = verts[fw_pos].vec - verts[away_pos].vec
        gmax = float(lam[away_pos])
        if gmax <= 0.0 or not np.any(d):
            break
        step = _line_search(geom, y, d, gmax)
        if step <= 0.0:
            break
        lam[fw_pos] += step
        lam[away_pos] -= step
        lam = np.maximum(lam, 0.0)
        V = np.stack([v.vec for v in verts], axis=1)
        y = V @ lam
        psi = float(geom.reduce(y) @ geom.reduce(y))
        if psi < best_psi:
            best_psi = psi
            best_y = y.copy()
            best_lam = lam.copy()
        if it % 25 == 0:
            polished = _polish(geom, verts, y)
            if polished is not None:
                lam, y = polished
                psi = float(geom.reduce(y) @ geom.reduce(y))
                if psi < best_psi:
                    best_psi = psi
                    best_y = y.copy()
                    best_lam = lam.copy()
    polished = _polish(geom, verts, best_y)
    if polished is not None:
        best_lam, best_y = polished
    if best_lam.size < len(verts):
        best_lam = np.concatenate([best_lam, np.zeros(len(verts) - best_lam.size)])
    return best_y, verts, best_lam, gap, it


def _aggregate_products(
    weights: np.ndarray, zetas: list[np.ndarray], rows: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Factor a mixture sum_j w_j zeta_j (x) s_j into one identifier and one
    blended selector (valid by scenario-wise generalized convexity)."""
    zeta = np.zeros_like(zetas[0])
    prod = np.zeros_like(rows[0])
    for w, z, r in zip(weights, zetas, rows):
        zeta += w * z
        prod += w * z[:, None] * r
    sel = np.zeros_like(prod)
    nonzero = zeta > 0.0
    sel[nonzero] = prod[nonzero] / zeta[nonzero, None]
    sel[~nonzero] = rows[0][~nonzero]
    return zeta, sel


def certify(
    problem: ProblemSpec,
    x_hat: DecisionPoint,
    tol: float = CERT_TOL,
    act_tol: float = ACT_TOL,
    max_iters: int = 2000,
) -> Certificate:
    """Search for multipliers witnessing the optimality inclusion at x_hat.

    Returns the best residual found; never raises on a failed search.  The
    certificate is accepted iff residual <= tol and the complementarity gap
    <= tol.
    """
    lo, hi = problem.block_bounds()
    flat = x_hat.vectors.ravel()
    if np.any(flat < lo.ravel() - BOUND_ACTIVITY_TOL) or np.any(
        flat > hi.ravel() + BOUND_ACTIVITY_TOL
    ):
        raise DomainError("certification point must lie inside the box")
    geom = _ResidualGeometry(problem, x_hat, act_tol)
    # Scale the cone cap from a first plain vertex; enlarge on saturation.
    g0 = geom.objective_vertex(np.zeros(geom.D))[0]
    scale = float(np.linalg.norm(g0))
    d_norms = [
        float(np.linalg.norm(geom.constraint_vertex(p, np.zeros(geom.D))[0]))
        for p in geom.active_levels
    ]
    d_scale = min((d for d in d_norms if d > 1e-12), default=0.0)
    kappa_cap = 8.0 * (1.0 + scale / d_scale) if d_scale > 0.0 else 1.0
    stop_gap = tol * tol / 4.0
    for _ in range(6):
        y, verts, lam, gap, iters = _fw_residual(geom, kappa_cap, stop_gap, max_iters)
        eta = {}
        for w, v in zip(lam, verts):
            if v.cone_level is not None and w > 0.0:
                eta[v.cone_level] = eta.get(v.cone_level, 0.0) + w * kappa_cap
        kappa = float(_sum_ascending(eta.values())) if eta else 0.0
        if kappa <= 0.9 * kappa_cap or not geom.active_levels:
            break
        kappa_cap *= 8.0
    residual = float(np.linalg.norm(geom.reduce(y)))

    # Factor the mixture into per-polytope identifier/selector pairs.
    obj_zeta, obj_sel = _aggregate_products(
        lam, [v.obj_zeta for v in verts], [v.obj_rows for v in verts]
    )
    support: list[float] = []
    weights: list[float] = []
    cons_zetas: list[np.ndarray] = []
    cons_sels: list[np.ndarray] = []
    if kappa > tol:
        for p in sorted(eta):
            mass = float(eta[p])
            support.append(float(p))
            weights.append(mass / kappa)
            members = [
                (w * kappa_cap / mass, v)
                for w, v in zip(lam, verts)
                if v.cone_level == p and w > 0.0
            ]
            z, s = _aggregate_products(
                np.array([m[0] for m in members]),
                [m[1].cone_zeta for m in members],
                [m[1].cone_rows for m in members],
            )
            cons_zetas.append(z)
            cons_sels.append(s)
    # Complementarity over the reported support.
    Y = problem.constraint.benchmark
    if support:
        gap_terms = [
            w * (avar_lower(geom.Zg, p) - avar_lower(Y, p))
            for p, w in zip(support, weights)
        ]
        c_gap = abs(kappa * _sum_ascending(gap_terms))
    else:
        c_gap = 0.0
    nu = tuple((p, (kappa / p) * w) for p, w in zip(support, weights))
    normal_part = geom.reduce(y) - y
    accepted = residual <= tol and c_gap <= tol
    return Certificate(
        kappa=kappa,
        levels=tuple(support),
        weights=tuple(weights),
        residual=residual,
        c_gap=c_gap,
        nu=nu,
        accepted=accepted,
        objective_identifier=obj_zeta,
        objective_selector=obj_sel,
        constraint_identifiers=tuple(cons_zetas),
        constraint_selectors=tuple(cons_sels),
        normal_part=normal_part,
        fw_gap=gap,
        iterations=iters,
        tol=tol,
        act_tol=act_tol,
    )
