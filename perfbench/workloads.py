"""Workloads of the riskcalc benchmark: input generation, requests, checks.

Every workload turns a seed into a pool of inputs (``build``), serves one
request on one pool item (``request``) and judges the answer against the
item's reference (``check``, an empty list meaning correct).  Requests call
the program only through its public functions, looked up on the module at
call time so that the tracer's wrappers see them.

Sizes never depend on the seed; the seed only draws values.  Where a workload
has a size range, sizes follow a golden-ratio sequence, so every prefix of
the request stream covers the range evenly and the quantiles of a run do not
depend on where the run stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import riskcalc as rc
from riskcalc import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0)


def spread_sizes(count: int, lo: int, hi: int) -> list[int]:
    """Log-uniform sizes in [lo, hi] in golden-ratio order."""
    return [
        int(round(lo * (hi / lo) ** ((i * GOLDEN) % 1.0))) for i in range(count)
    ]


class Digest:
    """SHA-256 over the generated inputs, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                self._h.update(np.ascontiguousarray(part).tobytes())
            else:
                self._h.update(repr(part).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class Inputs:
    items: list
    digest: str
    # True when a run must stop on a whole pass over ``items``: the battery
    # cycles a few fixed files, and a partial pass would shift its quantiles.
    whole_cycles: bool = False
    sizes: list = field(default_factory=list)


# --------------------------------------------------------------------------
# battery: the shipped instances through the command line
# --------------------------------------------------------------------------


@dataclass
class BatteryItem:
    path: str
    optimum: float


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``riskcalc`` invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue()


class Battery:
    """solve then certify on each shipped instance, cycled in a seeded order."""

    name = "battery"
    # Both commands get this cap; the files' own 20k-60k iterations would
    # make one pass take minutes.
    ITERS = 300
    # Objective above the reference optimum that still passes at ITERS
    # (the slowest instance, i06_portfolio, sits near 0.05 there).
    GAP_TOL = 0.1
    # Objective below the optimum, possible only through the solver's
    # feasibility slack.
    GAP_FLOOR = -1e-4
    # Documented optimum of median.json, which carries no meta.x_hat.
    MEDIAN_OPTIMUM = 0.5
    TRACE_REQUESTS = 13
    SMOKE_FILES = 3

    def build(self, seed: int, smoke: bool, count: int | None = None) -> Inputs:
        files = sorted((ROOT / "instances").glob("*.json"))
        order = np.random.default_rng(seed).permutation(len(files))
        if smoke:
            order = order[: self.SMOKE_FILES]
        if count is not None:
            order = order[:count]
        digest = Digest()
        items = []
        for j in order:
            path = files[int(j)]
            digest.add(path.name, path.read_bytes())
            loaded = cli.load_problem(str(path))
            if "x_hat" in loaded.meta:
                spec = loaded.spec
                x = spec.decision(
                    np.array(loaded.meta["x_hat"]).reshape(spec.num_blocks, spec.dim)
                )
                optimum = rc.composite_value(spec.risk, spec.objective, x)
            else:
                optimum = self.MEDIAN_OPTIMUM
            items.append(BatteryItem(str(path), optimum))
        return Inputs(items, digest.hexdigest(), whole_cycles=True)

    def request(self, item: BatteryItem):
        iters = str(self.ITERS)
        solved = run_cli(["solve", "--problem", item.path, "--iters", iters])
        certified = run_cli(["certify", "--problem", item.path, "--iters", iters])
        return solved, certified

    def solve_gap(self, item: BatteryItem, out) -> float | None:
        """Objective minus the reference optimum; None without a readable report."""
        (_, text), _ = out
        try:
            return json.loads(text)["results"]["objective"] - item.optimum
        except (ValueError, KeyError, TypeError):
            return None

    def check(self, item: BatteryItem, out) -> list[str]:
        (solve_code, solve_text), (cert_code, cert_text) = out
        problems = []
        if solve_code != 0:
            problems.append(f"solve exit code {solve_code}")
        if cert_code != 0:
            problems.append(f"certify exit code {cert_code}")
        try:
            solved = json.loads(solve_text)["results"]
            certified = json.loads(cert_text)["results"]
        except (ValueError, KeyError) as exc:
            return problems + [f"unreadable report: {exc!r}"]
        if solved.get("feasible") is not True:
            problems.append("solve reported infeasible")
        gap = solved["objective"] - item.optimum
        if not self.GAP_FLOOR <= gap <= self.GAP_TOL:
            problems.append(f"objective {solved['objective']!r} off optimum by {gap!r}")
        if certified.get("accepted") is not True:
            problems.append(f"certificate rejected (residual {certified.get('residual')!r})")
        return problems


# --------------------------------------------------------------------------
# wide: many weighted scenarios through the library API
# --------------------------------------------------------------------------


class Wide:
    """Generated problems with hundreds to low thousands of scenarios."""

    name = "wide"
    POOL = 40
    SIZES = (150, 1500)
    SMOKE_POOL = 4
    SMOKE_SIZES = (12, 40)
    PIECES = 4
    ITERS = 10
    # Bounds certify's Frank-Wolfe loop; at these points it stops after one
    # or two iterations, the cap only guards the run time.
    CERT_ITERS = 50
    MARGIN = 0.05
    TOL = 1e-9
    TRACE_REQUESTS = 6

    def build(self, seed: int, smoke: bool, count: int | None = None) -> Inputs:
        pool, (lo, hi) = (self.SMOKE_POOL, self.SMOKE_SIZES) if smoke else (
            self.POOL, self.SIZES)
        sizes = spread_sizes(pool if count is None else count, lo, hi)
        digest = Digest()
        items = [self._problem(seed, i, n, digest) for i, n in enumerate(sizes)]
        return Inputs(items, digest.hexdigest(), sizes=sizes)

    def _problem(self, seed: int, i: int, n: int, digest: Digest):
        rng = np.random.default_rng([seed, i])
        dim = 3 + i % 2
        w = rng.random(n) + 0.05
        probs = w / w.sum()
        space = rc.ProbSpace(probs)

        def integrand(curvature):
            slopes = rng.normal(0.0, 1.0, (n, self.PIECES, dim))
            offsets = rng.normal(0.0, 1.0, (n, self.PIECES))
            digest.add(slopes, offsets)
            return rc.MaxAffineIntegrand(
                space, tuple(slopes), tuple(offsets), curvature
            )

        F = integrand(rc.Curvature.CONVEX)
        G = integrand(rc.Curvature.CONCAVE)
        # Benchmark below G at a seeded interior point and at the box centre
        # (where the solver starts), so a strictly feasible point exists and
        # every solve reports a feasible iterate.
        x0 = rng.uniform(-0.8, 0.8, dim)
        g0 = rc.evaluate(G, rc.deterministic(x0)).values
        gc = rc.evaluate(G, rc.deterministic(np.zeros(dim))).values
        Y = rc.RandomVariable(space, np.minimum(g0, gc) - self.MARGIN)
        # The cost-shaping choices (level count, grid, blocks) follow the
        # index, so that the seed moves values and not the work per request.
        alpha = 0.2 + 0.4 * ((i * SQRT2) % 1.0)
        grid = np.linspace(alpha, 1.0, 4 + (i // 3) % 2)
        grid[-1] = 1.0
        constraint = rc.DominanceConstraint(Y, alpha, 1.0, tuple(grid))
        levels = np.sort(rng.uniform(0.05, 0.95, 3))
        weights = rng.dirichlet(np.ones(3))
        weights[-1] = 1.0 - weights[:-1].sum()
        risk = rc.SpectralMeasure(
            tuple(levels), tuple(weights), rc.Orientation.UPPER
        )
        partition = None
        if (i // 2) % 2 == 1:
            blocks = 2 + i % 3
            label = rng.integers(0, blocks, n)
            label[:blocks] = np.arange(blocks)
            partition = rc.InfoPartition(
                space,
                tuple(tuple(np.nonzero(label == b)[0]) for b in range(blocks)),
            )
            digest.add(label)
        digest.add(probs, x0, grid, levels, weights)
        return rc.ProblemSpec(
            space, risk, F, G, constraint, -np.ones(dim), np.ones(dim), partition
        )

    def request(self, spec):
        sol = rc.solve(spec, rc.SolveOptions(iters=self.ITERS))
        cert = rc.certify(spec, sol.x_hat, max_iters=self.CERT_ITERS)
        return sol, cert

    def check(self, spec, out) -> list[str]:
        sol, cert = out
        problems = []
        if not sol.feasible:
            problems.append("solve reported infeasible")
        flat = sol.x_hat.vectors
        if np.any(flat < spec.box_lower) or np.any(flat > spec.box_upper):
            problems.append("solution leaves the box")
        G = spec.constraint_integrand
        levels = spec.constraint.augmented_levels(rc.evaluate(G, sol.x_hat))
        rho = rc.constraint_values_at(G, sol.x_hat, spec.constraint, levels)
        violation = float(np.max(rho))
        if abs(violation - sol.max_violation) > self.TOL:
            problems.append(
                f"max_violation {sol.max_violation!r}, recomputed {violation!r}"
            )
        if sol.feasible and violation > rc.SolveOptions.tol_feas:
            problems.append(f"feasible point violates the constraint by {violation!r}")
        objective = rc.composite_value(spec.risk, spec.objective, sol.x_hat)
        if abs(objective - sol.objective_value) > self.TOL * max(1.0, abs(objective)):
            problems.append(
                f"objective {sol.objective_value!r}, recomputed {objective!r}"
            )
        if not (math.isfinite(cert.residual) and cert.residual >= 0.0):
            problems.append(f"certificate residual {cert.residual!r}")
        if not 1 <= cert.iterations <= self.CERT_ITERS:
            problems.append(f"certificate ran {cert.iterations} iterations")
        return problems


# --------------------------------------------------------------------------
# dominance: exact first- and second-order verdicts with margins
# --------------------------------------------------------------------------


@dataclass
class DominanceItem:
    x_values: np.ndarray
    x_probs: np.ndarray
    y_values: np.ndarray
    y_probs: np.ndarray
    dominates: bool


def merged_points(x_values, x_probs, y_values, y_probs) -> int:
    """Merged atoms plus merged cumulative breakpoints of the exact routes.

    Counted in exact rationals with each side's mass renormalized to one,
    the way the exact dominance routes see the two distributions.
    """
    atoms = {Fraction(float(v)) for v in np.concatenate([x_values, y_values])}
    breakpoints = set()
    for values, probs in ((x_values, x_probs), (y_values, y_probs)):
        exact = [Fraction(float(p)) for p in probs]
        total = sum(exact)
        acc = Fraction(0)
        for _, p in sorted(zip((Fraction(float(v)) for v in values), exact)):
            acc += p / total
            breakpoints.add(acc)
    return len(atoms) + len(breakpoints)


class Dominance:
    """Pairs (X, Y) of tens to a few hundred atoms, on a value lattice."""

    name = "dominance"
    # Larger than one run consumes, so a run sees a prefix of the stream.
    POOL = 240
    SIZES = (16, 160)
    SMOKE_POOL = 6
    SMOKE_SIZES = (6, 20)
    LATTICE = 0.125
    # (weighted, which side has every atom split in two halves)
    FAMILIES = ((False, None), (False, "x"), (True, None), (True, "y"))
    MARGIN_TOL = 1e-9
    TRACE_REQUESTS = 12

    def build(self, seed: int, smoke: bool, count: int | None = None) -> Inputs:
        pool, (lo, hi) = (self.SMOKE_POOL, self.SMOKE_SIZES) if smoke else (
            self.POOL, self.SIZES)
        sizes = spread_sizes(pool if count is None else count, lo, hi)
        digest = Digest()
        items = []
        for i, n in enumerate(sizes):
            item = self._pair(seed, i, n)
            digest.add(item.x_values, item.x_probs, item.y_values, item.y_probs)
            items.append(item)
        return Inputs(items, digest.hexdigest(), sizes=sizes)

    def _pair(self, seed: int, i: int, n: int) -> DominanceItem:
        rng = np.random.default_rng([seed, i])
        weighted, split = self.FAMILIES[i % len(self.FAMILIES)]
        # Two pairs in three dominate.  Dominating pairs scan both exact
        # routes in full while the others stop at the first atom, so with an
        # even split the median request would sit between the two modes.
        dominates = i % 3 != 2
        values = np.round(rng.uniform(-4.0, 4.0, n) / self.LATTICE) * self.LATTICE
        if weighted:
            # Positive integer weights summing to a power of two: every
            # probability and every partial sum is exact in floating point,
            # so ProbSpace's renormalization cannot break an exact tie.
            total = 2 ** (int(n).bit_length() + 3)
            cuts = np.sort(rng.choice(np.arange(1, total), n - 1, replace=False))
            probs = np.diff(np.concatenate([[0], cuts, [total]])) / total
        else:
            probs = np.full(n, 1.0 / n)
        shift = self.LATTICE * (1 + (i // len(self.FAMILIES)) % 4)
        x_values = values + shift if dominates else values - shift
        sides = {"x": [x_values, probs], "y": [values, probs]}
        if split is not None:
            # Halving a float is exact, so the split side carries exactly the
            # same distribution on twice as many scenarios.
            v, p = sides[split]
            sides[split] = [np.repeat(v, 2), np.repeat(p / 2.0, 2)]
        for side in sides.values():
            perm = rng.permutation(side[0].size)
            side[0], side[1] = side[0][perm], side[1][perm]
        (xv, xp), (yv, yp) = sides["x"], sides["y"]
        return DominanceItem(xv, xp, yv, yp, dominates)

    def request(self, item: DominanceItem):
        """What ``riskcalc dominance --compare`` computes, for any two spaces."""
        X = rc.RandomVariable(rc.ProbSpace(item.x_probs), item.x_values)
        Y = rc.RandomVariable(rc.ProbSpace(item.y_probs), item.y_values)
        first = rc.dominates_first_order(X, Y)
        second = rc.dominates_second_order(X, Y)
        atoms = np.unique(np.concatenate([X.values, Y.values]))
        first_margin = min(rc.cdf(Y, float(a)) - rc.cdf(X, float(a)) for a in atoms)
        bps = np.unique(
            np.concatenate([rc.lorenz_breakpoints(X), rc.lorenz_breakpoints(Y)])
        )
        second_margin = min(rc.lorenz(X, float(p)) - rc.lorenz(Y, float(p)) for p in bps)
        return first, second, first_margin, second_margin

    def check(self, item: DominanceItem, out) -> list[str]:
        first, second, first_margin, second_margin = out
        problems = []
        if first is not item.dominates:
            problems.append(f"first-order verdict {first}, built {item.dominates}")
        if second is not item.dominates:
            problems.append(f"second-order verdict {second}, built {item.dominates}")
        if (first_margin >= -self.MARGIN_TOL) is not item.dominates:
            problems.append(f"first-order margin {first_margin!r} against the verdict")
        if (second_margin >= -self.MARGIN_TOL) is not item.dominates:
            problems.append(f"second-order margin {second_margin!r} against the verdict")
        return problems


WORKLOADS = {w.name: w for w in (Battery(), Wide(), Dominance())}
