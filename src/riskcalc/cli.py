"""Problem-file ingestion, the ``riskcalc`` command line, and reports.

Problem files and reports share one JSON-compatible textual format.  Floats
are serialized with 17 significant digits so every double round-trips
exactly; reports are byte-identical across runs apart from the timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .dominance import (
    DominanceConstraint,
    dominates_first_order,
    dominates_second_order,
)
from .errors import InvariantViolation, ProblemFormatError, RiskcalcError
from .integrands import (
    Curvature,
    DecisionPoint,
    MaxAffineIntegrand,
    differential_quotient,
    directional_derivative,
    evaluate,
)
from .quantiles import (
    _lorenz_at,
    cdf,
    integrated_cdf,
    lorenz,
    lorenz_breakpoints,
    lorenz_conjugate,
    quantile,
)
from .risk import (
    Orientation,
    SpectralMeasure,
    avar_identifier,
    avar_lower,
    avar_upper,
)
from .scenario import (
    InfoPartition,
    ProbSpace,
    RandomVariable,
    _running_sum,
    _sum_ascending,
    equiprobable,
    expectation,
)
from .composite import composite_subgradient, composite_value
from .solver import (
    _OPTION_RULES,
    CERT_TOL,
    TOL_FEAS,
    ProblemSpec,
    SolveOptions,
    certify,
    solve,
)

PROB_FILE_SUM_TOL = 1e-12


# --------------------------------------------------------------------------
# Report serialization: deterministic layout, 17-significant-digit floats.
# --------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _plain(obj):
    """Normalize numpy containers/scalars to built-in types."""
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dumps_report(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {dumps_report(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --------------------------------------------------------------------------
# Problem files
# --------------------------------------------------------------------------


def _fail(code: str, path: str, message: str):
    raise ProblemFormatError(code, path, message)


def _get_section(doc: dict, key: str) -> dict:
    if key not in doc:
        _fail("E_SECTION", key, "missing section")
    sec = doc[key]
    if not isinstance(sec, dict):
        _fail("E_TYPE", key, "section must be an object")
    return sec


def _float_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        _fail("E_TYPE", path, "expected a nonempty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail("E_TYPE", f"{path}[{i}]", "expected a number")
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            _fail("E_VALUE", f"{path}[{i}]", "value must be finite")
        out.append(v)
    return out


def _parse_space(doc: dict) -> ProbSpace:
    sec = _get_section(doc, "space")
    probs = _float_list(sec.get("probs"), "space.probs")
    for i, p in enumerate(probs):
        if p <= 0.0:
            _fail("E_PROB_POSITIVE", f"space.probs[{i}]", "probabilities must be positive")
    total = _sum_ascending(probs)
    if abs(total - 1.0) > PROB_FILE_SUM_TOL:
        _fail("E_PROB_SUM", "space.probs", f"probabilities sum to {total!r}, not 1")
    labels = sec.get("labels", [])
    if labels and (
        not isinstance(labels, list)
        or len(labels) != len(probs)
        or any(not isinstance(s, str) for s in labels)
    ):
        _fail("E_TYPE", "space.labels", "labels must be one string per scenario")
    return ProbSpace(np.array(probs), tuple(labels))


def _parse_partition(doc: dict, space: ProbSpace) -> InfoPartition | None:
    if "partition" not in doc:
        return None
    sec = _get_section(doc, "partition")
    blocks = sec.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        _fail("E_TYPE", "partition.blocks", "expected a nonempty list of index lists")
    clean = []
    for j, b in enumerate(blocks):
        if not isinstance(b, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in b
        ):
            _fail("E_TYPE", f"partition.blocks[{j}]", "expected a list of integers")
        clean.append(tuple(b))
    try:
        return InfoPartition(space, tuple(clean))
    except RiskcalcError as exc:
        _fail("E_PARTITION", "partition.blocks", str(exc))


def _parse_risk(sec, path: str) -> SpectralMeasure:
    if not isinstance(sec, dict):
        _fail("E_TYPE", path, "risk must be an object")
    kind = sec.get("kind")
    try:
        if kind == "expectation":
            return SpectralMeasure.expectation()
        if kind == "avar":
            level = sec.get("level")
            if isinstance(level, bool) or not isinstance(level, (int, float)):
                _fail("E_TYPE", f"{path}.level", "expected a number")
            return SpectralMeasure.single_avar(float(level))
        if kind == "spectral":
            levels = _float_list(sec.get("levels"), f"{path}.levels")
            weights = _float_list(sec.get("weights"), f"{path}.weights")
            return SpectralMeasure(tuple(levels), tuple(weights), Orientation.UPPER)
    except ProblemFormatError:
        raise
    except RiskcalcError as exc:
        _fail("E_RISK", path, str(exc))
    _fail("E_RISK", f"{path}.kind", f"unknown risk kind {kind!r}")


def _parse_integrand(
    value, path: str, space: ProbSpace, curvature: Curvature
) -> MaxAffineIntegrand:
    if not isinstance(value, list):
        _fail("E_TYPE", path, "integrand must be a list of per-scenario piece lists")
    if len(value) != space.size:
        _fail(
            "E_DIMENSION",
            path,
            f"integrand has {len(value)} scenario entries for {space.size} scenarios",
        )
    slopes, offsets = [], []
    dim = None
    for k, pieces in enumerate(value):
        if not isinstance(pieces, list) or not pieces:
            _fail("E_PIECES", f"{path}[{k}]", "each scenario needs at least one piece")
        A, b = [], []
        for j, piece in enumerate(pieces):
            if not isinstance(piece, dict) or "a" not in piece or "b" not in piece:
                _fail("E_PIECES", f"{path}[{k}][{j}]", 'each piece needs "a" and "b"')
            a = _float_list(piece["a"], f"{path}[{k}][{j}].a")
            if dim is None:
                dim = len(a)
            elif len(a) != dim:
                _fail(
                    "E_DIMENSION",
                    f"{path}[{k}][{j}].a",
                    f"expected {dim} coordinates, got {len(a)}",
                )
            bj = piece["b"]
            if isinstance(bj, bool) or not isinstance(bj, (int, float)):
                _fail("E_TYPE", f"{path}[{k}][{j}].b", "expected a number")
            A.append(a)
            b.append(float(bj))
        slopes.append(np.array(A))
        offsets.append(np.array(b))
    try:
        return MaxAffineIntegrand(space, tuple(slopes), tuple(offsets), curvature)
    except RiskcalcError as exc:
        _fail("E_PIECES", path, str(exc))


def _parse_constraint(doc: dict, space: ProbSpace):
    sec = _get_section(doc, "constraint")
    integrand = _parse_integrand(
        sec.get("integrand"), "constraint.integrand", space, Curvature.CONCAVE
    )
    bench = _float_list(sec.get("benchmark"), "constraint.benchmark")
    if len(bench) != space.size:
        _fail(
            "E_BENCHMARK",
            "constraint.benchmark",
            f"benchmark has {len(bench)} values for {space.size} scenarios",
        )
    interval = sec.get("interval")
    if (
        not isinstance(interval, list)
        or len(interval) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in interval)
    ):
        _fail("E_INTERVAL", "constraint.interval", "expected [alpha, beta]")
    alpha, beta = float(interval[0]), float(interval[1])
    if not (0.0 <= alpha <= beta <= 1.0) or (alpha == 0.0 and beta < 1.0):
        _fail(
            "E_INTERVAL",
            "constraint.interval",
            "need 0 <= alpha <= beta <= 1, with alpha = 0 only when beta = 1",
        )
    grid = _float_list(sec.get("grid"), "constraint.grid")
    for i, p in enumerate(grid):
        if not (0.0 < p <= 1.0):
            _fail("E_GRID_DOMAIN", f"constraint.grid[{i}]", "grid levels must lie in (0, 1]")
        if p < alpha or p > beta:
            _fail(
                "E_GRID_DOMAIN",
                f"constraint.grid[{i}]",
                "grid levels must lie inside [alpha, beta]",
            )
    if any(q <= p for p, q in zip(grid, grid[1:])):
        _fail("E_GRID_ORDER", "constraint.grid", "grid levels must be strictly increasing")
    Y = RandomVariable(space, np.array(bench))
    try:
        constraint = DominanceConstraint(Y, alpha, beta, tuple(grid))
    except RiskcalcError as exc:
        _fail("E_GRID_DOMAIN", "constraint.grid", str(exc))
    return integrand, constraint


def _parse_box(doc: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    sec = _get_section(doc, "feasible_box")
    lo = _float_list(sec.get("lower"), "feasible_box.lower")
    hi = _float_list(sec.get("upper"), "feasible_box.upper")
    if len(lo) != dim or len(hi) != dim:
        _fail(
            "E_DIMENSION",
            "feasible_box",
            f"box bounds need {dim} coordinates per side",
        )
    if any(a > b for a, b in zip(lo, hi)):
        _fail("E_BOX", "feasible_box", "lower bounds must not exceed upper bounds")
    return np.array(lo), np.array(hi)


def _parse_solver_options(doc: dict) -> SolveOptions:
    if "solver" not in doc:
        return SolveOptions()
    sec = _get_section(doc, "solver")
    for name, (valid, rule) in _OPTION_RULES.items():
        if name in sec and not valid(sec[name]):
            _fail("E_TYPE", f"solver.{name}", f"expected {rule}")
    gamma0 = sec.get("gamma0")
    return SolveOptions(
        iters=sec.get("iters", SolveOptions.iters),
        gamma0=None if gamma0 is None else float(gamma0),
        tol_feas=float(sec.get("tol_feas", SolveOptions.tol_feas)),
    )


def _parse_meta(doc: dict) -> dict:
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        _fail("E_TYPE", "meta", "meta must be an object")
    out = {}
    for key in ("slater_point", "perturb_direction", "x_hat"):
        if key in meta:
            out[key] = _float_list(meta[key], f"meta.{key}")
    if "notes" in meta:
        if not isinstance(meta["notes"], str):
            _fail("E_TYPE", "meta.notes", "notes must be a string")
        out["notes"] = meta["notes"]
    return out


class LoadedProblem:
    """A parsed problem file: the spec plus file-level extras."""

    def __init__(self, spec, options, meta, digest, name):
        self.spec = spec
        self.options = options
        self.meta = meta
        self.digest = digest
        self.name = name


def load_problem(path: str) -> LoadedProblem:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail("E_IO", path, str(exc))
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail("E_JSON", path, str(exc))
    if not isinstance(doc, dict):
        _fail("E_TYPE", "<document>", "top level must be an object")
    space = _parse_space(doc)
    partition = _parse_partition(doc, space)
    objective_sec = _get_section(doc, "objective")
    risk = _parse_risk(objective_sec.get("risk"), "objective.risk")
    objective = _parse_integrand(
        objective_sec.get("integrand"), "objective.integrand", space, Curvature.CONVEX
    )
    constraint_integrand, constraint = _parse_constraint(doc, space)
    lo, hi = _parse_box(doc, objective.dim)
    options = _parse_solver_options(doc)
    meta = _parse_meta(doc)
    name = doc.get("name", "")
    if not isinstance(name, str):
        _fail("E_TYPE", "name", "name must be a string")
    try:
        spec = ProblemSpec(
            space=space,
            risk=risk,
            objective=objective,
            constraint_integrand=constraint_integrand,
            constraint=constraint,
            box_lower=lo,
            box_upper=hi,
            partition=partition,
            name=name,
        )
    except RiskcalcError as exc:
        _fail("E_DIMENSION", "<document>", str(exc))
    return LoadedProblem(spec, options, meta, digest, name)


def parse_problem(path: str) -> ProblemSpec:
    """Parse and fully validate a problem file; raises ProblemFormatError
    with a stable code and field path on any defect."""
    return load_problem(path).spec


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _point_value(text: str, path: str) -> float:
    body = text.split("=", 1)[1] if "=" in text else text
    try:
        return float(body)
    except ValueError:
        _fail("E_USAGE", path, f"cannot parse number from {text!r}")


def _decision_from_flat(problem: ProblemSpec, values: list[float], path: str) -> DecisionPoint:
    if len(values) != problem.stacked_dim:
        _fail(
            "E_DIMENSION",
            path,
            f"expected {problem.stacked_dim} coordinates, got {len(values)}",
        )
    rows = np.array(values).reshape(problem.num_blocks, problem.dim)
    return problem.decision(rows)


def _cmd_eval(args, loaded: LoadedProblem) -> tuple[int, dict]:
    Y = loaded.spec.constraint.benchmark
    results = {
        "benchmark": {
            "size": Y.space.size,
            "mean": expectation(Y),
            "min": float(np.min(Y.values)),
            "max": float(np.max(Y.values)),
        }
    }
    if args.cdf:
        results["cdf"] = [
            {"eta": v, "value": cdf(Y, v)}
            for v in (_point_value(t, "--cdf") for t in args.cdf)
        ]
    if args.quantile:
        results["quantile"] = [
            {"p": v, "value": quantile(Y, v)}
            for v in (_point_value(t, "--quantile") for t in args.quantile)
        ]
    if args.integrated:
        results["integrated_cdf"] = [
            {"eta": v, "value": integrated_cdf(Y, v)}
            for v in (_point_value(t, "--integrated") for t in args.integrated)
        ]
    if args.lorenz:
        results["lorenz"] = [
            {"p": v, "value": lorenz(Y, v)}
            for v in (_point_value(t, "--lorenz") for t in args.lorenz)
        ]
    if args.avar:
        results["avar"] = [
            {"level": v, "lower": avar_lower(Y, v), "upper": avar_upper(Y, v)}
            for v in (_point_value(t, "--avar") for t in args.avar)
        ]
    return 0, results


def _cmd_dominance(args, loaded: LoadedProblem) -> tuple[int, dict]:
    Y = loaded.spec.constraint.benchmark
    if args.compare:
        values = [
            _point_value(t, "--compare") for t in args.compare.split(",") if t.strip()
        ]
        if len(values) != Y.space.size:
            _fail(
                "E_DIMENSION",
                "--compare",
                f"expected {Y.space.size} values, got {len(values)}",
            )
        X = RandomVariable(Y.space, np.array(values))
    else:
        X = Y
    atoms = np.unique(np.concatenate([X.values, Y.values]))
    fo_margin = min(cdf(Y, float(a)) - cdf(X, float(a)) for a in atoms)
    bps = np.unique(np.concatenate([lorenz_breakpoints(X), lorenz_breakpoints(Y)]))
    so_margin = min((_lorenz_at(X, bps) - _lorenz_at(Y, bps)).tolist())
    results = {
        "first_order": dominates_first_order(X, Y),
        "second_order": dominates_second_order(X, Y),
        "first_order_margin": fo_margin,
        "second_order_margin": so_margin,
    }
    return 0, results


def _solution_dict(sol) -> dict:
    return {
        "x_hat": _plain(sol.x_hat.vectors),
        "objective": sol.objective_value,
        "max_violation": sol.max_violation,
        "feasible": sol.feasible,
        "iterations": sol.iterations,
        "trace": [[t, v] for t, v in sol.trace],
    }


def _cmd_solve(args, loaded: LoadedProblem) -> tuple[int, dict]:
    opts = loaded.options
    if args.iters is not None:
        opts = dataclasses.replace(opts, iters=args.iters)
    sol = solve(loaded.spec, opts)
    return (0 if sol.feasible else 1), _solution_dict(sol)


def _cmd_certify(args, loaded: LoadedProblem) -> tuple[int, dict]:
    problem = loaded.spec
    if args.x:
        values = [_point_value(t, "--x") for t in args.x.split(",") if t.strip()]
        x_hat = _decision_from_flat(problem, values, "--x")
        source = "flag"
    elif "x_hat" in loaded.meta:
        x_hat = _decision_from_flat(problem, loaded.meta["x_hat"], "meta.x_hat")
        source = "meta"
    else:
        opts = loaded.options
        if args.iters is not None:
            opts = dataclasses.replace(opts, iters=args.iters)
        sol = solve(problem, opts)
        x_hat = sol.x_hat
        source = "solve"
    tol = args.tol if args.tol is not None else CERT_TOL
    cert = certify(problem, x_hat, tol=tol)
    results = {
        "x_hat": _plain(x_hat.vectors),
        "x_source": source,
        "kappa": cert.kappa,
        "levels": list(cert.levels),
        "weights": list(cert.weights),
        "nu": [[p, w] for p, w in cert.nu],
        "residual": cert.residual,
        "c_gap": cert.c_gap,
        "accepted": cert.accepted,
        "fw_gap": cert.fw_gap,
        "fw_iterations": cert.iterations,
    }
    return (0 if cert.accepted else 1), results


def _selftest_checks(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 30))
        w = rng.random(n) + 0.05
        sp = ProbSpace(w / w.sum())
        Z = RandomVariable(sp, rng.uniform(-10.0, 10.0, n))
        for p in np.linspace(0.0, 1.0, 21):
            worst = max(worst, abs(lorenz(Z, float(p)) - lorenz_conjugate(Z, float(p))))
    checks.append(
        {"name": "lorenz_conjugate_pairing", "passed": worst <= 1e-9, "worst": worst}
    )

    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 12))
        sp = equiprobable(n)
        X = RandomVariable(sp, np.round(rng.uniform(-3.0, 3.0, n), 2))
        Yv = RandomVariable(sp, np.round(rng.uniform(-3.0, 3.0, n), 2))
        fo = dominates_first_order(X, Yv)
        so = dominates_second_order(X, Yv)
        if fo and not so:
            ok = False
    checks.append({"name": "dominance_order_implication", "passed": ok, "worst": 0.0})

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 15))
        w = rng.random(n) + 0.1
        sp = ProbSpace(w / w.sum())
        Z = RandomVariable(sp, rng.normal(0.0, 2.0, n))
        p = float(rng.uniform(0.05, 1.0))
        ident = avar_identifier(Z, p, Orientation.LOWER)
        z = ident.zeta
        worst = max(
            worst,
            float(max(0.0, np.max(z) - 1.0 / p)),
            float(max(0.0, -np.min(z))),
            abs(_running_sum(sp.probs * z) - 1.0),
            abs(_running_sum(sp.probs * z * Z.values) - lorenz(Z, p) / p),
        )
    checks.append(
        {"name": "avar_identifier_feasibility", "passed": worst <= 1e-10, "worst": worst}
    )

    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 8))
        sp = equiprobable(n)
        dim = int(rng.integers(1, 3))
        slopes = tuple(rng.normal(0.0, 1.0, (int(rng.integers(1, 4)), dim)) for _ in range(n))
        offsets = tuple(rng.normal(0.0, 1.0, s.shape[0]) for s in slopes)
        F = MaxAffineIntegrand(sp, slopes, offsets, Curvature.CONVEX)
        risk = SpectralMeasure.single_avar(0.3)
        x = DecisionPoint(rng.normal(0.0, 1.0, dim))
        g = composite_subgradient(risk, F, x)
        base = composite_value(risk, F, x)
        for _ in range(50):
            y = DecisionPoint(rng.normal(0.0, 1.0, dim))
            gap = composite_value(risk, F, y) - base - g.pair(
                DecisionPoint(y.vectors - x.vectors)
            )
            worst = max(worst, -gap)
    checks.append(
        {"name": "composite_subgradient_inequality", "passed": worst <= 1e-10, "worst": worst}
    )

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        sp = equiprobable(n)
        dim = int(rng.integers(1, 3))
        slopes = tuple(rng.normal(0.0, 1.0, (int(rng.integers(1, 4)), dim)) for _ in range(n))
        offsets = tuple(rng.normal(0.0, 1.0, s.shape[0]) for s in slopes)
        F = MaxAffineIntegrand(sp, slopes, offsets, Curvature.CONVEX)
        x = DecisionPoint(rng.normal(0.0, 1.0, dim))
        h = DecisionPoint(rng.normal(0.0, 1.0, dim))
        t1, t2 = sorted(rng.uniform(0.01, 2.0, 2))
        if t1 == t2:
            continue
        q1 = differential_quotient(F, x, h, float(t1))
        q2 = differential_quotient(F, x, h, float(t2))
        d0 = directional_derivative(F, x, h)
        worst = max(
            worst,
            float(np.max(q1.values - q2.values)),
            float(np.max(d0.values - q1.values)),
        )
    checks.append(
        {"name": "quotient_monotone_sandwich", "passed": worst <= 1e-12, "worst": worst}
    )
    return checks


def _cmd_selftest(args, loaded) -> tuple[int, dict]:
    seed = args.seed if args.seed is not None else 0
    checks = _selftest_checks(seed)
    all_passed = all(c["passed"] for c in checks)
    return (0 if all_passed else 1), {
        "seed": seed,
        "checks": checks,
        "all_passed": all_passed,
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not change the parser.
    parser = argparse.ArgumentParser(
        prog="riskcalc",
        description="Scenario-based risk optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_problem: bool):
        p.add_argument("--problem", required=needs_problem, help="problem file (JSON)")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--tol", type=float, help="certification tolerance")
        p.add_argument("--iters", type=int, help="iteration budget override")
        p.add_argument("--seed", type=int, help="seed for the selftest suites")

    p_eval = sub.add_parser("eval", help="evaluate distribution functions of the benchmark")
    common(p_eval, True)
    p_eval.add_argument("--cdf", action="append", help="eta value, e.g. eta=1.5")
    p_eval.add_argument("--quantile", action="append", help="probability level, e.g. p=0.5")
    p_eval.add_argument("--integrated", action="append", help="eta value")
    p_eval.add_argument("--lorenz", action="append", help="probability level, e.g. p=0.5")
    p_eval.add_argument("--avar", action="append", help="probability level")

    p_dom = sub.add_parser("dominance", help="stochastic dominance verdicts and margins")
    common(p_dom, True)
    p_dom.add_argument("--compare", help="comma-separated values to compare against the benchmark")

    p_solve = sub.add_parser("solve", help="solve the problem")
    common(p_solve, True)

    p_cert = sub.add_parser("certify", help="certify a candidate optimum")
    common(p_cert, True)
    p_cert.add_argument("--x", help="comma-separated decision coordinates (stacked blocks)")

    p_self = sub.add_parser("selftest", help="run reduced property suites")
    common(p_self, False)
    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "dominance": _cmd_dominance,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "selftest": _cmd_selftest,
}


def run_command(argv: list[str]) -> int:
    """Dispatch one CLI invocation; writes the report, returns the exit code.

    0: success; 1: infeasible, uncertified, or failed selftest; 2: unusable
    input (bad file, bad flags, domain errors); 3: internal invariant
    violation (a bug, reported as ``E_INVARIANT: <message>`` on stderr) or
    any other unexpected exception (a bug, reported as
    ``E_INTERNAL: <ExceptionType>: <message>`` on stderr).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        loaded = load_problem(args.problem) if args.problem else None
        if args.command != "selftest" and loaded is None:
            _fail("E_USAGE", "--problem", "this command needs a problem file")
        code, results = _HANDLERS[args.command](args, loaded)
    except ProblemFormatError as exc:
        print(f"{exc.code} at {exc.path}: {exc.detail}", file=sys.stderr)
        return 2
    except RiskcalcError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InvariantViolation) else 2
    except Exception as exc:
        print(f"E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {
            "problem_digest": loaded.digest if loaded else None,
            "argv": list(argv),
        },
        "tolerances": {
            "tol": args.tol if args.tol is not None else CERT_TOL,
            "tol_feas": loaded.options.tol_feas if loaded else TOL_FEAS,
        },
        "results": _plain(results),
    }
    text = dumps_report(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
