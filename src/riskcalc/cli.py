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
from .dominance import DominanceConstraint, _first_order, _gaps, _second_order
from .errors import DomainError, InvariantViolation, ProblemFormatError, RiskcalcError
from .integrands import Curvature, DecisionPoint, MaxAffineIntegrand
from .quantiles import cdf, integrated_cdf, lorenz, quantile
from .risk import Orientation, SpectralMeasure, avar_lower, avar_upper
from .scenario import (
    PROB_SUM_TOL,
    InfoPartition,
    ProbSpace,
    RandomVariable,
    _running_sum,
    expectation,
)
from .solver import (
    _OPTION_RULES,
    CERT_TOL,
    ProblemSpec,
    SolveOptions,
    certify,
    solve,
)

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


def dumps_report(obj, indent: int = 0) -> str:
    """``obj`` as report text; numpy arrays and scalars print as the
    built-in lists and numbers they hold."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
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

# The keys a problem file may hold: those of each top-level section ("meta"
# is free-form, "name" a string), of each risk kind and of each piece.  Any
# other key exits 2: E_SECTION at a top-level key, E_TYPE at its path below.
_KEYS = {
    "space": ("probs", "labels"),
    "partition": ("blocks",),
    "objective": ("risk", "integrand"),
    "constraint": ("integrand", "benchmark", "interval", "grid"),
    "feasible_box": ("lower", "upper"),
    "solver": tuple(_OPTION_RULES),
    "meta": None,
    "name": None,
}
_RISK_KEYS = {
    "expectation": ("kind",),
    "avar": ("kind", "level"),
    "spectral": ("kind", "levels", "weights"),
}
_PIECE_KEYS = ("a", "b")


def _fail(code: str, path: str, message: str):
    raise ProblemFormatError(code, path, message)


def _check_keys(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            _fail("E_TYPE", f"{path}.{key}", "unknown key")


def _get_section(doc: dict, key: str) -> dict:
    if key not in doc:
        _fail("E_SECTION", key, "missing section")
    sec = doc[key]
    if not isinstance(sec, dict):
        _fail("E_TYPE", key, "section must be an object")
    _check_keys(sec, _KEYS[key], key)
    return sec


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail("E_TYPE", path, "expected a number")
    return float(value)


def _float_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        _fail("E_TYPE", path, "expected a nonempty list of numbers")
    out = []
    for i, v in enumerate(value):
        v = _number(v, f"{path}[{i}]")
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
    total = _running_sum(np.array(probs))
    if abs(total - 1.0) > PROB_SUM_TOL:
        _fail("E_PROB_SUM", "space.probs", f"probabilities sum to {total!r}, not 1")
    labels = sec.get("labels", [])
    if "labels" in sec and (
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
    if not isinstance(kind, str) or kind not in _RISK_KEYS:
        _fail("E_RISK", f"{path}.kind", f"unknown risk kind {kind!r}")
    _check_keys(sec, _RISK_KEYS[kind], path)
    try:
        if kind == "expectation":
            return SpectralMeasure.expectation()
        if kind == "avar":
            return SpectralMeasure.single_avar(_number(sec.get("level"), f"{path}.level"))
        levels = _float_list(sec.get("levels"), f"{path}.levels")
        weights = _float_list(sec.get("weights"), f"{path}.weights")
        return SpectralMeasure(tuple(levels), tuple(weights), Orientation.UPPER)
    except ProblemFormatError:
        raise
    except RiskcalcError as exc:
        _fail("E_RISK", path, str(exc))


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
            at = f"{path}[{k}][{j}]"
            if not isinstance(piece, dict) or "a" not in piece or "b" not in piece:
                _fail("E_PIECES", at, 'each piece needs "a" and "b"')
            _check_keys(piece, _PIECE_KEYS, at)
            a = _float_list(piece["a"], f"{at}.a")
            if dim is None:
                dim = len(a)
            elif len(a) != dim:
                _fail("E_DIMENSION", f"{at}.a", f"expected {dim} coordinates, got {len(a)}")
            A.append(a)
            b.append(_number(piece["b"], f"{at}.b"))
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
    # DominanceConstraint makes the interval and grid checks below too, but
    # its exceptions name neither the code nor the offending level.
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
        if p <= 0.0 or not alpha <= p <= beta:
            _fail(
                "E_GRID_DOMAIN",
                f"constraint.grid[{i}]",
                "grid levels must lie in (0, 1] and inside [alpha, beta]",
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
    for key in doc:
        if key not in _KEYS:
            _fail("E_SECTION", key, "unknown section")
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
    except DomainError as exc:
        # the bounds are finite here, so what ProblemSpec rejects is their order
        _fail("E_BOX", "feasible_box", str(exc))
    except RiskcalcError as exc:
        _fail("E_DIMENSION", "<document>", str(exc))
    return LoadedProblem(spec, options, meta, digest, name)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _point_value(text: str, path: str) -> float:
    body = text.split("=", 1)[1] if "=" in text else text
    try:
        return float(body)
    except ValueError:
        _fail("E_USAGE", path, f"cannot parse number from {text!r}")


def _point_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of ``flag``; an empty entry is an error."""
    return [_point_value(t, flag) for t in text.split(",")]


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
    if args.compare is not None:
        values = _point_list(args.compare, "--compare")
        if len(values) != Y.space.size:
            _fail(
                "E_DIMENSION",
                "--compare",
                f"expected {Y.space.size} values, got {len(values)}",
            )
        X = RandomVariable(Y.space, np.array(values))
    else:
        X = Y
    gaps = _gaps(X, Y)
    first, first_margin = _first_order(gaps)
    second, second_margin = _second_order(gaps)
    results = {
        "first_order": first,
        "second_order": second,
        "first_order_margin": first_margin,
        "second_order_margin": second_margin,
    }
    return 0, results


def _solution_dict(sol) -> dict:
    return {
        "x_hat": sol.x_hat.vectors,
        "objective": sol.objective_value,
        "max_violation": sol.max_violation,
        "feasible": sol.feasible,
        "iterations": sol.iterations,
        "trace": [[t, v] for t, v in sol.trace],
        "gap_bound": sol.gap_bound,
    }


def _solve_options(args, loaded: LoadedProblem) -> SolveOptions:
    """The file's solver options, with ``--iters`` as the budget if given."""
    opts = loaded.options
    return opts if args.iters is None else dataclasses.replace(opts, iters=args.iters)


def _cmd_solve(args, loaded: LoadedProblem) -> tuple[int, dict]:
    sol = solve(loaded.spec, _solve_options(args, loaded))
    return (0 if sol.feasible else 1), _solution_dict(sol)


def _cmd_certify(args, loaded: LoadedProblem) -> tuple[int, dict]:
    problem = loaded.spec
    if args.x is not None:
        x_hat = _decision_from_flat(problem, _point_list(args.x, "--x"), "--x")
        source = "flag"
    elif "x_hat" in loaded.meta:
        x_hat = _decision_from_flat(problem, loaded.meta["x_hat"], "meta.x_hat")
        source = "meta"
    else:
        x_hat = solve(problem, _solve_options(args, loaded)).x_hat
        source = "solve"
    cert = certify(problem, x_hat, tol=args.tol)
    results = {
        "x_hat": x_hat.vectors,
        "x_source": source,
        "kappa": cert.kappa,
        "levels": list(cert.levels),
        "weights": list(cert.weights),
        "nu": [[p, w] for p, w in cert.nu],
        "residual": cert.residual,
        "c_gap": cert.c_gap,
        "gap_bound": cert.gap_bound,
        "accepted": cert.accepted,
        "pricing_gap": cert.pricing_gap,
        "pricing_rounds": cert.iterations,
    }
    return (0 if cert.accepted else 1), results


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not change the parser.
    parser = argparse.ArgumentParser(
        prog="riskcalc",
        description="Scenario-based risk optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p_eval = command("eval", "evaluate distribution functions of the benchmark")
    p_eval.add_argument("--cdf", action="append", help="eta value, e.g. eta=1.5")
    p_eval.add_argument("--quantile", action="append", help="probability level, e.g. p=0.5")
    p_eval.add_argument("--integrated", action="append", help="eta value")
    p_eval.add_argument("--lorenz", action="append", help="probability level, e.g. p=0.5")
    p_eval.add_argument("--avar", action="append", help="probability level")

    p_dom = command("dominance", "stochastic dominance verdicts and margins")
    p_dom.add_argument("--compare", help="comma-separated values to compare against the benchmark")

    p_solve = command("solve", "solve the problem")
    p_cert = command("certify", "certify a candidate optimum")
    for p in (p_solve, p_cert):
        p.add_argument("--iters", type=int, help="override the file's iteration budget")
    p_cert.add_argument("--tol", type=float, default=CERT_TOL, help="certification tolerance")
    p_cert.add_argument("--x", help="comma-separated decision coordinates (stacked blocks)")
    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "dominance": _cmd_dominance,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
}


def run_command(argv: list[str]) -> int:
    """Dispatch one CLI invocation; writes the report, returns the exit code.

    Each subcommand reads the problem file named by ``--problem`` and takes
    only the flags it reads; argparse rejects an unknown subcommand, any
    other flag, or a missing ``--problem``, with exit 2.  Without ``--tol``
    the report's ``tolerances.tol`` shows CERT_TOL.

    0: success; 1: infeasible or uncertified; 2: unusable input (a bad
    file, including a key outside the problem-file key tables at any depth
    but inside ``meta``; bad flags; domain errors; an ``--out`` that cannot
    be written, ``E_IO at --out``), reported as ``<code> at <path>:
    <message>`` or ``<code>: <message>`` on stderr with nothing on stdout;
    3: internal invariant violation (a bug, reported as ``E_INVARIANT:
    <message>`` on stderr) or any other unexpected exception (a bug,
    reported as ``E_INTERNAL: <ExceptionType>: <message>`` on stderr).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        loaded = load_problem(args.problem)
        code, results = _HANDLERS[args.command](args, loaded)
        report = {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "inputs": {
                "problem_digest": loaded.digest,
                "argv": list(argv),
            },
            "tolerances": {"tol": getattr(args, "tol", CERT_TOL)},
            "results": results,
        }
        text = dumps_report(report) + "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                _fail("E_IO", "--out", str(exc))
    except ProblemFormatError as exc:
        print(f"{exc.code} at {exc.path}: {exc.detail}", file=sys.stderr)
        return 2
    except RiskcalcError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InvariantViolation) else 2
    except Exception as exc:
        print(f"E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
