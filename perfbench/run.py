"""riskcalc benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets up several times, then serves requests back
to back for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it serves a fixed prefix of the request stream in alternating
plain and traced passes and reports the per-layer metrics with the tracing
overhead; the prefix is fixed so that counts repeat exactly.
``--smoke`` shrinks every workload to a few tiny inputs.

Every answer is checked against its reference after the timed phase.  The
last line of standard output is the result object; the line before it holds
the details (seed, input digest, environment, failures, tail percentile).
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread, one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 7919
# Set-ups measured before the timed phase and again after it, so that their
# median spans the run as the request latencies do.
SETUP_REPEATS = 3
# Plain and traced passes over the fixed prefix, alternating.
TRACE_ROUNDS = 3


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "riskcalc" / "__init__.py").is_file():
        _fail(f"no riskcalc sources under {SRC}")
    if not (ROOT / "instances").is_dir():
        _fail(f"no instances directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    import riskcalc

    if Path(riskcalc.__file__).resolve().parent != SRC / "riskcalc":
        _fail(f"imported riskcalc from {riskcalc.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import riskcalc.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(workload, items, count=None, seconds=None, whole_cycles=False, on_request=None):
    """Closed loop over the request stream; returns (latencies, outputs, wall).

    Stops after ``count`` requests, or at the first request (or whole pass
    over ``items`` when ``whole_cycles``) that ends ``seconds`` after the
    start.  An exception counts as the request's output.
    """
    latencies, outputs = [], []
    clock = time.perf_counter
    t0 = clock()
    i = 0
    while True:
        item = items[i % len(items)]
        if on_request is not None:
            on_request(i)
        begin = clock()
        try:
            out = workload.request(item)
        except Exception as exc:  # a failed request, judged in check_outputs
            out = exc
        end = clock()
        latencies.append(end - begin)
        outputs.append((i % len(items), out))
        i += 1
        if count is not None:
            if len(outputs) == count:
                break
        elif end - t0 >= seconds and not (whole_cycles and i % len(items)):
            break
    return latencies, outputs, clock() - t0


def check_outputs(workload, items, outputs) -> list[dict]:
    """Failures among ``outputs``, each with its pool index and problems."""
    failures = []
    for index, out in outputs:
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            try:
                problems = workload.check(items[index], out)
            except Exception as exc:  # a malformed answer fails, the run goes on
                problems = [f"check raised {exc!r}"]
        if problems:
            failures.append({"item": index, "problems": problems})
    return failures


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (seconds, percentile, samples beyond).  Below eleven samples no
    such percentile exists and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def set_up(workload, args, imports, builds):
    """Import in fresh interpreters and build all inputs, timing each."""
    repeats = 1 if args.smoke else SETUP_REPEATS
    imports += [import_seconds() for _ in range(repeats)]
    for _ in range(repeats):
        start = time.perf_counter()
        inputs = workload.build(args.seed, args.smoke)
        builds.append(time.perf_counter() - start)
    return inputs


def run_timed(workload, args) -> tuple[dict, dict, int, int]:
    imports, builds = [], []
    inputs = set_up(workload, args, imports, builds)
    latencies, outputs, wall = serve(workload, inputs.items, seconds=args.seconds,
                                     whole_cycles=inputs.whole_cycles)
    set_up(workload, args, imports, builds)
    setup_s = statistics.median(imports) + statistics.median(builds)
    failures = check_outputs(workload, inputs.items, outputs)
    tail_s, tail_pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_tail_ms": (tail_s * 1e3, "ms"),
        "throughput_rps": (n / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "inputs_digest": inputs.digest,
        "pool": len(inputs.items),
        "sizes": inputs.sizes,
        "timed_s": wall,
        "failed_ratio": len(failures) / n,
        "failures": failures[:10],
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": n,
        "setup_import_s": imports,
        "setup_build_s": builds,
    }
    if hasattr(workload, "solve_gap"):
        gaps = [workload.solve_gap(inputs.items[i], out) for i, out in outputs
                if not isinstance(out, Exception)]
        gaps = [g for g in gaps if g is not None]
        details["solve_gap_max"] = max(gaps) if gaps else None
    return metrics, details, n, len(failures)


def run_traced(workload, args) -> tuple[dict, dict, int, int]:
    from tracer import Tracer, layer_metrics

    warm = workload.build(args.seed, args.smoke, count=1)
    serve(workload, warm.items, count=1)

    tracer = Tracer()
    walls = {"plain": [], "traced": []}
    latency = {}
    failures = []
    attempted = 0
    # Plain and traced passes alternate, each on freshly built inputs so that
    # every pass starts from the same cache state.
    for round_ in range(TRACE_ROUNDS):
        for mode in walls:
            inputs = workload.build(args.seed, args.smoke, count=workload.TRACE_REQUESTS)
            n = len(inputs.items)
            if mode == "plain":
                _, outputs, wall = serve(workload, inputs.items, count=n)
            else:
                def on_request(i, base=round_ * n):
                    tracer.request = base + i

                with tracer:
                    lat, outputs, wall = serve(workload, inputs.items, count=n,
                                               on_request=on_request)
                latency.update((round_ * n + i, s) for i, s in enumerate(lat))
            walls[mode].append(wall)
            failures += check_outputs(workload, inputs.items, outputs)
            attempted += n

    # The top-level spans of a request run one after another inside it.
    overruns = [r for r, s in tracer.top_level_self_s().items() if s > latency[r]]
    if overruns:
        failures.append({"item": None, "problems": [
            f"span self time exceeds wall time in requests {overruns}"]})
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz")
    overhead = sum(walls["traced"]) / sum(walls["plain"])
    metrics = layer_metrics(tracer, overhead)
    details = {
        "inputs_digest": inputs.digest,
        "requests_per_pass": n,
        "rounds": TRACE_ROUNDS,
        "plain_wall_s": walls["plain"],
        "traced_wall_s": walls["traced"],
        "spans": len(tracer.spans),
        "functions": tracer.table(),
        "failures": failures[:10],
        "failed_ratio": len(failures) / attempted,
    }
    return metrics, details, attempted, len(failures)


def validate(metrics: dict, trace: int) -> None:
    """The metrics must be exactly the ones BENCHMARK.json names, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        _fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(wanted.items())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_timed
    metrics, details, attempted, failed = run(workload, args)
    validate(metrics, args.trace)

    details = {"workload": workload.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
               "trace": args.trace, "smoke": args.smoke, "environment": environment(),
               **details}
    print(json.dumps(details, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
