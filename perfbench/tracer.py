"""Span tracer installed around riskcalc's public functions at run time.

The package binds names at import (``from .quantiles import lorenz`` in
``solver``), so each function is replaced wherever a riskcalc module holds
it.  A call made inside one module is caught only where that module looks the
name up at call time, which holds for every module-level function here.

Every wrapped call of a group records a span (group, start, end, parent span,
request).  A call that re-enters a group already open on the stack, such as
the recursion of ``dumps_report`` or ``spectral_identifier`` calling
``avar_identifier``, is counted but folded into the outer span, so a group's
total time never counts an interval twice.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

import riskcalc as rc
from riskcalc.dominance import DominanceConstraint
from riskcalc.quantiles import SortedScenarioView
from riskcalc.scenario import RandomVariable

from workloads import merged_points


def _exact_points(args, result):
    X, Y = args[0], args[1]
    return merged_points(X.values, X.space.probs, Y.values, Y.space.probs)


# group -> (module-level function names, work counter name, counter of (args, result))
FUNCTION_GROUPS = {
    "cli.load_problem": (("load_problem",), None, None),
    "cli.dumps_report": (("dumps_report",), None, None),
    "solver.solve": (("solve",), "solver.solve.iterations", lambda a, r: r.iterations),
    "solver.certify": (
        ("certify",), "solver.certify.fw_iterations", lambda a, r: r.iterations),
    "integrands.evaluate": (
        ("evaluate",), "integrands.evaluate.scenarios", lambda a, r: a[0].space.size),
    "integrands.subgradient_selector": (("subgradient_selector",), None, None),
    "quantiles.lorenz": (("lorenz",), None, None),
    "quantiles.cdf": (("cdf",), None, None),
    "dominance.constraint_subgradient": (("constraint_subgradient",), None, None),
    "dominance.exact": (
        ("dominates_first_order", "dominates_second_order"),
        "dominance.exact.merged_points",
        _exact_points,
    ),
    "risk.identifier": (
        ("avar_identifier", "avar_identifier_lmo", "spectral_identifier",
         "spectral_identifier_lmo"),
        None,
        None,
    ),
    "risk.spectral_risk": (("spectral_risk",), None, None),
    "composite.value": (("composite_value",), None, None),
    "composite.subgradient": (("composite_subgradient",), None, None),
}

# group -> (class, method name, work counter, counter of (args, result))
METHOD_GROUPS = {
    "dominance.augmented_levels": (
        DominanceConstraint, "augmented_levels", "dominance.augmented_levels.levels",
        lambda a, r: len(r)),
}

# counter -> (class or module attribute owner, name); counted, never timed
COUNTED = {
    "quantiles.sorted_view.lookups": ("function", "sorted_view"),
    "quantiles.sorted_view.builds": (SortedScenarioView, "__init__"),
    "scenario.random_variables": (RandomVariable, "__init__"),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "riskcalc" or name.startswith("riskcalc."))]


class Tracer:
    def __init__(self):
        self.group_names: list[str] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.exceptions: Counter = Counter()
        self.work: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list = []

    # ---- installation -------------------------------------------------

    def _timed(self, group, fn, counter, measure):
        if group not in self.group_names:
            self.group_names.append(group)
        gid = self.group_names.index(group)
        spans, stack, opened = self.spans, self._stack, self._open
        calls, work, exceptions = self.calls, self.work, self.exceptions
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[group] += 1
            if opened[group]:
                return fn(*args, **kwargs)
            opened[group] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exceptions[group] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                opened[group] -= 1
                spans[idx] = (gid, start, end, parent, self.request)
            if counter is not None:
                work[counter] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, name, make):
        original = getattr(rc, name, None) or getattr(rc.cli, name)
        wrapped = make(original)
        for module in _modules():
            if getattr(module, name, None) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapped)

    def install(self):
        for group, (names, counter, measure) in FUNCTION_GROUPS.items():
            for name in names:
                self._patch_everywhere(
                    name, lambda fn, g=group, c=counter, m=measure: self._timed(g, fn, c, m))
        for group, (cls, name, counter, measure) in METHOD_GROUPS.items():
            original = cls.__dict__[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._timed(group, original, counter, measure))
        for counter, (owner, name) in COUNTED.items():
            if owner == "function":
                self._patch_everywhere(name, lambda fn, c=counter: self._counted(c, fn))
            else:
                original = owner.__dict__[name]
                self._patches.append((owner, name, original))
                setattr(owner, name, self._counted(counter, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- analysis -----------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def table(self) -> dict:
        """Per group: calls, total and self seconds, exceptions raised."""
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for (gid, start, end, _, _), own in zip(self.spans, self.self_times()):
            total[gid] += end - start
            self_ns[gid] += own
        return {
            group: {
                "calls": self.calls[group],
                "time_s": total[gid] / 1e9,
                "self_s": self_ns[gid] / 1e9,
                "exceptions": self.exceptions[group],
            }
            for gid, group in enumerate(self.group_names)
        }

    def top_level_self_s(self) -> dict[int, float]:
        """Per request: the summed self time of its spans without a parent."""
        out = defaultdict(int)
        for (_, _, _, parent, request), own in zip(self.spans, self.self_times()):
            if parent < 0:
                out[request] += own
        return {r: ns / 1e9 for r, ns in out.items()}

    def write(self, path):
        """Spans as gzip TSV: group, start_ns, end_ns, parent span, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("group\tstart_ns\tend_ns\tparent\trequest\n")
            for gid, start, end, parent, request in self.spans:
                fh.write(f"{self.group_names[gid]}\t{start}\t{end}\t{parent}\t{request}\n")


# Per-layer times: "<group>.time_s" is the group's total span time,
# "<group>.self_s" that time less the spans of other groups inside it.
TIMES = (
    "cli.load_problem.time_s",
    "cli.dumps_report.time_s",
    "solver.solve.self_s",
    "solver.certify.self_s",
    "integrands.evaluate.time_s",
    "integrands.subgradient_selector.time_s",
    "quantiles.lorenz.time_s",
    "quantiles.cdf.time_s",
    "dominance.augmented_levels.time_s",
    "dominance.constraint_subgradient.time_s",
    "dominance.exact.time_s",
    "risk.identifier.time_s",
    "risk.spectral_risk.time_s",
    "composite.value.time_s",
    "composite.subgradient.time_s",
)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as (value, unit)."""
    table = tracer.table()

    def stat(group, key):
        return table.get(group, {}).get(key, 0)

    lookups = tracer.calls["quantiles.sorted_view.lookups"]
    builds = tracer.calls["quantiles.sorted_view.builds"]
    seconds = {name: stat(*name.rsplit(".", 1)) for name in TIMES}
    counts = {
        "solver.solve.iterations": tracer.work["solver.solve.iterations"],
        "solver.certify.fw_iterations": tracer.work["solver.certify.fw_iterations"],
        "integrands.evaluate.calls": tracer.calls["integrands.evaluate"],
        "integrands.evaluate.scenarios": tracer.work["integrands.evaluate.scenarios"],
        "quantiles.lorenz.calls": tracer.calls["quantiles.lorenz"],
        "quantiles.sorted_view.lookups": lookups,
        "quantiles.sorted_view.builds": builds,
        "dominance.augmented_levels.levels": tracer.work["dominance.augmented_levels.levels"],
        "dominance.exact.calls": tracer.calls["dominance.exact"],
        "dominance.exact.merged_points": tracer.work["dominance.exact.merged_points"],
        "risk.identifier.calls": tracer.calls["risk.identifier"],
        "composite.calls": tracer.calls["composite.value"] + tracer.calls["composite.subgradient"],
        "scenario.random_variables": tracer.calls["scenario.random_variables"],
    }
    out = {name: (float(v), "s") for name, v in seconds.items()}
    out.update({name: (int(v), "count") for name, v in counts.items()})
    out["quantiles.sorted_view.hit_ratio"] = (
        (lookups - builds) / lookups if lookups else 0.0, "ratio")
    out["trace_overhead_ratio"] = (overhead_ratio, "ratio")
    return out
