"""The benchmark's tracer still finds every riskcalc name it wraps.

``perfbench/tracer.py`` looks riskcalc's public functions and methods up by
name when it installs, so a removed or renamed name makes ``install`` raise
and breaks traced benchmark runs.  The default test run covers only
``tests/``; installing and uninstalling the tracer here makes it notice.
"""

import sys
from pathlib import Path

import riskcalc as rc
from riskcalc import cli  # noqa: F401  (the tracer looks names up on rc.cli)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def traced_names(tracer):
    return [name for names, _, _ in tracer.FUNCTION_GROUPS.values() for name in names]


def public(name):
    return getattr(rc, name, None) or getattr(rc.cli, name)


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    names = traced_names(tracer)
    t = tracer.Tracer()
    try:
        t.install()  # AttributeError if riskcalc lost a name the tracer wraps
        wrapped = {name: public(name) for name in names}
        rc.lorenz(rc.RandomVariable(rc.equiprobable(2), [1.0, 2.0]), 0.5)
        assert t.calls["quantiles.lorenz"] == 1
    finally:
        t.uninstall()
    for name in names:
        assert public(name) is wrapped[name].__wrapped__
