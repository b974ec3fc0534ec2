"""The library names that the benchmark in ``perfbench/`` relies on.

``perfbench/`` drives the library from outside and changes on its own
schedule.  Its tracer wraps functions and methods by name (``solve``,
``power_space``, ``FpSubspace.reduce``, ...) and reads
``all_subgroups.cache_info()``; its fixtures call ``frattini_quotient``,
``QuotientSpace.project``, ``p_power`` and ``nullspace``.  This test imports
both files as they are, so that a change which drops one of those names
fails here rather than in a traced benchmark run.
"""

import importlib
from pathlib import Path

import pgroupalg.fplin as fplin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_fixtures_run_against_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    fixtures = importlib.import_module("fixtures")
    solve, reduce = fplin.solve, fplin.FpSubspace.reduce
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_item("fixtures")
        items = {w: fixtures.workload_items(w, 0) for w in fixtures.WORKLOADS}
    finally:
        t.uninstall()
    assert fplin.solve is solve and fplin.FpSubspace.reduce is reduce
    assert all(items.values())
    summary = t.summary(1.0)
    assert summary["fplin.rref.calls"] > 0
    assert summary["algebra.contexts"] > 0
