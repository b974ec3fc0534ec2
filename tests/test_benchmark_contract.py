"""The library names that the benchmark in ``perfbench/`` relies on.

``perfbench/`` drives the library from outside and changes on its own
schedule.  Its tracer wraps functions and methods by name (``solve``,
``power_space``, ``FpSubspace.reduce``, ...) and reads
``all_subgroups.cache_info()``; its fixtures call ``frattini_quotient``,
``QuotientSpace.project``, ``p_power`` and ``nullspace``.  This test imports
both files as they are, so that a change which drops one of those names
fails here rather than in a traced benchmark run.  The tracer's counters
read the arguments and results of the functions it wraps, so one recover
item and one item of each lattice command also run through ``cli.run``
under it.  Every item of every workload at seed 0 also runs through
``cli.run`` and the benchmark's correctness gate, so that a change to a
report body fails here against ``perfbench/reference_digests.json``.
"""

import importlib
import json
from pathlib import Path

import numpy as np

import pgroupalg.cli as cli
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


def test_tracer_counters_meet_the_library_signatures(monkeypatch, tmp_path):
    # a traced pass runs each item through the wrapped cli.run: the
    # counters on find_group_basis_commutative, recover_decomposition and
    # dump_report read the calls as the library makes them, and the spans
    # on certify_indecomposable and unit_exponent_commutative wrap the
    # functions that the certify and cyclic-factor items call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    fixtures = importlib.import_module("fixtures")
    picked = [next(pair for pair in fixtures.workload_items(workload, 0)
                   if pair[0]["command"] == command)
              for workload, command in (("recover", "recover"),
                                        ("lattice", "oracle"),
                                        ("lattice", "certify"),
                                        ("lattice", "cyclic-factor"))]
    path, out = tmp_path / "input.json", str(tmp_path / "report.json")
    t = tracer.Tracer()
    t.install()
    try:
        for item, data in picked:
            path.write_text(json.dumps(data))
            t.begin_item(item["id"])
            assert cli.run([item["command"], "--input", str(path),
                            "--out", out]) == 0, item["id"]
    finally:
        t.uninstall()
    summary = t.summary(1.0)
    assert summary["decompose.find_group_basis_commutative.units"] > 0
    assert summary["decompose.recovery_steps"] > 0
    assert summary["groups.direct_factor_oracle.calls"] == 1
    assert summary["decompose.certify_indecomposable.calls"] == 1
    assert summary["lemmas.cyclic_factor_test.calls"] > 0
    assert summary["algebra.unit_exponent_commutative.calls"] == \
        summary["lemmas.cyclic_factor_test.calls"]
    assert summary["io.report_bytes"] > 0
    assert summary["cli.run.calls"] == 4


def test_every_workload_passes_the_correctness_gate(monkeypatch, tmp_path):
    # each manifest argv as the benchmark runs it, from the workload's own
    # directory, since report bodies echo the relative input path; gate
    # checks exit code, outcome and every pinned body digest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fixtures = importlib.import_module("fixtures")
    gate = importlib.import_module("gate")
    references = json.loads((PERFBENCH / "reference_digests.json").read_text())
    failures, pinned = {}, 0
    for workload in fixtures.WORKLOADS:
        out = tmp_path / workload
        fixtures.write_workload(workload, 0, out)
        monkeypatch.chdir(out)
        manifest = json.loads((out / "manifest.json").read_text())
        for item in manifest["items"]:
            code, report = cli.run(item["argv"]), out / item["report"]
            body = (json.loads(report.read_text())["body"]
                    if report.exists() else None)
            table = (np.asarray(json.loads((out / item["fixture"]).read_text())
                                ["table"])
                     if item["command"] == "recover" else None)
            failure = gate.check(item, code, body, table, references)
            if failure is not None:
                failures[item["id"]] = failure
            pinned += item["fixed"]
    assert failures == {}
    assert pinned == len(references)
