"""pgroupalg benchmark: what CLI users run, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is the ``src/pgroupalg`` beside this directory; work files
go to ``.perfbench/`` there.  Set-up generates the workload's JSON
fixtures from the seed in a fresh interpreter, SETUP_REPEATS times, and
reports the median as ``setup_s``.  A pass runs every item once in another
fresh interpreter, so no process-level cache carries from one pass to the
next; there is no warm-up pass, because CLI users pay cold costs on every
invocation.  Passes repeat while another one fits in ``--seconds``, and
every report of every pass goes through the correctness gate.

Times are reference seconds (see ``calibrate``): raw seconds scaled by the
CPU speed measured in the same process around the same work.  Raw seconds
are kept in the results file.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, medians over the passes.  With ``--trace 1`` one untraced
and one traced pass run; the traced one gives the per-layer metrics, its
report bodies must be byte-identical to the untraced ones, and the two
pass times give ``trace.overhead_ratio``.  Per-item details, the drawn
twists, the traced spans and the run environment go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import speed_factor  # noqa: E402
from gate import body_digest, check  # noqa: E402

try:
    from fixtures import WORKLOADS
except ModuleNotFoundError as exc:  # no src/pgroupalg beside perfbench/
    sys.exit(f"error: {exc}; src/pgroupalg must sit beside perfbench/")

SETUP_REPEATS = 5
REFERENCES = HERE / "reference_digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
STEP_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    """Environment of every child: numpy/BLAS threads pinned to one,
    which is at most nproc; the pass itself runs with --workers 1."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, float]:
    """Run a child to completion; (wall seconds, CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=STEP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def setup(workload: str, seed: int, work: Path, repeats: int,
          env: dict) -> tuple[list[float], list[float], dict]:
    """Generate the fixtures `repeats` times; the inputs must not differ.

    Returns raw and reference seconds of each set-up, and the manifest."""
    raw, ref, manifests = [], [], []
    for k in range(repeats):
        out = work / f"setup{k}"
        wall, cpu = run_child([sys.executable, str(HERE / "fixtures.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--out", str(out)], env)
        cal = json.loads((out / "calibration.json").read_text())
        samples = cal["samples"]
        net = min(wall - cal["kernel_wall_s"], cpu - sum(samples))
        raw.append(wall)
        ref.append(net * speed_factor(samples))
        manifests.append((out / "manifest.json").read_bytes())
        if k:
            shutil.rmtree(out)
    if len(set(manifests)) != 1:
        raise BenchError("the same seed generated different inputs")
    return raw, ref, json.loads(manifests[0])


def run_pass(fixtures: Path, out: Path, traced: bool, env: dict) -> dict:
    """One pass in a fresh interpreter, with its times in reference
    seconds: `ref_s` per item, from the kernel samples that bracket the
    item; `items_s` for all items; `cpu_s` from all the pass's samples."""
    argv = [sys.executable, str(HERE / "one_pass.py"), str(fixtures), str(out)]
    wall, cpu = run_child(argv + (["--trace"] if traced else []), env)
    with open(out) as fh:
        res = json.load(fh)
    samples = res["calibrations"]
    for rec in res["items"]:
        first, last = rec["samples"]
        rec["ref_s"] = rec["seconds"] * speed_factor(samples[first:last],
                                                     samples)
    factor = speed_factor(samples)
    res.update(raw_wall_s=wall, raw_cpu_s=cpu, factor=factor,
               items_s=sum(rec["ref_s"] for rec in res["items"]),
               cpu_s=(cpu - sum(samples)) * factor)
    return res


def gate_pass(items: list[dict], result: dict, fixtures: Path,
              references: dict) -> dict[str, str | None]:
    """Gate every item of a finished pass; item id -> failed check or None."""
    outcome: dict[str, str | None] = {}
    for item, rec in zip(items, result["items"]):
        body = None
        report = fixtures / item["report"]
        if report.exists():
            with open(report) as fh:
                body = json.load(fh)["body"]
            report.unlink()
        table = None
        if item["command"] == "recover":
            with open(fixtures / item["fixture"]) as fh:
                table = np.asarray(json.load(fh)["table"])
        failure = rec["error"] and "exception"
        try:
            failure = failure or check(item, rec["exit"], body, table,
                                       references)
        except (KeyError, TypeError, IndexError):
            failure = "malformed-report"
        rec["digest"] = body_digest(body) if body is not None else None
        outcome[item["id"]] = failure
    return outcome


def environment(root: Path, seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "commit": commit,
            "threads": {var: "1" for var in THREAD_VARS}}


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  It uses the items next to the
    middle one too, so it moves less than the sample median from run to
    run when one small item is slowed."""
    xs = sorted(values)
    n, a, grid = len(xs), (len(xs) + 1) / 2, 10000
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    weights = [0.0] * n
    for k in range(grid):
        t = (k + 0.5) / grid
        density = math.exp(log_norm + (a - 1) * math.log(t * (1 - t)))
        weights[min(int(t * n), n - 1)] += density
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setup_ref: list[float], passes: list[dict]) -> dict:
    """Medians over the passes; an item's time is its median over them,
    and `item_p50_s` is the Harrell-Davis median over items."""
    per_item: dict[str, list[float]] = {}
    for res in passes:
        for rec in res["items"]:
            per_item.setdefault(rec["id"], []).append(rec["ref_s"])
    item_s = [statistics.median(v) for v in per_item.values()]
    med = statistics.median
    return {"setup_s": med(setup_ref),
            "wall_s": med(r["items_s"] for r in passes),
            "cpu_s": med(r["cpu_s"] for r in passes),
            "item_p50_s": harrell_davis_median(item_s),
            "item_max_s": max(item_s),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in passes)}


def per_layer(plain: dict, traced: dict) -> dict:
    """The traced pass's layer totals, seconds in reference seconds."""
    layers = {k: v * traced["factor"] if k.endswith("_s") else v
              for k, v in traced["layers"].items()}
    layers["trace.overhead_ratio"] = traced["items_s"] / plain["items_s"] - 1
    return layers


def measure(args, work: Path, spec: dict) -> tuple[dict, dict]:
    env = child_env()
    references = json.loads(REFERENCES.read_text())
    traced = bool(args.trace)
    setup_raw, setup_ref, manifest = setup(
        args.workload, args.seed, work, 1 if traced else SETUP_REPEATS, env)
    items = manifest["items"]
    fixtures = work / "setup0"
    passes = []
    t_start = time.perf_counter()
    while True:
        tracing = traced and len(passes) == 1
        res = run_pass(fixtures, work / f"pass{len(passes)}.json", tracing, env)
        res["failures"] = gate_pass(items, res, fixtures, references)
        passes.append(res)
        elapsed = time.perf_counter() - t_start
        if tracing or (not traced and
                       elapsed + res["raw_wall_s"] > args.seconds):
            break

    if traced:
        plain, with_trace = passes
        for a, b in zip(plain["items"], with_trace["items"]):
            if a["digest"] != b["digest"] and not with_trace["failures"][b["id"]]:
                with_trace["failures"][b["id"]] = "traced-body-differs"
        wanted = spec["per_layer"]
        layers = per_layer(plain, with_trace)
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(setup_ref, passes)
    failed = sum(1 for res in passes for f in res["failures"].values() if f)
    result = {"correct": failed == 0, "attempted": len(items) * len(passes),
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "setup_raw_s": setup_raw,
               "setup_ref_s": setup_ref,
               "items": [{k: it[k] for k in ("id", "command", "fixed", "twist")
                          if k in it} for it in items],
               "passes": passes, "result": result}
    return result, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = measure(args, work, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["env"] = environment(root, args.seed)
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps({"env": details["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
