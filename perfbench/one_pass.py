"""One benchmark pass: every item of a manifest, in a fresh interpreter.

    python3 perfbench/one_pass.py WORKDIR RESULTS.json [--trace]

Runs from WORKDIR so that the input paths recorded in report bodies do not
depend on where the work directory lives.  Each item is one in-process
``pgroupalg.cli.run(argv)`` call.  An item that raises is recorded as a
failure and the pass goes on.  With ``--trace`` the layer tracer is
installed before the first item and its totals go into the results.

The reference kernel of ``calibrate`` runs before each item and every
SAMPLE_EVERY_S during the items, so the caller can turn this pass's
seconds into reference seconds.  An item's seconds are the smaller of its wall and CPU time,
without the kernel's own time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from calibrate import Sampler  # noqa: E402

SAMPLE_EVERY_S = 0.2


def main() -> None:
    workdir, results_path = sys.argv[1], os.path.abspath(sys.argv[2])
    traced = "--trace" in sys.argv[3:]
    os.chdir(workdir)
    with open("manifest.json") as fh:
        items = json.load(fh)["items"]

    import pgroupalg.cli
    tracer = None
    if traced:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    run = pgroupalg.cli.run  # looked up after install, so it is the wrapper

    out = []
    with Sampler(SAMPLE_EVERY_S, tracer and tracer.exclude) as sampler:
        for item in items:
            if tracer:
                tracer.begin_item(item["id"])
            error = None
            sampler.sample()  # brackets tiny items tightly
            before, kernel_wall = len(sampler.samples), sampler.kernel_wall_s
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = run(item["argv"])
            except Exception:  # a traceback is a failed item, not a failed pass
                code, error = None, traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0 - (sampler.kernel_wall_s - kernel_wall)
            cpu = time.process_time() - c0 - sum(sampler.samples[before:])
            # samples[before - 1 : after + 1] bracket the item
            after = len(sampler.samples)
            out.append({"id": item["id"], "seconds": min(wall, cpu),
                        "wall_s": wall, "cpu_s": cpu, "exit": code,
                        "error": error, "samples": [before - 1, after + 1]})

    result = {"items": out, "calibrations": sampler.samples,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        # span times are wall times, so shares divide by wall time
        result["layers"] = tracer.summary(sum(rec["wall_s"] for rec in out))
        result["spans"] = {"items": tracer.item_ids, "spans": tracer.spans}
    with open(results_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
