"""Record the reference body digests of the fixed-input items.

    python3 perfbench/record_references.py

Runs set-up and one pass of every workload at seed 0 and writes
reference_digests.json.  An item that fails any check
other than the digest itself is not recorded, and the script exits 1.
Report bodies are meant to stay byte-identical, so re-record only when a
change to a body is intended, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from fixtures import WORKLOADS
from run import HERE, REFERENCES, child_env, gate_pass, run_pass, setup


def main() -> int:
    root = HERE.parent
    env = child_env()
    digests, bad = {}, []
    for workload in WORKLOADS:
        work = root / ".perfbench" / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            _, _, manifest = setup(workload, 0, work, 1, env)
            fixtures = work / "setup0"
            res = run_pass(fixtures, work / "pass.json", False, env)
            failures = gate_pass(manifest["items"], res, fixtures, {})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for item, rec in zip(manifest["items"], res["items"]):
            failure = failures[item["id"]]
            if failure not in (None, "reference-digest"):
                bad.append((item["id"], failure))
            elif item["fixed"]:
                digests[item["id"]] = rec["digest"]
    REFERENCES.write_text(json.dumps(dict(sorted(digests.items())),
                                     indent=1) + "\n")
    for item_id, failure in bad:
        print(f"{item_id}: {failure}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
