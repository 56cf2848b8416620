"""Record the SHA-256 of every file the benchmark's jobs write.

    python3 perfbench/record_digests.py

Runs each CLI case of every workload in both variants, plus the warm-up
case, and writes digests.json.  The output gate holds later commits to these
bytes, so run it only when a change to the files is intended.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = []
    for (p, r), v in itertools.product((*workloads.LIFT_CASES, workloads.WARMUP_CASE), "OE"):
        jobs += workloads.lift_case_jobs(work, p, r, v)
    for (p, r), v in itertools.product((workloads.MATRIX_CASE, workloads.WARMUP_CASE), "OE"):
        jobs += workloads.matrix_jobs(work, p, r, v, seed=0)
    digests = {}
    for job in jobs:
        code, text = job.run(None)
        if code != 0 or "RESULT: PASS" not in text.splitlines():
            print(f"{job.label} failed:\n{text}", file=sys.stderr)
            return 1
        for path, key in job.outputs:
            digests[key] = workloads.sha256(path)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
