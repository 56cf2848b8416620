"""grasslift benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload lift-k2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own fresh worker process with BLAS/OpenMP threads
pinned to 1.  ``setup_s`` is the median over that worker and a few set-up-only
workers.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is
nonzero when any job's output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# Each workload must end within 180 s.
DEADLINE_S = 170


def _version(module: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(module)
    except metadata.PackageNotFoundError:
        return "not installed"


def run_record(seed: int) -> dict:
    """What the numbers were measured on.  A checkout without .git has no
    SHA; the digest of the library sources identifies the code either way."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grasslift").glob("*.py")):
        sources.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": THREAD_ENV,
        "seed": seed,
    }


def spawn(workload, seed, seconds, trace, work, budget, setup_only=False) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups = [spawn(name, seed, seconds, trace, work, deadline - time.monotonic(),
                    setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = spawn(name, seed, seconds, trace, work, deadline - time.monotonic())
    setups.append(result["setup_s"])
    result["reported"]["setup_s"] = statistics.median(setups)
    return result


def report(name, result, trace) -> dict:
    """Print the metrics for people; return the contract's result object."""
    units = dict(END_TO_END) | dict(REPORTED) | dict(PER_LAYER)
    shown = result["reported"] | result.get("per_layer", {})
    walls = " ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"workload {name}: {result['attempted']} jobs, {result['failed']} failed; "
          f"untraced pass wall times (s, medians reported): {walls}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    for metric, value in shown.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    if "spans_file" in result:
        print(f"  spans written to {result['spans_file']}")
    chosen = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": shown[n], "unit": u} for n, u in chosen},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35,
                    help="measure passes while the next one ends within this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grasslift" / "__init__.py").is_file():
        print(f"no grasslift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = run_record(args.seed)
    print("record " + json.dumps(record, sort_keys=True))
    outcomes = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
        outcomes[name] = report(name, result, args.trace)
    ok = all(o["correct"] for o in outcomes.values())
    print(json.dumps(outcomes[names[0]] if len(names) == 1 else {"workloads": outcomes}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
