"""One workload in one fresh process: set-up, timed passes, output gate.

Started by run.py with BLAS/OpenMP threads pinned to 1.  Prints one JSON
object on its last stdout line; with ``--setup-only`` it stops after set-up
and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


def run_pass(jobs, digests, tracer=None):
    """Time one pass; the output gate runs after the pass clock stops."""
    sums = Counter()
    outcomes = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            outcomes.append((job.run(tracer), None))
        except Exception:  # a failing job is counted, and the pass goes on
            outcomes.append((None, traceback.format_exc()))
        sums[job.kind] += time.perf_counter() - t0
    wall = time.perf_counter() - start
    failures = []
    for job, (outcome, error) in zip(jobs, outcomes):
        problems = [error] if error else job.check(outcome, digests)
        if problems:
            failures.append(f"{job.label}: {'; '.join(problems)}")
    return wall, sums, failures


def layer_metrics(tracer, wall, jobs) -> dict[str, float]:
    found = summarize(tracer.spans, tracer.counts, wall)
    reported = sum(job.reported_pairs for job in jobs)
    scanned = found.get("grassmann.pairwise_intersection_dims.pairs", 0)
    found["grassmann.scan_redundancy"] = scanned / reported if reported else 0.0
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import grasslift.cli  # noqa: F401  (import cost belongs to set-up)
    import workloads

    digests = workloads.load_digests()
    warmup, jobs = workloads.build(args.workload, args.seed, args.work)
    _, _, failures = run_pass(warmup, digests)
    setup_s = time.monotonic() - args.spawned_at
    if failures:
        print("\n".join(f"warm-up FAIL {f}" for f in failures), file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Untraced passes, or in a traced run untraced and traced passes in
    # turn, while the next pass is expected to end within --seconds.
    tracer = Tracer() if args.trace else None
    plain, traced, layers, all_spans = [], [], [], []
    attempted = 0
    failed = []
    start = time.monotonic()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                wall, sums, fails = run_pass(jobs, digests, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracer, wall, jobs))
            all_spans.append(tracer.spans)
        else:
            wall, sums, fails = run_pass(jobs, digests)
            plain.append({"wall_s": wall, **{f"{k}_s": v for k, v in sums.items()}})
        attempted += len(jobs)
        failed += fails
        elapsed = time.monotonic() - start
        done = tracer is None or traced
        if done and elapsed + statistics.median(p["wall_s"] for p in plain) > args.seconds:
            break

    result = {"setup_s": setup_s, "attempted": attempted, "failed": len(failed),
              "failures": failed[:20],
              "pass_walls": [p["wall_s"] for p in plain]}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = {key: statistics.median(p[key] for p in plain) for key in plain[0]}
    result["reported"] = {
        "peak_rss_mb": peak,
        **{name: medians[name] for name, _ in END_TO_END if name in medians},
        **{name: medians[name] for name, _ in REPORTED if name in medians},
        "fail_frac": len(failed) / attempted,
    }
    if tracer is not None:
        per_layer = {}
        for name, _ in PER_LAYER:
            values = [found.get(name, 0) for found in layers]
            per_layer[name] = statistics.median(values)
        per_layer["trace_overhead_s"] = statistics.median(traced) - medians["wall_s"]
        result["per_layer"] = per_layer
        spans_file = args.work / "spans.json"
        spans_file.write_text(json.dumps(all_spans))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
