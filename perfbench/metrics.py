"""Metric definitions and why each exists.

End-to-end metrics come from untraced passes; per-layer metrics from traced
passes.  The gated lists (END_TO_END and PER_LAYER) must match
BENCHMARK.json.  The workloads are single-threaded with no contention, so a
faster layer can save at most its own share of ``wall_s``.
"""

from __future__ import annotations

# (name, unit).  Gated on every workload, so each is measured and nonzero
# on all three.
END_TO_END = (
    # From process start to the first timed job: importing grasslift,
    # writing the workload's input files and the warm-up jobs.  Work moved
    # out of the jobs into import or set-up shows here.
    ("setup_s", "s"),
    # The headline: one full pass over the workload's job list.
    ("wall_s", "s"),
    # Summed verify jobs of a pass: load the file and scan it.  lift-k2 and
    # dual-k6 move it through matfp.batch_rank.rows4/rows12 and
    # grassmann.scan_redundancy, mrd-stream through rows2 and codes.*.
    ("verify_s", "s"),
    # ru_maxrss of the workload process.  Chunked pair arrays set it, so a
    # trade of memory for speed shows.
    ("peak_rss_mb", "MiB"),
)

# Printed on the workloads that contain the job type, not gated: a gated
# metric must be reported nonzero by every workload.
REPORTED = (
    # construct: build the code and write JSON.  lift-k2, dual-k6.
    ("construct_s", "s"),
    # params: load the file and scan once.  lift-k2.
    ("params_s", "s"),
    # graph --adjacency: build the code and the graph, write DOT, sidecar
    # and CSV.  lift-k2.
    ("graph_s", "s"),
    # Library sweep jobs of the A03 grid.  mrd-stream.
    ("sweep_s", "s"),
    # Failed jobs / attempted jobs; a job fails on a nonzero exit code, an
    # exception or a failed output check.  Always 0 at a correct commit.
    ("fail_frac", "ratio"),
)


def _calls(name):
    return [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]


# Each group names the end-to-end metric it should move, and where.
PER_LAYER = (
    # Keyed by the row count of the stacks: rows4 (pairs of 2-dim words)
    # should move verify_s, params_s, construct_s, graph_s and wall_s on
    # lift-k2; rows12 (pairs of 6-dim duals) verify_s on dual-k6; rows2
    # (rank-metric differences) sweep_s and verify_s on mrd-stream, and
    # nothing on lift-k2.  bytes_in = stacks * R * C * 8 is computed from
    # the shape, not measured.
    *[(f"matfp.batch_rank.rows{r}.{key}", unit)
      for r in (2, 4, 12)
      for key, unit in (("calls", "count"), ("stacks", "count"), ("s", "s"),
                        ("bytes_in", "bytes"))],
    # The per-word _echelon path and the MatrixFp object count: should move
    # construct_s on lift-k2 and verify_s on dual-k6.
    *_calls("matfp.rref"),
    *_calls("matfp.rank"),
    *_calls("matfp.null_space"),
    ("matfp.objects", "count"),
    # The pair scan.  scan_redundancy = pairs scanned / sum of M(M-1)/2
    # over the codes the pass's jobs report on (0 on mrd-stream, which has
    # no subspace codes).  Should move every command metric on lift-k2 and
    # verify_s on dual-k6.
    ("grassmann.pairwise_intersection_dims.calls", "count"),
    ("grassmann.pairwise_intersection_dims.pairs", "count"),
    ("grassmann.pairwise_intersection_dims.s", "s"),
    ("grassmann.pairwise_intersection_dims.self_s", "s"),
    ("grassmann.scan_redundancy", "ratio"),
    # Canonicalisation, construction, summary, duality and the JSON codec:
    # construct_s against params_s (write path against read path) on
    # lift-k2, verify_s on dual-k6.
    *_calls("grassmann.span"),
    *_calls("grassmann.anticode_optimal_code"),
    *_calls("grassmann.code_params"),
    *_calls("grassmann.dual_code"),
    *_calls("grassmann.GrassmannianCode.from_dict"),
    *_calls("grassmann.GrassmannianCode.to_dict"),
    # Rank-metric codes: sweep_s and verify_s on mrd-stream.
    ("codes.build_image_code.s", "s"),
    ("codes.build_image_code.words", "count"),
    ("codes.min_rank_distance.s", "s"),
    ("codes.min_rank_distance.pairs", "count"),
    ("codes.image_rank_counts.s", "s"),
    ("codes.image_rank_counts.words", "count"),
    *_calls("codes.sample_image_pair_min_rank"),
    *_calls("codes.min_nonzero_rank"),
    # Per-word object cost of build_image_code: sweep_s on mrd-stream.
    ("gf.ExtFieldElement.objects", "count"),
    # Edge-set construction beyond the scan, and the exports: graph_s and
    # verify_s on lift-k2.
    ("graph.intersection_graph.self_s", "s"),
    *_calls("graph.degree_sequence"),
    *_calls("graph.to_dot"),
    *_calls("graph.adjacency_csv"),
    # Job time minus library spans (JSON parse/dump, file I/O, report
    # rendering): the matching command metric on every workload.
    *[(f"cli.{c}.self_s", "s") for c in ("construct", "verify", "params", "graph")],
    # Coverage: summed self time per layer and the part of the traced pass
    # that no span covers; they add up to coverage.wall_s.
    *[(f"coverage.{layer}.self_s", "s")
      for layer in ("gf", "matfp", "codes", "grassmann", "graph", "cli")],
    ("coverage.uncovered_s", "s"),
    ("coverage.wall_s", "s"),
    # Traced wall_s minus untraced wall_s of the same run.
    ("trace_overhead_s", "s"),
)
