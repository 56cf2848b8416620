"""Self-tests of the benchmark (not part of the library suite).

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["cli.verify", 0.0, 10.0, -1],
        ["grassmann.code_params", 1.0, 4.0, 0],
        ["matfp.batch_rank.rows4", 2.0, 3.0, 1],
        ["matfp.batch_rank.rows4", 5.0, 6.0, 0],
        ["graph.to_dot", 11.0, 11.5, -1],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 0.5]
    found = tracing.summarize(spans, {}, wall=12.0)
    assert found["matfp.batch_rank.rows4.calls"] == 2
    assert found["matfp.batch_rank.rows4.s"] == 2.0
    assert found["coverage.cli.self_s"] == 6.0
    assert found["coverage.grassmann.self_s"] == 2.0
    assert found["coverage.matfp.self_s"] == 2.0
    assert found["coverage.uncovered_s"] == 1.5
    layers = sum(found[f"coverage.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + found["coverage.uncovered_s"] == found["coverage.wall_s"]


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 5.0, 0], ["b.z", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == 4.0


def test_recursive_span_counted_once_in_total():
    spans = [["a.f", 0.0, 4.0, -1], ["a.f", 1.0, 2.0, 0]]
    found = tracing.summarize(spans, {}, wall=4.0)
    assert found["a.f.s"] == 4.0 and found["a.f.self_s"] == 4.0


def test_gate_flags_one_flipped_byte(tmp_path):
    digests = workloads.load_digests()
    construct = workloads.lift_case_jobs(tmp_path, 2, 1, "O")[0]
    outcome = construct.run(None)
    assert construct.check(outcome, digests) == []
    path, key = construct.outputs[0]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert construct.check(outcome, digests) == [
        f"{key}: SHA-256 differs from the recorded digest"
    ]


def test_gate_flags_wrong_library_value():
    job = workloads.sweep_job(2, 1, "O", seed=0, stream=True)
    assert job.check(job.run(None), {}) == []
    assert job.check({"hist": {0: 1, 1: 1, 2: 14}, "delta": 2}, {}) != []


def test_wrapper_at_import_site_records_the_call():
    from grasslift import codes, matfp

    original = matfp.batch_rank
    assert codes.batch_rank is original  # codes imported the name itself
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert codes.batch_rank is not original
        code = codes.build_image_code(2, 1, "O")
        codes.min_nonzero_rank(code)
    finally:
        tracer.uninstall()
    assert codes.batch_rank is original and matfp.batch_rank is original
    names = [s[0] for s in tracer.spans]
    child = names.index("matfp.batch_rank.rows2")
    assert tracer.spans[tracer.spans[child][3]][0] == "codes.min_nonzero_rank"
    assert tracer.counts["matfp.batch_rank.rows2.stacks"] == 4
    assert tracer.counts["gf.ExtFieldElement.objects"] > 0


def test_every_target_resolves():
    import grasslift.cli  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {attr for _, attr, _ in tracer._undo}
    finally:
        tracer.uninstall()
    for _, attr, _, _ in tracing.TARGETS:
        assert attr.rpartition(".")[2] in wrapped, attr


def test_matrix_input_matches_library_code():
    from grasslift import codes

    for variant in "OE":
        data = json.loads(workloads.matrix_code_json(3, 1, variant))
        built = codes.build_image_code(3, 1, variant).to_dict()
        assert data == built


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
