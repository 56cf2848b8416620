import json
import time

import pytest
from click.testing import CliRunner

from grasslift import cli, codes, grassmann
from grasslift.cli import main
from grasslift.codes import build_image_code, weight_table_csv
from grasslift.matfp import MatrixFp


@pytest.fixture
def runner():
    return CliRunner()


def count_calls(monkeypatch, module, name):
    """Wrap module.name with a call counter; returns the counter list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def scans(monkeypatch):
    return count_calls(monkeypatch, grassmann, "pairwise_intersection_dims")


def image_code_file(tmp_path, p, r):
    path = tmp_path / f"image_{p}_{r}.json"
    path.write_text(json.dumps(build_image_code(p, r, "O").to_dict()))
    return path


def construct(runner, tmp_path, p=2, r=1, variant="O"):
    out = tmp_path / f"code_{p}_{r}_{variant}.json"
    result = runner.invoke(
        main,
        ["construct", "--p", str(p), "--r", str(r), "--variant", variant,
         "--out", str(out)],
    )
    return result, out


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_p2_stdout_is_exact_csv(runner):
    result = runner.invoke(main, ["table", "--p", "2"])
    assert result.exit_code == 0
    assert result.output == weight_table_csv(2)


def test_table_p3_to_file(runner, tmp_path):
    out = tmp_path / "table3.csv"
    result = runner.invoke(main, ["table", "--p", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == weight_table_csv(3)


def test_table_rejects_unsupported_modulus(runner):
    result = runner.invoke(main, ["table", "--p", "7"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_p2_r1(runner, tmp_path):
    result, out = construct(runner, tmp_path)
    assert result.exit_code == 0
    assert "claimed=(4, 5, 4, 2) computed=(4, 5, 4, 2) PASS" in result.output
    assert "RESULT: PASS" in result.output
    data = json.loads(out.read_text())
    assert data["n"] == 4 and data["k"] == 2 and data["p"] == 2
    assert len(data["words"]) == 5
    assert data["provenance"]["claimed"] == {"n": 4, "M": 5, "d": 4, "k": 2}


def test_construct_p2_r2_reports_ambient_six(runner, tmp_path):
    result, out = construct(runner, tmp_path, p=2, r=2)
    assert result.exit_code == 0
    assert "claimed=(6, 21, 4, 2) computed=(6, 21, 4, 2) PASS" in result.output
    assert "ambient dimension n = 2r+2 = 6" in result.output


def test_construct_rejects_p5(runner, tmp_path):
    result, _ = construct(runner, tmp_path, p=5)
    assert result.exit_code == 2
    assert "p % 5 in {2, 3}" in result.output


def test_construct_guard_exceeded(runner, tmp_path):
    result, _ = construct(runner, tmp_path, p=13, r=2)
    assert result.exit_code == 2
    assert "guard" in result.output


@pytest.mark.parametrize("p, message", [
    (10**18 + 3, "guard"),  # prime, p % 5 == 3: the pair guard refuses it
    (3317044064679887385961987, "decided exactly below"),  # past the exact range
])
def test_construct_refuses_huge_primes_at_once(runner, tmp_path, p, message):
    started = time.perf_counter()
    result, _ = construct(runner, tmp_path, p=p, r=1)
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_round_trip_all_pass(runner, tmp_path):
    _, out = construct(runner, tmp_path)
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 0
    assert result.output.count("PASS") >= 5
    assert "FAIL" not in result.output


def test_verify_detects_tampered_word(runner, tmp_path):
    _, out = construct(runner, tmp_path)
    data = json.loads(out.read_text())
    # replace one plane with one that meets another word nontrivially
    data["words"][1] = [[1, 0, 0, 0], [0, 0, 0, 1]]
    out.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", str(out), "--checks", "distance"])
    assert result.exit_code == 1
    assert "check distance: claimed=4 computed=2 FAIL" in result.output
    assert "RESULT: FAIL" in result.output


def test_verify_mrd_inapplicable_to_subspace_codes(runner, tmp_path):
    _, out = construct(runner, tmp_path)
    result = runner.invoke(main, ["verify", str(out), "--checks", "mrd"])
    assert result.exit_code == 2
    assert "matrix codes" in result.output


def test_verify_matrix_code_file(runner, tmp_path):
    code = build_image_code(3, 1, "O")
    path = tmp_path / "image.json"
    path.write_text(json.dumps(code.to_dict()))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert "kind=matrix" in result.output
    assert "mrd" in result.output and "RESULT: PASS" in result.output


def test_verify_matrix_code_detects_broken_distance(runner, tmp_path):
    words = [MatrixFp.zeros(2, 2, 2), MatrixFp([[1, 0], [0, 0]], 2),
             MatrixFp([[0, 1], [0, 0]], 2), MatrixFp([[1, 1], [0, 0]], 2)]
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "l": 2, "linear": True,
        "words": [w.to_lists() for w in words],
    }))
    result = runner.invoke(main, ["verify", str(path), "--checks", "mrd"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_matrix_code_notes_sampled_scan(runner, tmp_path):
    path = image_code_file(tmp_path, 3, 2)
    sampled = runner.invoke(main, ["verify", str(path), "--guard", "10", "--seed", "1"])
    assert sampled.exit_code == 0
    assert ("note: distance sampled: 100000 random pairs (seed 1) of 3240, "
            "plus the full nonzero-rank scan over all 81 words") in sampled.output
    exhaustive = runner.invoke(main, ["verify", str(path)])
    assert exhaustive.exit_code == 0
    assert "sampled" not in exhaustive.output


@pytest.mark.parametrize("guard_args", [[], ["--guard", "1"]],
                         ids=["exhaustive", "sampled"])
def test_verify_false_linearity_claim_fails_cleanly(runner, tmp_path, guard_args):
    # Declared linear, but I - [[1,1],[0,1]] has rank 1 while every nonzero
    # word has rank 2, so the words are not closed under subtraction.
    words = [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 1]]]
    path = tmp_path / "false_linear.json"
    path.write_text(json.dumps({"p": 2, "k": 2, "l": 2, "linear": True, "words": words}))
    result = runner.invoke(main, ["verify", str(path), *guard_args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    checks = [line for line in result.output.splitlines() if line.startswith("check ")]
    assert len(checks) == 1 and checks[0].endswith(" FAIL")
    assert "pairwise minimum 1 != minimum nonzero rank 2" in checks[0]
    assert "RESULT: FAIL" in result.output


@pytest.mark.parametrize("kind", ["subspace", "matrix"])
def test_verify_rejects_empty_check_selection(runner, tmp_path, kind):
    if kind == "subspace":
        _, path = construct(runner, tmp_path)
    else:
        path = image_code_file(tmp_path, 2, 1)
    result = runner.invoke(main, ["verify", str(path), "--checks", ","])
    assert result.exit_code == 2
    assert "RESULT" not in result.output


def test_verify_graph_check_inapplicable_to_matrix_codes(runner, tmp_path):
    code = build_image_code(2, 1, "O")
    path = tmp_path / "image.json"
    path.write_text(json.dumps(code.to_dict()))
    result = runner.invoke(main, ["verify", str(path), "--checks", "graph"])
    assert result.exit_code == 2


def test_verify_unknown_check(runner, tmp_path):
    _, out = construct(runner, tmp_path)
    result = runner.invoke(main, ["verify", str(out), "--checks", "parity"])
    assert result.exit_code == 2


def test_verify_unreadable_file(runner, tmp_path):
    result = runner.invoke(main, ["verify", str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize("payload", [
    {"p": 4_294_967_311, "n": 4, "k": 2, "provenance": {},
     "words": [[[1, 0, 0, 0], [0, 1, 0, 0]]]},
    {"p": 4_294_967_311, "k": 2, "l": 3, "linear": True,
     "words": [[[0, 0, 0], [0, 0, 0]]]},
])
def test_verify_refuses_moduli_above_the_int64_ceiling(runner, tmp_path, payload):
    # 4294967311 is prime, but products of its residues overflow int64.
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "exceeds" in result.output


def _matrix_file(words, p=2):
    return {"p": p, "k": 1, "l": 1, "linear": True, "words": words}


def _subspace_file(words, p=2):
    return {"p": p, "n": 4, "k": 2, "provenance": {}, "words": words}


E12 = [[1, 0, 0, 0], [0, 1, 0, 0]]

MALFORMED_FILES = {
    # numpy would truncate 1.9 to 1 and accept the linear code {0, 1}
    "matrix-float-entry": _matrix_file([[[0]], [[1.9]]]),
    "matrix-huge-entry": _matrix_file([[[0]], [[10**30]]]),
    "matrix-float-modulus": _matrix_file([[[0]], [[1]], [[2]]], p=3.0),
    "matrix-ragged-words": _matrix_file([[[0]], [[1, 0]]]),
    "matrix-string-entry": _matrix_file([[[0]], [["1"]]]),
    "matrix-boolean-entry": _matrix_file([[[False]], [[True]]]),
    "matrix-no-words": _matrix_file([]),
    "subspace-float-entry": _subspace_file([[[1, 0, 0, 0], [0, 1, 0, 0.5]]]),
    "subspace-huge-entry": _subspace_file([[[1, 0, 0, 0], [0, 1, 0, 10**30]]]),
    "subspace-float-modulus": _subspace_file([E12], p=3.0),
    "subspace-ragged-words": _subspace_file([E12, [[1, 0, 0], [0, 1, 0]]]),
    "subspace-string-entry": _subspace_file([[[1, 0, 0, "0"], [0, 1, 0, 0]]]),
    "subspace-no-words": _subspace_file([]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_code_files_exit_2_without_traceback(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_FILES[name]))
    commands = [["verify", str(path)]]
    if name.startswith("subspace"):
        commands.append(["params", str(path)])
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args[0], result.output)
        assert isinstance(result.exception, SystemExit), (args[0], result.exception)
        assert "malformed code file" in result.output
        assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_command(runner, tmp_path):
    dot = tmp_path / "gamma.dot"
    adj = tmp_path / "gamma.csv"
    result = runner.invoke(
        main,
        ["graph", "--p", "2", "--r", "2", "--out", str(dot),
         "--adjacency", str(adj)],
    )
    assert result.exit_code == 0
    assert "check vertices: claimed=21 computed=21 PASS" in result.output
    assert "check edges: claimed=210 computed=210 PASS" in result.output
    assert "check degrees: claimed={20} computed={20} PASS" in result.output
    text = dot.read_text()
    assert text.startswith("graph Gamma {\n") and text.count(" -- ") == 210
    sidecar = json.loads((tmp_path / "gamma.dot.json").read_text())
    assert len(sidecar["vertices"]) == 21
    assert len(adj.read_text().strip().split("\n")) == 21


def test_graph_command_rejects_p5(runner, tmp_path):
    result = runner.invoke(
        main, ["graph", "--p", "5", "--r", "1", "--out", str(tmp_path / "x.dot")]
    )
    assert result.exit_code == 2


def test_graph_command_refuses_p_above_label_range(runner, tmp_path, scans):
    dot = tmp_path / "x.dot"
    result = runner.invoke(main, ["graph", "--p", "17", "--r", "1", "--out", str(dot)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "p <= 16" in result.output
    assert not scans and not dot.exists()


# ---------------------------------------------------------------------------
# one pair scan per command
# ---------------------------------------------------------------------------

def test_construct_scans_pairs_once(runner, tmp_path, scans):
    result, _ = construct(runner, tmp_path, p=2, r=2)
    assert result.exit_code == 0
    assert len(scans) == 1


@pytest.mark.parametrize("args, expected", [
    (["params"], 1),
    (["verify"], 2),  # the code and its dual
    (["verify", "--checks", "distance,anticode,graph"], 1),
])
def test_file_commands_scan_each_code_once(runner, tmp_path, scans, args, expected):
    _, out = construct(runner, tmp_path, p=2, r=2)
    scans.clear()
    result = runner.invoke(main, [args[0], str(out), *args[1:]])
    assert result.exit_code == 0
    assert len(scans) == expected


def test_graph_scans_pairs_once(runner, tmp_path, scans):
    result = runner.invoke(
        main, ["graph", "--p", "2", "--r", "2", "--out", str(tmp_path / "g.dot")]
    )
    assert result.exit_code == 0
    assert len(scans) == 1


def test_matrix_verify_computes_distance_once(runner, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cli, "min_rank_distance")
    result = runner.invoke(main, ["verify", str(image_code_file(tmp_path, 3, 1))])
    assert result.exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("guard_args", [[], ["--guard", "10"]], ids=["exhaustive", "sampled"])
def test_matrix_verify_ranks_the_words_once(runner, tmp_path, monkeypatch, guard_args):
    stacks = []
    original = codes.batch_rank

    def counted(mats, p):
        stacks.append(len(mats))
        return original(mats, p)

    monkeypatch.setattr(codes, "batch_rank", counted)
    result = runner.invoke(main, ["verify", str(image_code_file(tmp_path, 3, 2)), *guard_args])
    assert result.exit_code == 0
    assert "check distance = min nonzero rank: claimed=2 computed=2 PASS" in result.output
    assert stacks.count(81) == 1


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_values(runner):
    assert runner.invoke(main, ["bound", "--n", "4", "--d", "4", "--k", "2",
                                "--q", "2"]).output.strip() == "5"
    assert runner.invoke(main, ["bound", "--n", "6", "--d", "4", "--k", "2",
                                "--q", "2"]).output.strip() == "21"
    assert runner.invoke(main, ["bound", "--n", "4", "--d", "2", "--k", "2",
                                "--q", "2", "--metric", "injection"]).output.strip() == "5"


def test_bound_rejects_bad_parameters(runner):
    result = runner.invoke(main, ["bound", "--n", "4", "--d", "3", "--k", "2",
                                  "--q", "2"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_summary(runner, tmp_path):
    _, out = construct(runner, tmp_path)
    result = runner.invoke(main, ["params", str(out)])
    assert result.exit_code == 0
    assert "n=4 M=5 d=4 k=2 q=2" in result.output


def test_params_rejects_matrix_files(runner, tmp_path):
    code = build_image_code(2, 1, "O")
    path = tmp_path / "image.json"
    path.write_text(json.dumps(code.to_dict()))
    result = runner.invoke(main, ["params", str(path)])
    assert result.exit_code == 2
