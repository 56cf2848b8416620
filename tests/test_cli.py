import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import grasslift
from grasslift import cli, codes, grassmann
from grasslift.cli import main
from grasslift.codes import build_image_code, weight_table_csv
from grasslift.grassmann import anticode_optimal_code
from grasslift.matfp import MatrixFp, batch_lift, mod
from oracles import LARGEST_PRIME


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


def test_construct_refuses_a_block_table_over_the_word_guard(runner, tmp_path):
    # A raised pair guard lets p = 257 reach the p^2 block table, which refuses it.
    result = runner.invoke(main, ["construct", "--p", "257", "--r", "1", "--guard",
                                  str(10**12), "--out", str(tmp_path / "c.json")])
    assert result.exit_code == 2
    assert "p=257" in result.output and "guard" in result.output
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


@pytest.mark.parametrize("checks", ["mrd", "distance,mrd"])
def test_verify_refuses_an_inapplicable_check_before_the_scan(runner, tmp_path, scans, checks):
    # The one pair scan runs after every refusal that needs none, so a
    # lowered guard does not hide the check's name.
    _, out = construct(runner, tmp_path, p=2, r=2)
    scans.clear()
    result = runner.invoke(main, ["verify", str(out), "--checks", checks, "--guard", "1"])
    assert result.exit_code == 2
    assert "the mrd check applies to matrix codes" in result.output
    assert not scans


@pytest.mark.parametrize("checks", ["distance", "anticode", "dual"])
def test_verify_refuses_the_distance_of_a_single_word(runner, tmp_path, checks):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(_subspace_file([E12], provenance={"claimed": {"d": 4}})))
    result = runner.invoke(main, ["verify", str(path), "--checks", checks])
    assert result.exit_code == 2, result.output
    assert "minimum distance needs at least two words" in result.output


@pytest.mark.parametrize("p", [2, LARGEST_PRIME])
@pytest.mark.parametrize("swap", [False, True], ids=["dual", "swapped"])
def test_dual_involution_agrees_with_the_double_dual(runner, tmp_path, monkeypatch, p, swap):
    # At the largest prime the words are lifts (I | A) of random 3 x 3
    # matrices, whose duals' RREFs (I | -A^-T) share their free columns, so a
    # word times its dual's transpose sums three products of up to 2^63 each;
    # the (2, 1) code is over GF(2).
    if p == 2:
        code = anticode_optimal_code(2, 1, "O")
    else:
        rng = np.random.default_rng(5)
        code = grassmann.GrassmannianCode(batch_lift(rng.integers(0, p, (4, 3, 3)), 6), p)
    path = tmp_path / "code.json"
    path.write_text(code.to_json())
    duals = []

    def dual_code(code, pair_guard):
        dual = grassmann.dual_code(code, pair_guard)
        if swap:  # the first two duals trade places: still a code, same (n, M, d, k)
            words = dual.words[[1, 0, *range(2, dual.M)]]
            dual = grassmann.GrassmannianCode(words, dual.p, dual.provenance)
            dual.intersection_dims(pair_guard)
        duals.append(dual)
        return dual

    monkeypatch.setattr(cli, "dual_code", dual_code)
    result = runner.invoke(main, ["verify", str(path), "--checks", "dual"])
    # The double dual, eliminated again, equals the words exactly when the
    # duals are right.
    expected = np.array_equal(grassmann.dual_bases(duals[0].words, p), code.words)
    assert expected is not swap
    # An int64 matmul wraps at the largest prime, and its residues are wrong.
    wrapped = mod(code.words @ duals[0].words.transpose(0, 2, 1), p).any()
    assert wrapped == (swap or p != 2)
    assert result.exit_code == (1 if swap else 0), result.output
    assert ("check dual (n,M,d) preserved, k complemented: claimed=True computed=True PASS"
            in result.output)
    verdict = "computed=True PASS" if expected else "computed=False FAIL"
    assert f"check dual involution: claimed=True {verdict}" in result.output


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


def test_verify_matrix_code_reports_the_same_checks_on_both_distance_routes(runner, tmp_path):
    path = image_code_file(tmp_path, 3, 2)
    above = runner.invoke(main, ["verify", str(path), "--guard", "10", "--seed", "1"])
    exhaustive = runner.invoke(main, ["verify", str(path)])
    checks = []
    for result in (above, exhaustive):
        assert result.exit_code == 0
        assert "sampled" not in result.output
        checks.append([line for line in result.output.splitlines() if line.startswith("check ")])
    assert checks[0] == checks[1] and len(checks[0]) == 2


def test_verify_non_linear_matrix_code_scans_pairs_under_the_guard(runner, tmp_path):
    # The (3, 2) O image without its zero word: 80 words, 3160 pairs.
    words = [w for w in build_image_code(3, 2, "O").words.tolist() if any(map(any, w))]
    path = tmp_path / "non_linear.json"
    path.write_text(json.dumps({"p": 3, "k": 2, "l": 4, "linear": False, "words": words}))
    result = runner.invoke(main, ["verify", str(path), "--checks", "distance"])
    assert result.exit_code == 0
    assert "check distance: claimed=2 computed=2 PASS" in result.output
    refused = runner.invoke(main, ["verify", str(path), "--checks", "distance",
                                   "--guard", "10"])
    assert refused.exit_code == 2
    assert "3160 pairs exceed the guard (10)" in refused.output
    assert "Traceback" not in refused.output and "RESULT" not in refused.output


def test_verify_non_linear_matrix_code_defaults_to_the_distance_check(runner, tmp_path):
    # The (3, 1) O image without its zero word: 8 words of rank 2, not linear.
    words = [w for w in build_image_code(3, 1, "O").words.tolist() if any(map(any, w))]
    path = tmp_path / "non_linear.json"
    path.write_text(json.dumps({"p": 3, "k": 2, "l": 2, "linear": False, "words": words}))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert "checks=distance" in result.output
    assert [line for line in result.output.splitlines() if line.startswith("check ")] == [
        "check distance: claimed=2 computed=2 PASS"]
    # Asked for explicitly, the mrd check is still refused.
    refused = runner.invoke(main, ["verify", str(path), "--checks", "mrd"])
    assert refused.exit_code == 2
    assert "the mrd check needs a linear matrix code" in refused.output


@pytest.mark.parametrize("guard_args", [[], ["--guard", "1"]],
                         ids=["exhaustive", "sampled"])
def test_verify_false_linearity_claim_fails_cleanly(runner, tmp_path, guard_args):
    # Declared linear, but I - [[1,1],[0,1]] has rank 1 while every nonzero
    # word has rank 2, so the words are not closed under subtraction.
    words = [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 1]]]
    path = tmp_path / "false_linear.json"
    path.write_text(json.dumps({"p": 2, "k": 2, "l": 2, "linear": True, "words": words}))
    result = runner.invoke(main, ["verify", str(path), *guard_args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "malformed code file" in result.output
    assert "closed under addition and scalar multiples" in result.output
    assert "Traceback" not in result.output and "RESULT" not in result.output


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


@pytest.mark.parametrize("name", ["not-utf8", "long-integer"])
def test_unreadable_code_files_exit_2_without_traceback(runner, tmp_path, int_str_limit, name):
    path = tmp_path / f"{name}.json"
    if name == "not-utf8":
        path.write_bytes(b'{"p": 2, "n": 4, "k": 2, "provenance": {"\xff": 0}, "words": []}')
    else:  # an integer literal past the int-from-text digit limit
        path.write_text('{"p": ' + "1" * 5000 + ', "n": 4, "k": 2, "provenance": {}}')
    for command in ("verify", "params"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit), (command, result.exception)
        assert "cannot read code file" in result.output
        assert "Traceback" not in result.output


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


def _matrix_file(words, p=2, linear=True):
    return {"p": p, "k": 1, "l": 1, "linear": linear, "words": words}


def _subspace_file(words, p=2, provenance=None):
    return {"p": p, "n": 4, "k": 2, "provenance": provenance or {}, "words": words}


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
    # bool("true") would accept the claim, and this code would then pass
    "matrix-string-linear": _matrix_file([[[0]], [[1]]], linear="true"),
    "subspace-float-entry": _subspace_file([[[1, 0, 0, 0], [0, 1, 0, 0.5]]]),
    "subspace-huge-entry": _subspace_file([[[1, 0, 0, 0], [0, 1, 0, 10**30]]]),
    "subspace-float-modulus": _subspace_file([E12], p=3.0),
    "subspace-ragged-words": _subspace_file([E12, [[1, 0, 0], [0, 1, 0]]]),
    "subspace-string-entry": _subspace_file([[[1, 0, 0, "0"], [0, 1, 0, 0]]]),
    "subspace-no-words": _subspace_file([]),
    # verify and params would index into the number 5 or into null
    "subspace-claimed-not-object": _subspace_file([E12], provenance={"claimed": 5}),
    "subspace-claimed-null": _subspace_file([E12], provenance={"claimed": None}),
    # 1.0 == 1 and true == 1: the declared shape must still be JSON integers
    "matrix-float-shape": {**_matrix_file([[[0]], [[1]]]), "k": 1.0},
    "matrix-boolean-shape": {**_matrix_file([[[0]], [[1]]]), "l": True},
    "subspace-boolean-shape": {"p": 2, "n": 2, "k": True, "provenance": {},
                               "words": [[[1, 0]], [[0, 1]]]},
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


@pytest.mark.parametrize("command", ["verify", "params"])
def test_declared_shapes_that_are_not_integers_exit_2(runner, tmp_path, command):
    # The (2, 1) code's own file, which passes with "n": 4 and "k": 2.
    data = anticode_optimal_code(2, 1, "O").to_dict()
    path = tmp_path / "code.json"
    for declared, shown in (({}, None), ({"n": 4.0, "k": 2.0}, "4.0, 2.0"),
                            ({"k": 2.0}, "4, 2.0")):
        path.write_text(json.dumps({**data, **declared}))
        result = runner.invoke(main, [command, str(path)])
        if shown is None:
            assert result.exit_code == 0 and "RESULT: PASS" in result.output
        else:
            assert result.exit_code == 2, result.output
            assert f"declared n and k must be integers, got {shown}" in result.output
            assert "malformed code file" in result.output and "RESULT" not in result.output


@pytest.mark.parametrize("data", ["n provenance", ["n", "provenance"]], ids=["string", "list"])
def test_non_object_code_files_exit_2_without_traceback(runner, tmp_path, data):
    # Both hold "n" and "provenance", the keys that mark a subspace file.
    path = tmp_path / "o.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "params"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit), (command, result.exception)
        assert "the top level is not a JSON object" in result.output
        assert "Traceback" not in result.output


@pytest.mark.parametrize("data", [
    _matrix_file([[[0]], [[1]]], p=True),
    _subspace_file([E12], p=True),
])
def test_boolean_modulus_exits_2_as_not_an_integer(runner, tmp_path, data):
    # JSON true is a Python bool, an int subclass, not the modulus 1
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "modulus must be an integer, got True" in result.output


# ---------------------------------------------------------------------------
# code-file reading: the byte scan of the words array, else json.loads
# ---------------------------------------------------------------------------

# The (2, 1) code's file with sorted keys, so that its words end it.
CODE_21 = anticode_optimal_code(2, 1, "O").to_dict()
WORDS_21 = json.dumps(CODE_21["words"])
TEXT_21 = json.dumps(CODE_21, sort_keys=True)
HEAD_21 = TEXT_21[:TEXT_21.index('"words"')]


def _with_first_entry(entry):
    return TEXT_21.replace("[[[1, 0", f"[[[{entry}, 0", 1)


ADVERSARIAL_FILES = {
    "leading-zero": _with_first_entry("01"),
    "minus-zero": TEXT_21.replace("[[[1, 0", "[[[1, -0", 1),
    "float": _with_first_entry("1.0"),
    "exponent": _with_first_entry("1e3"),
    "double-minus": _with_first_entry("--1"),
    "plus": _with_first_entry("+1"),
    "2^63": _with_first_entry(str(2**63)),
    "int64-max": _with_first_entry(str(2**63 - 1)),  # 19 digits, odd
    "18-digits": _with_first_entry("1" + "0" * 16 + "1"),
    "negative": _with_first_entry("-1"),
    "empty": HEAD_21 + '"words": []}',
    "empty-word": HEAD_21 + '"words": [[]]}',
    # Read by the first item of each axis, it is the code (2, 2, 4).
    "ragged": HEAD_21 + '"words": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0], [0, 0, 0, 0, 1, 0]]]}',
    "words-in-a-string": TEXT_21[:-1] + ', "z": "\\"words\\": [[[0, 0, 1, 0], [0, 0, 0, 1]]]"}',
    "nested-words": '{"k": 1, "n": 2, "p": 2, "words": 0, "provenance": {"words": [[[1, 0]]]}}',
    "nested-words-first": '{"provenance": {"words": [[[1, 0]]]}, "k": 1, "n": 2, "p": 2, "words": 0}',
    "nested-words-nan": '{"k": 1, "n": 2, "p": 2, "words": NaN, "provenance": {"words": [[[1, 0]]]}}',
    # The last '"words"' closes the string "\"words", and the colon after it
    # and the span to the last "]" sit inside a later key.
    "words-key-in-a-string": '{"k": 1, "n": 2, "p": 2, "provenance": {}, "words": NaN, '
                             '"z": "\\"words", ":[[[1, 0]]]": 0}',
    "words-key-in-a-string-infinity": '{"k": 1, "n": 2, "p": 2, "provenance": {}, '
                                      '"words": Infinity, "z": "\\"words", ":[[[1, 0]]]": 0}',
    "duplicate-words": TEXT_21.replace("{", '{"words": 0, ', 1),
    "duplicate-words-last-0": TEXT_21[:-1] + ', "words": 0}',
    "nan-in-provenance": TEXT_21.replace('"provenance": {', '"provenance": {"x": NaN, ', 1),
    "words-not-last": '{"words": ' + WORDS_21 + ", " + HEAD_21[1:-2] + "}",
    "non-ascii-provenance": TEXT_21.replace('"provenance": {', '"provenance": {"x": "p – r", ', 1),
    "utf8-bom": "﻿" + TEXT_21,
}


def _invoke_both_readers(runner, monkeypatch, args):
    """(exit code, output lines but the wall time) of the command with the
    byte-scan reader, and with json.loads alone."""
    results = []
    for reader in (None, lambda text, key: json.loads(text)):
        with monkeypatch.context() as m:
            if reader:
                m.setattr(cli, "loads_with_array", reader)
            result = runner.invoke(main, args)
        assert "Traceback" not in result.output
        results.append((result.exit_code, [line for line in result.output.splitlines()
                                           if not line.startswith("wall time:")]))
    return results


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_FILES))
def test_adversarial_code_files_read_as_by_json_loads(runner, tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.json"
    path.write_text(ADVERSARIAL_FILES[name], encoding="utf-8")
    for command in ("verify", "params"):
        scanned, decoded = _invoke_both_readers(runner, monkeypatch, [command, str(path)])
        assert scanned == decoded, command


def test_adversarial_code_files_pass_and_fail(runner, tmp_path):
    exit_codes = {}
    for name, text in ADVERSARIAL_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        exit_codes[name] = runner.invoke(main, ["verify", str(path)]).exit_code
    passing = {"minus-zero", "int64-max", "18-digits", "negative", "words-in-a-string",
               "duplicate-words", "nan-in-provenance", "words-not-last", "non-ascii-provenance"}
    assert exit_codes == {name: 0 if name in passing else 2 for name in ADVERSARIAL_FILES}


def _decoded_lengths(monkeypatch):
    """Wrap json.loads, as the reader calls it; returns the list of the
    lengths of the texts it decodes."""
    lengths = []
    loads = grassmann.json.loads

    def recording(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(grassmann.json, "loads", recording)
    return lengths


@pytest.mark.parametrize("kind", ["construct-3-3", "matrix-7-2"])
def test_code_files_are_read_without_decoding_the_words(runner, tmp_path, monkeypatch, kind):
    if kind == "construct-3-3":
        result, path = construct(runner, tmp_path, p=3, r=3)
        assert result.exit_code == 0
        commands = [["verify", str(path)], ["params", str(path)]]
    else:  # the benchmark's matrix-code file: sorted keys, default separators
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(build_image_code(7, 2, "O").to_dict(), sort_keys=True) + "\n")
        commands = [["verify", str(path)]]
    text = path.read_text()
    words_length = text.rindex("]") + 1 - text.index("[", text.rindex('"words"'))
    lengths = _decoded_lengths(monkeypatch)
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert len(lengths) == len(commands)
    assert max(lengths) <= len(text) - words_length + len("NaN")


def test_code_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259); under the C locale Python's default text
    # encoding is ASCII, and a raw en dash in the provenance failed to decode.
    path = tmp_path / "u.json"
    data = anticode_optimal_code(2, 1, "O").to_dict()
    data["provenance"]["note"] = "p – r"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(grasslift.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", "from grasslift.cli import main; main()",
                             "verify", str(path)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "RESULT: PASS" in result.stdout


@pytest.mark.parametrize("args", [
    ["construct", "--p", "2", "--r", "2", "--out", "{missing}/code.json"],
    ["graph", "--p", "2", "--r", "2", "--out", "{missing}/g.dot"],
    ["graph", "--p", "2", "--r", "2", "--out", "{tmp}/g.dot", "--adjacency", "{missing}/g.csv"],
    ["table", "--p", "2", "--out", "{missing}/table.csv"],
])
def test_output_under_a_missing_directory_exits_2_before_any_scan(runner, tmp_path, scans, args):
    args = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "does not exist" in result.output
    assert "Traceback" not in result.output
    assert not scans and list(tmp_path.iterdir()) == []


def test_graph_refuses_a_directory_at_the_sidecar_path(runner, tmp_path, scans):
    (tmp_path / "g.dot.json").mkdir()
    result = runner.invoke(main, ["graph", "--p", "2", "--r", "1", "--out", str(tmp_path / "g.dot")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "is a directory" in result.output
    assert not scans and not (tmp_path / "g.dot").exists()


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
def test_matrix_verify_ranks_one_word_per_projective_point(runner, tmp_path, monkeypatch,
                                                           guard_args):
    # The 81 words of the (3, 2) code: the zero word and 40 projective points.
    stacks = []
    original = codes.batch_rank

    def counted(mats, p):
        stacks.append(len(mats))
        return original(mats, p)

    monkeypatch.setattr(codes, "batch_rank", counted)
    result = runner.invoke(main, ["verify", str(image_code_file(tmp_path, 3, 2)), *guard_args])
    assert result.exit_code == 0
    assert "check distance: claimed=2 computed=2 PASS" in result.output
    assert stacks == [41]


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
    result = runner.invoke(main, ["bound", "--n", "4", "--d", "4", "--k", "5",
                                  "--q", "2"])
    assert result.exit_code == 2
    assert "k=5 exceeds n=4" in result.output


def test_bound_refuses_q_that_is_not_a_prime_power(runner):
    result = runner.invoke(main, ["bound", "--n", "6", "--d", "4", "--k", "2", "--q", "6"])
    assert result.exit_code == 2
    assert "q=6 is not a prime power" in result.output
    for q, value in (("4", "273"), ("9", "6643")):
        result = runner.invoke(main, ["bound", "--n", "6", "--d", "4", "--k", "2", "--q", q])
        assert result.exit_code == 0 and result.output == value + "\n"


@pytest.fixture
def int_str_limit():
    """Python's int-to-str digit limit, set to its default of 4300."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any size to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def bound(runner, n, d, k):
    return runner.invoke(main, ["bound", "--n", str(n), "--d", str(d), "--k", str(k),
                                "--q", "2"])


def test_bound_prints_values_up_to_the_int_str_limit(runner, int_str_limit):
    # 2^14284 - 1 = [14284, 1]_2 / [1, 1]_2 has exactly 4300 digits.
    result = bound(runner, 14284, 2, 1)
    assert result.exit_code == 0
    assert result.output == str(2**14284 - 1) + "\n"
    assert len(result.output) == int_str_limit + 1
    # With the limit lifted, the 4301-digit value refused below prints in full.
    sys.set_int_max_str_digits(0)
    result = bound(runner, 14285, 2, 1)
    assert result.exit_code == 0
    assert result.output == str(2**14285 - 1) + "\n"


def test_bound_refuses_values_over_the_int_str_limit(runner, int_str_limit, monkeypatch):
    # 2^14285 - 1 has 4301 digits, but its digit bound reads 4300: it is
    # computed and refused when it is converted to text.
    result = bound(runner, 14285, 2, 1)
    assert result.exit_code == 2
    assert "14285 bits, over the 4300-digit limit" in result.output
    # Far over the limit the size is refused before any Gaussian coefficient.
    monkeypatch.setattr(grassmann, "gaussian_coefficient", None)
    for n, k, digits in ((1000, 500, 75107), (400000, 200000, 12041139608)):
        result = bound(runner, n, 4, k)
        assert result.exit_code == 2
        assert f"at least {digits} decimal digits, over the 4300-digit limit" in result.output


def test_verify_refuses_an_anticode_bound_over_the_int_str_limit(runner, tmp_path,
                                                                   int_str_limit, monkeypatch):
    # Two 120-dimensional words of GF(2)^240 meeting in 119 dimensions: d = 2,
    # and the anticode bound [240, 120]_2 has at least 4335 digits.
    a = [[int(j == i) for j in range(240)] for i in range(120)]
    b = a[:119] + [[int(j == 120) for j in range(240)]]
    path = tmp_path / "long_bound.json"
    path.write_text(json.dumps({"p": 2, "n": 240, "k": 120, "words": [a, b],
                                "provenance": {"claimed": {"d": 2}}}))
    refusal = [line for line in bound(runner, 240, 2, 120).output.splitlines()
               if line.startswith("Error:")]
    assert refusal == ["Error: the bound has at least 4335 decimal digits, over the "
                       "4300-digit limit of Python's int-to-str conversion"]
    # The size is refused before any Gaussian coefficient.
    monkeypatch.setattr(grassmann, "gaussian_coefficient", None)
    for args in ([], ["--checks", "anticode"]):
        result = runner.invoke(main, ["verify", str(path), *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert refusal[0] in result.output.splitlines()
        assert "Traceback" not in result.output


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
