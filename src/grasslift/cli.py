"""Command-line front end: builds the codes, reproduces the weight tables,
and re-verifies every claimed parameter by direct computation.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for usage
or parameter errors (including size-guard refusals and code files that their
constructors refuse, such as a false "linear": true).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .codes import (
    PAIR_GUARD,
    RankMetricCode,
    min_rank_distance,
    singleton_max_dim,
    weight_table_csv,
)
from .grassmann import (
    GrassmannianCode,
    anticode_bound,
    anticode_bound_min_digits,
    anticode_optimal_code,
    code_params,
    dual_code,
    loads_with_array,
    min_subspace_distance,
    optimal_code_size,
)
from .graph import (
    LABEL_MAX_P,
    adjacency_csv_blocks,
    degree_sequence,
    dot_blocks,
    intersection_graph,
    is_complete,
    vertex_sidecar_json,
)
from .matfp import mod

GRASSMANN_CHECKS = ("anticode", "distance", "dual", "graph")
MATRIX_CHECKS = ("mrd", "distance")
ALL_CHECKS = ("mrd", "anticode", "distance", "dual", "graph")


@dataclass
class CheckResult:
    name: str
    claimed: object
    computed: object
    passed: bool


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name, claimed, computed) -> bool:
        ok = claimed == computed
        self.checks.append(CheckResult(name, claimed, computed, ok))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines.append(f"parameters: {params}")
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"check {c.name}: claimed={c.claimed} computed={c.computed} {verdict}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"wall time: {self.wall_time:.3f}s")
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _finish(report: RunReport, started: float) -> None:
    report.wall_time = time.perf_counter() - started
    click.echo(report.render())
    if not report.passed:
        raise SystemExit(1)


def _printable_anticode_bound(n: int, d: int, k: int, q: int, metric: str = "subspace") -> int:
    """anticode_bound, refused with a usage error (exit 2) when its
    parameters are invalid or the value is too long to print."""
    # Python refuses to convert ints of more than this many digits to text
    # (0: no limit); a bound over it is refused before it is computed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = f"over the {limit}-digit limit of Python's int-to-str conversion"
    try:
        digits = anticode_bound_min_digits(n, d, k, q, metric)
        if limit and digits > limit:
            raise ValueError(f"the bound has at least {digits} decimal digits, {too_long}")
        value = anticode_bound(n, d, k, q, metric)
    except (ValueError, ArithmeticError) as exc:
        raise click.UsageError(str(exc))
    try:
        str(value)
    except ValueError:
        raise click.UsageError(f"the bound has {value.bit_length()} bits, {too_long}")
    return value


def _load_code_file(path: str):
    """Read a code file and classify it as subspace or matrix code."""
    # Besides malformed JSON, ValueError covers a file that is not UTF-8 and
    # an integer literal past Python's int-from-text digit limit.  JSON is
    # UTF-8 (RFC 8259), whatever the locale.
    try:
        data = loads_with_array(Path(path).read_text(encoding="utf-8"), "words")
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read code file {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"malformed code file {path}: the top level is not a JSON object")
    try:
        if "n" in data and "provenance" in data:
            return "grassmann", GrassmannianCode.from_dict(data)
        if {"k", "l", "linear", "words"} <= set(data):
            return "matrix", RankMetricCode.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"malformed code file {path}: {exc}")
    raise click.UsageError(f"{path} is not a recognized code file")


class OutPath(click.Path):
    """A file path to write: not a directory, and inside an existing,
    writable directory, so a bad path is refused before any work."""

    def __init__(self):
        super().__init__(dir_okay=False, writable=True)

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        parent = Path(path).absolute().parent
        if not parent.is_dir():
            self.fail(f"directory {str(parent)!r} does not exist", param, ctx)
        if not os.access(parent, os.W_OK):
            self.fail(f"directory {str(parent)!r} is not writable", param, ctx)
        return path


@click.group()
def main():
    """Exact constructions and checks for rank-metric matrix codes and the
    constant-dimension subspace codes lifted from them."""


@main.command("table")
@click.option("--p", type=int, required=True, help="Field characteristic (2 or 3).")
@click.option("--out", type=OutPath(), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_table(p, out):
    """Emit the weight table (alpha, hamming, phi, bachoc, rank) as CSV."""
    try:
        csv_text = weight_table_csv(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out:
        Path(out).write_text(csv_text)
        click.echo(f"wrote {out}")
    else:
        click.echo(csv_text, nl=False)


@main.command("construct")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--variant", type=click.Choice(["O", "E"]), default="O", show_default=True)
@click.option("--out", type=OutPath(), required=True,
              help="Path for the JSON code file.")
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True,
              help="Cap on pairwise verification operations.")
def cmd_construct(p, r, variant, out, guard):
    """Build the optimal (2r+2, (p^(2r+2)-1)/(p^2-1), 4, 2) code over GF(p)."""
    started = time.perf_counter()
    try:
        code = anticode_optimal_code(p, r, variant, pair_guard=guard)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = RunReport(
        "construct", {"p": p, "r": r, "variant": variant, "out": out}
    )
    claimed = code.provenance["claimed"]
    claimed_tuple = (claimed["n"], claimed["M"], claimed["d"], claimed["k"])
    computed_tuple = code_params(code)
    report.add("params (n,M,d,k)", claimed_tuple, computed_tuple)
    bound = anticode_bound(code.n, 4, 2, p, "subspace")
    report.add("anticode bound attained", bound, code.M)
    report.notes.append(f"ambient dimension n = 2r+2 = {code.n}")
    Path(out).write_text(code.to_json())
    report.notes.append(f"wrote {out}")
    _finish(report, started)


def _verify_grassmann(code: GrassmannianCode, checks, guard, report: RunReport):
    claimed = code.provenance.get("claimed", {})
    # Refusals that need no scan come first, in the order of the checks.
    for check in checks:
        if check not in GRASSMANN_CHECKS:
            raise click.UsageError(f"the {check} check applies to matrix codes, not subspace codes")
        if check == "distance" and "d" not in claimed:
            raise click.UsageError("distance check needs a claimed d in the file's provenance")
    # The one pair scan under --guard; every check below reads it.
    code.intersection_dims(guard)
    for check in checks:
        if check == "distance":
            report.add("distance", claimed["d"], min_subspace_distance(code))
        elif check == "anticode":
            d = min_subspace_distance(code)
            bound = _printable_anticode_bound(code.n, d, code.k, code.p)
            report.add("anticode bound attained", bound, code.M)
        elif check == "dual":
            dual = dual_code(code, pair_guard=guard)
            ok_params = (
                dual.n == code.n
                and dual.M == code.M
                # min_subspace_distance refuses one word, as distance and anticode do
                and dual.d == min_subspace_distance(code)
                and dual.k == code.n - code.k
            )
            # n - k RREF rows orthogonal to A_i span its complement, whose
            # complement is A_i; reducing each term keeps the sums in int64.
            products = np.zeros((code.M, code.k, dual.k), dtype=np.int64)
            for a, b in zip(code.words.transpose(2, 0, 1), dual.words.transpose(2, 0, 1)):
                products = mod(products + a[:, :, None] * b[:, None, :], code.p)
            ok_involution = dual.k == code.n - code.k and not products.any()
            report.add("dual (n,M,d) preserved, k complemented", True, bool(ok_params))
            report.add("dual involution", True, bool(ok_involution))
        else:
            g = intersection_graph(code)
            m = g.n_vertices
            report.add("graph complete", True, is_complete(g))
            report.add("graph edges", m * (m - 1) // 2, g.n_edges)
            degrees = set(degree_sequence(g))
            report.add("graph degrees", {m - 1}, degrees)


def _verify_matrix(code: RankMetricCode, checks, guard, report: RunReport):
    for check in checks:
        if check not in MATRIX_CHECKS:
            raise click.UsageError(
                f"the {check} check applies to subspace codes, not matrix codes"
            )
    if "mrd" in checks and not code.linear:
        raise click.UsageError("the mrd check needs a linear matrix code")
    delta = min_rank_distance(code, pair_guard=guard)
    for check in checks:
        if check == "mrd":
            bound = singleton_max_dim(code.nrows, code.ncols, delta)
            report.add("mrd (dimension = Singleton bound)", bound, code.rho)
        else:
            report.add("distance", delta, delta)


@main.command("verify")
@click.argument("code_path", type=click.Path(exists=False))
@click.option("--checks", default=None,
              help="Comma-separated subset of mrd,anticode,distance,dual,graph "
                   "(default: all checks applicable to the file).")
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Accepted for existing scripts; it does nothing, since no "
                   "verify scan samples.")
def cmd_verify(code_path, checks, guard, seed):
    """Recompute the requested properties of a code file from scratch."""
    started = time.perf_counter()
    kind, code = _load_code_file(code_path)
    if checks is None:
        # The mrd check is defined for linear codes only.
        selected = (GRASSMANN_CHECKS if kind == "grassmann"
                    else MATRIX_CHECKS if code.linear else ("distance",))
    else:
        selected = tuple(c.strip() for c in checks.split(",") if c.strip())
        unknown = [c for c in selected if c not in ALL_CHECKS]
        if unknown:
            raise click.UsageError(f"unknown checks: {', '.join(unknown)}")
        if not selected:
            raise click.UsageError("--checks selects no check")
    report = RunReport(
        "verify", {"file": code_path, "kind": kind, "checks": ",".join(selected)}
    )
    try:
        if kind == "grassmann":
            _verify_grassmann(code, selected, guard, report)
        else:
            _verify_matrix(code, selected, guard, report)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _finish(report, started)


def _write_blocks(path: str, blocks) -> None:
    """Write a writer's byte blocks to path as they come; the writer is
    called, and so makes its refusals, before the file is opened."""
    with open(path, "wb") as f:
        f.writelines(blocks)


@main.command("graph")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--variant", type=click.Choice(["O", "E"]), default="O", show_default=True)
@click.option("--out", type=OutPath(), required=True,
              help="Path for the DOT file (a .json sidecar holds the full bases).")
@click.option("--adjacency", type=OutPath(), default=None,
              help="Also write the 0/1 adjacency matrix as CSV.")
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True)
def cmd_graph(p, r, variant, out, adjacency, guard):
    """Build the code's intersection graph and export it as DOT."""
    started = time.perf_counter()
    if p > LABEL_MAX_P:
        raise click.UsageError(f"graph labels support p <= {LABEL_MAX_P}, got p={p}")
    OutPath().convert(out + ".json", None, click.get_current_context())
    try:
        code = anticode_optimal_code(p, r, variant, pair_guard=guard)
        g = intersection_graph(code)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = RunReport(
        "graph", {"p": p, "r": r, "variant": variant, "out": out}
    )
    m_claim = optimal_code_size(p, r)
    report.add("vertices", m_claim, g.n_vertices)
    report.add("edges", m_claim * (m_claim - 1) // 2, g.n_edges)
    report.add("degrees", {m_claim - 1}, set(degree_sequence(g)))
    report.add("complete", True, is_complete(g))
    _write_blocks(out, dot_blocks(g))
    Path(out + ".json").write_text(vertex_sidecar_json(g))
    report.notes.append(f"wrote {out} and {out}.json")
    if adjacency:
        _write_blocks(adjacency, adjacency_csv_blocks(g))
        report.notes.append(f"wrote {adjacency}")
    _finish(report, started)


@main.command("bound")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--metric", type=click.Choice(["subspace", "injection"]),
              default="subspace", show_default=True)
def cmd_bound(n, d, k, q, metric):
    """Print the anticode upper bound for the given parameters."""
    click.echo(str(_printable_anticode_bound(n, d, k, q, metric)))


@main.command("params")
@click.argument("code_path", type=click.Path(exists=False))
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True)
def cmd_params(code_path, guard):
    """Recompute and print a subspace code file's (n, M, d, k) summary."""
    started = time.perf_counter()
    kind, code = _load_code_file(code_path)
    if kind != "grassmann":
        raise click.UsageError("params applies to subspace code files")
    report = RunReport("params", {"file": code_path})
    try:
        code.intersection_dims(guard)
        n, m, d, k = code_params(code)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"n={n} M={m} d={d} k={k} q={code.p}")
    claimed = code.provenance.get("claimed")
    if claimed:
        report.add(
            "params (n,M,d,k)",
            (claimed.get("n"), claimed.get("M"), claimed.get("d"), claimed.get("k")),
            (n, m, d, k),
        )
        _finish(report, started)


if __name__ == "__main__":
    main()
