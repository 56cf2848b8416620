"""Command-line front end: builds the codes, reproduces the weight tables,
and re-verifies every claimed parameter by direct computation.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for usage
or parameter errors (including size-guard refusals).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .codes import (
    DEFAULT_SAMPLE_PAIRS,
    PAIR_GUARD,
    RankMetricCode,
    min_nonzero_rank,
    min_rank_distance,
    singleton_max_dim,
    weight_table_csv,
)
from .grassmann import (
    GrassmannianCode,
    anticode_bound,
    anticode_optimal_code,
    code_params,
    dual_code,
    dual_bases,
    min_subspace_distance,
    optimal_code_size,
)
from .graph import (
    LABEL_MAX_P,
    adjacency_csv,
    degree_sequence,
    intersection_graph,
    is_complete,
    to_dot,
    vertex_sidecar_json,
)

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


def _load_code_file(path: str):
    """Read a code file and classify it as subspace or matrix code."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read code file {path}: {exc}")
    try:
        if "n" in data and "provenance" in data:
            return "grassmann", GrassmannianCode.from_dict(data)
        if {"k", "l", "linear", "words"} <= set(data):
            return "matrix", RankMetricCode.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"malformed code file {path}: {exc}")
    raise click.UsageError(f"{path} is not a recognized code file")


@click.group()
def main():
    """Exact constructions and checks for rank-metric matrix codes and the
    constant-dimension subspace codes lifted from them."""


@main.command("table")
@click.option("--p", type=int, required=True, help="Field characteristic (2 or 3).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
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
@click.option("--out", type=click.Path(dir_okay=False), required=True,
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
    computed_tuple = code_params(code, pair_guard=guard)
    report.add("params (n,M,d,k)", claimed_tuple, computed_tuple)
    bound = anticode_bound(code.n, 4, 2, p, "subspace")
    report.add("anticode bound attained", bound, code.M)
    report.notes.append(f"ambient dimension n = 2r+2 = {code.n}")
    Path(out).write_text(json.dumps(code.to_dict(), sort_keys=True, indent=2) + "\n")
    report.notes.append(f"wrote {out}")
    _finish(report, started)


def _verify_grassmann(code: GrassmannianCode, checks, guard, report: RunReport):
    claimed = code.provenance.get("claimed", {})
    for check in checks:
        if check == "distance":
            if "d" not in claimed:
                raise click.UsageError(
                    "distance check needs a claimed d in the file's provenance"
                )
            computed = min_subspace_distance(code, pair_guard=guard)
            report.add("distance", claimed["d"], computed)
        elif check == "anticode":
            d = min_subspace_distance(code, pair_guard=guard)
            bound = anticode_bound(code.n, d, code.k, code.p, "subspace")
            report.add("anticode bound attained", bound, code.M)
        elif check == "dual":
            min_subspace_distance(code, pair_guard=guard)
            dual = dual_code(code, pair_guard=guard)
            ok_params = (
                dual.n == code.n
                and dual.M == code.M
                and dual.d == code.d
                and dual.k == code.n - code.k
            )
            ok_involution = np.array_equal(dual_bases(dual.words, dual.p), code.words)
            report.add("dual (n,M,d) preserved, k complemented", True, bool(ok_params))
            report.add("dual involution", True, bool(ok_involution))
        elif check == "graph":
            g = intersection_graph(code, pair_guard=guard)
            m = g.n_vertices
            report.add("graph complete", True, is_complete(g))
            report.add("graph edges", m * (m - 1) // 2, g.n_edges)
            degrees = set(degree_sequence(g))
            report.add("graph degrees", {m - 1}, degrees)
        else:
            raise click.UsageError(
                f"the {check} check applies to matrix codes, not subspace codes"
            )


def _verify_matrix(code: RankMetricCode, checks, guard, seed, report: RunReport):
    for check in checks:
        if check not in MATRIX_CHECKS:
            raise click.UsageError(
                f"the {check} check applies to subspace codes, not matrix codes"
            )
    if "mrd" in checks and not code.linear:
        raise click.UsageError("the mrd check needs a linear matrix code")
    try:
        delta = min_rank_distance(code, pair_guard=guard, seed=seed)
    except RuntimeError as exc:
        # The scan contradicts the file's linearity claim, so no distance
        # derived under that claim is reported.
        report.add("linear", True, str(exc))
        return
    m = len(code.words)
    npairs = m * (m - 1) // 2
    if npairs > guard:
        report.notes.append(
            f"distance sampled: {DEFAULT_SAMPLE_PAIRS} random pairs (seed {seed}) of "
            f"{npairs}, plus the full nonzero-rank scan over all {m} words"
        )
    for check in checks:
        if check == "mrd":
            bound = singleton_max_dim(code.nrows, code.ncols, delta)
            report.add("mrd (dimension = Singleton bound)", bound, code.rho)
        elif code.linear:
            report.add("distance = min nonzero rank", min_nonzero_rank(code), delta)
        else:
            report.add("distance", delta, delta)


@main.command("verify")
@click.argument("code_path", type=click.Path(exists=False))
@click.option("--checks", default=None,
              help="Comma-separated subset of mrd,anticode,distance,dual,graph "
                   "(default: all checks applicable to the file).")
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for sampled scans above the pair guard.")
def cmd_verify(code_path, checks, guard, seed):
    """Recompute the requested properties of a code file from scratch."""
    started = time.perf_counter()
    kind, code = _load_code_file(code_path)
    if checks is None:
        selected = GRASSMANN_CHECKS if kind == "grassmann" else MATRIX_CHECKS
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
            _verify_matrix(code, selected, guard, seed, report)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _finish(report, started)


@main.command("graph")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--variant", type=click.Choice(["O", "E"]), default="O", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Path for the DOT file (a .json sidecar holds the full bases).")
@click.option("--adjacency", type=click.Path(dir_okay=False), default=None,
              help="Also write the 0/1 adjacency matrix as CSV.")
@click.option("--guard", type=int, default=PAIR_GUARD, show_default=True)
def cmd_graph(p, r, variant, out, adjacency, guard):
    """Build the code's intersection graph and export it as DOT."""
    started = time.perf_counter()
    if p > LABEL_MAX_P:
        raise click.UsageError(f"graph labels support p <= {LABEL_MAX_P}, got p={p}")
    try:
        code = anticode_optimal_code(p, r, variant, pair_guard=guard)
        g = intersection_graph(code, pair_guard=guard)
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
    Path(out).write_text(to_dot(g))
    Path(out + ".json").write_text(vertex_sidecar_json(g))
    report.notes.append(f"wrote {out} and {out}.json")
    if adjacency:
        Path(adjacency).write_text(adjacency_csv(g))
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
    try:
        value = anticode_bound(n, d, k, q, metric)
    except (ValueError, ArithmeticError) as exc:
        raise click.UsageError(str(exc))
    click.echo(str(value))


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
        n, m, d, k = code_params(code, pair_guard=guard)
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
