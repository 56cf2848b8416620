"""The benchmark's workloads: job lists, their generated inputs, and the
output gate every job must pass.

Every workload is a closed loop with one client: the jobs of a pass run in
order in one process, each starting only when the previous one has
finished.  CLI jobs are in-process calls to
``grasslift.cli.main([...], standalone_mode=False)``, so interpreter start-up
is not part of a job; library jobs call the public functions directly.

The seed picks the GF(p^2) image variant (O or E) of every CLI case, the
case order of lift-k2 and the seeds of every sampled scan.  The work of a
pass does not depend on it: both variants give codes of the same size.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).with_name("digests.json")

# build_image_code's materialization cap; larger images are streamed.
WORD_CAP = 1 << 16
# A --guard below the 2,881,200 pairs of the (7, 2) matrix code, so that
# verify takes its seeded sampled fallback.
SAMPLED_GUARD = 1 << 20

# Rationale, cited by name in later changes.
WORKLOADS = {
    # The main user path: construct -> params -> verify -> graph per case,
    # with write jobs (construct, graph) beside read jobs (params, verify)
    # and p=2 cases beside odd-p cases.  About 70% of a pass is batch_rank
    # on 4-row stacks inside pairwise_intersection_dims, and each code is
    # scanned about 7 times across its 4 jobs, so a pair-scan, scan-once or
    # GF(2) change shows here (matfp.batch_rank.rows4.*,
    # grassmann.scan_redundancy).  About 15% is Python edge handling in
    # graph (graph.intersection_graph.self_s).  No 2- or 12-row stacks run.
    "lift-k2": "construct, params, verify and graph on (p,r) = (2,4), (3,3), (7,1), (2,3); 4-row pair stacks dominate",
    # construct --p 3 --r 3 then verify --checks dual: 820 duals of
    # dimension 6 in GF(3)^8.  About 90% is batch_rank on 12-row stacks
    # (the generic elimination path, no minors shortcut) plus a
    # null_space/span per word, so a change to the RREF kernel or to
    # array-native canonicalisation shows here (matfp.batch_rank.rows12.*,
    # matfp.null_space, grassmann.span).  Odd p only: a GF(2)-only path
    # must leave it unchanged.
    "dual-k6": "construct (3,3) then verify --checks dual; 12-row elimination stacks of the duals dominate",
    # No subspace codes: the A03 sweep over p in {2,3,7,13} x r in {1,2,3}
    # x {O,E} (materialized under 2^16 words, streamed above) plus verify
    # of a (7,2) matrix-code file, exhaustive and sampled.  The cost is the
    # two-row minors path of batch_rank and _image_batch
    # (matfp.batch_rank.rows2.*, codes.*, gf.ExtFieldElement.objects).  A
    # grassmann change should leave it unchanged; it catches a unified
    # kernel that slows the 2-row case.
    "mrd-stream": "A03 image-code sweep and (7,2) matrix-code verify; 2-row minors and streamed images, no subspace codes",
}

LIFT_CASES = ((2, 4), (3, 3), (7, 1), (2, 3))
DUAL_CASE = (3, 3)
MRD_GRID = tuple(itertools.product((2, 3, 7, 13), (1, 2, 3)))
MATRIX_CASE = (7, 2)
WARMUP_CASE = (2, 1)


@dataclass
class Job:
    kind: str                      # construct, params, verify, graph or sweep
    label: str
    run: Callable                  # run(tracer or None) -> outcome
    check: Callable                # check(outcome, digests) -> list of problems
    reported_pairs: int = 0        # M(M-1)/2 of the subspace code reported on
    outputs: tuple = ()            # (path, digest key) of files the job writes


def optimal_size(p: int, r: int) -> int:
    return (p ** (2 * r + 2) - 1) // (p**2 - 1)


def gaussian(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_files(outputs, digests) -> list[str]:
    """Problems with the files a job wrote: missing, or not byte-identical
    to the recorded digest."""
    problems = []
    for path, key in outputs:
        if not path.exists():
            problems.append(f"{key}: not written")
        elif sha256(path) != digests.get(key):
            problems.append(f"{key}: SHA-256 differs from the recorded digest")
    return problems


PARAMS_LINE = re.compile(r"^n=(\d+) M=(\d+) d=(\d+) k=(\d+) q=(\d+)$", re.M)


def cli_job(kind, args, outputs=(), params_for=None, reported_pairs=0) -> Job:
    """A CLI job: exit 0, ``RESULT: PASS``, byte-identical files and, for
    ``params``, the line ``n=2r+2 M=(p^(2r+2)-1)/(p^2-1) d=4 k=2 q=p`` with M
    equal to the anticode bound."""
    args = [str(a) for a in args]

    def run(tracer):
        import click
        from grasslift import cli

        buf = io.StringIO()
        code = 0
        with redirect_stdout(buf):
            try:
                if tracer is None:
                    rv = cli.main(args, standalone_mode=False)
                else:
                    with tracer.span(f"cli.{args[0]}"):
                        rv = cli.main(args, standalone_mode=False)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code
            except click.ClickException as exc:
                code = exc.exit_code
        return code, buf.getvalue()

    def check(outcome, digests):
        code, text = outcome
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "RESULT: PASS" not in text.splitlines():
            problems.append("no RESULT: PASS line")
        if params_for is not None:
            p, r = params_for
            n, m = 2 * r + 2, optimal_size(p, r)
            bound = gaussian(n, 1, p) // gaussian(2, 1, p)
            found = PARAMS_LINE.search(text)
            got = tuple(map(int, found.groups())) if found else None
            if got != (n, m, 4, 2, p) or m != bound:
                problems.append(f"params line {got} != {(n, m, 4, 2, p)} (bound {bound})")
        return problems + check_files(outputs, digests)

    return Job(kind, " ".join(args), run, check, reported_pairs, tuple(outputs))


def sweep_job(p: int, r: int, variant: str, seed: int, stream: bool) -> Job:
    """A03 case checked against values known independently of the code:
    p^(2r) words, delta = 2 and MRD; streamed, the rank histogram
    {0: 1, 1: 0, 2: p^(2r) - 1} and a sampled pair minimum of 2."""
    n_words = p ** (2 * r)

    def run(tracer):
        from grasslift import codes

        if stream:
            return {
                "hist": codes.image_rank_counts(p, r, variant),
                "delta": codes.sample_image_pair_min_rank(p, r, variant, seed=seed),
            }
        code = codes.build_image_code(p, r, variant)
        delta = codes.min_rank_distance(code, seed=seed)
        return {"words": len(code), "delta": delta, "mrd": codes.is_mrd(code)}

    if stream:
        expected = {"hist": {0: 1, 1: 0, 2: n_words - 1}, "delta": 2}
    else:
        expected = {"words": n_words, "delta": 2, "mrd": True}

    def check(outcome, digests):
        return [] if outcome == expected else [f"got {outcome}, expected {expected}"]

    how = "stream" if stream else "build"
    return Job("sweep", f"sweep {how} p={p} r={r} {variant}", run, check)


def construct_job(work: Path, p: int, r: int, v: str) -> Job:
    """construct of the (p, r, v) code; its file is ``outputs[0][0]``."""
    tag = f"p{p}r{r}{v}"
    code = work / f"code-{tag}.json"
    m = optimal_size(p, r)
    return cli_job("construct", ["construct", "--p", p, "--r", r, "--variant", v, "--out", code],
                   outputs=[(code, f"code/{tag}.json")], reported_pairs=m * (m - 1) // 2)


def lift_case_jobs(work: Path, p: int, r: int, v: str) -> list[Job]:
    construct = construct_job(work, p, r, v)
    code, pairs = construct.outputs[0][0], construct.reported_pairs
    tag = f"p{p}r{r}{v}"
    dot, csv = work / f"graph-{tag}.dot", work / f"graph-{tag}.csv"
    sidecar = Path(f"{dot}.json")
    return [
        construct,
        cli_job("params", ["params", code], params_for=(p, r), reported_pairs=pairs),
        cli_job("verify", ["verify", code, "--checks", "distance,anticode,graph"],
                reported_pairs=pairs),
        cli_job("graph", ["graph", "--p", p, "--r", r, "--variant", v, "--out", dot,
                          "--adjacency", csv],
                outputs=[(dot, f"graph/{tag}.dot"), (sidecar, f"graph/{tag}.dot.json"),
                         (csv, f"graph/{tag}.csv")],
                reported_pairs=pairs),
    ]


def dual_jobs(work: Path, p: int, r: int, v: str) -> list[Job]:
    construct = construct_job(work, p, r, v)
    code = construct.outputs[0][0]
    return [
        construct,
        cli_job("verify", ["verify", code, "--checks", "dual"],
                reported_pairs=construct.reported_pairs),
    ]


def matrix_code_json(p: int, r: int, variant: str) -> str:
    """The image code of (GF(p^2))^r as a matrix-code file, built here from
    the block formulas rather than by grasslift: per coordinate c + d*w the
    O block is [[d, c], [c+d, d]] and the E block [[c, d], [d, c+d]]."""
    words = []
    for flat in itertools.product(range(p), repeat=2 * r):
        top, bot = [], []
        for c, d in zip(flat[0::2], flat[1::2]):
            if variant == "O":
                top += [d, c]
                bot += [(c + d) % p, d]
            else:
                top += [c, d]
                bot += [d, (c + d) % p]
        words.append([top, bot])
    data = {"p": p, "k": 2, "l": 2 * r, "linear": True, "words": words}
    return json.dumps(data, sort_keys=True) + "\n"


def matrix_jobs(work: Path, p: int, r: int, v: str, seed: int) -> list[Job]:
    """Writes the matrix-code input file (set-up work) and returns the two
    verify jobs on it: exhaustive, and sampled under a lowered guard."""
    path = work / f"matrix-p{p}r{r}{v}.json"
    path.write_text(matrix_code_json(p, r, v))
    inputs = [(path, f"input/matrix-p{p}r{r}{v}.json")]
    return [
        cli_job("verify", ["verify", path], outputs=inputs),
        cli_job("verify", ["verify", path, "--guard", SAMPLED_GUARD, "--seed", seed],
                outputs=inputs),
    ]


def build(name: str, seed: int, work: Path) -> tuple[list[Job], list[Job]]:
    """(warm-up jobs, pass jobs) of a workload; writes its input files."""
    rng = random.Random(f"{name}:{seed}")
    warm = work / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    if name == "lift-k2":
        cases = [(p, r, rng.choice("OE")) for p, r in LIFT_CASES]
        rng.shuffle(cases)
        jobs = [j for case in cases for j in lift_case_jobs(work, *case)]
        return lift_case_jobs(warm, *WARMUP_CASE, "O"), jobs
    if name == "dual-k6":
        return dual_jobs(warm, *WARMUP_CASE, "O"), dual_jobs(work, *DUAL_CASE, rng.choice("OE"))
    if name == "mrd-stream":
        jobs = [
            sweep_job(p, r, v, rng.randrange(1 << 31), p ** (2 * r) > WORD_CAP)
            for (p, r), v in itertools.product(MRD_GRID, "OE")
        ]
        jobs += matrix_jobs(work, *MATRIX_CASE, rng.choice("OE"), rng.randrange(1 << 31))
        warmup = [sweep_job(*WARMUP_CASE, "O", 0, False), sweep_job(*WARMUP_CASE, "O", 0, True)]
        warmup += matrix_jobs(warm, *WARMUP_CASE, "O", 0)
        return warmup, jobs
    raise ValueError(f"unknown workload {name!r}")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())
