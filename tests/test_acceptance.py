"""Acceptance suite: every headline property of the package, each criterion
re-verified from scratch at exact tolerance and reported as one line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import functools
import itertools

import numpy as np
from click.testing import CliRunner

from grasslift.cli import main as cli_main
from grasslift.codes import (
    ExtVector,
    RankMetricCode,
    build_image_code,
    enumerate_ext_vectors,
    image_rank_counts,
    isometry_counterexamples,
    min_nonzero_rank,
    min_rank_distance,
    odd_zero_image,
    sample_image_pair_min_rank,
    singleton_max_dim,
    weight_table_csv,
)
from grasslift.matfp import MatrixFp
from grasslift.grassmann import (
    anticode_bound,
    anticode_optimal_code,
    code_params,
    dual_code,
    enumerate_grassmannian,
    gaussian_coefficient,
    min_subspace_distance,
    pairwise_intersection_dims,
)
from grasslift.graph import degree_sequence, intersection_graph, is_complete

from oracles import Subspace, injection_distance, reference_points, subspace_distance

WORD_CAP = 1 << 16        # materialization cap for explicit word lists
PAIR_CAP = 1 << 24        # exhaustive pairwise-scan cap
SAMPLE_PAIRS = 100_000
SEED = 0

MRD_GRID = [(p, r) for p in (2, 3, 7, 13) for r in (1, 2, 3)]
SWEEP = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (7, 1)]

EXPECTED_TABLE_P2 = """\
alpha,hamming,phi,bachoc,rank
0|0,0,0000,0,0
0|w,1,1011,1,2
0|1,1,0110,1,2
0|1+w,1,1101,1,2
w|0,1,0111,1,2
w|w,2,1100,2,1
w|1,2,0001,2,1
w|1+w,2,1010,2,1
1|0,1,1001,1,2
1|w,2,0010,2,1
1|1,2,1111,2,1
1|1+w,2,0100,2,1
1+w|0,1,1110,1,2
1+w|w,2,0101,2,1
1+w|1,2,1000,2,1
1+w|1+w,2,0011,2,1
"""

EXPECTED_TABLE_P3 = """\
alpha,hamming,phi,bachoc,rank
0|0,0,0000,0,0
0|w,1,1011,1,2
0|2w,1,2022,1,2
0|1,1,0110,1,2
0|1+w,1,1121,1,2
0|1+2w,1,2102,1,2
0|2,1,0220,1,2
0|2+w,1,1201,1,2
0|2+2w,1,2212,1,2
"""

REFERENCE_PLANES = [
    {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)},
    {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)},
    {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)},
    {(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 0)},
    {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)},
]


def criterion(cid, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{cid}] {desc}: FAIL")
                raise
            print(f"[{cid}] {desc}: PASS")
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def materialized_image_code(p, r, variant):
    return build_image_code(p, r, variant)


@functools.lru_cache(maxsize=None)
def sweep_code(p, r, variant="O"):
    return anticode_optimal_code(p, r, variant)


@criterion("A01", "weight table p=2 reproduced byte-exactly")
def test_weight_table_p2():
    assert weight_table_csv(2) == EXPECTED_TABLE_P2
    runner = CliRunner()
    result = runner.invoke(cli_main, ["table", "--p", "2"])
    assert result.exit_code == 0
    assert result.output == EXPECTED_TABLE_P2


@criterion("A02", "weight table p=3 reproduced, all nonzero images rank 2")
def test_weight_table_p3():
    assert weight_table_csv(3) == EXPECTED_TABLE_P3
    rows = EXPECTED_TABLE_P3.strip().split("\n")[1:]
    assert len(rows) == 9
    for row in rows:
        alpha, _, _, _, rank = row.split(",")
        assert int(rank) == (0 if alpha == "0|0" else 2)
    runner = CliRunner()
    result = runner.invoke(cli_main, ["table", "--p", "3"])
    assert result.exit_code == 0
    assert result.output == EXPECTED_TABLE_P3


@criterion("A03", "image codes are [2x2r, 2r, 2] and exactly meet the Singleton bound "
                  "for (p, r) in {2,3,7,13} x {1,2,3}, both variants")
def test_mrd_suite():
    for (p, r), variant in itertools.product(MRD_GRID, ("O", "E")):
        n_words = p ** (2 * r)
        n_pairs = n_words * (n_words - 1) // 2
        if n_words <= WORD_CAP:
            code = materialized_image_code(p, r, variant)
            assert code.shape == (2, 2 * r)
            assert len(code) == n_words and code.rho == 2 * r
            # the least nonzero word rank, exact because the code was
            # certified linear when built, so every pair difference is itself
            # a codeword
            delta = min_rank_distance(code, pair_guard=PAIR_CAP)
            assert delta == 2, (p, r, variant)
            assert n_pairs <= PAIR_CAP or min_nonzero_rank(code) == 2
        else:
            # streaming verification for the guard-excluded cases
            counts = image_rank_counts(p, r, variant)
            assert counts[0] == 1, (p, r, variant)      # injective linear map
            assert counts[1] == 0, (p, r, variant)      # no rank-1 words
            assert counts[2] == n_words - 1
            sampled = sample_image_pair_min_rank(
                p, r, variant, n_pairs=SAMPLE_PAIRS, seed=SEED
            )
            assert sampled == 2, (p, r, variant)
        assert singleton_max_dim(2, 2 * r, 2) == 2 * r


@criterion("A04", "p=5 rejected; raw image over GF(25) contains the rank-1 "
                  "matrix [[1,2],[3,1]]")
def test_p5_negative_control():
    try:
        build_image_code(5, 1, "O")
        raised = False
    except ValueError as exc:
        raised = "p % 5" in str(exc)
    assert raised
    raw = {odd_zero_image(v) for v in enumerate_ext_vectors(5, 1)}
    witness = MatrixFp([[1, 2], [3, 1]], 5)
    assert witness in raw
    assert witness.rank() == 1


@criterion("A05", "(p=2, r=1) code equals the five reference planes exactly; "
                  "params (4,5,4,2); bound 5 attained")
def test_p2_r1_exact_reproduction():
    code = sweep_code(2, 1)
    got = {frozenset(reference_points(w, 2)) for w in code.words}
    assert got == {frozenset(s) for s in REFERENCE_PLANES}
    assert code_params(code) == (4, 5, 4, 2)
    assert code.M == anticode_bound(4, 4, 2, 2, "subspace") == 5


@criterion("A06", "(p=2, r=2): 21 words in GF(2)^6 (n=2r+2; an n=4 variant is "
                  "impossible since the bound there is 5), d=4 over all 210 "
                  "pairs, bound attained, graph is K21")
def test_p2_r2():
    code = sweep_code(2, 2)
    assert code.n == 6 and code.M == 21
    inters = pairwise_intersection_dims(code.words, code.p)
    assert inters.size == 210
    assert (inters == 0).all()
    assert min_subspace_distance(code) == 4
    assert code.M == anticode_bound(6, 4, 2, 2, "subspace") == 21
    assert anticode_bound(4, 4, 2, 2, "subspace") == 5  # 21 planes cannot fit in GF(2)^4
    g = intersection_graph(code)
    assert g.n_vertices == 21 and g.n_edges == 210
    assert is_complete(g)
    assert degree_sequence(g) == [20] * 21


@criterion("A07", "bound attainment sweep: |code| = anticode bound = "
                  "(p^(2r+2)-1)/(p^2-1) with d=4 pairwise, both variants")
def test_bound_attainment_sweep():
    for p, r in SWEEP:
        expected = (p ** (2 * r + 2) - 1) // (p**2 - 1)
        for variant in ("O", "E"):
            code = sweep_code(p, r, variant)
            assert code.M == expected == anticode_bound(
                2 * r + 2, 4, 2, p, "subspace"
            ), (p, r, variant)
            assert code_params(code) == (2 * r + 2, expected, 4, 2)


@criterion("A08", "duality: dual codes are (2r+2, M, 4, 2r) with d recomputed "
                  "pairwise; dual is an involution")
def test_duality_sweep():
    for p, r in SWEEP:
        code = sweep_code(p, r)
        dual = dual_code(code)
        assert code_params(dual) == (2 * r + 2, code.M, 4, 2 * r), (p, r)
        double = dual_code(dual)
        assert np.array_equal(double.words, code.words), (p, r)


@criterion("A09", "Gaussian coefficients equal exhaustive subspace enumeration "
                  "for all n <= 6, 0 <= k <= n over GF(2)")
def test_counting_oracle_equivalence():
    for n in range(7):
        for k in range(n + 1):
            subs = enumerate_grassmannian(n, k, 2)
            assert len(subs) == len(np.unique(subs, axis=0)) == gaussian_coefficient(n, k, 2)
    assert gaussian_coefficient(4, 2, 2) == 35
    assert gaussian_coefficient(6, 2, 2) == 651


@criterion("A10", "metric axioms for both distances and d_S = 2*d_I on all "
                  "equal-dimension pairs of the 35 planes of GF(2)^4")
def test_metric_properties():
    subs = [Subspace(w, 2) for w in enumerate_grassmannian(4, 2, 2)]
    assert len(subs) == 35
    m = len(subs)
    ds = np.zeros((m, m), dtype=np.int64)
    di = np.zeros((m, m), dtype=np.int64)
    n_pairs = 0
    for i in range(m):
        for j in range(m):
            ds[i, j] = subspace_distance(subs[i], subs[j])
            di[i, j] = injection_distance(subs[i], subs[j])
            if i < j:
                n_pairs += 1
    assert n_pairs == 595
    assert (ds == ds.T).all() and (di == di.T).all()
    assert (np.diag(ds) == 0).all() and (np.diag(di) == 0).all()
    off_diagonal = ~np.eye(m, dtype=bool)
    assert (ds[off_diagonal] > 0).all() and (di[off_diagonal] > 0).all()
    assert (ds == 2 * di).all()  # every pair here has equal dimension
    for mat in (ds, di):
        # triangle inequality over all ordered triples at once
        assert (mat[:, None, :] <= mat[:, :, None] + mat[None, :, :]).all()


@criterion("A11", "weight-preservation report: empty for p=2; for p=3 it is "
                  "non-empty and contains (1, w)")
def test_isometry_report():
    assert isometry_counterexamples(2) == []
    report = isometry_counterexamples(3)
    assert report
    witness = ExtVector.from_pairs([[1, 0], [0, 1]], 3)
    assert witness in report


@criterion("A12", "pairwise minimum rank distance equals minimum nonzero rank "
                  "for every linear code materialized above")
def test_min_distance_consistency():
    cases = [
        materialized_image_code(p, r, variant)
        for (p, r), variant in itertools.product(MRD_GRID, ("O", "E"))
        if p ** (2 * r) <= WORD_CAP
    ]
    raw_p5 = RankMetricCode(
        [odd_zero_image(v).array for v in enumerate_ext_vectors(5, 1)], 5, linear=True
    )
    cases.append(raw_p5)
    for code in cases:
        assert min_rank_distance(code) == min_nonzero_rank(code)
        # The pairwise reference: the same words as a code not known to be
        # linear, scanned pair by pair wherever the pairs fit under the cap.
        m = len(code)
        if m * (m - 1) // 2 <= PAIR_CAP:
            d = min_rank_distance(RankMetricCode(code.words, code.p), pair_guard=PAIR_CAP)
            assert d == min_nonzero_rank(code)
    assert min_rank_distance(raw_p5) == 1
