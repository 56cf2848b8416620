import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasslift import grassmann
from grasslift.codes import RankMetricCode, build_image_code
from grasslift.matfp import batch_rref
from grasslift.grassmann import (
    GrassmannianCode,
    anticode_bound,
    anticode_optimal_code,
    code_params,
    compare_variant_codes,
    dual_code,
    enumerate_grassmannian,
    gaussian_coefficient,
    lift_code,
    min_subspace_distance,
    optimal_code_size,
    pairwise_intersection_dims,
    span,
)

from oracles import (
    Subspace,
    dual_subspace,
    injection_distance,
    intersection_dim,
    reference_intersection_dims,
    reference_points,
    reference_rank,
    subspace_distance,
)

# Reference words of the optimal (4, 5, 4, 2) code over GF(2), as the full
# vector sets of the five planes.
REFERENCE_PLANES_P2_R1 = [
    {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)},
    {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)},
    {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)},
    {(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 0)},
    {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)},
]


def brute_force_subspace_sets(n, k, p):
    """All k-dim subspaces as vector sets, found by spanning k-tuples.

    Independent of the RREF machinery: spans are closed up by direct linear
    combination of the generators.
    """
    all_vectors = list(itertools.product(range(p), repeat=n))
    found = set()
    for gens in itertools.product(all_vectors, repeat=k):
        vecs = set()
        for coeffs in itertools.product(range(p), repeat=k):
            v = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) % p for i in range(n)
            )
            vecs.add(v)
        if len(vecs) == p**k:
            found.add(frozenset(vecs))
    return found


def random_invertible(k, p, rng):
    while True:
        m = rng.integers(0, p, size=(k, k))
        if reference_rank(m, p) == k:
            return m


def sub(rows, p):
    """The oracle subspace spanned by ``rows``, canonicalized by span."""
    return Subspace(span(rows, p), p)


# ---------------------------------------------------------------------------
# subspaces and canonical form
# ---------------------------------------------------------------------------

def test_span_examples():
    s = span([[1, 0, 0, 1], [0, 1, 1, 0]], 2)
    assert len(s) == 2
    assert s.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    s = span([[1, 1], [1, 1]], 2)
    assert len(s) == 1 and s.tolist() == [[1, 1]]
    z = span(np.zeros((2, 3), dtype=np.int64), 2)
    assert z.shape == (0, 3) and reference_points(z, 2) == {(0, 0, 0)}


def test_subspace_requires_canonical_basis():
    with pytest.raises(ValueError, match="canonical"):
        Subspace([[1, 1], [1, 1]], 2)
    with pytest.raises(ValueError, match="canonical"):
        Subspace([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError, match="canonical"):
        Subspace([[1, 0], [0, 0]], 2)  # in RREF, but rank 1


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    k=st.integers(1, 3),
    n=st.integers(3, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_span_invariant_under_row_operations(p, k, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(k, n))
    scramble = random_invertible(k, p, rng)
    assert np.array_equal(span(rows, p), span(scramble @ rows % p, p))


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(1, 5),
    n=st.integers(1, 6),
    rank=st.integers(0, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_span_basis_passes_the_public_check(p, rows, n, rank, seed):
    # span keeps the nonzero rows of one batch_rref, unchecked, so every
    # basis it returns must pass the oracle's canonical check.  Generators
    # are products of random factors (rank-deficient whenever
    # rank < min(rows, n)) with some rows zeroed; rank 0 gives the zero matrix.
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, n)
    g = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, n)) % p
    g[rng.random(rows) < 0.3] = 0
    s = span(g, p)
    assert np.array_equal(Subspace(s, p).basis, s)
    assert len(s) == reference_rank(g, p)


def test_equal_spans_iff_equal_bases():
    subs = enumerate_grassmannian(4, 2, 2)
    for a, b in itertools.combinations(subs, 2):
        assert not np.array_equal(a, b)
        assert reference_points(a, 2) != reference_points(b, 2)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_intersection_dim_examples():
    e12 = sub([[1, 0, 0, 0], [0, 1, 0, 0]], 2)
    e13 = sub([[1, 0, 0, 0], [0, 0, 1, 0]], 2)
    assert intersection_dim(e12, e12) == 2
    assert intersection_dim(e12, e13) == 1


def test_distance_examples():
    e12 = sub([[1, 0, 0, 0], [0, 1, 0, 0]], 2)
    e13 = sub([[1, 0, 0, 0], [0, 0, 1, 0]], 2)
    assert subspace_distance(e12, e12) == 0
    assert subspace_distance(e12, e13) == 2
    assert injection_distance(e12, e12) == 0
    assert injection_distance(e12, e13) == 1


def test_ambient_mismatch():
    a = sub([[1, 0]], 2)
    b = sub([[1, 0, 0]], 2)
    c = sub([[1, 0]], 3)
    for other in (b, c):
        with pytest.raises(ValueError, match="ambient mismatch"):
            subspace_distance(a, other)


def test_optimal_code_pairwise_distances():
    code = anticode_optimal_code(2, 1, "O")
    words = [Subspace(w, code.p) for w in code.words]
    for a, b in itertools.combinations(words, 2):
        assert intersection_dim(a, b) == 0
        assert subspace_distance(a, b) == 4
        assert injection_distance(a, b) == max(a.dim, b.dim) - intersection_dim(a, b) == 2


def test_metric_axioms_and_doubling_small():
    subs = [Subspace(w, 2) for k in (1, 2) for w in enumerate_grassmannian(3, k, 2)]
    for a in subs:
        assert subspace_distance(a, a) == 0
        for b in subs:
            ds, di = subspace_distance(a, b), injection_distance(a, b)
            assert ds == subspace_distance(b, a)
            assert di == injection_distance(b, a)
            if a.dim == b.dim:
                assert ds == 2 * di
            for c in subs:
                assert ds <= subspace_distance(a, c) + subspace_distance(c, b)
                assert di <= injection_distance(a, c) + injection_distance(c, b)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_gaussian_coefficient_values():
    assert gaussian_coefficient(2, 1, 2) == 3
    assert gaussian_coefficient(4, 2, 2) == 35
    assert gaussian_coefficient(6, 2, 2) == 651
    assert gaussian_coefficient(5, 0, 3) == 1
    assert gaussian_coefficient(4, 4, 2) == 1
    with pytest.raises(ValueError):
        gaussian_coefficient(2, 3, 2)
    with pytest.raises(ValueError):
        gaussian_coefficient(2, 1, 1)


def test_gaussian_coefficient_matches_brute_force_span_oracle():
    assert len(brute_force_subspace_sets(4, 2, 2)) == 35
    assert len(brute_force_subspace_sets(3, 1, 3)) == gaussian_coefficient(3, 1, 3)
    assert len(brute_force_subspace_sets(4, 1, 2)) == gaussian_coefficient(4, 1, 2)


def test_enumerate_grassmannian_counts():
    for n in range(1, 6):
        for k in range(n + 1):
            subs = enumerate_grassmannian(n, k, 2)
            assert len(subs) == len(np.unique(subs, axis=0)) == gaussian_coefficient(n, k, 2)
    for n in range(1, 5):
        for k in range(n + 1):
            subs = enumerate_grassmannian(n, k, 3)
            assert len(subs) == len(np.unique(subs, axis=0)) == gaussian_coefficient(n, k, 3)


def test_enumerate_grassmannian_matches_span_oracle_vector_sets():
    expected = brute_force_subspace_sets(4, 2, 2)
    got = {frozenset(reference_points(s, 2)) for s in enumerate_grassmannian(4, 2, 2)}
    assert got == expected


def test_enumerate_grassmannian_edges():
    assert len(enumerate_grassmannian(3, 3, 2)) == 1
    assert enumerate_grassmannian(3, 0, 2).shape == (1, 0, 3)
    with pytest.raises(ValueError, match="guard"):
        enumerate_grassmannian(40, 2, 3)
    with pytest.raises(ValueError, match="not prime"):
        enumerate_grassmannian(4, 2, 4)


@pytest.mark.parametrize("n, k, p", [(4, 2, 2), (6, 3, 2), (5, 2, 3), (4, 1, 5), (3, 0, 2), (3, 3, 2)])
def test_enumerate_grassmannian_writes_rref_bases(n, k, p):
    # The cells are written in RREF directly; one more elimination must
    # change nothing.
    subs = enumerate_grassmannian(n, k, p)
    assert subs.shape == (gaussian_coefficient(n, k, p), k, n)
    reduced, ranks = batch_rref(subs, p)
    assert np.array_equal(reduced, subs)
    assert (ranks == k).all()


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_anticode_bound_values():
    assert anticode_bound(4, 4, 2, 2, "subspace") == 5
    assert anticode_bound(6, 4, 2, 2, "subspace") == 21
    assert anticode_bound(4, 2, 2, 2, "injection") == 5
    for p in (2, 3, 7):
        for r in (1, 2, 3):
            assert anticode_bound(2 * r + 2, 4, 2, p, "subspace") == (
                p ** (2 * r + 2) - 1
            ) // (p**2 - 1)


def test_anticode_bound_errors():
    with pytest.raises(ValueError, match="even"):
        anticode_bound(4, 3, 2, 2, "subspace")
    with pytest.raises(ValueError, match="too large"):
        anticode_bound(4, 6, 2, 2, "subspace")
    with pytest.raises(ValueError, match="injection-metric"):
        anticode_bound(4, 3, 2, 2, "injection")
    with pytest.raises(ValueError, match="metric"):
        anticode_bound(4, 4, 2, 2, "hamming")


def test_anticode_bound_divisibility_on_construction_ranges():
    # the quotient divides exactly whenever the reduced parameter is 1 and
    # k divides n, which covers every parameter set this package produces
    for q in (2, 3, 5, 7, 13):
        for r in range(1, 5):
            assert anticode_bound(2 * r + 2, 4, 2, q, "subspace") >= 1
            assert anticode_bound(2 * r + 2, 2, 2, q, "injection") >= 1
    for q in (2, 3):
        for k in (1, 2, 3):
            for n in (2 * k, 3 * k, 4 * k):
                assert anticode_bound(n, 2 * k, k, q, "subspace") >= 1


def test_anticode_bound_rejects_non_integral_quotients():
    # outside the divisible ranges the quotient is refused, never rounded
    with pytest.raises(ArithmeticError, match="not an integer"):
        anticode_bound(3, 4, 2, 2, "subspace")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_code_p2():
    lifted = lift_code(build_image_code(2, 1, "O"))
    assert code_params(lifted) == (4, 4, 4, 2)
    got = {frozenset(reference_points(w, 2)) for w in lifted.words}
    assert got == {frozenset(s) for s in REFERENCE_PLANES_P2_R1[:4]}


def test_lift_code_p3():
    lifted = lift_code(build_image_code(3, 1, "O"))
    assert code_params(lifted) == (4, 9, 4, 2)


def test_lift_code_single_zero_word():
    code = RankMetricCode(np.zeros((1, 2, 2), dtype=np.int64), 2, linear=True)
    lifted = lift_code(code)
    assert lifted.M == 1
    assert lifted.words[0].tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]


def test_lift_code_requires_linear():
    code = RankMetricCode([np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)], 2)
    with pytest.raises(ValueError, match="linear"):
        lift_code(code)


# ---------------------------------------------------------------------------
# the optimal construction
# ---------------------------------------------------------------------------

def test_optimal_code_p2_r1_exact_planes():
    code = anticode_optimal_code(2, 1, "O")
    assert code_params(code) == (4, 5, 4, 2)
    got = {frozenset(reference_points(w, 2)) for w in code.words}
    assert got == {frozenset(s) for s in REFERENCE_PLANES_P2_R1}
    assert code.M == anticode_bound(4, 4, 2, 2, "subspace")


def test_optimal_code_p2_r1_even_variant_exact_planes():
    code = anticode_optimal_code(2, 1, "E")
    assert code_params(code) == (4, 5, 4, 2)
    got = {frozenset(reference_points(w, 2)) for w in code.words}
    expected = [
        {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)},
        {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)},
        {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)},
        {(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)},
        {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)},
    ]
    assert got == {frozenset(s) for s in expected}


def test_optimal_code_p2_r2():
    code = anticode_optimal_code(2, 2, "O")
    assert code.n == 6
    assert code_params(code) == (6, 21, 4, 2)
    assert code.M == anticode_bound(6, 4, 2, 2, "subspace")


def test_optimal_code_p3_r1():
    code = anticode_optimal_code(3, 1, "O")
    assert code.M == 10 == optimal_code_size(3, 1)
    assert code_params(code) == (4, 10, 4, 2)


def test_optimal_code_size_formula():
    for p in (2, 3, 7, 13):
        for r in (1, 2, 3, 4):
            geometric = sum(p ** (2 * i) for i in range(r + 1))
            assert optimal_code_size(p, r) == geometric


def test_optimal_code_rejections():
    with pytest.raises(ValueError, match=r"p % 5"):
        anticode_optimal_code(5, 1)
    with pytest.raises(ValueError, match="guard"):
        anticode_optimal_code(2, 2, pair_guard=10)


def test_variant_comparison_reports_without_asserting():
    # frozen observation: at (2, 1) the two variants share the zero-lift and
    # the (0 | I) word but differ in the other three planes
    report = compare_variant_codes(2, 1)
    assert report["identical"] is False
    assert len(report["only_O"]) == 3 and len(report["only_E"]) == 3
    code_o = anticode_optimal_code(2, 1, "O")
    code_e = anticode_optimal_code(2, 1, "E")
    shared = {w.tobytes() for w in code_o.words} & {w.tobytes() for w in code_e.words}
    assert len(shared) == 2
    # both variants are full-parameter codes regardless of the set difference
    assert code_params(code_o) == code_params(code_e) == (4, 5, 4, 2)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_subspace_examples():
    c5 = sub([[0, 0, 1, 0], [0, 0, 0, 1]], 2)
    assert dual_subspace(c5).basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    full = sub(np.eye(3, dtype=np.int64), 2)
    assert dual_subspace(full).dim == 0
    self_orthogonal = sub([[1, 1]], 2)
    assert dual_subspace(self_orthogonal) == self_orthogonal


def test_dual_involution_random():
    rng = np.random.default_rng(23)
    for p in (2, 3, 5):
        for _ in range(15):
            s = sub(rng.integers(0, p, size=(2, 5)), p)
            d = dual_subspace(s)
            assert d.dim == 5 - s.dim
            assert dual_subspace(d) == s
            assert np.array_equal(grassmann.dual_bases(s.basis[None], p)[0], d.basis)


def test_dual_code_params():
    code = anticode_optimal_code(2, 2, "O")
    dual = dual_code(code)
    assert code_params(dual) == (6, 21, 4, 4)
    double = dual_code(dual)
    assert np.array_equal(double.words, code.words)


# ---------------------------------------------------------------------------
# code container, parameters, serialization
# ---------------------------------------------------------------------------

def test_code_container_validation():
    a = span([[1, 0, 0, 0], [0, 1, 0, 0]], 2)
    line = span([[1, 0, 0, 0]], 2)
    with pytest.raises(ValueError, match="share one shape"):
        GrassmannianCode([a, line], 2)
    with pytest.raises(ValueError, match="duplicate"):
        GrassmannianCode([a, a], 2)
    other = span([[1, 0, 0], [0, 1, 0]], 2)
    with pytest.raises(ValueError, match="share one shape"):
        GrassmannianCode([a, other], 2)


def test_code_params_detects_stale_cache():
    code = anticode_optimal_code(2, 1, "O")
    code.d = 6
    with pytest.raises(ValueError, match="cached minimum distance"):
        code_params(code)


def test_code_params_needs_two_words():
    single = GrassmannianCode([span([[1, 0]], 2)], 2)
    with pytest.raises(ValueError, match="two words"):
        code_params(single)


def test_min_subspace_distance_caches():
    code = anticode_optimal_code(3, 1, "O")
    code.d = None
    assert min_subspace_distance(code) == 4
    assert code.d == 4


def test_pairwise_guard():
    code = anticode_optimal_code(2, 2, "O")
    with pytest.raises(ValueError, match="guard"):
        pairwise_intersection_dims(code.words, code.p, pair_guard=5)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    n=st.integers(2, 7),
    data=st.data(),
)
def test_pairwise_intersection_dims_matches_python_int_reference(p, n, data):
    # Words are drawn inside a shared subspace of dimension s, so pairs meet
    # in dimension >= 2k - s: all intersection dimensions get exercised,
    # including equal words.  k ranges over 1..n-1, covering k = 1,
    # k = n - 1, k = n - k and k > n - k.
    k = data.draw(st.integers(1, n - 1), label="k")
    s = data.draw(st.integers(k, n), label="s")
    m = data.draw(st.integers(2, 8), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shared = rng.integers(0, p, size=(s, n))
    while reference_rank(shared, p) < s:
        shared = rng.integers(0, p, size=(s, n))
    words = []
    while len(words) < m:
        w = span(rng.integers(0, p, size=(k, s)) @ shared, p)
        if len(w) == k:
            words.append(w)
    got = pairwise_intersection_dims(np.stack(words), p)
    assert got.dtype == np.min_scalar_type(k)
    assert got.tolist() == reference_intersection_dims(words, p)


@pytest.mark.parametrize("n, k, q", [(5, 2, 2), (5, 3, 2), (4, 2, 3), (4, 3, 3), (6, 4, 2)])
def test_pairwise_intersection_histogram_over_full_grassmannian(n, k, q):
    # A fixed k-space meets q^((k-j)^2) [k,j]_q [n-k,k-j]_q others in
    # dimension j; summed over all M words each unordered pair counts twice.
    # Both scans are exact for every k, and both are run; with k > n - k
    # every pair shares points, so the point scan's collisions are dense.
    bases = enumerate_grassmannian(n, k, q)
    m = len(bases)
    dims = pairwise_intersection_dims(bases, q, pair_guard=m * m)
    for scan in (grassmann._point_scan, grassmann._reduction_scan):
        again = scan(bases, q)
        assert again.dtype == dims.dtype == np.min_scalar_type(k)
        assert np.array_equal(again, dims)
    hist = np.bincount(dims, minlength=k + 1)
    for j in range(k):
        meeting = q ** ((k - j) ** 2) * gaussian_coefficient(k, j, q) * (
            gaussian_coefficient(n - k, k - j, q) if k - j <= n - k else 0
        )
        assert 2 * int(hist[j]) == m * meeting
    assert hist[k] == 0


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    n=st.integers(2, 8),
    data=st.data(),
)
def test_point_scan_matches_reduction_and_python_int_reference(p, n, data):
    # Every k with 2k <= n, including k = 1.  Words are drawn inside a
    # shared subspace of dimension s, so pairs meet in every dimension, and
    # some words are repeated, so pairs with t = k occur.
    k = data.draw(st.integers(1, n // 2), label="k")
    s = data.draw(st.integers(k, n), label="s")
    m = data.draw(st.integers(2, 8), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shared = rng.integers(0, p, size=(s, n))
    while reference_rank(shared, p) < s:
        shared = rng.integers(0, p, size=(s, n))
    words = []
    while len(words) < m:
        w = span(rng.integers(0, p, size=(k, s)) @ shared, p)
        if len(w) == k:
            words.append(w)
    repeats = data.draw(st.lists(st.integers(0, m - 1), max_size=3), label="repeats")
    words += [words[i] for i in repeats]
    bases = np.stack(words)
    points, reduction = grassmann._point_scan(bases, p), grassmann._reduction_scan(bases, p)
    assert points.dtype == reduction.dtype == np.min_scalar_type(k)
    assert points.tolist() == reduction.tolist() == reference_intersection_dims(words, p)


@pytest.mark.parametrize("bases, p", [
    (np.zeros((0, 2, 4), dtype=np.int64), 2),                      # M = 0
    (enumerate_grassmannian(4, 2, 3)[5:6], 3),                      # M = 1
    (np.zeros((4, 0, 3), dtype=np.int64), 2),                      # k = 0
    (np.repeat(np.eye(3, dtype=np.int64)[None], 3, axis=0), 5),    # k = n
], ids=["M=0", "M=1", "k=0", "k=n"])
def test_pairwise_intersection_dims_tiny_inputs(bases, p):
    got = pairwise_intersection_dims(bases, p)
    assert got.dtype == np.min_scalar_type(bases.shape[1])
    assert got.tolist() == reference_intersection_dims(bases, p)
    assert got.size == len(bases) * (len(bases) - 1) // 2


def test_point_scan_counts_dense_collisions_in_small_batches(monkeypatch):
    # Distinct planes through one common point u of GF(3)^6 meet exactly in
    # u, so all 7,260 pairs of the 121 words collide there; with CHUNK = 5
    # the collision pairs are expanded over 1,452 batches.
    p, n = 3, 6
    u = [1] + [0] * (n - 1)
    bases = np.stack([
        span([u, [0, *v]], p)
        for v in itertools.product(range(p), repeat=n - 1)
        if any(v) and v[np.flatnonzero(v)[0]] == 1
    ])
    m = len(bases)
    assert m == (p ** (n - 1) - 1) // (p - 1)
    monkeypatch.setattr(grassmann, "CHUNK", 5)
    calls = []
    scan = grassmann._point_scan
    monkeypatch.setattr(grassmann, "_point_scan", lambda *a: calls.append(1) or scan(*a))
    dims = pairwise_intersection_dims(bases, p)
    assert calls == [1]
    assert dims.tolist() == [1] * (m * (m - 1) // 2)
    assert np.array_equal(dims, grassmann._reduction_scan(bases, p))


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (7, 1), (2, 3)])
def test_lifted_codes_take_the_point_scan_and_their_duals_the_reduction(monkeypatch, p, r):
    calls = []
    for name in ("_point_scan", "_reduction_scan"):
        scan = getattr(grassmann, name)
        monkeypatch.setattr(grassmann, name,
                            lambda *a, name=name, scan=scan: calls.append(name) or scan(*a))
    code = anticode_optimal_code(p, r)
    assert calls == ["_point_scan"]
    # The duals have dimension 2r > n/2, except at r = 1, where they are
    # planes of GF(p)^4 again.
    dual_code(code)
    assert calls == ["_point_scan", "_point_scan" if r == 1 else "_reduction_scan"]


def test_grassmannian_code_round_trip():
    code = anticode_optimal_code(2, 1, "O")
    data = code.to_dict()
    again = GrassmannianCode.from_dict(data)
    assert np.array_equal(again.words, code.words)
    assert again.d is None
    assert code_params(again) == (4, 5, 4, 2)
    assert again.provenance == code.provenance


def test_from_dict_rejects_non_canonical_words():
    code = anticode_optimal_code(2, 1, "O")
    data = code.to_dict()
    data["words"][0] = [[1, 1, 0, 0], [1, 0, 0, 0]]
    with pytest.raises(ValueError, match="canonical"):
        GrassmannianCode.from_dict(data)
    data["words"][0] = [[1, 0, 0, 0], [0, 0, 0, 0]]  # in RREF, but rank 1
    with pytest.raises(ValueError, match="canonical"):
        GrassmannianCode.from_dict(data)
    data["words"][0] = [[1, 0, 0], [0, 1, 0]]  # ragged: one word has n = 3
    with pytest.raises(ValueError, match="share one shape"):
        GrassmannianCode.from_dict(data)
    data["words"] = [[[1, 0, 0], [0, 1, 0]]]  # a valid code, but n = 3
    with pytest.raises(ValueError, match=r"declared \(n, k\)"):
        GrassmannianCode.from_dict(data)


def test_summary_line():
    code = anticode_optimal_code(2, 1, "O")
    assert code.summary() == "n=4 M=5 d=4 k=2 q=2"
