import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grasslift import grassmann
from grasslift.codes import RankMetricCode, build_image_code
from grasslift.graph import intersection_graph, is_complete
from grasslift.matfp import batch_rref
from grasslift.grassmann import (
    GrassmannianCode,
    anticode_bound,
    anticode_bound_min_digits,
    anticode_optimal_code,
    code_params,
    dual_code,
    dumps_with_array,
    enumerate_grassmannian,
    gaussian_coefficient,
    lift_code,
    loads_with_array,
    min_subspace_distance,
    optimal_code_size,
    pairwise_intersection_dims,
    span,
)

from oracles import (
    LARGEST_PRIME,
    Subspace,
    dual_subspace,
    injection_distance,
    intersection_dim,
    random_rref,
    reference_dumps_with_array,
    reference_intersection_dims,
    reference_loads_with_array,
    reference_points,
    reference_rank,
    reference_rref,
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


def draw_words(data, p, n, k, repeats=False):
    """Up to 8 k-dimensional RREF bases drawn inside a shared subspace of
    GF(p)^n of dimension s, so pairs meet in dimension >= 2k - s and every
    intersection dimension gets exercised; with ``repeats`` up to three
    words are drawn twice, so pairs with t = k occur."""
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
    if repeats:
        picks = data.draw(st.lists(st.integers(0, m - 1), max_size=3), label="repeats")
        words += [words[i] for i in picks]
    return words


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


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 13, LARGEST_PRIME]),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_code_refuses_exactly_the_non_canonical_stacks(p, n, data):
    # The constructor checks the RREF conditions directly; the oracle
    # eliminates every word.  One entry or row of one word of a canonical
    # stack is changed: a pivot set to another value, an entry set above a
    # pivot, two rows swapped, a row zeroed, or any entry set at random
    # (which can leave the word canonical).
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    words = {}
    for _ in range(data.draw(st.integers(1, 5), label="m")):
        w = random_rref(k, n, p, rng)
        words[w.tobytes()] = w
    stack = np.stack(list(words.values()))
    mutation = data.draw(st.sampled_from(["none", "pivot", "above", "swap", "zero", "any"]),
                         label="mutation")
    word = stack[rng.integers(len(stack))]
    pivots = (word != 0).argmax(axis=1)
    i = rng.integers(k) if k else None
    value = int(rng.integers(0, p))
    if k and mutation == "pivot":
        word[i, pivots[i]] = value if value != 1 else 0
    elif k and mutation == "above" and i:
        word[rng.integers(i), pivots[i]] = max(value, 1)
    elif k >= 2 and mutation == "swap":
        a, b = rng.choice(k, size=2, replace=False)
        word[[a, b]] = word[[b, a]]
    elif k and mutation == "zero":
        word[i] = 0
    elif mutation == "any" and stack.size:
        word[rng.integers(k), rng.integers(n)] = value
    rows = [w.tolist() for w in stack]
    expected = all(reference_rref(w, p) == (w, k) for w in rows)
    try:
        GrassmannianCode(stack, p)
        refused = False
    except ValueError as exc:
        refused = "canonical" in str(exc)
        # a canonical mutation can equal another word
        assert refused or "duplicate" in str(exc), exc
    assert refused == (not expected)


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


def test_enumeration_guard_caps_the_subspace_count(monkeypatch):
    # p^n = 1,024 and 4,096 pass the vector cap, but [10, 5]_2 = 109,221,651
    # and [12, 6]_2 = 230,674,393,235 bases are refused before any is built.
    monkeypatch.setattr(grassmann, "itertools", None)
    for n, k, count in ((10, 5, 109_221_651), (12, 6, 230_674_393_235)):
        with pytest.raises(ValueError, match=rf"{count} subspaces exceed the enumeration guard"):
            enumerate_grassmannian(n, k, 2)
    monkeypatch.undo()
    # At the boundary: [4, 2]_2 = 35 bases build under a guard of 35, not 34.
    monkeypatch.setattr(grassmann, "ENUMERATION_GUARD", 35)
    assert len(enumerate_grassmannian(4, 2, 2)) == 35
    monkeypatch.setattr(grassmann, "ENUMERATION_GUARD", 34)
    with pytest.raises(ValueError, match=r"35 subspaces exceed the enumeration guard \(34\)"):
        enumerate_grassmannian(4, 2, 2)


@pytest.mark.parametrize("n, k, p", [(4, 2, 2), (6, 3, 2), (5, 2, 3), (4, 1, 5), (3, 0, 2), (3, 3, 2)])
def test_enumerate_grassmannian_writes_rref_bases(n, k, p):
    # The cells are written in RREF directly; one more elimination must
    # change nothing.
    subs = enumerate_grassmannian(n, k, p)
    assert subs.shape == (gaussian_coefficient(n, k, p), k, n)
    reduced, ranks = batch_rref(subs, p)
    assert np.array_equal(reduced, subs)
    assert (ranks == k).all()


@pytest.mark.parametrize("n, k, p", [(4, 2, 2), (6, 3, 2), (5, 2, 3), (4, 1, 5), (3, 0, 2)])
def test_enumerate_grassmannian_lists_cells_in_product_order(n, k, p):
    # Pivot choices in combinations order, each cell's fillings in
    # itertools.product order over its free positions, row by row.
    cells = []
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        for filling in itertools.product(range(p), repeat=len(free)):
            basis = np.zeros((k, n), dtype=np.int64)
            basis[range(k), pivots] = 1
            for (i, j), x in zip(free, filling):
                basis[i, j] = x
            cells.append(basis)
    assert np.array_equal(enumerate_grassmannian(n, k, p), np.array(cells))


def test_enumerate_grassmannian_peak_memory_is_near_its_output():
    # One preallocated output; each free position takes temporaries of p^f
    # entries, far below the cell's p^f k n.  [8, 4]_2 = 200,787 bases.
    tracemalloc.start()
    subs = enumerate_grassmannian(8, 4, 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(subs) == gaussian_coefficient(8, 4, 2)
    assert peak <= 1.2 * subs.nbytes


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


def test_anticode_bounds_refuse_q_that_is_not_a_prime_power():
    for q in (6, 10, 12, 100, 3 * (2**61 - 1), 10**400):
        for bound in (anticode_bound, anticode_bound_min_digits):
            with pytest.raises(ValueError, match=rf"q={q} is not a prime power"):
                bound(6, 4, 2, q)
    # Roots too large for is_prime to decide are refused: the Mersenne prime
    # 2^89 - 1 and its square.
    for q in (2**89 - 1, (2**89 - 1) ** 2):
        with pytest.raises(ValueError, match="primality is decided exactly below"):
            anticode_bound(6, 4, 2, q)
    # Prime powers, also far above is_prime's range when their root is small.
    for q in (4, 9, 2**61 - 1, 43**20, 2**100):
        assert anticode_bound(6, 4, 2, q) == (q**6 - 1) // (q**2 - 1)
        assert anticode_bound_min_digits(6, 4, 2, q) >= 1


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


def test_anticode_bound_refuses_k_above_n():
    # Refused before the Gaussian coefficients, whose quotient [n, t] / [k, t]
    # is below 1 for k > n, and named as such rather than as a non-integer.
    for metric, d in (("subspace", 4), ("injection", 2)):
        with pytest.raises(ValueError, match=r"k=5 exceeds n=4"):
            anticode_bound(4, d, 5, 2, metric)
        with pytest.raises(ValueError, match=r"k=5 exceeds n=4"):
            anticode_bound_min_digits(4, d, 5, 2, metric)


def test_anticode_bound_min_digits_is_a_lower_bound():
    # Never above the bound's decimal digit count, and within two digits of it.
    for q in (2, 3, 4, 7, 251):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for metric, ds in (("subspace", range(2, 2 * k + 1, 2)),
                                   ("injection", range(1, k + 1))):
                    for d in ds:
                        try:
                            digits = len(str(anticode_bound(n, d, k, q, metric)))
                        except ArithmeticError:
                            continue
                        low = anticode_bound_min_digits(n, d, k, q, metric)
                        assert digits - 2 <= low <= digits, (n, d, k, q, metric)
    with pytest.raises(ValueError, match="q must be >= 2"):
        anticode_bound_min_digits(4, 4, 2, 1)
    # Huge parameters take no time and no float overflow.
    assert anticode_bound_min_digits(10**400, 4, 10**399, 2) > 10**17


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


def test_lift_code_refuses_a_wrong_size(monkeypatch):
    lift = grassmann.batch_lift
    monkeypatch.setattr(grassmann, "batch_lift", lambda mats, n: lift(mats, n)[1:])
    with pytest.raises(RuntimeError, match="lift produced 3 words, expected 4"):
        lift_code(build_image_code(2, 1, "O"))


def test_lift_code_refuses_a_wrong_distance():
    code = build_image_code(2, 1, "O")
    code._delta = 1
    with pytest.raises(RuntimeError, match=r"lifted code distance 4 != 2\*delta = 2"):
        lift_code(code)


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


def test_anticode_optimal_code_refuses_a_wrong_size(monkeypatch):
    size = grassmann.optimal_code_size
    monkeypatch.setattr(grassmann, "optimal_code_size", lambda p, r: size(p, r) + 1)
    with pytest.raises(RuntimeError, match="built 5 words, expected 6"):
        anticode_optimal_code(2, 1, "E")


def test_anticode_optimal_code_refuses_a_wrong_distance(monkeypatch):
    blocks = grassmann._blocks

    def with_rank_one_block(p, variant):
        table = blocks(p, variant).copy()
        table[1] = [[1, 0], [0, 0]]  # lifts to a plane meeting the zero-lift in a line
        return table

    monkeypatch.setattr(grassmann, "_blocks", with_rank_one_block)
    with pytest.raises(RuntimeError, match="minimum distance 2 != 4"):
        anticode_optimal_code(2, 1, "E")


def test_variant_codes_share_two_words_and_their_parameters():
    # frozen observation: at (2, 1) the two variants share the zero-lift and
    # the (0 | I) word but differ in the other three planes
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


@pytest.mark.parametrize("n, k", [(n, k) for n in range(9) for k in range(n + 1)])
def test_dual_bases_match_the_oracle_at_every_shape(n, k):
    # 2k <= n eliminates the reversed words, 2k > n their kernels; 2k = n
    # is the boundary, and k = 0 and k = n the empty side.
    rng = np.random.default_rng(100 * n + k)
    for p in (2, 3, 13, LARGEST_PRIME):
        bases = np.stack([random_rref(k, n, p, rng) for _ in range(6)])
        duals = grassmann.dual_bases(bases, p)
        assert duals.shape == (6, n - k, n)
        for basis, dual in zip(bases, duals):
            assert dual.tolist() == dual_subspace(Subspace(basis, p)).basis.tolist()
        assert np.array_equal(grassmann.dual_bases(duals, p), bases)


def test_code_checks_eliminate_nothing_and_duals_the_smaller_side(monkeypatch):
    # Every dual of a (6, 21, 4, 2) code eliminates one 2-row stack: the
    # reversed words for the planes, the kernels for their 4-dimensional
    # duals.  The constructor checks the words without eliminating them, so
    # dual_code eliminates twice: once to build the duals, once for their
    # own pair scan, which runs on the duals' duals.
    shapes = []
    monkeypatch.setattr(grassmann, "batch_rref",
                        lambda a, p, fn=batch_rref: shapes.append(a.shape) or fn(a, p))
    code = anticode_optimal_code(2, 2, "O")
    assert shapes == []
    dual = dual_code(code)
    assert shapes == [(21, 2, 6)] * 2
    assert np.array_equal(grassmann.dual_bases(dual.words, 2), code.words)
    assert shapes == [(21, 2, 6)] * 3


def test_dual_code_params():
    code = anticode_optimal_code(2, 2, "O")
    dual = dual_code(code)
    assert code_params(dual) == (6, 21, 4, 4)
    double = dual_code(dual)
    assert np.array_equal(double.words, code.words)


def test_dual_code_refuses_a_distance_unlike_the_original():
    planes = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]],
              [[0, 0, 1, 0], [0, 0, 0, 1]]]
    code = GrassmannianCode(planes, 2)
    assert min_subspace_distance(code) == 2
    code._inters = np.zeros_like(code._inters)  # now reads d = 4
    with pytest.raises(RuntimeError, match="dual distance 2 != original 4"):
        dual_code(code)


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
    # k = 0 is the zero space; rows of length 0 are zero rows
    assert GrassmannianCode(np.zeros((1, 0, 3), dtype=np.int64), 2).k == 0
    with pytest.raises(ValueError, match="canonical"):
        GrassmannianCode(np.zeros((1, 2, 0), dtype=np.int64), 2)


def test_code_params_needs_two_words():
    single = GrassmannianCode([span([[1, 0]], 2)], 2)
    with pytest.raises(ValueError, match="two words"):
        code_params(single)


def test_min_subspace_distance_caches():
    code = anticode_optimal_code(3, 1, "O")
    assert min_subspace_distance(code) == 4
    assert code.d == 4


def test_d_is_read_off_the_scan_and_cannot_be_set():
    built = anticode_optimal_code(2, 1)
    code = GrassmannianCode(built.words, built.p)
    assert code.d is None and "d=?" in code.summary()
    with pytest.raises(AttributeError):
        code.d = 4
    code.intersection_dims()
    assert code.d == 4 and "d=4" in code.summary()
    single = GrassmannianCode(built.words[:1], built.p)
    assert single.intersection_dims().size == 0 and single.d is None


# The 8191 points of PG(12, 2) as lines of GF(2)^13: 33,542,145 pairs, over
# the default guard, and a point scan with no collision.
POINTS_13 = (13, 8191, 2, 1)


@pytest.mark.parametrize("reader", [min_subspace_distance, code_params, intersection_graph])
def test_unscanned_code_over_the_default_guard_is_refused_by_its_first_reader(reader):
    code = GrassmannianCode(enumerate_grassmannian(13, 1, 2), 2)
    with pytest.raises(ValueError, match="exceed the guard"):
        reader(code)
    assert code.d is None


def test_readers_take_no_guard_once_the_code_is_scanned(monkeypatch):
    code = GrassmannianCode(enumerate_grassmannian(13, 1, 2), 2)
    code.intersection_dims(1 << 26)
    assert min_subspace_distance(code) == 2 and code.d == 2
    assert code_params(code) == POINTS_13
    # No reader scans again: the graph of a smaller scanned code included.
    small = GrassmannianCode(anticode_optimal_code(2, 2).words, 2)
    small.intersection_dims(210)
    calls = []
    monkeypatch.setattr(grassmann, "pairwise_intersection_dims",
                        lambda *args: calls.append(args))
    assert code_params(small) == (6, 21, 4, 2)
    assert is_complete(intersection_graph(small))
    assert code_params(code) == POINTS_13 and not calls


def test_builders_scan_under_their_guard():
    # Each builder scans what it builds under the guard it is given.
    code = anticode_optimal_code(2, 2, pair_guard=210)
    assert code.d == 4
    with pytest.raises(ValueError, match="exceed the guard"):
        dual_code(code, pair_guard=209)
    assert dual_code(code, pair_guard=210).d == 4


def test_pairwise_guard():
    code = anticode_optimal_code(2, 2, "O")
    with pytest.raises(ValueError, match="guard"):
        pairwise_intersection_dims(code.words, code.p, pair_guard=5)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    n=st.integers(2, 8),
    data=st.data(),
)
def test_pairwise_intersection_dims_matches_python_int_reference(p, n, data):
    # k ranges over 1..n-1, covering k = 1, k = n - 1, k = n - k and
    # k > n - k, where the dispatcher scans the duals; with repeated words
    # the duals collide in every dimension.  Since (A+B)^perp = A^perp n
    # B^perp, both scans of the duals plus 2k - n give the table; the duals
    # are scanned only while they are the smaller side, as their points
    # grow as p^(n-k).
    k = data.draw(st.integers(1, n - 1), label="k")
    words = draw_words(data, p, n, k, repeats=True)
    bases = np.stack(words)
    got, reduction = pairwise_intersection_dims(bases, p), grassmann._reduction_scan(bases, p)
    assert got.dtype == reduction.dtype == np.min_scalar_type(k)
    assert got.tolist() == reduction.tolist() == reference_intersection_dims(words, p)
    if 2 * k >= n:
        duals = grassmann.dual_bases(bases, p)
        for scan in (grassmann._point_scan, grassmann._reduction_scan):
            assert (scan(duals, p).astype(int) + 2 * k - n).tolist() == got.tolist()


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
    # Every k with 2k <= n, including k = 1, with repeated words.
    k = data.draw(st.integers(1, n // 2), label="k")
    words = draw_words(data, p, n, k, repeats=True)
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


def record_scans(monkeypatch):
    """Patch both scans and batch_rank to record their calls by name."""
    calls = []
    for name in ("_point_scan", "_reduction_scan", "batch_rank"):
        fn = getattr(grassmann, name)
        monkeypatch.setattr(grassmann, name,
                            lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    return calls


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (7, 1), (2, 3)])
def test_lifted_codes_and_their_duals_take_the_point_scan(monkeypatch, p, r):
    calls = record_scans(monkeypatch)
    code = anticode_optimal_code(p, r)
    assert calls == ["_point_scan"]
    # The duals have dimension 2r >= n/2: at r >= 2 their own duals, the
    # lifted words, are scanned, and at r = 1 they are planes of GF(p)^4
    # again.  No pair is ranked.
    dual_code(code)
    assert calls == ["_point_scan", "_point_scan"]


def test_smallest_code_and_its_dual_take_the_reduction(monkeypatch):
    # (2,1) has M = 5 planes of GF(2)^4, whose 15 points outnumber the 10
    # pairs; the duals are planes of GF(2)^4 again.
    calls = record_scans(monkeypatch)
    code = anticode_optimal_code(2, 1)
    dual_code(code)
    scans = [c for c in calls if c != "batch_rank"]
    assert scans == ["_reduction_scan", "_reduction_scan"]
    assert calls.count("batch_rank") == 2 * (code.M - 1)


def test_grassmannian_code_round_trip():
    code = anticode_optimal_code(2, 1, "O")
    data = code.to_dict()
    again = GrassmannianCode.from_dict(data)
    assert np.array_equal(again.words, code.words)
    assert again.d is None
    assert code_params(again) == (4, 5, 4, 2)
    assert again.provenance == code.provenance


# Header text spelled like the code-file writer's separators, its
# placeholder line or its array key.
TRICKY_TEXT = st.sampled_from(['\n  "words": 0', '"words": 0', "words", "vertices",
                               ",\n      ", "\n    ],\n    [", "[]", "\u00e9t\u00e9", "\u2028"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.text() | TRICKY_TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text() | TRICKY_TEXT, inner, max_size=3)),
    max_leaves=12,
)


@st.composite
def word_stacks(draw):
    """(M, k, n) arrays over GF(p), p in {2, 3, 13, 17} (two-digit entries),
    including k = 0 and n = 0."""
    p = draw(st.sampled_from([2, 3, 13, 17]))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(0, 6)))
    return draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))


@settings(max_examples=200, deadline=None)
@given(words=word_stacks(),
       provenance=st.dictionaries(st.text() | TRICKY_TEXT, JSON_VALUES, max_size=4),
       key=st.sampled_from(["words", "vertices"]))
@example(words=np.zeros((3, 0, 4), dtype=np.int64), provenance={}, key="words")
@example(words=np.array([[[16, 0, 3], [0, 12, 1]]]), provenance={"words": [0]}, key="words")
@example(words=np.array([[[-3, 2**40]], [[0, -1]]]), provenance={"\u00e9": {"a": "b"}},
         key="vertices")
def test_dumps_with_array_matches_the_stdlib_encoder(words, provenance, key):
    _, k, n = words.shape
    payload = {"p": 17, "n": n, "k": k, "provenance": provenance}
    assert dumps_with_array(payload, key, words) == reference_dumps_with_array(payload, key, words)


@pytest.mark.parametrize("shape", [(0,), (0, 2, 4), (2, 0, 0), (3,), ()])
def test_dumps_with_array_other_ranks(shape):
    words = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    assert dumps_with_array({"p": 2}, "words", words) == \
        reference_dumps_with_array({"p": 2}, "words", words)


def test_dumps_with_array_peak_memory():
    # The (2, 6) code's shape: the template, the entry tuple and the text
    # are alive at once, and nothing per distinct value or per separator.
    words = np.random.default_rng(0).integers(0, 2, (5461, 2, 14))
    tracemalloc.start()
    text = dumps_with_array({"p": 2}, "words", words)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3.5 * len(text)


@st.composite
def code_file_texts(draw):
    """A code file as the stdlib writes it: a word array of rank 1-4 (an
    axis may be empty) with entries up to +-(2^63 - 1), any indent, compact
    or spaced separators, the keys in any order and extra provenance keys.
    Returns the text, the array and the last key."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    # Half the arrays hold only digits, as code files over GF(p), p <= 7, do.
    entries = draw(st.sampled_from([st.integers(0, 9), st.integers(0, 16)
                                    | st.integers(-(2**63 - 1), 2**63 - 1)]))
    words = draw(arrays(np.int64, tuple(shape), elements=entries))
    provenance = draw(st.dictionaries(st.text() | TRICKY_TEXT, JSON_VALUES, max_size=4))
    data = {"p": 17, "n": 4, "k": 2, "provenance": provenance, "words": words.tolist()}
    keys = draw(st.permutations(sorted(data)))
    text = json.dumps({key: data[key] for key in keys},
                      indent=draw(st.sampled_from([None, 0, 2, 4])),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    return text, words, keys[-1]


@settings(max_examples=300, deadline=None)
@given(case=code_file_texts())
def test_loads_with_array_matches_the_stdlib_decoder(case):
    text, words, last = case
    got, want = loads_with_array(text, "words"), reference_loads_with_array(text, "words")
    scanned = isinstance(got["words"], np.ndarray)
    array, expected = np.asarray(got.pop("words")), want.pop("words")
    assert got == want
    assert array.dtype == expected.dtype and array.shape == expected.shape
    assert np.array_equal(array, expected)
    # The byte scan, not json.loads, reads every nonempty array of digits
    # that ends the file.
    if last == "words" and words.size and ((0 <= words) & (words <= 9)).all():
        assert scanned and array.dtype == np.int64


@pytest.mark.parametrize("text", [
    # The text from the last "words" to the last "]" is a regular array but
    # not the top-level value, or the file holds a second constant.
    '{"words": NaN, "provenance": {"words": [[1]]}}',
    '{"words": 0, "provenance": {"words": [[1]]}}',
    '{"words": [[1]], "words": 0}',
    '{"a": NaN, "words": [[1]]}',
    '{"words": NaN, "z": "\\"words", ":[[1]]": 0}',
    '{"words": Infinity, "z": "\\"words", ":[[1]]": 0}',
    # Not JSON, or not a regular array of digits.
    '{"words": [[01]]}', '{"words": [[-0]]}', '{"words": [[1.0]]}', '{"words": [[1e3]]}',
    '{"words": [[--1]]}', '{"words": [[+1]]}', '{"words": [[1-2]]}', '{"words": [[1 2]]}',
    '{"words": [[-]]}', '{"words": [[1], [2, 3]]}', '{"words": [[1], 2]}', '{"words": []}',
    '{"words": [[]]}', '{"words": [[1],]}', '{"words": [[1]]]}', '{"words": [1[2]]}',
    '\ufeff{"words": [[1]]}', '{"words": [[\u00a01]]}', '{"words": [[1\x0b]]}',
    '{"words": [[9223372036854775807, -9223372036854775807]]}',
    '{"words": [[9223372036854775808]]}', '{"words": [[1000000000000000000]]}',
])
def test_loads_with_array_matches_the_stdlib_decoder_on_fixed_texts(text):
    try:
        want = json.loads(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as caught:
            loads_with_array(text, "words")
        assert str(caught.value) == str(exc)
        return
    got = loads_with_array(text, "words")
    assert not isinstance(got["words"], np.ndarray)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("text, words", [
    ('{"a": [1], "words" :\r\n\t[ [0 ,7] , [ 3,4 ] ]\n}', [[0, 7], [3, 4]]),
    ('{"words": [[[5]]], "provenance": {"words": 0}, "words": [[[2]], [[3]]]}', [[[2]], [[3]]]),
    ('{"words": [0]}', [0]),
])
def test_loads_with_array_scans_every_regular_digit_array_that_ends_the_file(text, words):
    got = loads_with_array(text, "words")
    assert isinstance(got["words"], np.ndarray) and got["words"].dtype == np.int64
    assert got["words"].tolist() == words
    assert {**got, "words": words} == json.loads(text)


def test_loads_with_array_builds_no_template_longer_than_the_text():
    # Read off the first item of each axis, this ragged array has the shape
    # (100001, 1, ..., 1) of 32 axes, whose template wraps every entry in 31
    # bracket pairs that the text does not hold.
    text = '{"words": ' + "[" * 32 + "0" + "]" * 31 + ",0" * 100000 + "]}"
    tracemalloc.start()
    data = loads_with_array(text, "words")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert data == json.loads(text)
    assert peak <= 10 * len(text)


def test_loads_with_array_peak_memory():
    # The (2, 8) E code's matrix file, 2^16 words in 6.7 MB.  json.loads
    # holds a list per row; the byte scan's masks and copies are of the text.
    text = json.dumps(build_image_code(2, 8, "E").to_dict())
    peaks = []
    for read in (reference_loads_with_array, loads_with_array):
        tracemalloc.start()
        data = read(text, "words")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert data["words"].shape == (2**16, 2, 16)
    assert peaks[1] <= peaks[0]


@pytest.mark.parametrize("p, r", [(2, 1), (2, 3), (3, 2), (13, 1), (17, 1)])
def test_code_file_is_the_stdlib_encoding(p, r):
    code = anticode_optimal_code(p, r, "E")
    text = code.to_json()
    assert text == json.dumps(code.to_dict(), sort_keys=True, indent=2) + "\n"
    again = GrassmannianCode.from_dict(json.loads(text))
    assert np.array_equal(again.words, code.words) and again.provenance == code.provenance


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
