import functools
import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grasslift import codes
from grasslift.gf import ExtFieldElement
from grasslift.matfp import MatrixFp
from grasslift.codes import (
    ExtVector,
    RankMetricCode,
    _image_words,
    build_image_code,
    enumerate_ext_vectors,
    even_zero_image,
    image_rank_counts,
    is_mrd,
    isometry_counterexamples,
    min_nonzero_rank,
    min_rank_distance,
    odd_zero_image,
    sample_image_pair_min_rank,
    singleton_max_dim,
    variant_image,
    weight_table_csv,
    weight_table_rows,
)
from oracles import (
    LARGEST_PRIME,
    bachoc_weight,
    embed_zeros_even,
    embed_zeros_odd,
    ext_elements,
    ext_zero,
    hamming_weight,
    matrix_image,
    reference_is_linear,
    reference_pair_min_rank,
    reference_rank,
    reference_rank_histogram,
)


def ev(p, *pairs):
    return ExtVector.from_pairs(pairs, p)


def oracle_image(p, r, variant, i):
    """Rows of the oracle image of vector i of (GF(p^2))^r: the base-p digits
    of i, most significant first, are a_1, b_1, ..., a_r, b_r."""
    flat = [i // p**k % p for k in range(2 * r - 1, -1, -1)]
    embed = embed_zeros_odd if variant == "O" else embed_zeros_even
    return matrix_image(embed(ev(p, *zip(flat[0::2], flat[1::2]))))


def minor_rank(mat, p):
    """Rank oracle for 2 x l matrices via exhaustive 2 x 2 minor expansion."""
    rows = mat.to_lists()
    ncols = len(rows[0])
    for i in range(ncols):
        for j in range(i + 1, ncols):
            if (rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]) % p:
                return 2
    if any(x for row in rows for x in row):
        return 1
    return 0


# Reference weight rows, keyed by rendered vector: (hamming, bachoc, rank).
REFERENCE_WEIGHTS_P2 = {
    "0|0": (0, 0, 0),
    "0|1": (1, 1, 2),
    "1|0": (1, 1, 2),
    "1|1": (2, 2, 1),
    "0|w": (1, 1, 2),
    "w|0": (1, 1, 2),
    "w|w": (2, 2, 1),
    "1|w": (2, 2, 1),
    "w|1": (2, 2, 1),
    "0|1+w": (1, 1, 2),
    "1+w|0": (1, 1, 2),
    "1|1+w": (2, 2, 1),
    "1+w|1": (2, 2, 1),
    "w|1+w": (2, 2, 1),
    "1+w|w": (2, 2, 1),
    "1+w|1+w": (2, 2, 1),
}

REFERENCE_IMAGES_P2 = {
    "0|0": [[0, 0], [0, 0]],
    "0|1": [[0, 1], [1, 0]],
    "1|0": [[1, 0], [0, 1]],
    "1|1": [[1, 1], [1, 1]],
    "0|w": [[1, 0], [1, 1]],
    "w|0": [[0, 1], [1, 1]],
    "w|w": [[1, 1], [0, 0]],
    "1|w": [[0, 0], [1, 0]],
    "w|1": [[0, 0], [0, 1]],
    "0|1+w": [[1, 1], [0, 1]],
    "1+w|0": [[1, 1], [1, 0]],
    "1|1+w": [[0, 1], [0, 0]],
    "1+w|1": [[1, 0], [0, 0]],
    "w|1+w": [[1, 0], [1, 0]],
    "1+w|w": [[0, 1], [0, 1]],
    "1+w|1+w": [[0, 0], [1, 1]],
}

# Reference images of the nine vectors (0, c + d*w) over GF(9), with ranks.
REFERENCE_IMAGES_P3 = {
    "0|0": ([[0, 0], [0, 0]], 0),
    "0|1": ([[0, 1], [1, 0]], 2),
    "0|w": ([[1, 0], [1, 1]], 2),
    "0|1+w": ([[1, 1], [2, 1]], 2),
    "0|2": ([[0, 2], [2, 0]], 2),
    "0|2w": ([[2, 0], [2, 2]], 2),
    "0|1+2w": ([[2, 1], [0, 2]], 2),
    "0|2+2w": ([[2, 2], [1, 2]], 2),
    "0|2+w": ([[1, 2], [0, 1]], 2),
}


# ---------------------------------------------------------------------------
# vectors and weights
# ---------------------------------------------------------------------------

def test_ext_vector_validation():
    with pytest.raises(ValueError, match="one modulus"):
        ExtVector([ExtFieldElement(1, 0, 2), ExtFieldElement(1, 0, 3)])
    with pytest.raises(ValueError, match="empty"):
        ExtVector([])


def test_enumeration_is_lexicographic_in_coefficient_pairs():
    first = [str(v) for v in itertools.islice(enumerate_ext_vectors(3, 1), 5)]
    assert first == ["0", "w", "2w", "1", "1+w"]
    all_vectors = list(enumerate_ext_vectors(3, 2))
    assert len(all_vectors) == 81
    assert len(set(all_vectors)) == 81


def test_hamming_weight():
    assert hamming_weight(ev(2, (0, 0), (0, 0))) == 0
    assert hamming_weight(ev(2, (1, 0), (0, 1))) == 2
    assert hamming_weight(ev(2, (0, 0), (1, 1))) == 1


def test_bachoc_weight():
    assert bachoc_weight([[0, 0], [0, 0]], 2) == 0
    assert bachoc_weight([[0, 1], [1, 0]], 2) == 1
    assert bachoc_weight([[1, 1], [1, 1]], 2) == 2
    assert bachoc_weight([[1, 2], [3, 1]], 5) == 5
    with pytest.raises(ValueError, match="2 x 2"):
        bachoc_weight([[0, 0, 0, 0], [0, 0, 0, 0]], 2)


# ---------------------------------------------------------------------------
# matrix images
# ---------------------------------------------------------------------------

def test_matrix_image_examples():
    assert matrix_image(ev(2, (1, 0), (1, 0))) == [[1, 1], [1, 1]]
    assert matrix_image(ev(3, (0, 0), (1, 1))) == [[1, 1], [2, 1]]
    assert matrix_image(ev(7, (0, 0), (0, 0))) == [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="even"):
        matrix_image(ev(2, (1, 0)))


def test_matrix_image_reference_grid_p2():
    for v in enumerate_ext_vectors(2, 2):
        assert matrix_image(v) == REFERENCE_IMAGES_P2[str(v)]


def test_odd_zero_image_examples():
    assert odd_zero_image(ev(2, (1, 1))) == MatrixFp([[1, 1], [0, 1]], 2)
    assert odd_zero_image(ev(3, (2, 1))) == MatrixFp([[1, 2], [0, 1]], 3)
    assert odd_zero_image(ev(5, (2, 1))) == MatrixFp([[1, 2], [3, 1]], 5)


def test_even_zero_image_examples():
    assert even_zero_image(ev(2, (1, 0))) == MatrixFp.identity(2, 2)
    assert even_zero_image(ev(2, (0, 1))) == MatrixFp([[0, 1], [1, 1]], 2)
    assert even_zero_image(ev(7, (0, 0), (0, 0))).is_zero()


def test_variant_images_agree_with_interleaved_base_map():
    for p, r in ((2, 1), (2, 2), (3, 1), (3, 2), (7, 1)):
        for v in enumerate_ext_vectors(p, r) if p ** (2 * r) <= 100 else []:
            assert odd_zero_image(v).to_lists() == matrix_image(embed_zeros_odd(v))
            assert even_zero_image(v).to_lists() == matrix_image(embed_zeros_even(v))
    # sampled larger case
    v = ev(13, (5, 9), (0, 12), (7, 1))
    assert odd_zero_image(v).to_lists() == matrix_image(embed_zeros_odd(v))
    assert even_zero_image(v).to_lists() == matrix_image(embed_zeros_even(v))


def test_base_map_is_additive_homogeneous_injective():
    for p in (2, 3):
        vectors = list(enumerate_ext_vectors(p, 2))
        images = {}
        for v in vectors:
            m = matrix_image(v)
            assert m not in images.values()
            images[v] = m
        for u in vectors[:: max(1, len(vectors) // 9)]:
            for v in vectors[:: max(1, len(vectors) // 9)]:
                s = ExtVector([a + b for a, b in zip(u, v)])
                assert matrix_image(s) == [
                    [(x + y) % p for x, y in zip(ru, rv)] for ru, rv in zip(images[u], images[v])
                ]
        for c in range(p):
            for v in vectors[:: max(1, len(vectors) // 9)]:
                scaled = ExtVector([x * c for x in v])
                assert matrix_image(scaled) == [[x * c % p for x in row] for row in images[v]]


# ---------------------------------------------------------------------------
# image codes
# ---------------------------------------------------------------------------

def test_image_code_p2_exact_words():
    code = build_image_code(2, 1, "O")
    expected = {
        MatrixFp([[0, 0], [0, 0]], 2),
        MatrixFp([[0, 1], [1, 0]], 2),
        MatrixFp([[1, 0], [1, 1]], 2),
        MatrixFp([[1, 1], [0, 1]], 2),
    }
    assert {MatrixFp(w, 2) for w in code.words} == expected
    assert code.rho == 2 and code.shape == (2, 2)


def test_image_code_p2_even_variant_exact_words():
    code = build_image_code(2, 1, "E")
    expected = {
        MatrixFp([[0, 0], [0, 0]], 2),
        MatrixFp([[1, 0], [0, 1]], 2),
        MatrixFp([[0, 1], [1, 1]], 2),
        MatrixFp([[1, 1], [1, 0]], 2),
    }
    assert {MatrixFp(w, 2) for w in code.words} == expected


def test_image_code_p3_matches_reference_images():
    code = build_image_code(3, 1, "O")
    expected = {MatrixFp(m, 3) for m, _ in REFERENCE_IMAGES_P3.values()}
    assert {MatrixFp(w, 3) for w in code.words} == expected


def test_image_code_p2_r2_all_nonzero_words_rank_2():
    code = build_image_code(2, 2, "O")
    assert len(code) == 16
    for w in code.words:
        expected = 0 if not w.any() else 2
        assert minor_rank(MatrixFp(w, 2), 2) == expected


@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (3, 1), (3, 2), (7, 1), (7, 2), (13, 1)])
def test_vectorized_image_map_matches_built_code_in_order(p, r, variant):
    # Word i is written from the p^2 single-coordinate blocks as row i of
    # _image_words; the whole-vector map variant_image over
    # enumerate_ext_vectors pins both the words and their order.
    words = [MatrixFp(m, p) for m in _image_words(codes._blocks(p, variant), r)]
    expected = [variant_image(v, variant) for v in enumerate_ext_vectors(p, r)]
    assert words == expected
    assert words == [MatrixFp(w, p) for w in build_image_code(p, r, variant).words]


@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 47, 233, 251])
def test_block_table_matches_the_oracle_map(p, variant):
    # The table is spanned from the images of 1 and w; every one of its p^2
    # blocks must be the oracle image of its digit, at non-construction
    # primes (5, 11) and up to the largest prime under the word guard.
    blocks = codes._blocks(p, variant)
    assert blocks.dtype == np.int64 and blocks.shape == (p * p, 2, 2)
    assert blocks.tolist() == [oracle_image(p, 1, variant, i) for i in range(p * p)]


@functools.lru_cache(maxsize=2)
def written_images(p, r, variant):
    return _image_words(codes._blocks(p, variant), r)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(2, 8), (3, 4), (7, 2), (13, 2)]),
    variant=st.sampled_from(codes.VARIANTS),
    data=st.data(),
)
def test_gathered_images_match_the_oracle_map_beyond_one_digit(case, variant, data):
    # Every library use writes at most WORD_GUARD words; (2, 8) is at it.
    p, r = case
    words = written_images(p, r, variant)
    assert words.shape == (p ** (2 * r), 2, 2 * r) and len(words) <= codes.WORD_GUARD
    idx = data.draw(st.lists(st.integers(0, p ** (2 * r) - 1), min_size=1, max_size=8))
    assert words[idx].tolist() == [oracle_image(p, r, variant, i) for i in idx]


def test_image_code_at_the_word_guard():
    code = build_image_code(2, 8, "O")
    assert len(code) == codes.WORD_GUARD and code.rho == 16 and is_mrd(code)
    for i in [*range(0, len(code), 4099), len(code) - 1]:
        assert code.words[i].tolist() == oracle_image(2, 8, "O", i), i


def test_image_code_rejects_non_construction_primes():
    for p in (5, 11, 19):
        with pytest.raises(ValueError, match=r"p % 5"):
            build_image_code(p, 1, "O")


def test_image_code_guard():
    with pytest.raises(ValueError, match="guard"):
        build_image_code(7, 3, "O")  # 7^6 words


def test_image_code_bad_args():
    with pytest.raises(ValueError, match="variant"):
        build_image_code(2, 1, "X")
    with pytest.raises(ValueError, match="r must be"):
        build_image_code(2, 0, "O")


# ---------------------------------------------------------------------------
# rank distance, Singleton bound, MRD
# ---------------------------------------------------------------------------

def test_min_rank_distance_examples():
    assert min_rank_distance(build_image_code(2, 1, "O")) == 2
    assert min_rank_distance(build_image_code(3, 1, "O")) == 2
    small = RankMetricCode([[[0, 0], [0, 0]], [[1, 0], [0, 0]]], 2, linear=True)
    assert min_rank_distance(small) == 1
    with pytest.raises(ValueError, match="two words"):
        min_rank_distance(RankMetricCode([[[0, 0], [0, 0]]], 2))


def test_min_rank_distance_equals_min_nonzero_rank_for_linear_codes():
    for p, r, variant in ((2, 1, "O"), (2, 2, "E"), (3, 1, "O"), (7, 1, "E")):
        code = build_image_code(p, r, variant)
        assert min_rank_distance(code) == min_nonzero_rank(code)


def test_min_rank_distance_above_guard_matches_exhaustive():
    code = build_image_code(3, 2, "O")  # 81 words, 3240 pairs
    exhaustive = min_rank_distance(RankMetricCode(code.words, code.p))
    assert min_rank_distance(code, pair_guard=10) == exhaustive == 2


@pytest.mark.parametrize("guard", [{}, {"pair_guard": 10}], ids=["default", "above"])
def test_distance_ranks_one_word_per_projective_point(monkeypatch, guard):
    # 81 words: the zero word and (81 - 1) / (3 - 1) = 40 projective points.
    words = list(build_image_code(3, 2, "E").words)
    words.append(words.pop(0))  # the zero word last
    code = RankMetricCode(words, 3, linear=True)
    stacks = []
    original = codes.batch_rank

    def counted(mats, p):
        stacks.append(len(mats))
        return original(mats, p)

    monkeypatch.setattr(codes, "batch_rank", counted)
    assert min_rank_distance(code, **guard) == 2
    assert stacks == [41]
    assert min_nonzero_rank(code) == 2 and stacks == [41]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), k=st.integers(1, 3), l=st.integers(1, 3),
       data=st.data())
def test_min_nonzero_rank_matches_the_oracle_over_every_word(p, k, l, data):
    """The span of random generators, listed in a drawn order, has the least
    nonzero rank of all its words, though only one word per projective point
    is ranked."""
    vector = st.lists(st.integers(0, p - 1), min_size=k * l, max_size=k * l)
    gens = np.array(data.draw(st.lists(vector, min_size=1, max_size=3 if p < 11 else 2)),
                    dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(gens))), dtype=np.int64)
    span = np.unique(coeffs @ gens % p, axis=0)
    data.draw(st.randoms(use_true_random=False)).shuffle(order := list(range(len(span))))
    words = span[order].reshape(-1, k, l)
    code = RankMetricCode(words, p, linear=True)
    ranks = [reference_rank(w.tolist(), p) for w in words]
    if len(words) == 1:
        with pytest.raises(ValueError, match="no nonzero word"):
            min_nonzero_rank(code)
    else:
        assert min_nonzero_rank(code) == min(r for r in ranks if r) == min_rank_distance(code)
    # The ranked words are the zero word and one word per projective point:
    # their nonzero multiples are every nonzero word, each once.
    zero, *points = code.words[code._points].reshape(len(code._points), -1).tolist()
    assert not any(zero)
    multiples = [tuple(c * x % p for x in w) for w in points for c in range(1, p)]
    assert sorted(multiples) == sorted(tuple(w) for w in span.tolist() if any(w))


def test_min_rank_distance_guard_for_non_linear(monkeypatch):
    # The guard refuses before any word is lifted.
    monkeypatch.setattr(codes, "batch_lift", lambda *args: pytest.fail("lifted"))
    words = [[[i, 0], [0, 0]] for i in range(5)]
    code = RankMetricCode(words, 7)
    with pytest.raises(ValueError, match="guard"):
        min_rank_distance(code, pair_guard=2)
    with pytest.raises(ValueError, match=r"10 pairs exceed the guard \(9\) and the code is "
                                         "not linear"):
        min_rank_distance(code, pair_guard=9)


def test_singleton_max_dim():
    assert singleton_max_dim(2, 2, 2) == 2
    assert singleton_max_dim(2, 4, 2) == 4
    assert singleton_max_dim(2, 6, 2) == 6
    assert singleton_max_dim(3, 4, 1) == 12
    with pytest.raises(ValueError, match="out of range"):
        singleton_max_dim(2, 2, 3)


def test_is_mrd():
    assert is_mrd(build_image_code(2, 1, "O"))
    assert is_mrd(build_image_code(3, 1, "O"))
    small = RankMetricCode([[[0, 0], [0, 0]], [[1, 0], [0, 0]]], 2, linear=True)
    assert not is_mrd(small)
    with pytest.raises(ValueError, match="linear"):
        is_mrd(RankMetricCode([[[0, 0], [0, 0]], [[1, 0], [0, 1]]], 2))


def test_nonzero_image_ranks_for_construction_primes_up_to_50():
    # exhaustive at r=1 and r=2 for the acceptance grid primes, sampled at r=3
    for p in (2, 3, 7, 13):
        for variant in ("O", "E"):
            for r in (1, 2):
                counts = image_rank_counts(p, r, variant)
                assert counts == {0: 1, 1: 0, 2: p ** (2 * r) - 1}, (p, r, variant)
            assert sample_image_pair_min_rank(p, 3, variant, 2000, seed=3) == 2
    # remaining construction primes up to 50, small exhaustive scan
    for p in (17, 23, 37, 43, 47):
        counts = image_rank_counts(p, 1, "O")
        assert counts == {0: 1, 1: 0, 2: p**2 - 1}


# ---------------------------------------------------------------------------
# p=5 failure mode
# ---------------------------------------------------------------------------

def test_p5_raw_image_contains_rank_one_word():
    raw = [odd_zero_image(v) for v in enumerate_ext_vectors(5, 1)]
    target = MatrixFp([[1, 2], [3, 1]], 5)
    assert target in set(raw)
    assert target.rank() == 1
    code = RankMetricCode([m.array for m in raw], 5, linear=True)
    assert min_rank_distance(code) == 1 == min_nonzero_rank(code)


@pytest.mark.parametrize("seed", range(6))
def test_p5_raw_image_in_any_order_has_distance_one(seed):
    # The rank-1 words must be found whichever word the certificate's keys
    # pick for each projective point: the words are listed in a new order.
    words = [odd_zero_image(v).array for v in enumerate_ext_vectors(5, 1)]
    random.Random(seed).shuffle(words)
    code = RankMetricCode(words, 5, linear=True)
    assert min_rank_distance(code) == 1 == min_nonzero_rank(code)
    assert len(code._points) == 1 + (25 - 1) // (5 - 1)


# ---------------------------------------------------------------------------
# isometry report
# ---------------------------------------------------------------------------

def test_isometry_report_empty_for_p2():
    assert isometry_counterexamples(2) == []


def test_isometry_report_p3_contains_specific_counterexample():
    report = isometry_counterexamples(3)
    assert report
    witness = ev(3, (1, 0), (0, 1))
    assert witness in report
    # recompute the mismatch independently of the scan
    img = matrix_image(witness)
    assert img == [[2, 0], [1, 2]]
    assert reference_rank(img, 3) == 2 and bachoc_weight(img, 3) == 1
    assert hamming_weight(witness) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_isometry_report_matches_scalar_oracle(p):
    # The report reads weights off coefficient arrays and one batch_rank;
    # the oracle takes each vector's scalar image and weights one by one.
    expected = [v for v in enumerate_ext_vectors(p, 2)
                if hamming_weight(v) != bachoc_weight(matrix_image(v), p)]
    assert isometry_counterexamples(p) == expected


def test_isometry_report_p2_zero_first_coordinate_rows():
    zero = ext_zero(2)
    for x in ext_elements(2):
        v = ExtVector([zero, x])
        assert hamming_weight(v) == bachoc_weight(matrix_image(v), 2)


def test_isometry_guard():
    with pytest.raises(ValueError, match="guard"):
        isometry_counterexamples(37)


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------

def test_weight_table_p2_matches_reference():
    rows = weight_table_rows(2)
    assert len(rows) == 16
    seen = {}
    for alpha, ham, phi, bachoc, rank in rows:
        seen[alpha] = (ham, bachoc, rank)
        expected = REFERENCE_IMAGES_P2[alpha]
        assert phi == "".join(str(x) for row in expected for x in row)
    assert seen == REFERENCE_WEIGHTS_P2


def test_weight_table_p3_matches_reference():
    rows = weight_table_rows(3)
    assert len(rows) == 9
    for alpha, ham, phi, bachoc, rank in rows:
        expected_matrix, expected_rank = REFERENCE_IMAGES_P3[alpha]
        assert phi == "".join(str(x) for row in expected_matrix for x in row)
        assert rank == expected_rank
        if alpha != "0|0":
            assert (ham, bachoc, rank) == (1, 1, 2)


def test_weight_table_rejects_other_moduli():
    with pytest.raises(ValueError, match=r"p in \{2, 3\}"):
        weight_table_csv(7)


def test_weight_table_csv_shape():
    csv_text = weight_table_csv(2)
    lines = csv_text.splitlines()
    assert lines[0] == "alpha,hamming,phi,bachoc,rank"
    assert len(lines) == 17
    assert csv_text.endswith("\n")


# ---------------------------------------------------------------------------
# code container and serialization
# ---------------------------------------------------------------------------

def test_rank_metric_code_validation():
    zero = [[0, 0], [0, 0]]
    eye = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode([zero, zero], 2)
    with pytest.raises(ValueError, match="zero matrix"):
        RankMetricCode([eye], 2, linear=True)
    with pytest.raises(ValueError, match="power of p"):
        RankMetricCode([zero, eye, [[1, 1], [0, 1]]], 2, linear=True)
    # I + [[1, 1], [0, 1]] = E_12 is missing: four words, not a subspace.
    with pytest.raises(ValueError, match="closed under addition"):
        RankMetricCode([zero, eye, [[1, 1], [0, 1]], [[0, 1], [1, 1]]], 2, linear=True)
    with pytest.raises(ValueError, match="closed under addition"):
        RankMetricCode(false_linear_words(), 3, linear=True)
    with pytest.raises(ValueError, match="share one shape"):
        RankMetricCode([zero, [[0, 0, 0, 0], [0, 0, 0, 0]]], 2)
    # A refused linear claim names the first failing check, in the order
    # duplicates, zero word, size, closure.
    e11, e12, e21 = [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode([e11, e11], 2, linear=True)
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode([e11, e12, e21, e21], 2, linear=True)  # rank 3 > rho = 2
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode([zero, e11, e11, e12], 2, linear=True)  # rank 2 = rho
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode([zero, zero, eye], 2, linear=True)
    with pytest.raises(ValueError, match="zero matrix"):
        RankMetricCode([e11, e12], 2, linear=True)
    with pytest.raises(ValueError, match="zero matrix"):
        RankMetricCode([e11, e12, e21], 2, linear=True)
    # Words with no entries: one is the zero code, two are equal.
    assert RankMetricCode(np.zeros((1, 2, 0), dtype=np.int64), 2, linear=True).rho == 0
    with pytest.raises(ValueError, match="duplicate"):
        RankMetricCode(np.zeros((2, 0, 3), dtype=np.int64), 2, linear=True)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3]), k=st.integers(1, 3), l=st.integers(1, 3), data=st.data())
def test_linearity_certificate_matches_closure_oracle(p, k, l, data):
    """A span of random generators, or that span with one word swapped for a
    vector outside it, in any order, is accepted as linear exactly when the
    oracle finds it closed under sums and scalar multiples.  Up to five
    generators give up to 243 words, more than the 2 rho + 1 rows the first
    basis is drawn from, so the residual pass decides most claims."""
    vector = st.lists(st.integers(0, p - 1), min_size=k * l, max_size=k * l)
    gens = data.draw(st.lists(vector, max_size=5))
    span = sorted({tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % p for i in range(k * l))
                   for coeffs in itertools.product(range(p), repeat=len(gens))})
    words = [list(w) for w in span]
    outside = tuple(data.draw(vector))
    if data.draw(st.booleans()) and outside not in span:
        words[data.draw(st.integers(0, len(words) - 1))] = list(outside)
    words = np.array(data.draw(st.permutations(words))).reshape(-1, k, l)
    try:
        code = RankMetricCode(words, p, linear=True)
    except ValueError:
        assert not reference_is_linear(words, p)
    else:
        assert reference_is_linear(words, p)
        assert p ** code.rho == len(words)
        assert code.rho == reference_rank(words.reshape(len(words), -1), p)


def record_eliminations(monkeypatch):
    """The (R, C) matrices codes eliminates from now on, one per batch_rref call."""
    mats = []
    monkeypatch.setattr(codes, "batch_rref",
                        lambda a, p, fn=codes.batch_rref: mats.append(a[0]) or fn(a, p))
    return mats


@pytest.mark.parametrize("p, r", [(3, 2), (2, 3)])
def test_linearity_certificate_extends_a_basis_that_misses_a_direction(monkeypatch, p, r):
    # The first M / p image words in build order, those with leading
    # coefficient zero, are a hyperplane of the code.  The rows the first
    # basis is drawn from depend on M and rho alone, so with hyperplane words
    # at those positions the first basis misses a direction, the residual
    # pass finds words outside it and the basis is extended.
    words, rho = build_image_code(p, r).words, 2 * r
    m = len(words)
    drawn = record_eliminations(monkeypatch)
    RankMetricCode(words, p, linear=True)
    position = {w.tobytes(): i for i, w in enumerate(words)}
    first = sorted({position[row.tobytes()] for row in drawn[0]})
    rest = [i for i in range(m) if i not in first]
    order = np.empty(m, dtype=np.int64)
    order[first] = np.arange(len(first))
    order[rest] = np.arange(len(first), m)
    shuffled = words[order]
    drawn.clear()
    code = RankMetricCode(shuffled, p, linear=True)
    assert code.rho == rho and reference_is_linear(code.words, p)
    assert reference_rank(drawn[0].tolist(), p) < rho and len(drawn) >= 2
    # One word moved off the code where the first basis draws none: refused
    # once the extended basis exceeds rank rho.
    bad = shuffled.copy()
    bad[rest[-1], 0, 0] = (bad[rest[-1], 0, 0] + 1) % p
    assert bad[rest[-1]].tobytes() not in position
    drawn.clear()
    with pytest.raises(ValueError, match="closed under addition"):
        RankMetricCode(bad, p, linear=True)
    assert reference_rank(drawn[0].tolist(), p) < rho and len(drawn) >= 2


def test_linear_claims_at_large_primes():
    # Residual products reach rho (p - 1)^2, inside int64 for every code the
    # constructor can hold: the zero word alone at the largest prime, where
    # two words are no power of p, and a line of 65,521 words with entries
    # p - 1.
    code = RankMetricCode([[[0, 0]]], LARGEST_PRIME, linear=True)
    assert code.rho == 0
    with pytest.raises(ValueError, match="power of p"):
        RankMetricCode([[[0, 0]], [[LARGEST_PRIME - 1, 1]]], LARGEST_PRIME, linear=True)
    p = 65_521
    line = np.arange(p)[:, None, None] * np.array([[[p - 1, 1, p - 1]]]) % p
    assert RankMetricCode(line, p, linear=True).rho == 1
    line[-1, 0, 1] = 0
    with pytest.raises(ValueError, match="closed under addition"):
        RankMetricCode(line, p, linear=True)


def test_rank_metric_code_round_trip():
    code = build_image_code(3, 1, "O")
    data = code.to_dict()
    assert data["p"] == 3 and data["k"] == 2 and data["l"] == 2 and data["linear"]
    again = RankMetricCode.from_dict(data)
    assert np.array_equal(again.words, code.words)
    assert again.rho == code.rho


@pytest.mark.parametrize("linear", ["false", "true", 0, 1, None])
def test_rank_metric_code_from_dict_needs_a_boolean_linear(linear):
    # "false" would read as True, and refuse this non-linear code for
    # lacking the zero matrix instead of for its claim.
    data = {"p": 2, "k": 1, "l": 1, "linear": linear, "words": [[[1]]]}
    with pytest.raises(ValueError, match="linear must be true or false"):
        RankMetricCode.from_dict(data)


def test_scan_counts_agree_with_materialized_ranks():
    for p, r, variant in ((2, 2, "O"), (3, 2, "E"), (7, 1, "O")):
        code = build_image_code(p, r, variant)
        counted = {0: 0, 1: 0, 2: 0}
        for w in code.words:
            counted[MatrixFp(w, p).rank()] += 1
        assert image_rank_counts(p, r, variant) == counted


# ---------------------------------------------------------------------------
# image histograms against Python-int references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (7, 1), (7, 2),
                                  (5, 1), (5, 2), (11, 1), (11, 2)])
def test_image_stream_matches_scalar_map_for_every_chunk_layout(p, r, variant):
    words = [variant_image(v, variant).to_lists() for v in enumerate_ext_vectors(p, r)]
    histogram = reference_rank_histogram(words, p)
    # Rank-1 words exist exactly off the construction primes, so p = 5 and
    # p = 11 exercise every term of the count.
    assert (histogram[1] > 0) == (p % 5 not in (2, 3))
    # The histogram is counted from the p^2 coordinate blocks in one pass.
    assert image_rank_counts(p, r, variant) == histogram


def test_image_rank_counts_are_exact_beyond_int64():
    assert image_rank_counts(2, 40, "O") == {0: 1, 1: 0, 2: 2**80 - 1}


@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("scan", [
    lambda r: image_rank_counts(3, r, "O"),
    lambda r: sample_image_pair_min_rank(3, r, "O", 10),
], ids=["counts", "sample"])
def test_image_scans_refuse_r_below_one(scan, r):
    with pytest.raises(ValueError, match=r"r must be >= 1"):
        scan(r)


def test_image_pair_min_rank_is_exact_beyond_int64():
    # Images of 2^64, 13^18 and 2^80 words, and the largest under 2^63.
    for p, r in ((2, 32), (13, 9), (2, 40), (2, 31), (13, 8)):
        for variant in ("O", "E"):
            assert sample_image_pair_min_rank(p, r, variant, 10) == 2


def distinct_words(p, shape, draw_entries):
    seen = {}
    for entries in draw_entries:
        seen.setdefault(tuple(x % p for x in entries), None)
    return np.array(list(seen), dtype=np.int64).reshape(-1, *shape)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(1, 4),
    l=st.integers(1, 4),
    entries=st.lists(st.lists(st.integers(0, 6), min_size=16, max_size=16),
                     min_size=2, max_size=20),
)
@example(p=2, k=4, l=1, entries=[[i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1] * 4
                                 for i in range(16)])  # all of GF(2)^(4 x 1)
def test_pair_scan_matches_double_loop(p, k, l, entries):
    # The lifts are scanned on the words' side when k <= l and on their
    # duals' when k > l.  With P = (p^h - 1) / (p - 1) points per word,
    # h = min(k, l), the point scan runs when M >= 2P + 1 and the reduction
    # scan below that; the draws reach both.
    words = distinct_words(p, (k, l), [e[:k * l] for e in entries]).tolist()
    if len(words) < 2:
        return
    assert min_rank_distance(RankMetricCode(words, p)) == reference_pair_min_rank(words, p)


@pytest.mark.parametrize("m", [2, 6, 7, 12])
def test_pair_scan_takes_both_sides_of_the_point_rule(monkeypatch, m):
    # k = 2 and p = 2 give 3 points per lift: the point scan needs 3 M <=
    # M (M - 1) / 2, that is M >= 7.  The words are m drawn 2 x 3 matrices
    # and, tall, their transposes, whose lifts are scanned by their duals,
    # read off the lifts with no elimination.
    from grasslift import grassmann

    calls = []
    for name in ("_point_scan", "_reduction_scan", "reversed_dual_bases", "batch_rref"):
        fn = getattr(grassmann, name)
        monkeypatch.setattr(grassmann, name,
                            lambda b, p, name=name, fn=fn: calls.append(name) or fn(b, p))
    rng = np.random.default_rng(m)
    flat = rng.permutation(np.array(list(itertools.product(range(2), repeat=6))))[:m]
    for words in (flat.reshape(m, 2, 3), flat.reshape(m, 2, 3).transpose(0, 2, 1)):
        code = RankMetricCode(words, 2)
        assert min_rank_distance(code) == reference_pair_min_rank(words.tolist(), 2)
    scan = "_point_scan" if m >= 7 else "_reduction_scan"
    assert calls == [scan, "reversed_dual_bases", scan]


@pytest.mark.parametrize("chunk", [1, 2, 4, 5, 100])
def test_pair_scan_non_linear_codes_of_distance_one_and_two(monkeypatch, chunk):
    from grasslift import grassmann

    # Distance 1: B - A = [[-1, 1], [0, 0]] has rank 1, and its entries sum
    # to 0, so an unreduced difference would read as rank 0.
    one = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [1, 0]]]
    # Distance 2: the eight nonzero words of the (3, 1) O image (no zero word,
    # so not linear).
    two = [w.tolist() for w in build_image_code(3, 1, "O").words if w.any()]
    # The 80 nonzero words of the (3, 2) O image (distance 2), the 81 false
    # linear words (distance 1) and 20 drawn 3 x 3 words over GF(2) (distance
    # 1) take the point scan, whose batches of grassmann.CHUNK points and
    # collision pairs the chunk sizes above split.  A 3 x 3 pair at rank
    # distance 1 shares 3 points, so a lost batch reads it as distance 2.
    point_two = [w.tolist() for w in build_image_code(3, 2, "O").words if w.any()]
    point_one = false_linear_words().tolist()
    drawn = drawn_square_words().tolist()
    monkeypatch.setattr(grassmann, "CHUNK", chunk)
    for words, p, d in ((one, 3, 1), (two, 3, 2), (point_two, 3, 2), (point_one, 3, 1),
                        (drawn, 2, 1)):
        assert reference_pair_min_rank(words, p) == d
        assert min_rank_distance(RankMetricCode(words, p)) == d


# ---------------------------------------------------------------------------
# the image pair minimum
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def oracle_image_pair_min_rank(p, r, variant):
    """Least rank of image(u) - image(v) over distinct vector pairs, by the
    oracle map: every pair where p^(2r) <= 169, else (by linearity) every
    nonzero word."""
    images = [oracle_image(p, r, variant, i) for i in range(p ** (2 * r))]
    if len(images) <= 169:
        return reference_pair_min_rank(images, p)
    return min(reference_rank(rows, p) for rows in images[1:])


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from([(p, r) for p in (2, 3, 5, 7, 11, 13, 47) for r in range(1, 5)
                          if p ** (2 * r) <= 2401]),
    variant=st.sampled_from(["O", "E"]),
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.integers(-2, 500),
)
# p = 5 and 11 have rank-1 words; the construction primes do not.
@example(case=(5, 2), variant="O", seed=7, n_pairs=1)
@example(case=(11, 1), variant="E", seed=384, n_pairs=1)
@example(case=(13, 1), variant="O", seed=10, n_pairs=0)
@example(case=(47, 1), variant="E", seed=11, n_pairs=500)
def test_image_pair_min_rank_matches_the_exhaustive_oracle(case, variant, seed, n_pairs):
    p, r = case
    expected = oracle_image_pair_min_rank(p, r, variant)
    assert expected == (1 if p in (5, 11) else 2)
    assert sample_image_pair_min_rank(p, r, variant) == expected
    # n_pairs and seed are accepted and change nothing.
    assert sample_image_pair_min_rank(p, r, variant, n_pairs, seed=seed) == expected


@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sampled_scan_refuses_a_block_table_that_is_not_additive(monkeypatch, p, variant):
    true = codes._blocks(p, variant)
    expected = sample_image_pair_min_rank(p, 2, variant, 3)
    for d, i, j in itertools.product(range(p * p), range(2), range(2)):
        bad = true.copy()
        bad[d, i, j] = (bad[d, i, j] + 1) % p
        monkeypatch.setattr(codes, "_blocks", lambda p, variant: bad)
        with pytest.raises(ValueError, match="not additive"):
            sample_image_pair_min_rank(p, 2, variant, 3, seed=d)
    monkeypatch.setattr(codes, "_blocks", lambda p, variant: true)
    assert sample_image_pair_min_rank(p, 2, variant, 3) == expected


@pytest.mark.parametrize("p", [3, 7])
def test_sampled_scan_reads_the_pairs_of_a_table_with_a_kernel(monkeypatch, p):
    # block(a + b*w) = (a + b) M with M of rank 2 is additive, and every block
    # outside its kernel a + b = 0 has rank 2, yet a pair whose difference
    # lies in the kernel has rank 0: the scan may skip the pairs only when no
    # nonzero digit has the zero block.
    m = np.array([[1, 0], [0, 1]])
    a, b = np.divmod(np.arange(p * p), p)
    table = (a + b)[:, None, None] * m % p
    monkeypatch.setattr(codes, "_blocks", lambda p, variant: table)
    classes, plane = codes._block_classes(table, p)
    assert plane == 1 and (classes == 0).sum() == p
    rng = np.random.default_rng(0)
    ia, ib = (rng.integers(0, p * p, size=300) for _ in range(2))
    keep = ia != ib
    in_kernel = ((a + b)[ia[keep]] - (a + b)[ib[keep]]) % p == 0
    assert in_kernel.any() and not in_kernel.all()
    assert sample_image_pair_min_rank(p, 1, "O", 300, seed=0) == 0


@pytest.mark.parametrize("scan", [image_rank_counts, sample_image_pair_min_rank])
def test_block_table_guard_names_p(scan):
    # 257^2 = 66049 single-coordinate blocks exceed WORD_GUARD = 2^16, and
    # 257 % 5 == 2, so only the block table refuses it.
    assert 257**2 > codes.WORD_GUARD
    with pytest.raises(ValueError, match=r"p=257 has 66049 .*guard"):
        scan(257, 1)


@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p, r, counts", [
    (5, 1, {0: 1, 1: 4, 2: 20}),
    (11, 1, {0: 1, 1: 20, 2: 100}),
    (7, 3, {0: 1, 1: 0, 2: 117648}),
])
def test_block_classes_give_the_image_rank_counts(p, r, counts, variant):
    assert image_rank_counts(p, r, variant) == counts
    blocks = codes._blocks(p, variant)
    classes, plane = codes._block_classes(blocks, p)
    # Two blocks share a class exactly when they span one column space.
    ranked = [(b, c, reference_rank(b, p)) for b, c in zip(blocks.tolist(), classes.tolist())]
    for b, c, rank in ranked:
        assert (c == 0, c == plane) == (rank == 0, rank == 2)
    for (x, cx, rx), (y, cy, ry) in itertools.combinations(ranked, 2):
        joined = reference_rank([u + v for u, v in zip(x, y)], p)
        assert (cx == cy) == (joined == rx == ry)


def false_linear_words():
    """The (3, 2) O image with its last word replaced by words[-2] + E_11:
    still 81 words of rank <= 2 with the zero word, but not a subspace, and
    the last pair, in the last row of the pair scan, has rank 1."""
    words = build_image_code(3, 2, "O").words.copy()
    words[-1] = words[-2]
    words[-1, 0, 0] = (words[-1, 0, 0] + 1) % 3
    return words


def drawn_square_words():
    """20 distinct 3 x 3 words over GF(2), not a subspace, at rank distance 1."""
    words = np.array(list(itertools.product(range(2), repeat=9))).reshape(-1, 3, 3)
    return np.random.default_rng(3).permutation(words)[:20]


def scan_results():
    """Every image and pair scan, the sampled one from one to 300 pairs."""
    out = {}
    for p, r, variant in ((2, 1, "O"), (3, 1, "E"), (3, 2, "O"), (7, 1, "E")):
        out[("counts", p, r, variant)] = image_rank_counts(p, r, variant)
    for n_pairs in (1, 3, 300):
        out[("sample", n_pairs)] = sample_image_pair_min_rank(3, 2, "E", n_pairs, seed=5)
    # At p = 5 the image has rank-1 words; seed 19 draws four distinct pairs
    # and only the last has a rank-1 difference.
    out["sample p=5"] = sample_image_pair_min_rank(5, 1, "O", 4, seed=19)
    # Three words (two rows of pairs) and the 81 words of the (3, 2) E image.
    three = [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[2, 0], [0, 2]]]
    for words in (three, build_image_code(3, 2, "E").words):
        out[("exhaustive", len(words))] = min_rank_distance(RankMetricCode(words, 3))
        out[("above guard", len(words))] = min_rank_distance(
            RankMetricCode(words, 3, linear=True), pair_guard=1)
    out["false linear"] = min_rank_distance(RankMetricCode(false_linear_words(), 3))
    out["drawn 3 x 3"] = min_rank_distance(RankMetricCode(drawn_square_words(), 2))
    return out


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("callers", [1, 2, 3, 5])
def test_scans_are_independent_of_the_split(monkeypatch, callers, chunk):
    # Every scan runs in its calling thread and keeps no state between calls,
    # so each of several threads calling at once gets the one-caller results.
    # The "false linear" and "drawn 3 x 3" words take the point scan, which
    # works in batches of grassmann.CHUNK; no batch size may change a result.
    from grasslift import grassmann

    expected = scan_results()
    assert expected["sample p=5"] == 1
    assert expected["false linear"] == 1
    assert expected["drawn 3 x 3"] == 1
    monkeypatch.setattr(grassmann, "CHUNK", chunk)
    with ThreadPoolExecutor(callers) as pool:
        results = list(pool.map(lambda _: scan_results(), range(callers)))
    assert results == [expected] * callers


def test_sample_image_pair_min_rank_ignores_n_pairs_and_seed():
    for n_pairs in (0, -1):
        assert sample_image_pair_min_rank(2, 1, "O", n_pairs=n_pairs) == 2
    assert sample_image_pair_min_rank(2, 1, "O", n_pairs=1, seed=10) == 2
    assert sample_image_pair_min_rank(2, 1, "O", n_pairs=1, seed=0) == 2
