import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasslift import codes
from grasslift.gf import ExtFieldElement, ext_elements, ext_zero
from grasslift.matfp import MatrixFp
from grasslift.codes import (
    ExtVector,
    RankMetricCode,
    _all_pair_diffs,
    _image_batch,
    _image_chunks,
    _min_rank,
    bachoc_weight,
    build_image_code,
    embed_zeros_even,
    embed_zeros_odd,
    enumerate_ext_vectors,
    even_zero_image,
    hamming_weight,
    image_rank_counts,
    is_mrd,
    isometry_counterexamples,
    matrix_image,
    min_nonzero_rank,
    min_rank_distance,
    odd_zero_image,
    sample_image_pair_min_rank,
    singleton_max_dim,
    variant_image,
    weight_table_csv,
    weight_table_rows,
)
from oracles import reference_pair_min_rank, reference_rank_histogram


def ev(p, *pairs):
    return ExtVector.from_pairs(pairs, p)


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
    assert bachoc_weight(MatrixFp.zeros(2, 2, 2)) == 0
    assert bachoc_weight(MatrixFp([[0, 1], [1, 0]], 2)) == 1
    assert bachoc_weight(MatrixFp([[1, 1], [1, 1]], 2)) == 2
    assert bachoc_weight(MatrixFp([[1, 2], [3, 1]], 5)) == 5
    with pytest.raises(ValueError, match="2 x 2"):
        bachoc_weight(MatrixFp.zeros(2, 4, 2))


# ---------------------------------------------------------------------------
# matrix images
# ---------------------------------------------------------------------------

def test_matrix_image_examples():
    assert matrix_image(ev(2, (1, 0), (1, 0))) == MatrixFp([[1, 1], [1, 1]], 2)
    assert matrix_image(ev(3, (0, 0), (1, 1))) == MatrixFp([[1, 1], [2, 1]], 3)
    assert matrix_image(ev(7, (0, 0), (0, 0))).is_zero()
    with pytest.raises(ValueError, match="even"):
        matrix_image(ev(2, (1, 0)))


def test_matrix_image_reference_grid_p2():
    for v in enumerate_ext_vectors(2, 2):
        assert matrix_image(v).to_lists() == REFERENCE_IMAGES_P2[str(v)]


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
            assert odd_zero_image(v) == matrix_image(embed_zeros_odd(v))
            assert even_zero_image(v) == matrix_image(embed_zeros_even(v))
    # sampled larger case
    v = ev(13, (5, 9), (0, 12), (7, 1))
    assert odd_zero_image(v) == matrix_image(embed_zeros_odd(v))
    assert even_zero_image(v) == matrix_image(embed_zeros_even(v))


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
                assert matrix_image(s) == MatrixFp(
                    (images[u].array + images[v].array), p
                )
        for c in range(p):
            for v in vectors[:: max(1, len(vectors) // 9)]:
                scaled = ExtVector([x * c for x in v])
                assert matrix_image(scaled) == MatrixFp(images[v].array * c, p)


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
    # The streaming scans image word i as _image_batch of index i;
    # build_image_code's scalar map over enumerate_ext_vectors is the
    # oracle for both the words and their order.
    words = [MatrixFp(m, p) for m in _image_batch(np.arange(p ** (2 * r)), p, r, variant)]
    expected = [variant_image(v, variant) for v in enumerate_ext_vectors(p, r)]
    assert words == expected
    assert words == [MatrixFp(w, p) for w in build_image_code(p, r, variant).words]


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


def test_min_rank_distance_sampled_path_matches_exhaustive():
    code = build_image_code(3, 2, "O")  # 81 words, 3240 pairs
    exhaustive = min_rank_distance(code)
    code._delta = None
    sampled = min_rank_distance(code, pair_guard=10, sample_pairs=500, seed=1)
    assert sampled == exhaustive


def test_sampled_distance_ranks_words_once_and_pins_the_zero_word(monkeypatch):
    words = list(build_image_code(3, 2, "E").words)
    words.append(words.pop(0))  # the zero word last
    code = RankMetricCode(words, 3, linear=True)
    stacks = []
    original = codes.batch_rank

    def counted(mats, p):
        stacks.append(len(mats))
        return original(mats, p)

    monkeypatch.setattr(codes, "batch_rank", counted)
    # With no sampled pair, the pinned pair alone must realize the minimum.
    assert min_rank_distance(code, pair_guard=10, sample_pairs=0) == 2
    assert stacks == [81, 1]


def test_min_rank_distance_guard_for_non_linear():
    words = [[[i, 0], [0, 0]] for i in range(5)]
    code = RankMetricCode(words, 7)
    with pytest.raises(ValueError, match="guard"):
        min_rank_distance(code, pair_guard=2)


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
    assert img == MatrixFp([[2, 0], [1, 2]], 3)
    assert img.rank() == 2 and bachoc_weight(img) == 1
    assert hamming_weight(witness) == 2


def test_isometry_report_p2_zero_first_coordinate_rows():
    zero = ext_zero(2)
    for x in ext_elements(2):
        v = ExtVector([zero, x])
        assert hamming_weight(v) == bachoc_weight(matrix_image(v))


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
    with pytest.raises(ValueError, match="share one shape"):
        RankMetricCode([zero, [[0, 0, 0, 0], [0, 0, 0, 0]]], 2)


def test_rank_metric_code_round_trip():
    code = build_image_code(3, 1, "O")
    data = code.to_dict()
    assert data["p"] == 3 and data["k"] == 2 and data["l"] == 2 and data["linear"]
    again = RankMetricCode.from_dict(data)
    assert np.array_equal(again.words, code.words)
    assert again.rho == code.rho


def test_scan_counts_agree_with_materialized_ranks():
    for p, r, variant in ((2, 2, "O"), (3, 2, "E"), (7, 1, "O")):
        code = build_image_code(p, r, variant)
        counted = {0: 0, 1: 0, 2: 0}
        for w in code.words:
            counted[MatrixFp(w, p).rank()] += 1
        assert image_rank_counts(p, r, variant) == counted


# ---------------------------------------------------------------------------
# scan generators: every chunk layout against Python-int references
# ---------------------------------------------------------------------------

def chunk_layouts(p, r):
    q = p * p
    return sorted({
        1,                  # one word per stack
        q - 1,              # chunk < p^2: no table, every coordinate leads
        q * (q - 1) + 1,    # not a multiple of the table: last stack partial
        p ** (2 * r) - 1,   # one coordinate short of the whole image
        p ** (2 * r),       # the table is the whole image: no leading blocks
        1 << 16,
    })


@pytest.mark.parametrize("variant", ["O", "E"])
@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (7, 1), (7, 2)])
def test_image_stream_matches_scalar_map_for_every_chunk_layout(p, r, variant):
    words = [variant_image(v, variant).to_lists() for v in enumerate_ext_vectors(p, r)]
    histogram = reference_rank_histogram(words, p)
    for chunk in chunk_layouts(p, r):
        # The stacks share one buffer, so each is copied before the next.
        stacks = [m.copy() for m in _image_chunks(p, r, variant, chunk)]
        assert all(0 < len(m) <= chunk for m in stacks), chunk
        assert np.concatenate(stacks).tolist() == words, chunk
        assert image_rank_counts(p, r, variant, chunk=chunk) == histogram, chunk


def distinct_words(p, shape, draw_entries):
    seen = {}
    for entries in draw_entries:
        seen.setdefault(tuple(x % p for x in entries), None)
    return np.array(list(seen), dtype=np.int64).reshape(-1, *shape)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    ncols=st.integers(1, 4),
    entries=st.lists(st.lists(st.integers(0, 6), min_size=8, max_size=8),
                     min_size=2, max_size=14),
    chunk=st.integers(1, 40),
)
def test_pair_scan_matches_double_loop(p, ncols, entries, chunk):
    arr = distinct_words(p, (2, ncols), [e[:2 * ncols] for e in entries])
    m = len(arr)
    if m < 2:
        return
    stacks = [d.copy() for d in _all_pair_diffs(arr, chunk)]
    assert all(0 < len(d) <= chunk for d in stacks)
    expected = [arr[j] - arr[i] for i in range(m) for j in range(i + 1, m)]
    np.testing.assert_array_equal(np.concatenate(stacks), expected)
    words = arr.tolist()
    assert _min_rank(_all_pair_diffs(arr, chunk), p) == reference_pair_min_rank(words, p)
    code = RankMetricCode(words, p)
    assert min_rank_distance(code) == reference_pair_min_rank(words, p)


@pytest.mark.parametrize("chunk", [1, 2, 4, 5, 100])
def test_pair_scan_non_linear_codes_of_distance_one_and_two(chunk):
    # Distance 1: B - A = [[-1, 1], [0, 0]] has rank 1, and its entries sum
    # to 0, so an unreduced difference would read as rank 0.
    one = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [1, 0]]]
    # Distance 2: the eight nonzero words of the (3, 1) O image (no zero word,
    # so not linear); their first row of 7 pairs crosses the chunks above.
    two = [w.tolist() for w in build_image_code(3, 1, "O").words if w.any()]
    for words, p, d in ((one, 3, 1), (two, 3, 2)):
        assert reference_pair_min_rank(words, p) == d
        arr = np.array(words, dtype=np.int64)
        assert _min_rank(_all_pair_diffs(arr, chunk), p) == d
