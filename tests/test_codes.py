import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasslift import codes
from grasslift.gf import ExtFieldElement
from grasslift.matfp import MatrixFp
from grasslift.codes import (
    ExtVector,
    RankMetricCode,
    _all_pair_diffs,
    _image_batch,
    _image_chunks,
    _min_rank,
    _split,
    _table_coords,
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
    bachoc_weight,
    embed_zeros_even,
    embed_zeros_odd,
    ext_elements,
    ext_zero,
    hamming_weight,
    matrix_image,
    reference_pair_min_rank,
    reference_rank,
    reference_rank_histogram,
)


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
    assert img == [[2, 0], [1, 2]]
    assert reference_rank(img, 3) == 2 and bachoc_weight(img, 3) == 1
    assert hamming_weight(witness) == 2


@pytest.mark.parametrize("p", [2, 3, 7])
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
    with pytest.raises(ValueError, match="share one shape"):
        RankMetricCode([zero, [[0, 0, 0, 0], [0, 0, 0, 0]]], 2)


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
        n_lead = p ** (2 * (r - _table_coords(p, r, chunk)))
        # Whole, and as two parts of leading blocks; the stacks share one
        # buffer, so each is copied before the next.
        for parts in ([None], [(0, n_lead // 2), (n_lead // 2, n_lead)]):
            stacks = [m.copy() for leads in parts
                      for m in _image_chunks(p, r, variant, chunk, leads)]
            assert all(0 < len(m) <= chunk for m in stacks), (chunk, parts)
            assert np.concatenate(stacks).tolist() == words, (chunk, parts)
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
    cut=st.integers(0, 13),
)
def test_pair_scan_matches_double_loop(p, ncols, entries, chunk, cut):
    arr = distinct_words(p, (2, ncols), [e[:2 * ncols] for e in entries])
    m = len(arr)
    if m < 2:
        return
    expected = [arr[j] - arr[i] for i in range(m) for j in range(i + 1, m)]
    # Whole, and as two parts of word rows split at ``cut``.
    cut = min(cut, m - 1)
    for parts in ([None], [(0, cut), (cut, m - 1)]):
        stacks = [d.copy() for rows in parts for d in _all_pair_diffs(arr, chunk, rows)]
        assert all(0 < len(d) <= chunk for d in stacks)
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


# ---------------------------------------------------------------------------
# scans split into parts across threads
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(1, 30), min_size=1, max_size=40),
    workers=st.integers(1, 6),
    chunk=st.integers(1, 200),
)
def test_split_gives_contiguous_covering_parts(weights, workers, chunk):
    cum = np.concatenate(([0], np.cumsum(weights)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "WORKERS", workers)
        parts = _split(cum, chunk)
    assert parts[0][0] == 0 and parts[-1][1] == len(weights)
    assert all(a < b for a, b in parts)
    assert all(b == c for (_, b), (c, _) in zip(parts, parts[1:]))
    assert len(parts) <= workers
    if cum[-1] <= chunk:
        assert len(parts) == 1


def false_linear_code():
    """The (3, 2) O image with its last word replaced by words[-2] + E_11:
    still 81 words of rank <= 2 with the zero word, but the last pair, in the
    last row of the pair scan, has rank 1."""
    words = build_image_code(3, 2, "O").words.copy()
    words[-1] = words[-2]
    words[-1, 0, 0] = (words[-1, 0, 0] + 1) % 3
    return RankMetricCode(words, 3, linear=True)


def scan_results():
    """Every scan whose work is split into parts, on cases of one to many
    parts (fewer leading blocks, rows or pairs than workers included)."""
    out = {}
    for p, r, variant in ((2, 1, "O"), (3, 1, "E"), (3, 2, "O"), (7, 1, "E")):
        out[("counts", p, r, variant)] = image_rank_counts(p, r, variant)
    for n_pairs in (1, 3, 300):
        out[("sample", n_pairs)] = sample_image_pair_min_rank(3, 2, "E", n_pairs, seed=5)
    # At p = 5 the image has rank-1 words; seed 19 draws four distinct pairs
    # and only the last has a rank-1 difference, so every part counts.
    out["sample p=5"] = sample_image_pair_min_rank(5, 1, "O", 4, seed=19)
    # Three words (two rows of pairs) and the 81 words of the (3, 2) E image.
    three = [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[2, 0], [0, 2]]]
    for words in (three, build_image_code(3, 2, "E").words):
        out[("exhaustive", len(words))] = min_rank_distance(RankMetricCode(words, 3))
        out[("sampled", len(words))] = min_rank_distance(
            RankMetricCode(words, 3, linear=True), pair_guard=1, sample_pairs=200, seed=2)
    with pytest.raises(RuntimeError) as err:
        min_rank_distance(false_linear_code())
    out["false linear"] = str(err.value)
    return out


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_scans_are_independent_of_the_split(monkeypatch, workers, chunk):
    monkeypatch.setattr(codes, "WORKERS", 1)
    expected = scan_results()
    assert expected["sample p=5"] == 1
    assert expected["false linear"] == ("pairwise minimum 1 != minimum nonzero rank 2 "
                                        "for a linear code")
    monkeypatch.setattr(codes, "WORKERS", workers)
    monkeypatch.setattr(codes, "CHUNK", chunk)
    assert scan_results() == expected


@pytest.mark.parametrize("raising", ["helper", "caller"])
@pytest.mark.parametrize("scan", [
    lambda: image_rank_counts(3, 2, "O"),
    lambda: min_rank_distance(build_image_code(3, 2, "O")),
], ids=["stream", "pairs"])
def test_part_errors_reach_the_caller(monkeypatch, scan, raising):
    monkeypatch.setattr(codes, "WORKERS", 3)
    monkeypatch.setattr(codes, "CHUNK", 7)
    original = codes.batch_rank

    def failing(mats, p):
        if (threading.current_thread() is threading.main_thread()) == (raising == "caller"):
            raise ArithmeticError(f"{raising} part failed")
        return original(mats, p)

    scan()  # the unpatched scan: with CHUNK = 7 it runs in three parts
    monkeypatch.setattr(codes, "batch_rank", failing)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"{raising} part failed"):
        scan()
    assert threading.active_count() == before


def test_sample_image_pair_min_rank_refuses_degenerate_samples():
    for n_pairs in (0, -1):
        with pytest.raises(ValueError, match="n_pairs"):
            sample_image_pair_min_rank(2, 1, "O", n_pairs=n_pairs)
    # Seed 10 draws the one pair (u, u) among the 4 vectors of GF(4).
    with pytest.raises(ValueError, match="n_pairs"):
        sample_image_pair_min_rank(2, 1, "O", n_pairs=1, seed=10)
    assert sample_image_pair_min_rank(2, 1, "O", n_pairs=1, seed=0) == 2
    # min_rank_distance always adds its pinned pair, so 0 sampled pairs is valid.
    code = build_image_code(2, 1, "O")
    with pytest.raises(ValueError, match="sample_pairs"):
        min_rank_distance(code, pair_guard=1, sample_pairs=-1)
    assert min_rank_distance(code, pair_guard=1, sample_pairs=0) == 2
