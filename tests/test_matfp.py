import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grasslift.matfp import (
    MatrixFp,
    batch_rank,
    hstack,
    inverse_table,
    zero_identity,
)

from oracles import reference_rank

MERSENNE_31 = 2_147_483_647


def minor_rank_2x2(entries, p):
    """Independent rank oracle for 2 x 2 matrices: determinant plus zero test."""
    (a, b), (c, d) = entries
    if (a * d - b * c) % p != 0:
        return 2
    if any(x % p for x in (a, b, c, d)):
        return 1
    return 0


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_entries_reduced_and_immutable():
    m = MatrixFp([[5, -1], [3, 7]], 3)
    assert m.to_lists() == [[2, 2], [0, 1]]
    with pytest.raises(ValueError):
        m.array[0, 0] = 1


def test_constructor_errors():
    with pytest.raises(ValueError, match="not prime"):
        MatrixFp([[1]], 4)
    with pytest.raises(ValueError, match="2-D"):
        MatrixFp([1, 2, 3], 5)


def test_add_sub_neg():
    a = MatrixFp([[1, 2], [0, 1]], 3)
    b = MatrixFp([[2, 2], [1, 0]], 3)
    assert (a + b).to_lists() == [[0, 1], [1, 1]]
    assert (a - b).to_lists() == [[2, 0], [2, 1]]
    assert (-a).to_lists() == [[2, 1], [0, 2]]
    with pytest.raises(ValueError, match="shape mismatch"):
        a + MatrixFp([[1, 1]], 3)
    with pytest.raises(ValueError, match="modulus mismatch"):
        a + MatrixFp([[1, 1], [0, 0]], 5)


def test_equality_and_hash():
    a = MatrixFp([[1, 0], [0, 1]], 2)
    b = MatrixFp.identity(2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != MatrixFp.identity(2, 3)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_row_swap():
    assert MatrixFp([[0, 1], [1, 0]], 2).rref() == MatrixFp.identity(2, 2)


def test_rref_elimination():
    assert MatrixFp([[1, 1], [1, 1]], 2).rref().to_lists() == [[1, 1], [0, 0]]


def test_rref_scaling():
    assert MatrixFp([[2, 0], [0, 2]], 3).rref() == MatrixFp.identity(2, 3)


def test_rref_idempotent_and_rank_preserving():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(25):
            m = MatrixFp(rng.integers(0, p, size=(3, 5)), p)
            r = m.rref()
            assert r.rref() == r
            assert r.rank() == m.rank()


def test_rref_shape_canonical():
    # pivot columns carry exactly one 1 and pivots move strictly right
    rng = np.random.default_rng(5)
    for p in (2, 3):
        for _ in range(25):
            m = MatrixFp(rng.integers(0, p, size=(3, 4)), p)
            arr = m.rref().array
            pivots = []
            for i in range(arr.shape[0]):
                nz = np.nonzero(arr[i])[0]
                if nz.size == 0:
                    continue
                j = int(nz[0])
                assert arr[i, j] == 1
                assert np.count_nonzero(arr[:, j]) == 1
                pivots.append(j)
            assert pivots == sorted(pivots)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert MatrixFp.identity(2, 2).rank() == 2
    assert MatrixFp([[1, 2], [3, 1]], 5).rank() == 1
    assert MatrixFp.zeros(2, 2, 7).rank() == 0


def test_rank_matches_minor_oracle_exhaustive_2x2():
    for p in (2, 3):
        for entries in itertools.product(range(p), repeat=4):
            m = [[entries[0], entries[1]], [entries[2], entries[3]]]
            assert MatrixFp(m, p).rank() == minor_rank_2x2(m, p), (m, p)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    seed=st.integers(0, 2**31 - 1),
)
def test_rank_nullity(p, shape, seed):
    rng = np.random.default_rng(seed)
    m = MatrixFp(rng.integers(0, p, size=shape), p)
    assert m.rank() + m.null_space().nrows == m.ncols


# ---------------------------------------------------------------------------
# null space
# ---------------------------------------------------------------------------

def test_null_space_examples():
    ns = MatrixFp([[0, 0, 1, 0], [0, 0, 0, 1]], 2).null_space()
    assert ns.to_lists() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert MatrixFp.identity(2, 2).null_space().nrows == 0
    assert MatrixFp([[1, 1]], 2).null_space().to_lists() == [[1, 1]]


def test_null_space_orthogonality():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(20):
            m = MatrixFp(rng.integers(0, p, size=(3, 6)), p)
            ns = m.null_space()
            assert ns.nrows == m.ncols - m.rank()
            prod = (m.array @ ns.array.T) % p
            assert not prod.any()
            assert ns.rank() == ns.nrows


def test_null_space_of_empty_matrix_is_full_space():
    ns = MatrixFp.zeros(0, 3, 2).null_space()
    assert ns == MatrixFp.identity(3, 2)


# ---------------------------------------------------------------------------
# lift and the standard block matrices
# ---------------------------------------------------------------------------

def test_lift_examples():
    assert MatrixFp([[0, 1], [1, 0]], 2).lift().to_lists() == [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
    ]
    assert MatrixFp([[1, 1], [0, 1]], 2).lift().to_lists() == [
        [1, 0, 1, 1],
        [0, 1, 0, 1],
    ]
    assert MatrixFp.zeros(2, 2, 2).lift().to_lists() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]


def test_block_matrices():
    assert zero_identity(2, 1, 2).to_lists() == [[0, 0, 1, 0], [0, 0, 0, 1]]
    m = zero_identity(2, 2, 2)
    assert m.shape == (2, 6)
    assert m.to_lists() == [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


def test_stacking():
    a = MatrixFp([[1, 0]], 3)
    b = MatrixFp([[0, 2]], 3)
    assert hstack([a, b]).to_lists() == [[1, 0, 0, 2]]
    with pytest.raises(ValueError, match="modulus mismatch"):
        hstack([a, MatrixFp([[1, 1]], 2)])


# ---------------------------------------------------------------------------
# batched rank
# ---------------------------------------------------------------------------

def test_batch_rank_matches_scalar_rank():
    rng = np.random.default_rng(17)
    for p in (2, 3, 5, 13):
        for shape in ((2, 4), (3, 3), (4, 10), (2, 6), (6, 5)):
            batch = rng.integers(0, p, size=(80, *shape))
            expected = np.array([MatrixFp(m, p).rank() for m in batch])
            assert (batch_rank(batch, p) == expected).all(), (p, shape)


def two_row_stack(kind, p, ncols, rng, step):
    """One random 2 x ncols matrix of the given kind.

    For the kinds with a nonzero top row, step % ncols is the top row's
    first nonzero column and, for "multiple", step // ncols % p is the
    factor lambda, so any p * ncols consecutive steps reach every pair.
    """
    top = rng.integers(0, p, size=ncols)
    bot = rng.integers(0, p, size=ncols)
    if kind in ("bottom zero", "multiple"):
        lead = step % ncols
        top[:lead] = 0
        top[lead] = int(rng.integers(1, p))
    if kind == "multiple":
        bot = top * (step // ncols % p) % p
    if kind in ("zero", "top zero"):
        top[:] = 0
    if kind in ("zero", "bottom zero"):
        bot[:] = 0
    if kind == "top zero":
        bot[int(rng.integers(0, ncols))] = int(rng.integers(1, p))
    return np.stack([top, bot])


TWO_ROW_KINDS = ["zero", "top zero", "bottom zero", "multiple", "uniform"]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, MERSENNE_31]),
    ncols=st.integers(1, 8),
    nstacks=st.integers(1, 40),
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# every lambda at every first nonzero column: nstacks = 5 * p * ncols
@example(p=2, ncols=8, nstacks=80, transposed=True, seed=0)
@example(p=5, ncols=5, nstacks=125, transposed=False, seed=0)
@example(p=13, ncols=6, nstacks=390, transposed=True, seed=0)
def test_two_row_batch_rank_matches_python_int_reference(p, ncols, nstacks, transposed, seed):
    # The stack kinds take turns, so every kind appears once nstacks >= 5.
    # Only two-row stacks are ranked, so the generic path's inverse table
    # is never built at p = 2^31 - 1.
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, 2**31))
    stacks = np.stack([
        two_row_stack(TWO_ROW_KINDS[b % len(TWO_ROW_KINDS)], p, ncols, rng,
                      offset + b // len(TWO_ROW_KINDS))
        for b in range(nstacks)
    ])
    expected = [reference_rank(m, p) for m in stacks]
    if transposed:
        # a non-contiguous (B, 2, C) view of a (B, C, 2) array
        mats = np.ascontiguousarray(stacks.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert ncols == 1 or not mats.flags.c_contiguous
    else:
        mats = stacks.copy()
    before = mats.copy()
    mats.setflags(write=False)
    assert batch_rank(mats, p).tolist() == expected
    assert np.array_equal(mats, before)


def test_batch_rank_empty_batch():
    assert batch_rank(np.zeros((0, 2, 2), dtype=np.int64), 3).shape == (0,)


def test_batch_rank_rejects_flat_input():
    with pytest.raises(ValueError, match="stack"):
        batch_rank(np.zeros((2, 2), dtype=np.int64), 3)


def test_inverse_table():
    for p in (2, 3, 7, 13):
        table = inverse_table(p)
        assert table[0] == 0
        for x in range(1, p):
            assert table[x] * x % p == 1
