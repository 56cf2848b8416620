import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grasslift.matfp import (
    MAX_MODULUS,
    RREF_CHUNK,
    MatrixFp,
    batch_lift,
    batch_rank,
    batch_rref,
    check_modulus,
    has_duplicates,
    int_array,
    mod,
    rref_null_space,
)

from oracles import (LARGEST_PRIME, random_rref, reference_rank, reference_rref,
                     reference_rref_null_space)

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


@pytest.mark.parametrize("entries, message", [
    ([[0], [1.9]], "integers"),          # numpy would truncate to 1
    ([[1.0]], "integers"),
    ([[0], [10**30]], "integers"),       # a Python int beyond int64
    ([[0], [2**63]], "integers"),
    ([[0], [-(2**63) - 1]], "integers"),
    ([["1"]], "integers"),
    ([[True]], "integers"),
    ([[None]], "integers"),
    ([[0], [0, 1]], "share one shape"),
    ([1, 2], "2-D"),
])
def test_int_array_refuses_what_numpy_would_coerce(entries, message):
    with pytest.raises(ValueError, match=message):
        int_array(entries, 2)
    with pytest.raises(ValueError, match=message):
        MatrixFp(entries, 5)


def test_int_array_keeps_integers_exactly():
    big = 2**63 - 1
    assert int_array([[big, -big - 1]], 2).tolist() == [[big, -big - 1]]
    assert int_array(np.array([[7]], dtype=np.uint64), 2).dtype == np.int64
    assert int_array([[[]]], 3).shape == (1, 1, 0)


def test_non_integer_moduli_are_refused():
    # is_prime(3.0) is True and True is an int, so the check must look at
    # the type first
    for p in (3.0, "3", None, True, False):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            check_modulus(p)
    check_modulus(np.int64(3))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 12), st.integers(0, 3), st.integers(0, 3)),
    p=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_has_duplicates_matches_a_set_of_rows(shape, p, seed):
    stack = np.random.default_rng(seed).integers(0, p, size=shape)
    rows = {tuple(m.ravel().tolist()) for m in stack}
    assert has_duplicates(stack) == (len(rows) < len(stack))


def test_moduli_above_the_int64_ceiling_are_refused():
    p = 4_294_967_311  # prime; (p - 1)^2 overflows int64
    # rank 1, but int64 products made the old kernel report 2
    with pytest.raises(ValueError, match="exceeds"):
        MatrixFp([[p - 1, p - 2, 1], [p - 2, p - 4, 2]], p).rank()
    for nrows in (2, 3):
        with pytest.raises(ValueError, match="exceeds"):
            batch_rank(np.ones((1, nrows, 3), dtype=np.int64), p)
    with pytest.raises(ValueError, match="exceeds"):
        batch_rref(np.ones((1, 2, 3), dtype=np.int64), p)
    # The ceiling is checked before primality, so a huge modulus is refused
    # at once instead of being trial-divided.
    with pytest.raises(ValueError, match="exceeds"):
        MatrixFp([[1]], 10**18 + 3)
    assert LARGEST_PRIME <= MAX_MODULUS
    assert MatrixFp([[1]], LARGEST_PRIME).rank() == 1
    with pytest.raises(ValueError, match="exceeds"):
        MatrixFp([[1]], 3_037_000_507)  # the smallest prime above the ceiling


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
# lift
# ---------------------------------------------------------------------------

def test_lift_examples():
    mats = np.array([[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[0, 0], [0, 0]]])
    assert batch_lift(mats, 4).tolist() == [
        [[1, 0, 0, 1], [0, 1, 1, 0]],
        [[1, 0, 1, 1], [0, 1, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
    ]
    # zero columns pad on the left; an empty A lifts to (0 | I)
    assert batch_lift(mats[:1], 6).tolist() == [[[0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 1, 0]]]
    assert batch_lift(np.zeros((1, 2, 0), dtype=np.int64), 4).tolist() == [
        [[0, 0, 1, 0], [0, 0, 0, 1]],
    ]


# ---------------------------------------------------------------------------
# the batched kernels
# ---------------------------------------------------------------------------

def low_rank_stack(p, nstacks, nrows, ncols, rng):
    """(B, R, C) stack of products of random (R, r) and (r, C) factors, r
    drawn per stack, so every rank occurs at any p.  The products are taken
    on Python ints, so they do not overflow at large p."""
    out = np.zeros((nstacks, nrows, ncols), dtype=np.int64)
    for b in range(nstacks):
        r = int(rng.integers(0, min(nrows, ncols) + 1))
        left = rng.integers(0, p, size=(nrows, r)).astype(object)
        right = rng.integers(0, p, size=(r, ncols)).astype(object)
        if r:
            out[b] = (left @ right % p).astype(np.int64)
    return out


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 13, MERSENNE_31, LARGEST_PRIME]),
    nrows=st.integers(0, 6),
    ncols=st.integers(0, 7),
    nstacks=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, nrows=4, ncols=5, nstacks=2 * RREF_CHUNK + 3, seed=0)  # three chunks
@example(p=LARGEST_PRIME, nrows=5, ncols=6, nstacks=RREF_CHUNK + 1, seed=1)
@example(p=LARGEST_PRIME, nrows=2, ncols=6, nstacks=40, seed=2)
@example(p=5, nrows=0, ncols=3, nstacks=2, seed=0)
@example(p=5, nrows=3, ncols=0, nstacks=2, seed=0)
def test_batch_rank_matches_scalar_rank(p, nrows, ncols, nstacks, seed):
    # The one elimination kernel against the Python-int oracle: reduced
    # forms, ranks (both batch_rank paths) and the kernels of the reduced
    # forms' nonzero rows.  The input is read-only and must be unchanged.
    mats = low_rank_stack(p, nstacks, nrows, ncols, np.random.default_rng(seed))
    before = mats.copy()
    mats.setflags(write=False)
    expected = [reference_rref(m.tolist(), p) for m in mats]
    reduced, ranks = batch_rref(mats, p)
    assert reduced.tolist() == [rows for rows, _ in expected]
    assert ranks.tolist() == [rank for _, rank in expected]
    assert batch_rank(mats, p).tolist() == [reference_rank(m.tolist(), p) for m in mats]
    for rank in set(ranks.tolist()):
        sel = np.flatnonzero(ranks == rank)
        kernels = rref_null_space(reduced[sel, :rank], p)
        assert kernels.shape == (sel.size, ncols - rank, ncols)
        for b, basis in zip(sel, kernels.tolist()):
            # each vector orthogonal to every row; the unit vectors on the free
            # columns, so the ncols - rank vectors are independent
            pivots = [next(c for c, x in enumerate(row) if x) for row in expected[b][0][:rank]]
            free = [c for c in range(ncols) if c not in pivots]
            assert [[v[f] for f in free] for v in basis] == np.eye(len(free), dtype=int).tolist()
            for row in mats[b].tolist():
                assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for v in basis)
    assert np.array_equal(mats, before)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 13, LARGEST_PRIME]),
    ncols=st.integers(0, 8),
    data=st.data(),
    nstacks=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_null_space_matches_the_reference_kernel(p, ncols, data, nstacks, seed):
    # Random RREF stacks of every rank, the empty ones included.
    rank = data.draw(st.integers(0, ncols))
    rng = np.random.default_rng(seed)
    rows = np.array([random_rref(rank, ncols, p, rng) for _ in range(nstacks)],
                    dtype=np.int64).reshape(nstacks, rank, ncols)
    kernels = rref_null_space(rows, p)
    assert kernels.shape == (nstacks, ncols - rank, ncols)
    assert kernels.tolist() == [reference_rref_null_space(m, ncols, p) for m in rows.tolist()]


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


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(2, MAX_MODULUS),
    data=st.data(),
    wide=st.booleans(),
    use_out=st.sampled_from([None, "fresh", "self"]),
)
@example(p=2, data=None, wide=True, use_out="self")
@example(p=MAX_MODULUS, data=None, wide=True, use_out=None)
def test_mod_equals_the_remainder(p, data, wide, use_out):
    # Residue differences and products lie in (-p^2, p^2); the multiply-add
    # must also hold far outside it, up to +-2^62.
    bound = 2**62 if wide else min(p * p - 1, 2**62)
    if data is None:
        values = [-bound, bound, 0, -1, 1, p, -p, p - 1, 1 - p]
    else:
        values = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=50))
    a = np.array(values, dtype=np.int64)
    expected = a % p
    if use_out is None:
        got = mod(a, p)
        assert got is not a
    else:
        out = a if use_out == "self" else np.empty_like(a)
        got = mod(a, p, out=out)
        assert got is out
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()


def test_mod_allocates_no_more_than_the_remainder():
    # One result array without out=, one temporary with it: a prototype
    # that kept the quotient beside the result raised peak memory.
    a = np.arange(-(1 << 20), 1 << 20, dtype=np.int64)
    for out in (None, a):
        tracemalloc.start()
        mod(a, 7, out=out)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= a.nbytes * 1.05, out is None
    assert a.min() == 0 and a.max() == 6
