"""Dense matrices over GF(p): reduced row echelon form, rank, kernels, lifting.

One int64 entry per cell (no bit packing); everything here is exact, and
moduli above MAX_MODULUS are refused so that products of residues fit.
Entries from outside come in through one parse, :func:`int_array`, which
refuses anything numpy would truncate, wrap or hold as objects.  All
elimination is one batched Gauss-Jordan kernel, :func:`batch_rref`, run on
whole stacks of small matrices; a single matrix is a stack of one.
:func:`batch_rank` ranks two-row stacks by reducing the bottom row against
the top row's pivot column and sends taller ones to that kernel.  The
subspace pair scan sends it the remainders of all later words after
reduction against one word's RREF basis, and the linearity certificate a
basis and a few drawn words at a time.  Every array is reduced mod p by
:func:`mod`, one floor division by the scalar p and a multiply-add, which
numpy runs several times faster than its remainder on int64 arrays.  Rows
are compared and sorted by exact int64 keys, their entries read as base-p
digits (:func:`digit_keys`), never by their raw bytes: one argsort of one
key column is about ten times faster than a sort of void rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import MAX_MODULUS, check_modulus

# Stacks eliminated together by batch_rref; bounds its temporaries.
RREF_CHUNK = 256


def int_array(entries, ndim: int) -> np.ndarray:
    """``entries`` as an int64 array with ``ndim`` axes.  Raises ValueError on
    ragged input and on entries that are not integers inside int64 (floats,
    strings, booleans, None, huge ints), which numpy would otherwise
    truncate, wrap or hold as objects."""
    try:
        arr = np.asarray(entries)
    except ValueError:
        raise ValueError("ragged entries: every word and row must share one shape") from None
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-D entries, got shape {arr.shape}")
    if arr.size and (arr.dtype.kind not in "iu" or arr.dtype == np.uint64
                     and arr.max() > np.iinfo(np.int64).max):
        raise ValueError(f"entries must be integers inside int64, got {arr.dtype} entries")
    return arr.astype(np.int64, copy=False)


def mod(a: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """``a % p`` for an int64 array and a modulus p >= 2, as a - (a // p) p.

    Allocates one array, the result, or with ``out=`` (which may be ``a``
    itself) one temporary.  Products that leave int64 wrap, and the wrapped
    sum is still the residue, which lies in [0, p)."""
    q = a // p
    q *= -p
    if out is None:
        q += a
        return q
    return np.add(a, q, out=out)


@lru_cache(maxsize=64)
def _key_weights(p: int) -> np.ndarray:
    """p^(e-1), ..., p, 1 for the largest e with p^e <= 2^63: 63 weights at
    p = 2 and 2 at every p up to MAX_MODULUS, so a key never wraps."""
    e = 1
    while p ** (e + 1) <= 1 << 63:
        e += 1
    weights = np.array([p**i for i in range(e - 1, -1, -1)], dtype=np.int64)
    weights.setflags(write=False)
    return weights


def digit_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """Exact int64 keys of the rows of an (N, C) array with entries in [0, p):
    each row's entries read as base-p digits, most significant first, as
    many per key column as keep the key below 2^63 (:func:`_key_weights`).
    Two rows are equal iff their key rows are, and the keys order the rows
    lexicographically.
    """
    weights = _key_weights(int(p))
    per, ncols = len(weights), rows.shape[1]
    # Each column is one dot product of at most `per` digits with the
    # weights, whose partial sums all lie below the key itself.
    return np.stack([rows[:, lo:lo + per] @ weights[max(0, lo + per - ncols):]
                     for lo in range(0, ncols, per)], axis=1)


def key_order(keys: np.ndarray) -> np.ndarray:
    """The order that sorts the rows of an (N, K) key array: one argsort of
    a single column, which numpy runs several times faster than lexsort,
    else a lexicographic sort, first column first."""
    if keys.shape[1] == 1:
        return np.argsort(keys[:, 0])
    return np.lexsort(keys.T[::-1])


def has_duplicates(stack: np.ndarray, p: int) -> bool:
    """True iff two matrices of a (B, R, C) stack with entries in [0, p) are
    equal: one sort of their :func:`digit_keys`."""
    if len(stack) < 2:
        return False
    rows = stack.reshape(len(stack), -1)
    if not rows.shape[1]:
        return True  # two empty matrices are equal
    keys = digit_keys(rows, p)
    keys = keys[key_order(keys)]
    return bool((keys[1:] == keys[:-1]).all(axis=1).any())


class MatrixFp:
    """Immutable k x l matrix with entries reduced mod a prime p.

    Equality and hashing cover modulus, shape and entries, so matrices can
    be collected into sets and used as dict keys.
    """

    __slots__ = ("p", "array", "_rank")

    def __init__(self, entries, p: int):
        check_modulus(p)
        arr = mod(int_array(entries, 2), p)
        arr.setflags(write=False)
        self.p = p
        self.array = arr
        self._rank = None

    @classmethod
    def zeros(cls, nrows: int, ncols: int, p: int) -> "MatrixFp":
        return cls(np.zeros((nrows, ncols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "MatrixFp":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def _check_compatible(self, other: "MatrixFp") -> None:
        if not isinstance(other, MatrixFp):
            raise TypeError(f"expected MatrixFp, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._check_compatible(other)
        return MatrixFp(self.array + other.array, self.p)

    def __sub__(self, other):
        self._check_compatible(other)
        return MatrixFp(self.array - other.array, self.p)

    def __neg__(self):
        return MatrixFp(-self.array, self.p)

    def is_zero(self) -> bool:
        return not self.array.any()

    def rref(self) -> "MatrixFp":
        return MatrixFp(batch_rref(self.array[None], self.p)[0][0], self.p)

    def rank(self) -> int:
        """Number of nonzero rows of the reduced row echelon form."""
        if self._rank is None:
            self._rank = int(batch_rank(self.array[None], self.p)[0])
        return self._rank

    def null_space(self) -> "MatrixFp":
        """Basis of the right kernel {v : A v^T = 0}, one vector per row.

        Row count is ncols - rank; rows are indexed by the free columns in
        ascending order.
        """
        reduced, ranks = batch_rref(self.array[None], self.p)
        return MatrixFp(rref_null_space(reduced[:, :ranks[0]], self.p)[0], self.p)

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.array]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFp)
            and self.p == other.p
            and self.shape == other.shape
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.array.tobytes()))

    def __repr__(self):
        return f"MatrixFp({self.to_lists()}, p={self.p})"


def batch_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms (zero rows last) and ranks over GF(p) of a
    (B, R, C) stack whose entries lie in [0, p); the input is not written.

    Gauss-Jordan elimination, RREF_CHUNK stacks at a time, column by column.
    Each pivot is the first nonzero entry at or below the stack's next pivot
    row, scaled to 1 by pow(v, -1, p) over the column's distinct pivot values
    v; products stay below p^2 and differences inside (-p^2, p^2).
    """
    check_modulus(p)
    stack = np.array(mats, dtype=np.int64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, R, C) stack, got shape {stack.shape}")
    nbatch, nrows, ncols = stack.shape
    ranks = np.zeros(nbatch, dtype=np.int64)
    row_index = np.arange(nrows)
    for start in range(0, nbatch, RREF_CHUNK):
        # views: eliminating a and counting pivots in row write through
        a, row = stack[start:start + RREF_CHUNK], ranks[start:start + RREF_CHUNK]
        for c in range(ncols):
            if (row == nrows).all():
                break
            cand = (a[:, :, c] != 0) & (row_index[None, :] >= row[:, None])
            piv = cand.argmax(axis=1)
            sel = np.flatnonzero(cand[np.arange(len(a)), piv])
            if sel.size == 0:
                continue
            r0, r1 = row[sel], piv[sel]
            pivot_rows = a[sel, r1, :]
            a[sel, r1, :] = a[sel, r0, :]
            values = pivot_rows[:, c].tolist()
            inverses = {v: pow(v, -1, p) for v in set(values)}
            scale = np.array([inverses[v] for v in values], dtype=np.int64)
            pivot_rows = mod(pivot_rows * scale[:, None], p)
            a[sel, r0, :] = pivot_rows
            factors = a[sel, :, c]
            factors[np.arange(sel.size), r0] = 0
            a[sel] = mod(a[sel] - factors[:, :, None] * pivot_rows[:, None, :], p)
            row[sel] += 1
    return stack, ranks


def batch_lift(mats: np.ndarray, n: int) -> np.ndarray:
    """(0 | I_k | A), zero-padded on the left to n columns, for every A of a (B, k, l) stack."""
    nbatch, k, l = mats.shape
    out = np.zeros((nbatch, k, n), dtype=np.int64)
    out[:, :, n - k - l:n - l] = np.eye(k, dtype=np.int64)
    out[:, :, n - l:] = mats
    return out


def rref_null_space(rows: np.ndarray, p: int) -> np.ndarray:
    """Right kernels {v : A v^T = 0} of a (B, r, C) stack of RREF matrices with
    no zero row: (B, C - r, C), row i with a 1 at the i-th free column, 0 at the
    other free columns and minus the pivot rows' entries in that column."""
    nbatch, rank, ncols = rows.shape
    stacks, kernel_rows = np.arange(nbatch)[:, None], np.arange(ncols - rank)
    # Each row's first nonzero entry is its pivot; every other column is free.
    pivots = (rows != 0).argmax(axis=2) if rank else np.zeros((nbatch, 0), dtype=np.int64)
    is_free = np.ones((nbatch, ncols), dtype=bool)
    is_free[stacks, pivots] = False
    free = np.nonzero(is_free)[1].reshape(nbatch, ncols - rank)
    out = np.zeros((nbatch, ncols - rank, ncols), dtype=np.int64)
    out[stacks, kernel_rows, free] = 1
    coeffs = np.take_along_axis(rows, free[:, None, :], axis=2).transpose(0, 2, 1)
    out[stacks[:, :, None], kernel_rows[:, None], pivots[:, None, :]] = mod(-coeffs, p)
    return out


def _batch_rank_two_rows(a: np.ndarray, p: int) -> np.ndarray:
    """Rank of (B, 2, C) stacks by reduction against the top row's pivot.

    With c the top row's first nonzero column, x = bot * top[c] - top * bot[c]
    vanishes mod p exactly when the bottom row is a multiple of the top one
    (top[c] is invertible), so the rank is 2 iff some entry of x is nonzero,
    else 1 iff some entry of the stack is.  A zero top row gives c = 0 and
    x = 0, hence rank [bot != 0].  Products stay below p^2 and differences
    inside (-p^2, p^2); ``a`` is only read.
    """
    top, bot = a[:, 0, :], a[:, 1, :]
    stacks = np.arange(a.shape[0])
    c = (top != 0).argmax(axis=1)
    x = bot * top[stacks, c, None]
    x -= top * bot[stacks, c, None]
    mod(x, p, out=x)
    # Entries of x and of a lie in [0, p), so a row sum is zero only when
    # every entry is; einsum sums along the short axis far faster than any().
    full = np.einsum("bj->b", x) != 0
    return np.where(full, 2, np.einsum("bij->b", a) != 0)


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a stack of matrices, shape (B, R, C) -> (B,).

    Entries must already be reduced into [0, p).  Two-row stacks take a
    pivot-column reduction that reads the input without copying it; all
    others go to :func:`batch_rref`.
    """
    a = np.asarray(mats, dtype=np.int64)
    if a.ndim == 3 and a.shape[1] == 2 and a.shape[2]:
        check_modulus(p)
        return _batch_rank_two_rows(a, p)
    return batch_rref(a, p)[1]
