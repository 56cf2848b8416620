"""Dense matrices over GF(p): reduced row echelon form, rank, kernels, lifting.

One integer entry per cell (no bit packing); everything here is exact and
sized for exhaustive desk-scale verification rather than throughput.  The
only performance-sensitive entry point is :func:`batch_rank`, which ranks a
whole stack of small matrices at once: two-row stacks by reducing the
bottom row against the top row's pivot column, taller ones by Gaussian
elimination across the batch.  The subspace pair scan sends it one stack
per word: the remainders of all later words after reduction against that
word's RREF basis.  The rank-metric scan sends it chunks of word-pair
differences.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import is_prime


def _echelon(a: np.ndarray, p: int):
    """Reduced row echelon form of ``a`` mod p, plus the pivot column list.

    Pivot choice is the first nonzero entry scanning top to bottom in the
    current column, so the output is canonical and reproducible.
    """
    out = a.copy()
    rows, cols = out.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(out[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            out[[r, i]] = out[[i, r]]
        out[r] = out[r] * pow(int(out[r, c]), -1, p) % p
        col = out[:, c].copy()
        col[r] = 0
        if col.any():
            out = (out - np.outer(col, out[r])) % p
        pivots.append(c)
        r += 1
    return out, pivots


class MatrixFp:
    """Immutable k x l matrix with entries reduced mod a prime p.

    Equality and hashing cover modulus, shape and entries, so matrices can
    be collected into sets and used as dict keys.
    """

    __slots__ = ("p", "array", "_rank")

    def __init__(self, entries, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {arr.shape}")
        arr = arr % p
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
        out, _ = _echelon(self.array, self.p)
        return MatrixFp(out, self.p)

    def rank(self) -> int:
        """Number of nonzero rows of the reduced row echelon form."""
        if self._rank is None:
            _, pivots = _echelon(self.array, self.p)
            self._rank = len(pivots)
        return self._rank

    def null_space(self) -> "MatrixFp":
        """Basis of the right kernel {v : A v^T = 0}, one vector per row.

        Row count is ncols - rank; rows are indexed by the free columns in
        ascending order.
        """
        reduced, pivots = _echelon(self.array, self.p)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = np.zeros((len(free), self.ncols), dtype=np.int64)
        for row_idx, f in enumerate(free):
            basis[row_idx, f] = 1
            for i, c in enumerate(pivots):
                basis[row_idx, c] = (-reduced[i, f]) % self.p
        return MatrixFp(basis, self.p)

    def lift(self) -> "MatrixFp":
        """The k x (k+l) standard matrix (I_k | A)."""
        eye = np.eye(self.nrows, dtype=np.int64)
        return MatrixFp(np.hstack([eye, self.array]), self.p)

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


def hstack(mats: list[MatrixFp]) -> MatrixFp:
    p = mats[0].p
    if any(m.p != p for m in mats):
        raise ValueError("modulus mismatch in hstack")
    return MatrixFp(np.hstack([m.array for m in mats]), p)


def zero_identity(m: int, r: int, p: int) -> MatrixFp:
    """The m x (m + m*r) block matrix (0 | I_m)."""
    return hstack([MatrixFp.zeros(m, m * r, p), MatrixFp.identity(m, p)])


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inv[x] for x in [0, p), with inv[0] = 0 as a placeholder."""
    table = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        table[x] = pow(x, -1, p)
    table.setflags(write=False)
    return table


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
    x %= p
    # Entries of x and of a lie in [0, p), so a row sum is zero only when
    # every entry is; einsum sums along the short axis far faster than any().
    full = np.einsum("bj->b", x) != 0
    return np.where(full, 2, np.einsum("bij->b", a) != 0)


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of a stack of matrices, shape (B, R, C) -> (B,).

    Gaussian elimination runs column by column across the whole batch, with
    per-batch pivot rows tracked in an index vector.  Entries must already
    be reduced into [0, p).  Two-row stacks take a pivot-column reduction
    that reads the input without copying it.
    """
    a = np.asarray(mats, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, R, C) stack, got shape {a.shape}")
    nbatch, nrows, ncols = a.shape
    if nbatch == 0:
        return np.zeros(0, dtype=np.int64)
    if nrows == 2:
        return _batch_rank_two_rows(a, p)
    a = a.copy()  # eliminated in place below
    inv = inverse_table(p)
    row = np.zeros(nbatch, dtype=np.int64)
    row_index = np.arange(nrows)
    for c in range(ncols):
        cand = (a[:, :, c] != 0) & (row_index[None, :] >= row[:, None])
        piv = cand.argmax(axis=1)
        sel = np.nonzero(cand[np.arange(nbatch), piv])[0]
        if sel.size == 0:
            continue
        r0 = row[sel]
        r1 = piv[sel]
        tmp = a[sel, r0, :].copy()
        a[sel, r0, :] = a[sel, r1, :]
        a[sel, r1, :] = tmp
        a[sel, r0, :] = a[sel, r0, :] * inv[a[sel, r0, c]][:, None] % p
        factors = a[sel, :, c].copy()
        factors[np.arange(sel.size), r0] = 0
        a[sel] = (a[sel] - factors[:, :, None] * a[sel, r0, :][:, None, :]) % p
        row[sel] += 1
        if (row == nrows).all():
            break
    return row
