"""Reference computations shared by the test modules.

They use Python ints only and share no code with the library's kernels, so
the batched paths can be checked against them for any modulus.
"""

import itertools
import math

import numpy as np


def reference_rref(rows, p):
    """Reduced row echelon form over GF(p) and its rank, on Python ints.

    Column by column: the pivot is the first nonzero entry at or below the
    next pivot row, scaled to 1, then cleared from every other row.  Zero rows
    end up last.
    """
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def reference_rank(rows, p):
    """Rank over GF(p) by forward elimination on Python ints."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_is_prime(n):
    """Primality by trial division."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def reference_rank_histogram(mats, p):
    """{0: n0, 1: n1, 2: n2}: how many of the 2-row matrices have each rank."""
    counts = {0: 0, 1: 0, 2: 0}
    for m in mats:
        counts[reference_rank(m, p)] += 1
    return counts


def reference_pair_min_rank(mats, p):
    """Minimum rank of a - b over all pairs of a list of matrices, by a double
    loop (None for fewer than two)."""
    return min(
        (reference_rank([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], p)
         for i, a in enumerate(mats) for b in mats[i + 1:]),
        default=None,
    )


def reference_points(basis, p):
    """The p^k points of the row space of a k x n basis over GF(p), as a set
    of tuples of Python ints (desk-scale only)."""
    k, n = np.shape(basis)
    rows = [[int(x) for x in row] for row in basis]
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
        for coeffs in itertools.product(range(p), repeat=k)
    }
