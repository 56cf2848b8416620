"""Reference computations shared by the test modules.

They use Python ints only and share no code with the library's kernels, so
the batched paths can be checked against them for any modulus.  The scalar
helpers here (GF(p^2) element lists, Hamming and Bachoc weights, the block
image map, zero embeddings, and subspaces with their metrics and duals) are
needed by no command; they build on the library's ExtFieldElement and
ExtVector objects and on the eliminations below.  The writer references
(the stdlib's indented JSON, the per-row DOT formula and the triu_indices
adjacency) are what the library's array writers must match byte for byte.
``random_rref`` draws the random RREF bases that kernel tests feed to both.
"""

import itertools
import json
import math

import numpy as np

from grasslift.codes import ExtVector
from grasslift.gf import ExtFieldElement

# The largest prime at or below MAX_MODULUS = isqrt(2^63 - 1).
LARGEST_PRIME = 3_037_000_493


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


def random_rref(k, n, p, rng):
    """A random (k, n) RREF basis with no zero row: random pivot columns,
    random entries right of each pivot outside the pivot columns."""
    pivots = np.sort(rng.choice(n, size=k, replace=False))
    basis = rng.integers(0, p, size=(k, n))
    basis[np.arange(n) < pivots[:, None]] = 0
    basis[:, pivots] = np.eye(k, dtype=np.int64)
    return basis


def reference_rref_null_space(rows, ncols, p):
    """Right kernel of one RREF matrix with no zero row, by definition: for
    each free column f in ascending order, the vector with a 1 at f, 0 at the
    other free columns and -row[f] at each row's pivot column."""
    rows = [[int(x) for x in row] for row in rows]
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[f] % p
        kernel.append(v)
    return kernel


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


def reference_is_linear(words, p):
    """True iff equal-shape matrices over GF(p) form a GF(p)-subspace: some
    word exists, and every sum a + b and every multiple c * a of words is a
    word.  Words are compared as flat tuples of Python ints."""
    flat = {tuple(int(x) % p for x in np.ravel(w)) for w in words}
    return bool(flat) and all(
        tuple((x + y) % p for x, y in zip(a, b)) in flat for a in flat for b in flat
    ) and all(tuple(c * x % p for x in a) in flat for a in flat for c in range(p))


def reference_points(basis, p):
    """The p^k points of the row space of a k x n basis over GF(p), as a set
    of tuples of Python ints (desk-scale only)."""
    k, n = np.shape(basis)
    rows = [[int(x) for x in row] for row in basis]
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
        for coeffs in itertools.product(range(p), repeat=k)
    }


def reference_intersection_dims(words, p):
    """dim A + dim B - rank([A; B]) for every pair of a sequence of (k, n)
    basis arrays, in triu order."""
    return [
        len(a) + len(b) - reference_rank(a.tolist() + b.tolist(), p)
        for a, b in itertools.combinations(words, 2)
    ]


# ---------------------------------------------------------------------------
# Writers and reader: the stdlib JSON encoder and decoder, the per-row DOT
# formula and the triu_indices adjacency, as references for the library's
# array writers and code-file reader
# ---------------------------------------------------------------------------

def reference_dumps_with_array(payload, key, array):
    """The stdlib encoding of payload with array as key's value."""
    return json.dumps({**payload, key: np.asarray(array).tolist()},
                      sort_keys=True, indent=2) + "\n"


def reference_loads_with_array(text, key):
    """The stdlib decoding of text, with key's value as an array."""
    data = json.loads(text)
    return {**data, key: np.asarray(data[key])}


def reference_to_dot(graph):
    """DOT text of a CodeGraph: its labelled nodes, then for each row of the
    upper triangle one "i -- j;" line per later neighbour j, as a list
    comprehension over the row's neighbour indices."""
    rows = graph.vertices.reshape(graph.n_vertices, -1).tolist()
    names = [str(i) for i in range(graph.n_vertices)]
    parts = ["graph Gamma {\n"]
    parts += [f'  {i} [label="{i}:{"".join("0123456789abcdef"[x] for x in row)}"];\n'
              for i, row in zip(names, rows)]
    for i, row in zip(names, np.triu(graph.adjacency)):
        later = np.flatnonzero(row).tolist()
        if later:
            head = f"  {i} -- "
            parts.append(head + f";\n{head}".join([names[j] for j in later]) + ";\n")
    parts.append("}\n")
    return "".join(parts)


def reference_adjacency(m, inters):
    """Symmetric (m, m) adjacency with an edge {i, j} iff the pair's
    intersection dimension (triu order) is 0, filled through np.triu_indices."""
    adjacency = np.zeros((m, m), dtype=bool)
    adjacency[np.triu_indices(m, 1)] = np.asarray(inters) == 0
    return adjacency | adjacency.T


# ---------------------------------------------------------------------------
# GF(p^2) elements, vectors, weights and the block image map
# ---------------------------------------------------------------------------

def ext_zero(p):
    return ExtFieldElement(0, 0, p)


def ext_one(p):
    return ExtFieldElement(1, 0, p)


def ext_elements(p):
    """All p^2 extension elements, lexicographic in the coefficient pair (a, b)."""
    for a in range(p):
        for b in range(p):
            yield ExtFieldElement(a, b, p)


def hamming_weight(v):
    """Number of nonzero coordinates of an ExtVector."""
    return sum(1 for c in v if not c.is_zero())


def bachoc_weight(m, p):
    """Weight of a 2 x 2 matrix over GF(p): 0 for zero, 1 for invertible, p otherwise."""
    if np.shape(m) != (2, 2):
        raise ValueError(f"Bachoc weight is defined on 2 x 2 matrices, got {np.shape(m)}")
    return (0, p, 1)[reference_rank(m, p)]


def matrix_image(v):
    """Block image of an even-length ExtVector as two rows of Python ints,
    one 2 x 2 block per coordinate pair (a + b*w, c + d*w)."""
    if len(v) % 2:
        raise ValueError("vector length must be even")
    p = v.p
    top, bot = [], []
    for i in range(0, len(v), 2):
        a, b = v[i].a, v[i].b
        c, d = v[i + 1].a, v[i + 1].b
        top += [(a + d) % p, (b + c) % p]
        bot += [(b + c + d) % p, (a + b + d) % p]
    return [top, bot]


def embed_zeros_odd(v):
    """(v_1, ..., v_r) -> (0, v_1, 0, v_2, ..., 0, v_r)."""
    z = ext_zero(v.p)
    return ExtVector(x for c in v for x in (z, c))


def embed_zeros_even(v):
    """(v_1, ..., v_r) -> (v_1, 0, v_2, 0, ..., v_r, 0)."""
    z = ext_zero(v.p)
    return ExtVector(x for c in v for x in (c, z))


# ---------------------------------------------------------------------------
# subspaces and their metrics
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of GF(p)^n held as its canonical basis: a (k, n) int64
    array in reduced row echelon form with no zero row, checked by
    reference_rref."""

    __slots__ = ("basis", "p")

    def __init__(self, basis, p):
        basis = np.array(basis, dtype=np.int64)
        rows = basis.tolist()
        if reference_rref(rows, p) != (rows, len(rows)):
            raise ValueError("basis is not a canonical RREF basis")
        self.basis, self.p = basis, p

    @property
    def n(self):
        return self.basis.shape[1]

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.p, self.basis.shape, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, p={self.p}, basis={self.basis.tolist()})"


def _check_same_ambient(a, b):
    if a.n != b.n or a.p != b.p:
        raise ValueError(f"ambient mismatch: GF({a.p})^{a.n} vs GF({b.p})^{b.n}")


def intersection_dim(a, b):
    """dim(A) + dim(B) - rank of the stacked bases."""
    _check_same_ambient(a, b)
    return a.dim + b.dim - reference_rank(a.basis.tolist() + b.basis.tolist(), a.p)


def subspace_distance(a, b):
    """dim(A) + dim(B) - 2 dim(A n B)."""
    return a.dim + b.dim - 2 * intersection_dim(a, b)


def injection_distance(a, b):
    """max(dim A, dim B) - dim(A n B)."""
    return max(a.dim, b.dim) - intersection_dim(a, b)


def dual_subspace(a):
    """Orthogonal complement under the standard inner product: one kernel
    vector per free column of the RREF basis, canonicalized by reference_rref."""
    rows, p, n = a.basis.tolist(), a.p, a.n
    pivots = [row.index(1) for row in rows]  # an RREF row's first nonzero is 1
    kernel = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = 1
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % p
            kernel.append(v)
    reduced, rank = reference_rref(kernel, p)
    return Subspace(np.array(reduced[:rank], dtype=np.int64).reshape(rank, n), p)
