"""Subspaces of GF(p)^n, counting, anticode bounds, and the anticode-optimal
constant-dimension codes built from lifted matrix codes.

Every subspace is an array: its unique reduced-row-echelon basis, a (k, n)
array with no zero row, so subspace equality is plain array equality.
:func:`span` canonicalizes generators, :func:`enumerate_grassmannian` returns
a whole Grassmannian as one (N, k, n) array, and a code holds its words as
one (M, k, n) array of RREF bases, checked by one :func:`batch_rref` call
over all of them.
Minimum distances are never taken on faith: every construction here
recomputes them by a full pairwise scan and refuses to return an object
whose parameters disagree with the scan.  The
scan (:func:`pairwise_intersection_dims`) takes one of two exact paths.
When 2k <= n and the words have no more projective points than pairs, it
lists each word's (p^k-1)/(p-1) points, normalized, and sorts them all
once: two subspaces meet in dimension t exactly when they share
(p^t-1)/(p-1) points, so the colliding points give every pair's
dimension, and pairs that share none meet in zero (the paper's codes have
no collision at all).  Otherwise, as for the paper's duals at r >= 2, it
reduces all later words against one word's RREF basis at a time and ranks every
pair's remainder; with k = 2 or n - k = 2 each remainder has two rows and
is ranked by reducing its bottom row against its top row's pivot column.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import require_construction_prime
from .matfp import (batch_lift, batch_rank, batch_rref, check_modulus, has_duplicates,
                    int_array, rref_null_space)
from .codes import PAIR_GUARD, RankMetricCode, build_image_code

ENUMERATION_GUARD = 1 << 20
# Collision pairs expanded at once, and points built at once, by the point scan.
CHUNK = 1 << 16


def _require_rref(bases: np.ndarray, p: int) -> None:
    """Raise unless every basis of a (B, k, n) stack is its own RREF with no zero row."""
    reduced, ranks = batch_rref(bases, p)
    if (ranks != bases.shape[1]).any() or (reduced != bases).any():
        raise ValueError("basis is not a canonical RREF basis; use span()")


def span(rows, p: int) -> np.ndarray:
    """Canonical basis of the row space of a generator matrix: its (rank, n) RREF."""
    check_modulus(p)
    reduced, ranks = batch_rref(int_array(rows, 2)[None] % p, p)
    return reduced[0, :ranks[0]]


def dual_bases(bases: np.ndarray, p: int) -> np.ndarray:
    """RREF bases of the orthogonal complements of a (B, k, n) stack of RREF
    bases: kernels read off the bases, canonicalized by one elimination."""
    return batch_rref(rref_null_space(bases, p), p)[0]


def gaussian_coefficient(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over a
    q-element field, as an exact integer."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    if num % den:
        raise ArithmeticError("Gaussian coefficient did not divide exactly")
    return num // den


def enumerate_grassmannian(n: int, k: int, p: int,
                           guard: int = ENUMERATION_GUARD) -> np.ndarray:
    """All k-dimensional subspaces of GF(p)^n as one (N, k, n) array of RREF bases.

    Writes the RREF cells directly: a pivot-column choice plus all fillings
    of the free positions, so every basis is canonical and the output is
    duplicate-free by construction.
    """
    check_modulus(p)
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if p**n > guard:
        raise ValueError(f"p^n = {p**n} exceeds the enumeration guard ({guard})")
    cells = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        fillings = list(itertools.product(range(p), repeat=len(free)))
        mats = np.zeros((len(fillings), k, n), dtype=np.int64)
        mats[:, range(k), pivots] = 1
        mats[:, [i for i, _ in free], [j for _, j in free]] = fillings
        cells.append(mats)
    return np.concatenate(cells)


def anticode_bound(n: int, d: int, k: int, q: int, metric: str = "subspace") -> int:
    """Upper bound on the size of a constant-dimension code, as a quotient
    of Gaussian coefficients (checked to divide exactly).

    For the subspace metric d must be even, d = 2*delta + 2 with
    0 <= delta < k; for the injection metric 1 <= d <= k.
    """
    if metric == "subspace":
        if d < 2 or d % 2:
            raise ValueError(f"subspace-metric bound needs even d >= 2, got d={d}")
        delta = (d - 2) // 2
        if delta >= k:
            raise ValueError(f"d={d} too large for k={k} in the subspace metric")
        t = k - delta
    elif metric == "injection":
        if not 1 <= d <= k:
            raise ValueError(f"injection-metric bound needs 1 <= d <= k, got d={d}")
        t = k - d + 1
    else:
        raise ValueError(f"metric must be 'subspace' or 'injection', got {metric!r}")
    num = gaussian_coefficient(n, t, q)
    den = gaussian_coefficient(k, t, q)
    if num % den:
        raise ArithmeticError("anticode bound quotient is not an integer")
    return num // den


class GrassmannianCode:
    """A constant-dimension code: distinct k-dimensional subspaces of GF(p)^n.

    ``words`` is one read-only (M, k, n) int64 array, each word its RREF
    basis with no zero row; the constructor refuses any other stack and
    duplicate words.  ``d`` caches the minimum subspace distance when it has
    been computed; codes loaded from files carry d=None until a scan
    recomputes it.  ``provenance`` is a free-form descriptor of how the code
    was built, including the parameters it claims.
    """

    def __init__(self, words, p: int, provenance: dict | None = None):
        check_modulus(p)
        if not len(words):
            raise ValueError("a code needs at least one word")
        words = int_array(words, 3) % p
        _require_rref(words, p)
        if has_duplicates(words):
            raise ValueError("duplicate words")
        words.setflags(write=False)
        self.words, self.p = words, int(p)
        _, self.k, self.n = words.shape
        self.d = None
        self.provenance = dict(provenance or {})
        self._inters = None

    @property
    def M(self) -> int:
        return len(self.words)

    def intersection_dims(self, pair_guard: int = PAIR_GUARD) -> np.ndarray:
        """Intersection dimensions of all word pairs (triu order), scanned
        once by :func:`pairwise_intersection_dims`; every check reads them."""
        if self._inters is None:
            self._inters = pairwise_intersection_dims(self.words, self.p, pair_guard)
            self._inters.setflags(write=False)
        return self._inters

    def summary(self) -> str:
        d = self.d if self.d is not None else "?"
        return f"n={self.n} M={self.M} d={d} k={self.k} q={self.p}"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "provenance": self.provenance,
            "words": self.words.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GrassmannianCode":
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict) or not isinstance(provenance.get("claimed", {}), dict):
            raise ValueError("provenance and its claimed parameters must be JSON objects")
        code = cls(data["words"], data["p"], provenance=provenance)
        if (code.n, code.k) != (data["n"], data["k"]):
            raise ValueError("words do not match the declared (n, k)")
        return code

    def __repr__(self):
        return f"GrassmannianCode({self.summary()})"


def pairwise_intersection_dims(bases: np.ndarray, p: int,
                               pair_guard: int = PAIR_GUARD) -> np.ndarray:
    """Intersection dimensions over all unordered pairs of a (M, k, n) stack
    of RREF bases (flat array in triu order, smallest unsigned dtype holding
    k; empty when M < 2, and zeros when k = 0).

    Two paths give the same array.  When 2k <= n and the words' M (p^k-1)/(p-1)
    projective points are no more than the M(M-1)/2 pairs, the point scan
    (:func:`_point_scan`) reads every pair's dimension off the points the two
    words share: cost grows with M, not with the pairs.  Every other stack,
    among them the paper's duals at r >= 2 (2k > n, so every pair shares
    points), takes the one-vs-all reduction (:func:`_reduction_scan`), which
    ranks each pair.
    """
    m, k, n = bases.shape
    npairs = m * (m - 1) // 2
    if npairs > pair_guard:
        raise ValueError(
            f"{npairs} pairs exceed the guard ({pair_guard}); raise it to force the scan"
        )
    if m < 2 or k == 0:
        return np.zeros(npairs, dtype=np.min_scalar_type(k))
    if 2 * k <= n and m * _point_count(k, p) <= npairs:
        return _point_scan(bases, p)
    return _reduction_scan(bases, p)


def _point_count(t: int, p: int) -> int:
    """(p^t - 1) / (p - 1), the number of projective points of a t-dimensional space."""
    p = int(p)
    return (p**t - 1) // (p - 1)


def _normalized_vectors(k: int, p: int) -> np.ndarray:
    """The (p^k-1)/(p-1) vectors of GF(p)^k whose first nonzero entry is 1,
    as a (P, k) array."""
    blocks = []
    for lead in range(k):
        tails = list(itertools.product(range(p), repeat=k - lead - 1))
        block = np.zeros((len(tails), k), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1:] = np.array(tails, dtype=np.int64).reshape(len(tails), -1)
        blocks.append(block)
    return np.concatenate(blocks)


def _point_scan(bases: np.ndarray, p: int) -> np.ndarray:
    """Intersection dimensions from shared projective points.

    Word i's points are c A_i over the normalized coefficient vectors c;
    A_i is in RREF, so if c_t = 1 is c's first nonzero coordinate, c A_i is
    zero before the pivot of row t and 1 at it: each point comes out
    normalized.
    Equal points are then equal rows: one sort of their raw bytes puts each
    point's words in one run, and every word pair in a run shares that
    point.  A pair meeting in dimension t shares exactly (p^t-1)/(p-1)
    points, which gives t; the collision pairs are expanded CHUNK at a time.
    """
    m, k, n = bases.shape
    coeffs = _normalized_vectors(k, p)
    per_word = len(coeffs)
    points = np.empty((m, per_word, n), dtype=np.min_scalar_type(p - 1))
    step = max(1, CHUNK // per_word)
    for lo in range(0, m, step):
        block = bases[lo:lo + step, None]
        acc = np.zeros((len(block), per_word, n), dtype=np.int64)
        # One term per basis row, reduced each time: entries stay below p + p^2.
        for t in range(k):
            acc += coeffs[:, t, None] * block[:, :, t]
            acc %= p
        points[lo:lo + step] = acc
    rows = points.reshape(m * per_word, n)
    keys = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()
    order = np.argsort(keys)
    word, keys = order // per_word, keys[order]
    new_run = np.ones(len(keys), dtype=bool)
    new_run[1:] = keys[1:] != keys[:-1]
    # Sorted position q pairs with the later[q] positions after it in its run.
    run_end = np.append(np.flatnonzero(new_run[1:]) + 1, len(keys))
    later = run_end[np.cumsum(new_run) - 1] - np.arange(len(keys)) - 1
    ends = np.cumsum(later)
    total, npairs = int(ends[-1]), m * (m - 1) // 2
    shared = np.zeros(npairs, dtype=np.min_scalar_type(per_word))
    for lo in range(0, total, CHUNK):
        g = np.arange(lo, min(lo + CHUNK, total))
        q = np.searchsorted(ends, g, side="right")
        a, b = word[q], word[q + 1 + g - (ends[q] - later[q])]
        i, j = np.minimum(a, b), np.maximum(a, b)
        pairs, counts = np.unique(i * (2 * m - i - 1) // 2 + j - i - 1, return_counts=True)
        shared[pairs] += counts.astype(shared.dtype)
    out = np.zeros(npairs, dtype=np.min_scalar_type(k))
    hit = np.flatnonzero(shared)
    sizes = np.array([_point_count(t, p) for t in range(k + 1)], dtype=np.int64)
    out[hit] = np.searchsorted(sizes, shared[hit])
    return out


def _reduction_scan(bases: np.ndarray, p: int) -> np.ndarray:
    """Intersection dimensions by one-vs-all reduction.

    Every later word B_j is reduced against word i's RREF basis A_i at once,
    R_j = B_j[:, F] - sum_t B_j[:, piv_t] (x) A_i[t, F] over the free columns
    F of A_i, and dim(A_i n B_j) = k - rank(R_j).  R_j goes to
    :func:`batch_rank` with min(k, n - k) rows (transposed when k > n - k).
    """
    m, k, n = bases.shape
    pivots = (bases != 0).argmax(axis=2)
    free = np.ones((m, n), dtype=bool)
    np.put_along_axis(free, pivots, False, axis=1)
    out = np.empty(m * (m - 1) // 2, dtype=np.min_scalar_type(k))
    start = 0
    for i in range(m - 1):
        a, f = bases[i], np.flatnonzero(free[i])
        later = bases[i + 1:]
        reduced = later[:, :, f]
        product = np.empty_like(reduced)
        # One rank-one update per pivot, reduced each time, so every
        # intermediate stays inside (-p^2, p^2) as in batch_rank.
        for t, c in enumerate(pivots[i]):
            np.multiply(later[:, :, c, None], a[t, f], out=product)
            reduced -= product
            reduced %= p
        if k > n - k:
            reduced = reduced.transpose(0, 2, 1)
        out[start:start + len(later)] = k - batch_rank(reduced, p)
        start += len(later)
    return out


def min_subspace_distance(code: GrassmannianCode,
                          pair_guard: int = PAIR_GUARD) -> int:
    """Minimum subspace distance from the code's pair scan; caches code.d."""
    if code.M < 2:
        raise ValueError("minimum distance needs at least two words")
    code.d = 2 * (code.k - int(code.intersection_dims(pair_guard).max()))
    return code.d


def code_params(code: GrassmannianCode,
                pair_guard: int = PAIR_GUARD) -> tuple[int, int, int, int]:
    """(n, M, d, k) with d read from the code's pair scan; the constructor
    has already checked that the M words are distinct.

    Raises if a cached minimum distance disagrees with the scan.
    """
    cached = code.d
    d = min_subspace_distance(code, pair_guard)
    if cached is not None and cached != d:
        raise ValueError(f"cached minimum distance {cached} != recomputed {d}")
    return (code.n, code.M, d, code.k)


def lift_code(code: RankMetricCode, pair_guard: int = PAIR_GUARD) -> GrassmannianCode:
    """Row spaces of the lifted words (I_k | A), as a Grassmannian code.

    For a linear [k x l, rho, delta] input the result is a
    (k + l, p^rho, 2*delta, k) code; both the size and the minimum distance
    are verified by direct pairwise computation before returning.
    """
    if not code.linear:
        raise ValueError("lifting is defined here for linear rank-metric codes")
    delta = code.delta if len(code.words) > 1 else None
    n = code.nrows + code.ncols
    claimed = {
        "n": n,
        "M": code.p**code.rho,
        "d": None if delta is None else 2 * delta,
        "k": code.nrows,
    }
    lifted = GrassmannianCode(
        batch_lift(code.words, n), code.p,
        provenance={"construction": "lifted_rank_metric_code", "claimed": claimed},
    )
    if lifted.M != claimed["M"]:
        raise RuntimeError(f"lift produced {lifted.M} words, expected {claimed['M']}")
    if delta is not None:
        d = min_subspace_distance(lifted, pair_guard)
        if d != claimed["d"]:
            raise RuntimeError(f"lifted code distance {d} != 2*delta = {claimed['d']}")
    return lifted


def optimal_code_size(p: int, r: int) -> int:
    """(p^(2r+2) - 1) / (p^2 - 1), the anticode bound at d=4, k=2."""
    return (p ** (2 * r + 2) - 1) // (p**2 - 1)


def anticode_optimal_code(p: int, r: int, variant: str = "O",
                          pair_guard: int = PAIR_GUARD) -> GrassmannianCode:
    """The (2r+2, (p^(2r+2)-1)/(p^2-1), 4, 2) code over GF(p).

    Words are the lifted variant images of (GF(p^2))^i for i = 1..r, each
    generator prepended with 2(r-i) zero columns to reach length 2r+2, plus
    the single subspace spanned by (0 | I_2).  Requires a prime p with
    p % 5 in {2, 3}.  Size, minimum distance 4, and pairwise-trivial
    intersections are all verified by direct computation before returning.
    """
    require_construction_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    n = 2 * r + 2
    m_claim = optimal_code_size(p, r)
    npairs = m_claim * (m_claim - 1) // 2
    if npairs > pair_guard:
        raise ValueError(
            f"M={m_claim} means {npairs} verification pairs, over the guard "
            f"({pair_guard}); raise the guard to force the construction"
        )
    images = [build_image_code(p, i, variant).words for i in range(1, r + 1)]
    images.append(np.zeros((1, 2, 0), dtype=np.int64))  # lifts to (0 | I_2)
    code = GrassmannianCode(
        np.concatenate([batch_lift(a, n) for a in images]), p,
        provenance={
            "construction": "anticode_optimal_union",
            "p": p,
            "r": r,
            "variant": variant,
            "claimed": {"n": n, "M": m_claim, "d": 4, "k": 2},
        },
    )
    if code.M != m_claim:
        raise RuntimeError(f"built {code.M} words, expected {m_claim}")
    d = min_subspace_distance(code, pair_guard)
    if d != 4:
        raise RuntimeError(f"minimum distance {d} != 4")
    return code


def dual_code(code: GrassmannianCode, pair_guard: int = PAIR_GUARD) -> GrassmannianCode:
    """Orthogonal complements of every word, distance recomputed pairwise.

    Size is preserved and dimension becomes n - k; the minimum distance is
    verified to match the original whenever the original carries one.
    """
    claimed = {
        "n": code.n,
        "M": code.M,
        "d": code.d,
        "k": code.n - code.k,
    }
    out = GrassmannianCode(
        dual_bases(code.words, code.p), code.p,
        provenance={
            "construction": "dual",
            "of": code.provenance.get("construction"),
            "claimed": claimed,
        },
    )
    if out.M != code.M:
        raise RuntimeError("duals collided; size not preserved")
    if out.M >= 2:
        d = min_subspace_distance(out, pair_guard)
        if code.d is not None and d != code.d:
            raise RuntimeError(f"dual distance {d} != original {code.d}")
    return out


def compare_variant_codes(p: int, r: int,
                          pair_guard: int = PAIR_GUARD) -> dict:
    """Set relationship between the two variant constructions at (p, r).

    Reports only; neither equality nor difference is asserted anywhere.
    Words are listed as their RREF bases.
    """
    code_o = anticode_optimal_code(p, r, "O", pair_guard)
    code_e = anticode_optimal_code(p, r, "E", pair_guard)
    set_o, set_e = ({str(w) for w in code.words.tolist()} for code in (code_o, code_e))
    return {
        "identical": set_o == set_e,
        "only_O": sorted(set_o - set_e),
        "only_E": sorted(set_e - set_o),
    }
