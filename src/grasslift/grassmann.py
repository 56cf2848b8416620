"""Canonical subspaces of GF(p)^n, subspace metrics, counting, and the
anticode-optimal constant-dimension codes built from lifted matrix codes.

Every subspace is held as its unique reduced-row-echelon basis, so subspace
equality is plain matrix equality.  Minimum distances are never taken on
faith: every construction here recomputes them by a full pairwise scan and
refuses to return an object whose parameters disagree with the scan.  The
scan (:func:`pairwise_intersection_dims`) reduces all later words against
one word's RREF basis at a time and ranks every pair's remainder; with
k = 2 or n - k = 2 each remainder has two rows and is ranked by reducing
its bottom row against its top row's pivot column.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import require_construction_prime
from .matfp import MatrixFp, batch_rank, hstack, zero_identity
from .codes import PAIR_GUARD, RankMetricCode, build_image_code

ENUMERATION_GUARD = 1 << 20


class Subspace:
    """A k-dimensional subspace of GF(p)^n, stored as its RREF basis.

    The basis must already be canonical (reduced row echelon form with k
    nonzero rows); use :func:`span` to canonicalize arbitrary generators.
    """

    __slots__ = ("n", "p", "basis")

    def __init__(self, basis: MatrixFp):
        # An RREF with no zero row has full row rank: one elimination checks both.
        if basis.rref() != basis or not basis.array.any(axis=1).all():
            raise ValueError("basis is not a canonical RREF basis; use span()")
        self.basis = basis
        self.n = basis.ncols
        self.p = basis.p

    @classmethod
    def _from_rref(cls, basis: MatrixFp) -> "Subspace":
        """A subspace from a basis already known to be a canonical RREF
        basis, skipping the check of the public constructor."""
        out = cls.__new__(cls)
        out.basis, out.n, out.p = basis, basis.ncols, basis.p
        return out

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def vectors(self) -> set[tuple[int, ...]]:
        """All p^dim vectors of the subspace (desk-scale only)."""
        out = set()
        b = self.basis.array
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            v = (np.asarray(coeffs, dtype=np.int64) @ b) % self.p if self.dim else np.zeros(self.n, dtype=np.int64)
            out.add(tuple(int(x) for x in v))
        return out

    def to_lists(self) -> list[list[int]]:
        return self.basis.to_lists()

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, p={self.p}, basis={self.to_lists()})"


def span(rows: MatrixFp) -> Subspace:
    """Row space of an arbitrary generator matrix, canonicalized."""
    reduced = rows.rref()
    nonzero = reduced.array[np.any(reduced.array != 0, axis=1)]
    # The nonzero rows of an RREF are a canonical basis already.
    return Subspace._from_rref(MatrixFp(nonzero.reshape(-1, rows.ncols), rows.p))


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.n != b.n or a.p != b.p:
        raise ValueError(
            f"ambient mismatch: GF({a.p})^{a.n} vs GF({b.p})^{b.n}"
        )


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(A) + dim(B) - rank of the stacked bases."""
    _check_same_ambient(a, b)
    stacked = np.vstack([a.basis.array, b.basis.array])
    return a.dim + b.dim - MatrixFp(stacked, a.p).rank()


def subspace_distance(a: Subspace, b: Subspace) -> int:
    """dim(A) + dim(B) - 2 dim(A n B)."""
    return a.dim + b.dim - 2 * intersection_dim(a, b)


def injection_distance(a: Subspace, b: Subspace) -> int:
    """max(dim A, dim B) - dim(A n B)."""
    return max(a.dim, b.dim) - intersection_dim(a, b)


def dual_subspace(a: Subspace) -> Subspace:
    """Orthogonal complement under the standard inner product."""
    return span(a.basis.null_space())


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
                           guard: int = ENUMERATION_GUARD) -> list[Subspace]:
    """All k-dimensional subspaces of GF(p)^n, one canonical basis each.

    Iterates RREF cells directly: a pivot-column choice plus all fillings of
    the free positions, so the output is duplicate-free by construction.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if p**n > guard:
        raise ValueError(f"p^n = {p**n} exceeds the enumeration guard ({guard})")
    out = []
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, c in enumerate(pivots):
            base[i, c] = 1
        for values in itertools.product(range(p), repeat=len(free)):
            mat = base.copy()
            for (i, j), val in zip(free, values):
                mat[i, j] = val
            out.append(Subspace(MatrixFp(mat, p)))
    return out


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

    ``d`` caches the minimum subspace distance when it has been computed;
    codes loaded from files carry d=None until a scan recomputes it.
    ``provenance`` is a free-form descriptor of how the code was built,
    including the parameters it claims.
    """

    def __init__(self, words, provenance: dict | None = None):
        words = tuple(words)
        if not words:
            raise ValueError("a code needs at least one word")
        n, k, p = words[0].n, words[0].dim, words[0].p
        for w in words:
            if not isinstance(w, Subspace):
                raise TypeError("words must be Subspace instances")
            if w.n != n or w.p != p:
                raise ValueError("all words must share one ambient space")
            if w.dim != k:
                raise ValueError("constant-dimension codes only: mixed dimensions")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words")
        self.words = words
        self.n = n
        self.k = k
        self.p = p
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
            self._inters = pairwise_intersection_dims(self.words, pair_guard)
            self._inters.setflags(write=False)
        return self._inters

    def word_set(self) -> frozenset[Subspace]:
        return frozenset(self.words)

    def summary(self) -> str:
        d = self.d if self.d is not None else "?"
        return f"n={self.n} M={self.M} d={d} k={self.k} q={self.p}"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "provenance": self.provenance,
            "words": [w.to_lists() for w in self.words],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GrassmannianCode":
        p = data["p"]
        words = []
        for basis in data["words"]:
            w = Subspace(MatrixFp(basis, p))
            if w.n != data["n"] or w.dim != data["k"]:
                raise ValueError("word does not match the declared (n, k)")
            words.append(w)
        return cls(words, provenance=data.get("provenance"))

    def __repr__(self):
        return f"GrassmannianCode({self.summary()})"


def pairwise_intersection_dims(words, pair_guard: int = PAIR_GUARD) -> np.ndarray:
    """Intersection dimensions over all unordered word pairs (flat array in
    triu order, smallest unsigned dtype holding k).  Equal-dimension words
    with 0 < k < n only.

    One-vs-all: every later word B_j is reduced against word i's RREF basis
    A_i at once, R_j = B_j[:, F] - sum_t B_j[:, piv_t] (x) A_i[t, F] over the
    free columns F of A_i, and dim(A_i n B_j) = k - rank(R_j).  Each pair's
    rank is still computed; R_j goes to :func:`batch_rank` with
    min(k, n - k) rows (transposed when k > n - k).
    """
    m = len(words)
    npairs = m * (m - 1) // 2
    if npairs > pair_guard:
        raise ValueError(
            f"{npairs} pairs exceed the guard ({pair_guard}); raise it to force the scan"
        )
    k = words[0].dim
    p = words[0].p
    n = words[0].n
    bases = np.stack([w.basis.array for w in words])
    pivots = (bases != 0).argmax(axis=2)
    free = np.ones((m, n), dtype=bool)
    np.put_along_axis(free, pivots, False, axis=1)
    out = np.empty(npairs, dtype=np.min_scalar_type(k))
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
    """(n, M, d, k) with M recounted and d read from the code's pair scan.

    Raises if a cached minimum distance disagrees with the scan.
    """
    cached = code.d
    d = min_subspace_distance(code, pair_guard)
    if cached is not None and cached != d:
        raise ValueError(f"cached minimum distance {cached} != recomputed {d}")
    return (code.n, len(set(code.words)), d, code.k)


def lift_code(code: RankMetricCode, pair_guard: int = PAIR_GUARD) -> GrassmannianCode:
    """Row spaces of the lifted words (I_k | A), as a Grassmannian code.

    For a linear [k x l, rho, delta] input the result is a
    (k + l, p^rho, 2*delta, k) code; both the size and the minimum distance
    are verified by direct pairwise computation before returning.
    """
    if not code.linear:
        raise ValueError("lifting is defined here for linear rank-metric codes")
    delta = code.delta if len(code.words) > 1 else None
    words = [span(w.lift()) for w in code.words]
    n = code.nrows + code.ncols
    claimed = {
        "n": n,
        "M": code.p**code.rho,
        "d": None if delta is None else 2 * delta,
        "k": code.nrows,
    }
    lifted = GrassmannianCode(
        words,
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
    words: list[Subspace] = []
    for i in range(1, r + 1):
        image = build_image_code(p, i, variant)
        pad = MatrixFp.zeros(2, 2 * (r - i), p)
        eye = MatrixFp.identity(2, p)
        for a in image.words:
            words.append(span(hstack([pad, eye, a])))
    words.append(span(zero_identity(2, r, p)))
    code = GrassmannianCode(
        words,
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
    words = [dual_subspace(w) for w in code.words]
    claimed = {
        "n": code.n,
        "M": code.M,
        "d": code.d,
        "k": code.n - code.k,
    }
    out = GrassmannianCode(
        words,
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
    """
    code_o = anticode_optimal_code(p, r, "O", pair_guard)
    code_e = anticode_optimal_code(p, r, "E", pair_guard)
    set_o, set_e = code_o.word_set(), code_e.word_set()
    return {
        "identical": set_o == set_e,
        "only_O": sorted(repr(w) for w in set_o - set_e),
        "only_E": sorted(repr(w) for w in set_e - set_o),
    }
