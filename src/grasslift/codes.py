"""Matrix images of extension-field vectors, weights, and rank-metric codes.

A length-2r vector over GF(p^2) maps to a 2 x 2r matrix over GF(p), one
2 x 2 block per coordinate pair (a + b*w, c + d*w):

    [[a + d,     b + c    ],
     [b + c + d, a + b + d]]

Two derived maps embed a length-r vector before applying the block map:
``odd_zero_image`` places zeros in the odd slots (block [[d, c], [c+d, d]])
and ``even_zero_image`` places zeros in the even slots (block
[[a, b], [b, a+b]]).  For primes p with p % 5 in {2, 3} every nonzero image
of either derived map has rank 2, which makes their full images linear
rank-metric codes that meet the Singleton bound exactly.

The rank scans send stacks of at most CHUNK words to matfp.batch_rank.  The
image of (GF(p^2))^r streams as a product of per-coordinate 2 x 2 blocks: a
table of the trailing coordinates' images behind a few leading blocks.  The
exhaustive pair scan takes each word against all later ones.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from .gf import ExtFieldElement, ext_elements, ext_zero, require_construction_prime
from .matfp import MatrixFp, batch_rank

# Materialization cap for explicit word lists and cap on exhaustive pairwise
# scans; larger cases go through the streaming scans below, CHUNK at a time.
WORD_GUARD = 1 << 16
PAIR_GUARD = 1 << 24
DEFAULT_SAMPLE_PAIRS = 100_000
CHUNK = 1 << 16

VARIANTS = ("O", "E")


class ExtVector:
    """Fixed-length vector over GF(p^2)."""

    __slots__ = ("coords", "p")

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty vector")
        p = coords[0].p
        if any(not isinstance(c, ExtFieldElement) or c.p != p for c in coords):
            raise ValueError("all coordinates must be ExtFieldElement with one modulus")
        self.coords = coords
        self.p = p

    @classmethod
    def from_pairs(cls, pairs, p: int) -> "ExtVector":
        return cls(ExtFieldElement.from_pair(pair, p) for pair in pairs)

    def to_pairs(self) -> list[list[int]]:
        return [c.to_pair() for c in self.coords]

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        return (
            isinstance(other, ExtVector)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __str__(self):
        return "|".join(str(c) for c in self.coords)

    def __repr__(self):
        return f"ExtVector({self}, p={self.p})"


def enumerate_ext_vectors(p: int, length: int):
    """All vectors of (GF(p^2))^length, lexicographic in the flattened
    coefficient tuple (a_1, b_1, ..., a_length, b_length)."""
    for flat in itertools.product(range(p), repeat=2 * length):
        yield ExtVector(
            ExtFieldElement(flat[2 * i], flat[2 * i + 1], p) for i in range(length)
        )


def hamming_weight(v: ExtVector) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for c in v if not c.is_zero())


def bachoc_weight(m: MatrixFp) -> int:
    """Weight on 2 x 2 matrices: 0 for zero, 1 for invertible, p otherwise."""
    if m.shape != (2, 2):
        raise ValueError(f"Bachoc weight is defined on 2 x 2 matrices, got {m.shape}")
    if m.is_zero():
        return 0
    if m.rank() == 2:
        return 1
    return m.p


def matrix_image(v: ExtVector) -> MatrixFp:
    """Block image of an even-length vector, one 2 x 2 block per coordinate
    pair (a + b*w, c + d*w)."""
    if len(v) % 2:
        raise ValueError("vector length must be even")
    p = v.p
    top: list[int] = []
    bot: list[int] = []
    for i in range(0, len(v), 2):
        a, b = v[i].a, v[i].b
        c, d = v[i + 1].a, v[i + 1].b
        top += [(a + d) % p, (b + c) % p]
        bot += [(b + c + d) % p, (a + b + d) % p]
    return MatrixFp([top, bot], p)


def embed_zeros_odd(v: ExtVector) -> ExtVector:
    """(v_1, ..., v_r) -> (0, v_1, 0, v_2, ..., 0, v_r)."""
    z = ext_zero(v.p)
    out = []
    for c in v:
        out += [z, c]
    return ExtVector(out)


def embed_zeros_even(v: ExtVector) -> ExtVector:
    """(v_1, ..., v_r) -> (v_1, 0, v_2, 0, ..., v_r, 0)."""
    z = ext_zero(v.p)
    out = []
    for c in v:
        out += [c, z]
    return ExtVector(out)


def odd_zero_image(v: ExtVector) -> MatrixFp:
    """Image of v embedded with zeros in the odd slots: per coordinate
    c + d*w the block is [[d, c], [c + d, d]]."""
    p = v.p
    top: list[int] = []
    bot: list[int] = []
    for x in v:
        c, d = x.a, x.b
        top += [d, c]
        bot += [(c + d) % p, d]
    return MatrixFp([top, bot], p)


def even_zero_image(v: ExtVector) -> MatrixFp:
    """Image of v embedded with zeros in the even slots: per coordinate
    a + b*w the block is [[a, b], [b, a + b]]."""
    p = v.p
    top: list[int] = []
    bot: list[int] = []
    for x in v:
        a, b = x.a, x.b
        top += [a, b]
        bot += [b, (a + b) % p]
    return MatrixFp([top, bot], p)


def variant_image(v: ExtVector, variant: str) -> MatrixFp:
    if variant == "O":
        return odd_zero_image(v)
    if variant == "E":
        return even_zero_image(v)
    raise ValueError(f"variant must be 'O' or 'E', got {variant!r}")


class RankMetricCode:
    """A finite set of equal-shape matrices over GF(p) under the rank distance.

    ``linear`` marks codes that are GF(p)-subspaces; for those the dimension
    ``rho`` satisfies |words| = p^rho and the zero matrix must be a word.
    The minimum distance is computed on demand by :func:`min_rank_distance`
    and cached.
    """

    def __init__(self, words, linear: bool = False, rho: int | None = None):
        words = tuple(words)
        if not words:
            raise ValueError("a code needs at least one word")
        p = words[0].p
        shape = words[0].shape
        for w in words:
            if not isinstance(w, MatrixFp):
                raise TypeError("words must be MatrixFp instances")
            if w.p != p or w.shape != shape:
                raise ValueError("all words must share one shape and modulus")
        self.words = words
        self.word_set = frozenset(words)
        if len(self.word_set) != len(words):
            raise ValueError("duplicate words")
        self.p = p
        self.nrows, self.ncols = shape
        self.linear = linear
        if linear:
            if MatrixFp.zeros(self.nrows, self.ncols, p) not in self.word_set:
                raise ValueError("a linear code must contain the zero matrix")
            if rho is None:
                rho = 0
                while p**rho < len(words):
                    rho += 1
            if p**rho != len(words):
                raise ValueError(
                    f"linear code size {len(words)} is not a power of p={p}"
                )
        self.rho = rho if linear else None
        self._delta: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __len__(self):
        return len(self.words)

    def __contains__(self, m):
        return m in self.word_set

    @property
    def delta(self) -> int:
        """Minimum rank distance (computed on first access)."""
        if self._delta is None:
            min_rank_distance(self)
        return self._delta

    def stacked(self) -> np.ndarray:
        return np.stack([w.array for w in self.words])

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.nrows,
            "l": self.ncols,
            "linear": self.linear,
            "words": [w.to_lists() for w in self.words],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankMetricCode":
        p = data["p"]
        words = [MatrixFp(w, p) for w in data["words"]]
        for w in words:
            if w.shape != (data["k"], data["l"]):
                raise ValueError("word shape does not match declared (k, l)")
        return cls(words, linear=bool(data["linear"]))

    def __repr__(self):
        return (
            f"RankMetricCode(|C|={len(self.words)}, shape={self.shape}, "
            f"p={self.p}, linear={self.linear})"
        )


def min_nonzero_rank(code: RankMetricCode) -> int:
    """Smallest rank among the nonzero words."""
    ranks = batch_rank(code.stacked(), code.p)
    nz = ranks[ranks > 0]
    if nz.size == 0:
        raise ValueError("code has no nonzero word")
    return int(nz.min())


def _min_rank(diffs, p: int) -> int | None:
    """Minimum rank over a stream of (B, R, C) stacks of residue differences;
    each lies in (-p, p) and is moved into [0, p) in place.  None if empty."""
    return min((int(batch_rank(np.add(d, (d < 0) * p, out=d), p).min()) for d in diffs),
               default=None)


def _sampled_diffs(words, ii: np.ndarray, jj: np.ndarray, chunk: int = CHUNK):
    """words(ii) - words(jj), ``chunk`` pairs at a time; words(idx) is a stack."""
    for s in range(0, ii.size, chunk):
        yield words(ii[s:s + chunk]) - words(jj[s:s + chunk])


def _all_pair_diffs(arr: np.ndarray, chunk: int = CHUNK):
    """arr[j] - arr[i] for every i < j, i-major, in one reused buffer of
    ``chunk`` stacks; a row of pairs that does not fit continues in the next."""
    m = len(arr)
    buf = np.empty((min(chunk, m * (m - 1) // 2),) + arr.shape[1:], dtype=np.int64)
    fill = 0
    for i in range(m - 1):
        j = i + 1
        while j < m:
            n = min(m - j, len(buf) - fill)
            np.subtract(arr[j:j + n], arr[i], out=buf[fill:fill + n])
            fill, j = fill + n, j + n
            if fill == len(buf):
                yield buf
                fill = 0
    if fill:
        yield buf[:fill]


def min_rank_distance(code: RankMetricCode, pair_guard: int = PAIR_GUARD,
                      sample_pairs: int = DEFAULT_SAMPLE_PAIRS, seed: int = 0) -> int:
    """Minimum rank of A - B over distinct word pairs.

    Under ``pair_guard`` the scan is exhaustive, and for linear codes the
    result is cross-checked against the minimum nonzero word rank (they must
    agree).  Above the guard a linear code falls back to the full nonzero
    rank scan plus a seeded random pair sample that must be consistent with
    it; non-linear codes above the guard are refused.
    """
    m = len(code.words)
    if m < 2:
        raise ValueError("minimum distance needs at least two words")
    arr = code.stacked()
    p = code.p
    npairs = m * (m - 1) // 2
    # A linear code holds zero and m >= 2 distinct words, so some are nonzero.
    ranks = batch_rank(arr, p) if code.linear else None
    omega = int(ranks[ranks > 0].min()) if code.linear else None
    if npairs <= pair_guard:
        d = _min_rank(_all_pair_diffs(arr), p)
        if code.linear and d != omega:
            raise RuntimeError(
                f"pairwise minimum {d} != minimum nonzero rank {omega} "
                "for a linear code"
            )
        code._delta = d
        return d
    if not code.linear:
        raise ValueError(
            f"{npairs} pairs exceed the guard ({pair_guard}) and the code is "
            "not linear; raise the guard to force the scan"
        )
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, m, size=sample_pairs)
    jj = rng.integers(0, m, size=sample_pairs)
    keep = ii != jj
    # Pin one pair that realizes the minimum: the first word of smallest
    # nonzero rank against the zero word (the only word of rank 0).
    ii = np.append(ii[keep], np.flatnonzero(ranks == omega)[0])
    jj = np.append(jj[keep], np.flatnonzero(ranks == 0)[0])
    sampled = _min_rank(_sampled_diffs(arr.__getitem__, ii, jj), p)
    if sampled != omega:
        raise RuntimeError(
            f"sampled pairwise minimum {sampled} != minimum nonzero rank {omega}"
        )
    code._delta = omega
    return omega


def singleton_max_dim(k: int, l: int, delta: int) -> int:
    """Largest linear-code dimension allowed at minimum rank distance delta."""
    if not 1 <= delta <= min(k, l):
        raise ValueError(f"delta={delta} out of range for shape ({k}, {l})")
    return min(k * (l - delta + 1), l * (k - delta + 1))


def is_mrd(code: RankMetricCode, **kwargs) -> bool:
    """True iff a linear code attains the Singleton bound exactly."""
    if not code.linear:
        raise ValueError("the MRD property is defined for linear codes")
    delta = code._delta if code._delta is not None else min_rank_distance(code, **kwargs)
    return code.rho == singleton_max_dim(code.nrows, code.ncols, delta)


def build_image_code(p: int, r: int, variant: str = "O",
                     max_words: int | None = WORD_GUARD) -> RankMetricCode:
    """The linear [2 x 2r, 2r, 2] rank-metric code {image(v) : v in (GF(p^2))^r}.

    Requires a prime p with p % 5 in {2, 3}; for other p the image is not a
    rank-metric code with distance 2 (it contains nonzero rank-1 words).
    """
    require_construction_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n_words = p ** (2 * r)
    if max_words is not None and n_words > max_words:
        raise ValueError(
            f"{n_words} words exceed the materialization guard ({max_words}); "
            "use the streaming scans (image_rank_counts) or pass max_words=None"
        )
    words = [variant_image(v, variant) for v in enumerate_ext_vectors(p, r)]
    return RankMetricCode(words, linear=True, rho=2 * r)


def _image_batch(idx: np.ndarray, p: int, length: int, variant: str) -> np.ndarray:
    """Variant images of the vectors of (GF(p^2))^length with indices idx in
    enumerate_ext_vectors order (mixed-radix coefficient digits, most
    significant first): shape (B, 2, 2 length)."""
    place = p ** np.arange(2 * length - 1, -1, -1, dtype=np.int64)
    tuples = (idx[:, None] // place) % p
    out = np.empty((len(idx), 2, 2 * length), dtype=np.int64)
    first, second = tuples[:, 0::2], tuples[:, 1::2]
    if variant == "O":
        c, d = first, second
        out[:, 0, 0::2] = d
        out[:, 0, 1::2] = c
        out[:, 1, 0::2] = (c + d) % p
        out[:, 1, 1::2] = d
    elif variant == "E":
        a, b = first, second
        out[:, 0, 0::2] = a
        out[:, 0, 1::2] = b
        out[:, 1, 0::2] = b
        out[:, 1, 1::2] = (a + b) % p
    else:
        raise ValueError(f"variant must be 'O' or 'E', got {variant!r}")
    return out


def _image_chunks(p: int, r: int, variant: str, chunk: int = CHUNK):
    """The variant images of (GF(p^2))^r in enumerate_ext_vectors order, as
    (B, 2, 2r) stacks of at most ``chunk`` words in one reused buffer."""
    low = 0  # trailing coordinates in the table: the most that fit in a chunk
    while low < r and p ** (2 * low + 2) <= chunk:
        low += 1
    table = _image_batch(np.arange(p ** (2 * low)), p, low, variant)
    n_lead, step = p ** (2 * (r - low)), max(1, chunk // len(table))
    buf = np.empty((min(step, n_lead), len(table), 2, 2 * r), dtype=np.int64)
    buf[:, :, :, 2 * (r - low):] = table
    for start in range(0, n_lead, step):
        lead = _image_batch(np.arange(start, min(start + step, n_lead)), p, r - low, variant)
        buf[:len(lead), :, :, :2 * (r - low)] = lead[:, None]
        yield buf[:len(lead)].reshape(-1, 2, 2 * r)


def image_rank_counts(p: int, r: int, variant: str = "O",
                      chunk: int = CHUNK) -> dict[int, int]:
    """Rank histogram {0: n0, 1: n1, 2: n2} of the variant image over all
    p^(2r) vectors, streamed so nothing is materialized."""
    counts = np.zeros(3, dtype=np.int64)
    for mats in _image_chunks(p, r, variant, chunk):
        counts += np.bincount(batch_rank(mats, p), minlength=3)
    return {i: int(counts[i]) for i in range(3)}


def sample_image_pair_min_rank(p: int, r: int, variant: str = "O",
                               n_pairs: int = DEFAULT_SAMPLE_PAIRS,
                               seed: int = 0, chunk: int = CHUNK) -> int:
    """Minimum rank of image(u) - image(v) over a seeded sample of distinct
    vector pairs (u, v); companion check for guard-excluded pairwise scans."""
    total = p ** (2 * r)
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, total, size=n_pairs)
    ib = rng.integers(0, total, size=n_pairs)
    keep = ia != ib
    images = partial(_image_batch, p=p, length=r, variant=variant)
    return _min_rank(_sampled_diffs(images, ia[keep], ib[keep], chunk), p)


def isometry_counterexamples(p: int, guard: int = 1 << 20) -> list[ExtVector]:
    """All length-2 vectors whose Hamming weight differs from the Bachoc
    weight of their matrix image; an empty list certifies the isometry.

    Exhaustive over all p^4 vectors, so p is capped by ``guard``.
    """
    if p**4 > guard:
        raise ValueError(f"p^4 = {p**4} exceeds the scan guard ({guard})")
    out = []
    for v in enumerate_ext_vectors(p, 2):
        if hamming_weight(v) != bachoc_weight(matrix_image(v)):
            out.append(v)
    return out


TABLE_COLUMNS = ("alpha", "hamming", "phi", "bachoc", "rank")


def _entry_digits(m: MatrixFp) -> str:
    if m.p > 16:
        raise ValueError("digit encoding supports p <= 16")
    return "".join(format(int(x), "x") for x in m.array.ravel())


def weight_table_rows(p: int) -> list[tuple[str, int, str, int, int]]:
    """Weight-table rows (alpha, hamming, phi, bachoc, rank).

    For p=2 the domain is all of (GF(4))^2; for p=3 it is the nine vectors
    (0, c + d*w) over GF(9).  Other moduli are not part of the table
    contract.
    """
    if p == 2:
        vectors = list(enumerate_ext_vectors(2, 2))
    elif p == 3:
        zero = ext_zero(3)
        vectors = [ExtVector([zero, x]) for x in ext_elements(3)]
    else:
        raise ValueError("the weight table is defined for p in {2, 3}")
    rows = []
    for v in vectors:
        img = matrix_image(v)
        rows.append(
            (str(v), hamming_weight(v), _entry_digits(img), bachoc_weight(img),
             img.rank())
        )
    return rows


def weight_table_csv(p: int) -> str:
    lines = [",".join(TABLE_COLUMNS)]
    for row in weight_table_rows(p):
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
