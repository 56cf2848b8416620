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
rank-metric codes that meet the Singleton bound exactly.  The weight tables
and the isometry report add the E block of a length-2 vector's first
coordinate to the O block of its second, and read Hamming and Bachoc weights
off the coefficients and one batch_rank of the images.

A code built as linear is certified linear, so its minimum distance is its
least nonzero word rank at any size.  The certificate eliminates only a few
words: every word is checked against the RREF basis of 2 rho + 1 drawn words
in one residual pass, the basis is extended from the words outside it (the
claim fails once its rank exceeds rho), and the words' coordinates in the
final basis, read as base-p keys, must be a permutation of [0, p^rho).  That
proves the M = p^rho words distinct and the whole subspace; only a refused
claim sorts the words to name duplicates.  The keys also name one word per
projective point, those whose leading key digit is 1: lambda A has the rank
of A for every lambda != 0, so the least nonzero rank is read off those
(M - 1) / (p - 1) words, ranked beside the zero word.
A code not known to be linear is refused above the pair guard; under it,
its distance is read off the subspace pair scan of its lifts.  Both derived
maps act one coordinate at a time, so every image word is written from a
table of the p^2 single-coordinate blocks, spanned per call from the
images of 1 and w, each block broadcast into its coordinate's two columns.
A word's column space is the sum of its blocks', so the rank histogram reads
ranks from the blocks' column-space classes, and the image pair minimum, on
an additive block table where image(u) - image(v) = image(u - v), is the
least rank of a nonzero block.  Every scan is exact and runs in the calling
thread.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .gf import ExtFieldElement, require_construction_prime
from .matfp import (MatrixFp, batch_lift, batch_rank, batch_rref, check_modulus,
                    has_duplicates, int_array, mod)

# Materialization cap for explicit word lists and cap on exhaustive pairwise
# scans; larger images go through the histogram and the block-rank pair minimum.
WORD_GUARD = 1 << 16
PAIR_GUARD = 1 << 24
DEFAULT_SAMPLE_PAIRS = 100_000  # the ignored default of sample_image_pair_min_rank
ISOMETRY_GUARD = 1 << 20  # cap on the p^4 vectors of the isometry scan

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

    ``words`` is one read-only (M, k, l) int64 array of residues mod ``p``,
    checked here: distinct words by one sort of their bytes or, for a linear
    code, M = p^rho and a GF(p)-subspace, certified by :func:`_is_subspace`
    from one row-space basis of the flattened words, which also proves them
    distinct and the zero word present.  A refused linear claim reports the
    first failure in the order duplicates, zero word, size, closure.  A
    linear code keeps the indices of its zero word and of one word per
    projective point, read off the certificate's keys.  The minimum distance
    is computed on demand by :func:`min_rank_distance` and cached, as are
    the ranks of the words that decide it (:func:`_word_ranks`).
    """

    def __init__(self, words, p: int, linear: bool = False):
        check_modulus(p)
        if not len(words):
            raise ValueError("a code needs at least one word")
        words = mod(int_array(words, 3), p)
        rho = next(e for e in itertools.count() if p**e >= len(words)) if linear else None
        points = None
        if linear:
            sized = p**rho == len(words)
            keys = _is_subspace(words.reshape(len(words), -1), p, rho) if sized else None
            if keys is None:
                # A refused claim names the first of the plain checks that
                # fails, in their order: duplicates, zero word, size, closure.
                if has_duplicates(words):
                    raise ValueError("duplicate words")
                if words.any(axis=(1, 2)).all():
                    raise ValueError("a linear code must contain the zero matrix")
                if not sized:
                    raise ValueError(f"linear code size {len(words)} is not a power of p={p}")
                raise ValueError("a linear code must be closed under addition "
                                 "and scalar multiples")
            # The zero word (key 0) and one word per projective point: those
            # whose leading key digit is 1, keys in [p^e, 2 p^e) for e < rho.
            by_key = np.empty_like(keys)
            by_key[keys] = np.arange(len(keys))
            points = by_key[np.concatenate([[0], *(np.arange(p**e, 2 * p**e)
                                                   for e in range(rho))])]
        elif has_duplicates(words):
            raise ValueError("duplicate words")
        words.setflags(write=False)
        self.words, self.p = words, int(p)
        self.nrows, self.ncols = words.shape[1:]
        self.linear = linear
        self.rho = rho
        self._points = points
        self._delta: int | None = None
        self._ranks: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __len__(self):
        return len(self.words)

    @property
    def delta(self) -> int:
        """Minimum rank distance (computed on first access)."""
        if self._delta is None:
            min_rank_distance(self)
        return self._delta

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.nrows,
            "l": self.ncols,
            "linear": self.linear,
            "words": self.words.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankMetricCode":
        if not isinstance(data["linear"], bool):
            raise ValueError(f"linear must be true or false, got {data['linear']!r}")
        code = cls(data["words"], data["p"], linear=data["linear"])
        if code.shape != (data["k"], data["l"]):
            raise ValueError("word shape does not match declared (k, l)")
        if {type(data["k"]), type(data["l"])} != {int}:  # 2.0 == 2 and true == 1
            raise ValueError(f"declared k and l must be integers, got {data['k']!r}, {data['l']!r}")
        return code

    def __repr__(self):
        return (
            f"RankMetricCode(|C|={len(self.words)}, shape={self.shape}, "
            f"p={self.p}, linear={self.linear})"
        )


def _is_subspace(flat: np.ndarray, p: int, rho: int) -> np.ndarray | None:
    """The rows' keys in the subspace's RREF basis if the M = p^rho rows of
    ``flat``, entries in [0, p), are exactly a rho-dimensional
    GF(p)-subspace, else None; no stack of all M rows is eliminated.

    The RREF basis of 2 rho + 1 rows drawn with a fixed seed is checked
    against every row in one pass: a row w lies in its span iff
    w[free] = w[pivots] @ basis[:, free] mod p, as the basis is I on its
    pivot columns.  The rows outside are reduced to their residuals
    (w - w[pivots] @ basis) % p, the basis is extended by rows drawn from
    those, and only they are checked again; the claim fails as soon as the
    rank exceeds rho.  Once every row lies in a span of rank rho, each row is
    fixed by its coordinates w[pivots], so the M rows are distinct, and hence
    the whole span, iff those coordinates read as base-p keys, the t-th
    coordinate as digit t, are a permutation of [0, p^rho).  That basis is
    the span's unique RREF, so the keys do not depend on the draw.
    """
    # Drawn, not evenly spaced: evenly spaced words of a code listed in the
    # order of its coefficient vectors, as build_image_code lists them, span
    # few directions (12 of the (13, 2) image span one).  numpy imports the
    # stdlib generator itself; numpy.random would add its own import to every
    # command that loads a code.
    m, rng = len(flat), random.Random(0)
    basis, rest = flat[:0], flat
    while True:
        new = rest[rng.choices(range(len(rest)), k=2 * rho + 1)]
        reduced, ranks = batch_rref(np.concatenate([basis, new])[None], p)
        rank = int(ranks[0])
        if rank > rho:
            return None
        basis = reduced[0, :rank]
        pivots = (basis != 0).argmax(axis=1) if rank else np.zeros(0, dtype=np.int64)
        free = np.ones(flat.shape[1], dtype=bool)
        free[pivots] = False
        # w @ lift = w[pivots] @ basis[:, free], with no copy of w[pivots]:
        # lift holds basis[:, free] on its pivot rows and zeros elsewhere.
        # A product sums rank <= rho residue products, below rho (p - 1)^2,
        # which int64 holds: for rho = 1 since p <= MAX_MODULUS; for rho >= 2
        # since (p - 1)^2 < p^rho = M, and rho * M < 64 * M is far below 2^63
        # for M words held in memory.
        lift = np.zeros((flat.shape[1], flat.shape[1] - rank), dtype=np.int64)
        lift[pivots] = basis[:, free]
        # einsum ors the short rows of booleans far faster than any(axis=1).
        outside = np.einsum("ij->i", mod(rest @ lift, p) != rest[:, free])
        if not outside.any():
            break
        rest = rest[outside]
        rest = mod(rest - rest[:, pivots] @ basis, p)
    if rank != rho:
        return None
    place = np.zeros(flat.shape[1], dtype=np.int64)
    place[pivots] = p ** np.arange(rho, dtype=np.int64)
    keys = flat @ place
    return keys if np.bincount(keys, minlength=m).min() else None


def _word_ranks(code: RankMetricCode) -> np.ndarray:
    """Ranks of the words that decide the code's least nonzero rank,
    computed once per code: for a linear code the zero word and one word per
    projective point, 1 + (M - 1) / (p - 1) words, since lambda A has the
    rank of A for every lambda != 0; else every word."""
    if code._ranks is None:
        words = code.words if code._points is None else code.words[code._points]
        code._ranks = batch_rank(words, code.p)
    return code._ranks


def min_nonzero_rank(code: RankMetricCode) -> int:
    """Smallest rank among the nonzero words."""
    ranks = _word_ranks(code)
    nz = ranks[ranks > 0]
    if nz.size == 0:
        raise ValueError("code has no nonzero word")
    return int(nz.min())


def min_rank_distance(code: RankMetricCode, pair_guard: int = PAIR_GUARD,
                      seed: int = 0) -> int:
    """Minimum rank of A - B over distinct word pairs.

    A linear code's distance is its least nonzero word rank at any size,
    exactly, since the constructor certified that its words form a subspace.
    A non-linear code is refused when its pairs exceed ``pair_guard``, else
    its k x l words are lifted to rowspace(I | A), which meet in dimension
    k - rank(A - B), and scanned by grassmann.pairwise_intersection_dims.
    ``seed`` is accepted for existing callers and does nothing.
    """
    m = len(code.words)
    if m < 2:
        raise ValueError("minimum distance needs at least two words")
    if code.linear:
        # A linear code holds zero and m >= 2 distinct words, so some are nonzero.
        code._delta = min_nonzero_rank(code)
        return code._delta
    npairs = m * (m - 1) // 2
    if npairs > pair_guard:
        raise ValueError(
            f"{npairs} pairs exceed the guard ({pair_guard}) and the code is "
            "not linear; raise the guard to force the scan"
        )
    from .grassmann import pairwise_intersection_dims  # grassmann imports this module
    lifts = batch_lift(code.words, code.nrows + code.ncols)
    code._delta = code.nrows - int(pairwise_intersection_dims(lifts, code.p, pair_guard).max())
    return code._delta


def singleton_max_dim(k: int, l: int, delta: int) -> int:
    """Largest linear-code dimension allowed at minimum rank distance delta."""
    if not 1 <= delta <= min(k, l):
        raise ValueError(f"delta={delta} out of range for shape ({k}, {l})")
    return min(k * (l - delta + 1), l * (k - delta + 1))


def is_mrd(code: RankMetricCode) -> bool:
    """True iff a linear code attains the Singleton bound exactly."""
    if not code.linear:
        raise ValueError("the MRD property is defined for linear codes")
    return code.rho == singleton_max_dim(code.nrows, code.ncols, code.delta)


def build_image_code(p: int, r: int, variant: str = "O") -> RankMetricCode:
    """The linear [2 x 2r, 2r, 2] rank-metric code {image(v) : v in (GF(p^2))^r},
    written from the p^2 single-coordinate blocks in enumerate_ext_vectors order.

    Requires a prime p with p % 5 in {2, 3}; for other p the image is not a
    rank-metric code with distance 2 (it contains nonzero rank-1 words).
    """
    require_construction_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n_words = p ** (2 * r)
    if n_words > WORD_GUARD:
        raise ValueError(
            f"{n_words} words exceed the materialization guard ({WORD_GUARD}); "
            "use image_rank_counts and sample_image_pair_min_rank"
        )
    return RankMetricCode(_image_words(_blocks(p, variant), r), p, linear=True)


def _blocks(p: int, variant: str) -> np.ndarray:
    """The (p^2, 2, 2) variant images of the single-coordinate vectors of
    GF(p^2), in enumerate_ext_vectors order: the one image map, since every
    image word is its coordinates' blocks side by side.  Both variant maps
    are GF(p)-linear, so block(a + b*w) = a*block(1) + b*block(w) mod p and
    only those two are built by variant_image.  Refused when p^2 exceeds
    WORD_GUARD: the table materializes all p^2 blocks, like a word list
    under that cap."""
    if p * p > WORD_GUARD:
        raise ValueError(f"p={p} has {p * p} single-coordinate blocks, over the "
                         f"materialization guard ({WORD_GUARD})")
    one, w = (variant_image(ExtVector([ExtFieldElement(a, b, p)]), variant).array
              for a, b in ((1, 0), (0, 1)))
    a, b = np.divmod(np.arange(p * p), p)
    return mod(a[:, None, None] * one + b[:, None, None] * w, p)


def _image_words(blocks: np.ndarray, r: int) -> np.ndarray:
    """Variant images of all q^r vectors of (GF(p^2))^r, q = p^2, in
    enumerate_ext_vectors order, shape (q^r, 2, 2r): one (q,)*r + (2, 2r)
    array whose axis t is coordinate t's digit, most significant first, with
    the _blocks table written into columns 2t and 2t + 1, broadcast over the
    other digits."""
    q = len(blocks)
    out = np.empty((q,) * r + (2, 2 * r), dtype=np.int64)
    # A block row's two entries are written as one 16-byte item, which numpy
    # copies several times faster than pairs of int64 entries.
    pair = np.dtype((np.void, 2 * out.itemsize))
    rows, table = out.view(pair), np.ascontiguousarray(blocks).view(pair)
    for t in range(r):
        rows[..., t] = table.reshape((q,) + (1,) * (r - 1 - t) + (2,))
    return out.reshape(q**r, 2, 2 * r)


def _block_classes(blocks: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """(classes, plane): the column-space class of each 2 x 2 block.  Class 0
    is the zero block, 1..L the L distinct column lines of the rank-1 blocks
    and plane = L + 1 a rank-2 block."""
    ranks = batch_rank(blocks, p)
    # A rank-1 block's column space is the first row of its transpose's RREF.
    lines = batch_rref(blocks[ranks == 1].transpose(0, 2, 1), p)[0][:, 0]
    lines, ids = np.unique(lines, axis=0, return_inverse=True)
    plane = len(lines) + 1
    classes = np.where(ranks == 2, plane, 0)
    classes[ranks == 1] = ids.ravel() + 1
    return classes, plane


def image_rank_counts(p: int, r: int, variant: str = "O") -> dict[int, int]:
    """Exact rank histogram {0: n0, 1: n1, 2: n2} of the variant image over
    all p^(2r) vectors of (GF(p^2))^r, from the p^2 single-coordinate blocks.

    A word's column space in GF(p)^2 is the sum of its blocks' column spaces.
    With z zero blocks and n_l blocks spanning the line l, z^r words are zero
    and (z + n_l)^r - z^r span l; every other word has rank 2.  Every block
    is ranked, and the counts are Python ints, exact for every r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    classes, plane = _block_classes(_blocks(p, variant), p)
    z, *n_lines = np.bincount(classes, minlength=plane + 1)[:plane].tolist()
    zero = z**r
    one = sum((z + n) ** r - zero for n in n_lines)
    return {0: zero, 1: one, 2: int(p) ** (2 * r) - zero - one}


def sample_image_pair_min_rank(p: int, r: int, variant: str = "O",
                               n_pairs: int = DEFAULT_SAMPLE_PAIRS,
                               seed: int = 0) -> int:
    """Minimum rank of image(u) - image(v) over all distinct vector pairs
    (u, v), exact at every r.  Refused unless block(a + b*w) =
    a*block(1) + b*block(w) mod p for all p^2 digits; then image(u) -
    image(v) = image(u - v).  A nonzero u - v has a nonzero digit, and its
    word's rank is at least that digit's block rank, which the vector with
    only that digit reaches: the result is the least rank of the p^2 - 1
    nonzero blocks.  ``n_pairs`` and ``seed`` are accepted for existing
    callers and do nothing."""
    if r < 1:
        raise ValueError("r must be >= 1")
    blocks = _blocks(p, variant)
    a, b = np.divmod(np.arange(p * p), p)
    if not np.array_equal(blocks, mod(a[:, None, None] * blocks[p]
                                      + b[:, None, None] * blocks[1], p)):
        raise ValueError(f"the {variant} block map is not additive over GF({p})")
    return int(batch_rank(blocks[1:], p).min())


def _weight_scan(p: int, count: int):
    """The first ``count`` vectors of (GF(p^2))^2 in enumerate_ext_vectors
    order as a (count, 2, 2) coefficient array, with their block images (the
    E block of the first coordinate, index i // p^2, plus the O block of the
    second, i % p^2), Hamming weights, image ranks by one batch_rank, and
    Bachoc weights (0 for the zero matrix, 1 for an invertible one, p otherwise)."""
    place = p ** np.arange(3, -1, -1, dtype=np.int64)
    idx = np.arange(count, dtype=np.int64)
    coeffs = mod(idx[:, None] // place, p).reshape(-1, 2, 2)
    images = mod(_blocks(p, "E")[idx // p**2] + _blocks(p, "O")[mod(idx, p**2)], p)
    ranks = batch_rank(images, p)
    hamming = coeffs.any(axis=2).sum(axis=1)
    bachoc = np.array([0, p, 1])[ranks]
    return coeffs, images, hamming, ranks, bachoc


def isometry_counterexamples(p: int) -> list[ExtVector]:
    """All length-2 vectors whose Hamming weight differs from the Bachoc
    weight of their matrix image; an empty list certifies the isometry.

    Exhaustive over all p^4 vectors, so p^4 is capped by ISOMETRY_GUARD.
    """
    if p**4 > ISOMETRY_GUARD:
        raise ValueError(f"p^4 = {p**4} exceeds the scan guard ({ISOMETRY_GUARD})")
    coeffs, _, hamming, _, bachoc = _weight_scan(p, p**4)
    return [ExtVector.from_pairs(pairs, p) for pairs in coeffs[hamming != bachoc].tolist()]


TABLE_COLUMNS = ("alpha", "hamming", "phi", "bachoc", "rank")


def weight_table_rows(p: int) -> list[tuple[str, int, str, int, int]]:
    """Weight-table rows (alpha, hamming, phi, bachoc, rank).

    For p=2 the domain is all of (GF(4))^2; for p=3 it is the nine vectors
    (0, c + d*w) over GF(9), the first nine in enumeration order.  Other
    moduli are not part of the table contract.
    """
    if p not in (2, 3):
        raise ValueError("the weight table is defined for p in {2, 3}")
    coeffs, images, hamming, ranks, bachoc = _weight_scan(p, 16 if p == 2 else 9)
    return [
        (str(ExtVector.from_pairs(pairs, p)), h, "".join(map(str, image)), w, rank)
        for pairs, image, h, w, rank in zip(coeffs.tolist(), images.reshape(-1, 4).tolist(),
                                            hamming.tolist(), bachoc.tolist(), ranks.tolist())
    ]


def weight_table_csv(p: int) -> str:
    lines = [",".join(TABLE_COLUMNS)]
    for row in weight_table_rows(p):
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
