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
and the isometry report take the block map of length-2 vectors on a
coefficient array and read Hamming and Bachoc weights off the array and one
batch_rank of the images.

The rank scans send stacks of at most CHUNK words to matfp.batch_rank.  The
image of (GF(p^2))^r streams as a product of per-coordinate 2 x 2 blocks: a
table of the trailing coordinates' images behind a few leading blocks.  The
exhaustive pair scan takes each word against all later ones.

A scan of more than CHUNK stacks runs as up to WORKERS contiguous parts (of
leading blocks, word rows or sampled pairs), one per core this process may
use: the calling thread runs the first part and one thread runs each other,
each with its own reused buffer; numpy releases the GIL inside batch_rank.
Histograms add and minima take the min, so every result is exact and
independent of the split.
"""

from __future__ import annotations

import itertools
import os
import threading
from functools import partial

import numpy as np

from .gf import ExtFieldElement, require_construction_prime
from .matfp import MatrixFp, batch_rank, check_modulus, has_duplicates, int_array

# Materialization cap for explicit word lists and cap on exhaustive pairwise
# scans; larger cases go through the streaming scans below, CHUNK at a time.
WORD_GUARD = 1 << 16
PAIR_GUARD = 1 << 24
DEFAULT_SAMPLE_PAIRS = 100_000
CHUNK = 1 << 14
# Most parts a scan is split into: the cores this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

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
    checked here: distinct words and, for a linear code, the zero word.
    ``linear`` marks codes that are GF(p)-subspaces; for those the dimension
    ``rho`` satisfies M = p^rho.  The minimum distance is computed on demand
    by :func:`min_rank_distance` and cached, as are the word ranks.
    """

    def __init__(self, words, p: int, linear: bool = False, rho: int | None = None):
        check_modulus(p)
        if not len(words):
            raise ValueError("a code needs at least one word")
        words = int_array(words, 3) % p
        if has_duplicates(words):
            raise ValueError("duplicate words")
        if linear:
            if words.any(axis=(1, 2)).all():
                raise ValueError("a linear code must contain the zero matrix")
            if rho is None:
                rho = 0
                while p**rho < len(words):
                    rho += 1
            if p**rho != len(words):
                raise ValueError(
                    f"linear code size {len(words)} is not a power of p={p}"
                )
        words.setflags(write=False)
        self.words, self.p = words, int(p)
        self.nrows, self.ncols = words.shape[1:]
        self.linear = linear
        self.rho = rho if linear else None
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
        return code

    def __repr__(self):
        return (
            f"RankMetricCode(|C|={len(self.words)}, shape={self.shape}, "
            f"p={self.p}, linear={self.linear})"
        )


def _word_ranks(code: RankMetricCode) -> np.ndarray:
    """Ranks of the code's words, computed once per code."""
    if code._ranks is None:
        code._ranks = batch_rank(code.words, code.p)
    return code._ranks


def min_nonzero_rank(code: RankMetricCode) -> int:
    """Smallest rank among the nonzero words."""
    ranks = _word_ranks(code)
    nz = ranks[ranks > 0]
    if nz.size == 0:
        raise ValueError("code has no nonzero word")
    return int(nz.min())


def _split(cum: np.ndarray, chunk: int) -> list[tuple[int, int]]:
    """Contiguous nonempty ranges (start, stop) covering range(len(cum) - 1),
    at most WORKERS of them, of about equal work, where cum[i] is the work of
    items [0, i); one range if the work fits in ``chunk``."""
    n, total = len(cum) - 1, int(cum[-1])
    k = 1 if total <= chunk else min(WORKERS, n)
    cuts = np.searchsorted(cum, total * np.arange(1, k) / k)
    bounds = np.unique(np.concatenate(([0], cuts, [n]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _run_parts(fn, cum: np.ndarray, chunk: int) -> list:
    """[fn(start, stop) for each part of _split(cum, chunk)]: the calling
    thread runs the first part and one thread runs each other.  Every thread
    is joined before this returns, and the first part's exception (in part
    order) is raised here."""
    parts = _split(cum, chunk)
    results, errors = [None] * len(parts), [None] * len(parts)

    def run(k):
        try:
            results[k] = fn(*parts[k])
        except BaseException as exc:
            errors[k] = exc

    threads = []
    try:
        for k in range(1, len(parts)):
            threads.append(threading.Thread(target=run, args=(k,)))
            threads[-1].start()
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _min_rank(diffs, p: int) -> int | None:
    """Minimum rank over a stream of (B, R, C) stacks of residue differences;
    each lies in (-p, p) and is moved into [0, p) in place.  None if empty."""
    return min((int(batch_rank(np.add(d, (d < 0) * p, out=d), p).min()) for d in diffs),
               default=None)


def _sampled_min_rank(words, ii: np.ndarray, jj: np.ndarray, p: int, chunk: int) -> int:
    """Minimum rank of words(ii) - words(jj) over nonempty pair arrays, in
    parts of slices and ``chunk`` pairs at a time; words(idx) is a stack."""
    def part(start, stop):
        a, b = ii[start:stop], jj[start:stop]
        return _min_rank((words(a[s:s + chunk]) - words(b[s:s + chunk])
                          for s in range(0, a.size, chunk)), p)

    return min(_run_parts(part, np.arange(ii.size + 1), chunk))


def _pairs_before(i, m: int):
    """Pairs held by word rows 0, ..., i - 1 of an m-word pair scan, where
    row i' holds the m - 1 - i' pairs (i', j) with j > i'."""
    return i * (m - 1) - i * (i - 1) // 2


def _all_pair_diffs(arr: np.ndarray, chunk: int, rows: tuple[int, int] | None = None):
    """arr[j] - arr[i] for every i < j with i in ``rows`` (default: all),
    i-major, in one reused buffer of ``chunk`` stacks; a row of pairs that
    does not fit continues in the next."""
    m = len(arr)
    start, stop = rows or (0, m - 1)
    npairs = _pairs_before(stop, m) - _pairs_before(start, m)
    buf = np.empty((min(chunk, npairs),) + arr.shape[1:], dtype=np.int64)
    fill = 0
    for i in range(start, stop):
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
    arr = code.words
    p = code.p
    npairs = m * (m - 1) // 2
    # A linear code holds zero and m >= 2 distinct words, so some are nonzero.
    ranks = _word_ranks(code) if code.linear else None
    omega = int(ranks[ranks > 0].min()) if code.linear else None
    if npairs <= pair_guard:
        def part(start, stop):
            return _min_rank(_all_pair_diffs(arr, CHUNK, (start, stop)), p)

        d = min(_run_parts(part, _pairs_before(np.arange(m), m), CHUNK))
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
    if sample_pairs < 0:
        raise ValueError(f"sample_pairs must be >= 0, got {sample_pairs}")
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, m, size=sample_pairs)
    jj = rng.integers(0, m, size=sample_pairs)
    keep = ii != jj
    # Pin one pair that realizes the minimum: the first word of smallest
    # nonzero rank against the zero word (the only word of rank 0).
    ii = np.append(ii[keep], np.flatnonzero(ranks == omega)[0])
    jj = np.append(jj[keep], np.flatnonzero(ranks == 0)[0])
    sampled = _sampled_min_rank(arr.__getitem__, ii, jj, p, CHUNK)
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
    words = np.stack([variant_image(v, variant).array for v in enumerate_ext_vectors(p, r)])
    return RankMetricCode(words, p, linear=True, rho=2 * r)


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


def _table_coords(p: int, r: int, chunk: int) -> int:
    """Trailing coordinates in the image stream's table: the most whose
    images fit in a chunk."""
    low = 0
    while low < r and p ** (2 * low + 2) <= chunk:
        low += 1
    return low


def _image_chunks(p: int, r: int, variant: str, chunk: int,
                  leads: tuple[int, int] | None = None):
    """The variant images of (GF(p^2))^r in enumerate_ext_vectors order, as
    (B, 2, 2r) stacks of at most ``chunk`` words in one reused buffer; each
    leading block index in ``leads`` (default: all) covers one table."""
    low = _table_coords(p, r, chunk)
    table = _image_batch(np.arange(p ** (2 * low)), p, low, variant)
    first, stop = leads or (0, p ** (2 * (r - low)))
    step = max(1, chunk // len(table))
    buf = np.empty((min(step, stop - first), len(table), 2, 2 * r), dtype=np.int64)
    buf[:, :, :, 2 * (r - low):] = table
    for start in range(first, stop, step):
        lead = _image_batch(np.arange(start, min(start + step, stop)), p, r - low, variant)
        buf[:len(lead), :, :, :2 * (r - low)] = lead[:, None]
        yield buf[:len(lead)].reshape(-1, 2, 2 * r)


def image_rank_counts(p: int, r: int, variant: str = "O",
                      chunk: int | None = None) -> dict[int, int]:
    """Rank histogram {0: n0, 1: n1, 2: n2} of the variant image over all
    p^(2r) vectors, streamed ``chunk`` (default CHUNK) words at a time so
    nothing is materialized."""
    chunk = chunk or CHUNK
    low = _table_coords(p, r, chunk)

    def part(start, stop):
        counts = np.zeros(3, dtype=np.int64)
        for mats in _image_chunks(p, r, variant, chunk, (start, stop)):
            counts += np.bincount(batch_rank(mats, p), minlength=3)
        return counts

    leads = np.arange(p ** (2 * (r - low)) + 1) * p ** (2 * low)
    counts = sum(_run_parts(part, leads, chunk))
    return {i: int(counts[i]) for i in range(3)}


def sample_image_pair_min_rank(p: int, r: int, variant: str = "O",
                               n_pairs: int = DEFAULT_SAMPLE_PAIRS,
                               seed: int = 0, chunk: int | None = None) -> int:
    """Minimum rank of image(u) - image(v) over a seeded sample of distinct
    vector pairs (u, v); companion check for guard-excluded pairwise scans."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    total = p ** (2 * r)
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, total, size=n_pairs)
    ib = rng.integers(0, total, size=n_pairs)
    keep = ia != ib
    if not keep.any():
        raise ValueError(f"no distinct pair among the n_pairs={n_pairs} drawn; "
                         "raise n_pairs")
    images = partial(_image_batch, p=p, length=r, variant=variant)
    return _sampled_min_rank(images, ia[keep], ib[keep], p, chunk or CHUNK)


def _weight_scan(p: int, count: int):
    """The first ``count`` vectors of (GF(p^2))^2 in enumerate_ext_vectors
    order as a (count, 2, 2) coefficient array, with their block images
    [[a + d, b + c], [b + c + d, a + b + d]] (coordinates (a + b*w, c + d*w)),
    Hamming weights, image ranks by one batch_rank, and Bachoc weights
    (0 for the zero matrix, 1 for an invertible one, p otherwise)."""
    place = p ** np.arange(3, -1, -1, dtype=np.int64)
    coeffs = (np.arange(count, dtype=np.int64)[:, None] // place % p).reshape(-1, 2, 2)
    a, b, c, d = coeffs.reshape(-1, 4).T
    images = np.stack([a + d, b + c, b + c + d, a + b + d], axis=1).reshape(-1, 2, 2) % p
    ranks = batch_rank(images, p)
    hamming = coeffs.any(axis=2).sum(axis=1)
    bachoc = np.array([0, p, 1])[ranks]
    return coeffs, images, hamming, ranks, bachoc


def isometry_counterexamples(p: int, guard: int = 1 << 20) -> list[ExtVector]:
    """All length-2 vectors whose Hamming weight differs from the Bachoc
    weight of their matrix image; an empty list certifies the isometry.

    Exhaustive over all p^4 vectors, so p is capped by ``guard``.
    """
    if p**4 > guard:
        raise ValueError(f"p^4 = {p**4} exceeds the scan guard ({guard})")
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
