"""Subspaces of GF(p)^n, counting, anticode bounds, and the anticode-optimal
constant-dimension codes built from lifted matrix codes.

Every subspace is an array: its unique reduced-row-echelon basis, a (k, n)
array with no zero row, so subspace equality is plain array equality.
:func:`span` canonicalizes generators, :func:`enumerate_grassmannian` returns
a whole Grassmannian as one (N, k, n) array, and a code holds its words as
one (M, k, n) array of RREF bases, checked directly: no zero row, pivots
moving right, and the pivot columns forming I_k.
Minimum distances are never taken on faith: every construction here
recomputes them by a full pairwise scan and refuses to return an object
whose parameters disagree with the scan.  The
scan (:func:`pairwise_intersection_dims`) works on the words or, when
2k > n, on their duals, since (A+B)^perp = A^perp n B^perp.  When that
side's points are no more than the pairs, it lists each word's points,
normalized, and sorts them all once: two subspaces meet in dimension t
exactly when they share (p^t-1)/(p-1) points, so the colliding points give
every pair's dimension, and pairs that share none meet in zero (the
paper's codes and their duals have no collision at all).  Otherwise it
reduces all later words against one word's RREF basis at a time and ranks
every pair's remainder; two-row remainders are ranked by reducing the
bottom row against the top row's pivot column.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .gf import is_prime, require_construction_prime
from .matfp import (batch_lift, batch_rank, batch_rref, check_modulus, has_duplicates,
                    int_array, mod, rref_null_space)
from .codes import PAIR_GUARD, RankMetricCode, _blocks, _image_words

ENUMERATION_GUARD = 1 << 20
# Collision pairs expanded at once, and points built at once, by the point scan.
CHUNK = 1 << 16


def _require_rref(bases: np.ndarray) -> None:
    """Raise unless every basis of a (B, k, n) stack with entries in [0, p)
    is its own RREF with no zero row, checked without elimination: no row is
    zero, each row's first nonzero column lies right of the previous row's,
    and the (k, k) gather of those columns is I_k.  The RREF is unique, so
    this is exactly the condition that eliminating the stack changes nothing
    and finds rank k."""
    nonzero = bases != 0
    canonical = nonzero.any(axis=2).all()
    if canonical and bases.size:  # an empty stack, or k = 0, is canonical
        lead = nonzero.argmax(axis=2)
        pivots = np.take_along_axis(bases, lead[:, None, :], axis=2)
        canonical = ((np.diff(lead, axis=1) > 0).all()
                     and (pivots == np.eye(bases.shape[1], dtype=bases.dtype)).all())
    if not canonical:
        raise ValueError("basis is not a canonical RREF basis; use span()")


def span(rows, p: int) -> np.ndarray:
    """Canonical basis of the row space of a generator matrix: its (rank, n) RREF."""
    check_modulus(p)
    reduced, ranks = batch_rref(mod(int_array(rows, 2)[None], p), p)
    return reduced[0, :ranks[0]]


def dual_bases(bases: np.ndarray, p: int) -> np.ndarray:
    """RREF bases of the orthogonal complements of a (B, k, n) stack of RREF
    bases, eliminating min(k, n - k) rows per word.

    When 2k > n the (n - k)-row kernels read off the bases are canonicalized
    by one elimination.  Otherwise the column-reversed bases are eliminated
    instead: the kernels of their RREFs, with both axes reversed, are
    already in RREF, since each kernel row of an RREF matrix has its free
    column's 1 right of every other nonzero entry.
    """
    _, k, n = bases.shape
    if 2 * k > n:
        return batch_rref(rref_null_space(bases, p), p)[0]
    kernels = rref_null_space(batch_rref(bases[:, :, ::-1], p)[0], p)
    return np.ascontiguousarray(kernels[:, ::-1, ::-1])


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


def enumerate_grassmannian(n: int, k: int, p: int) -> np.ndarray:
    """All k-dimensional subspaces of GF(p)^n as one (N, k, n) array of RREF bases.

    Writes the RREF cells directly into one preallocated array: a
    pivot-column choice plus all fillings of the free positions, so every
    basis is canonical and the output is duplicate-free by construction.
    A cell's fillings are the base-p digits of arange(p^f), most significant
    first, written one free position at a time.
    """
    check_modulus(p)
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    # The vector cap keeps n, and so the count's own cost, small; the count
    # cap bounds the output, which the vector cap alone does not.
    if p**n > ENUMERATION_GUARD:
        raise ValueError(f"p^n = {p**n} exceeds the enumeration guard ({ENUMERATION_GUARD})")
    count = gaussian_coefficient(n, k, p)
    if count > ENUMERATION_GUARD:
        raise ValueError(f"{count} subspaces exceed the enumeration guard ({ENUMERATION_GUARD})")
    out = np.zeros((count, k, n), dtype=np.int64)
    start = 0
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        f = len(free)
        cell = out[start:start + p**f]
        cell[:, range(k), pivots] = 1
        fillings = np.arange(p**f)
        for t, (i, j) in enumerate(free):
            cell[:, i, j] = mod(fillings // p ** (f - 1 - t), p)
        start += len(cell)
    return out


def _anticode_t(n: int, d: int, k: int, q: int, metric: str) -> int:
    """The t of the anticode bound [n, t]_q / [k, t]_q, after checking the
    parameters; see :func:`anticode_bound`."""
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
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}: GF(q)^n has no k-dimensional subspace")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    # q = root^e for its largest such e; q is a prime power iff that root is
    # prime.  is_prime refuses a root too large to decide.
    e = next(e for e in range(q.bit_length(), 0, -1) if _integer_root(q, e) ** e == q)
    if not is_prime(_integer_root(q, e)):
        raise ValueError(f"q={q} is not a prime power: there is no field GF({q})")
    return t


def _integer_root(x: int, e: int) -> int:
    """floor(x^(1/e)) for x >= 1, by integer Newton steps from above."""
    root = 1 << -(-x.bit_length() // e)
    while True:
        step = ((e - 1) * root + x // root ** (e - 1)) // e
        if step >= root:
            return root
        root = step


def anticode_bound_min_digits(n: int, d: int, k: int, q: int,
                              metric: str = "subspace") -> int:
    """A lower bound on the decimal digits of :func:`anticode_bound` with
    the same parameters, from the parameters alone, so a caller can refuse a
    bound too large to print before computing it.

    Factor by factor [n, t]_q >= q^(t (n - t)), and [k, t]_q < 4 q^(t (k - t))
    since the product of 1 / (1 - q^-j) over j >= 1 is below 3.47 for q >= 2;
    so the bound exceeds q^(t (n - k)) / 4.
    """
    t = _anticode_t(n, d, k, q, metric)
    # Capping the exponent keeps the float product finite and only lowers
    # the bound; the relative margin covers its rounding.
    exponent = min(t * (n - k), 1 << 60)
    return max(1, math.floor(exponent * math.log10(q) * (1 - 1e-9) - math.log10(4)) + 1)


def anticode_bound(n: int, d: int, k: int, q: int, metric: str = "subspace") -> int:
    """Upper bound on the size of a constant-dimension code, as a quotient
    of Gaussian coefficients (checked to divide exactly).

    For the subspace metric d must be even, d = 2*delta + 2 with
    0 <= delta < k; for the injection metric 1 <= d <= k.  Always k <= n,
    and q is a prime power, the size of a field.
    """
    t = _anticode_t(n, d, k, q, metric)
    num = gaussian_coefficient(n, t, q)
    den = gaussian_coefficient(k, t, q)
    if num % den:
        raise ArithmeticError("anticode bound quotient is not an integer")
    return num // den


def _array_template(shape: tuple, newline: str, entry: str = "%d") -> str:
    """The stdlib's text of a nested int list of this shape, with ``entry``
    for each entry: ``indent=2`` text whose brackets sit after ``newline``
    ("\\n" and their indentation), or with ``newline`` "" text with no
    whitespace at all."""
    if not shape:
        return entry
    if not shape[0]:
        return "[]"
    inner = newline and newline + "  "
    item = inner + _array_template(shape[1:], inner, entry)
    return "[" + ",".join([item] * shape[0]) + newline + "]"


def dumps_with_array(payload: dict, key: str, array: np.ndarray) -> str:
    """``json.dumps({**payload, key: array.tolist()}, sort_keys=True,
    indent=2) + "\\n"`` for an int array, without the stdlib's per-integer
    Python encoder.

    The header is encoded with 0 in place of the array.  Its line
    ``\\n  "<key>": 0`` occurs once: encoded strings hold no raw newline and
    only top-level keys sit two spaces in.  The array's text depends only on
    its shape, so it is one ``%d`` template filled with all entries at once.
    """
    line = f"\n  {json.dumps(key)}: "
    head, found, tail = json.dumps({**payload, key: 0}, sort_keys=True,
                                   indent=2).partition(line + "0")
    assert found, "the placeholder line is missing"
    body = _array_template(array.shape, "\n  ") % tuple(array.ravel().tolist())
    # One join: chained + would hold two partial copies of the text at once.
    return "".join((head, line, body, tail, "\n"))


# numpy 1.x arrays have at most 32 axes.
_MAX_RANK = 32
_DIGITS_AS_0 = bytes.maketrans(b"0123456789", b"0" * 10)


def loads_with_array(text: str, key: str):
    """``json.loads(text)``, with the top-level ``key``'s value an int64
    array instead of nested lists when :func:`_scan_digit_array` reads it:
    the inverse of :func:`dumps_with_array` for entries 0-9, as in every
    code file over GF(p) with p <= 7.

    The value's text is taken from the colon after the last ``"<key>"`` to
    the last "]", where only whitespace may sit between that name and the
    colon.  The rest of the document goes to json.loads with ``NaN`` in its
    place, and a hook answers every JSON constant with a sentinel and counts
    them.  If json accepted that document, the name's last quote closed a
    string, so the colon after it is the one after a key and ``NaN`` is a
    value.  If further the hook ran once and the sentinel is the key's
    value, the text was that key's last value in the top-level object: a
    nested key, an earlier duplicate and a second constant all fail this.
    Any other text takes ``json.loads(text)``, with its result or its error.
    """
    name = json.dumps(key)
    found = text.rfind(name)
    colon = text.find(":", found + len(name)) if found >= 0 else -1
    keyed = colon > 0 and not text[found + len(name):colon].strip(" \t\n\r")
    start = colon + 1 if keyed else 0
    end = text.rfind("]") + 1
    array = _scan_digit_array(text, start, end) if 0 < start < end else None
    if array is not None:
        sentinel, constants = object(), []

        def constant(literal):
            constants.append(literal)
            return sentinel

        try:
            data = json.loads(text[:start] + "NaN" + text[end:], parse_constant=constant)
        except (ValueError, RecursionError):
            data = None
        if len(constants) == 1 and isinstance(data, dict) and data.get(key) is sentinel:
            data[key] = array
            return data
    return json.loads(text)


def _scan_digit_array(text: str, start: int, end: int) -> np.ndarray | None:
    """The int64 array that ``text[start:end]`` writes in JSON, if that text
    is a nonempty regular nested list of at most 32 axes whose entries are
    the digits 0-9, with only JSON whitespace; else None.

    The shape is read off the first item of each axis.  With the whitespace
    dropped and every digit as 0, the text must then be that shape's
    :func:`_array_template` with entry "0": one digit per entry and nothing
    else.  The digits, in order, are the entries.
    """
    chars = text[start:end].encode().translate(None, b" \t\n\r")
    rank = len(chars) - len(chars.lstrip(b"["))
    if not 0 < rank <= _MAX_RANK:
        return None
    # The first item of axis rank - depth ends at the first run of depth
    # "]"s; the commas before it give that axis's length.
    shape, commas = (), 0
    for depth in range(1, rank + 1):
        close = chars.find(b"]" * depth) if depth < rank else len(chars)
        total = chars.count(b",", 0, close) if close >= 0 else -1
        length, rest = divmod(total + 1, commas + 1)
        if length < 1 or rest:
            return None
        shape, commas = (length,) + shape, total
    # The template holds a digit per entry, a comma between two items and
    # two brackets per list; checking its length first keeps a misread
    # shape's template from outgrowing the text.
    entries, lists = math.prod(shape), sum(math.prod(shape[:j]) for j in range(rank))
    if (len(chars) != 2 * (entries + lists) - 1
            or chars.translate(_DIGITS_AS_0) != _array_template(shape, "", "0").encode()):
        return None
    values = np.frombuffer(chars.translate(None, b"[],"), np.uint8).astype(np.int64)
    values -= ord("0")
    return values.reshape(shape)


class GrassmannianCode:
    """A constant-dimension code: distinct k-dimensional subspaces of GF(p)^n.

    ``words`` is one read-only (M, k, n) int64 array, each word its RREF
    basis with no zero row; the constructor refuses any other stack and
    duplicate words.  ``d`` is read off the one pair scan (intersection_dims):
    2(k - the largest pair intersection) once it has run, else None, as for
    M < 2.  ``provenance`` is a free-form descriptor of how the code was
    built, including the parameters it claims.
    """

    def __init__(self, words, p: int, provenance: dict | None = None):
        check_modulus(p)
        if not len(words):
            raise ValueError("a code needs at least one word")
        words = mod(int_array(words, 3), p)
        _require_rref(words)
        if has_duplicates(words):
            raise ValueError("duplicate words")
        words.setflags(write=False)
        self.words, self.p = words, int(p)
        _, self.k, self.n = words.shape
        self.provenance = dict(provenance or {})
        self._inters = None

    @property
    def M(self) -> int:
        return len(self.words)

    @property
    def d(self) -> int | None:
        if self._inters is None or self.M < 2:
            return None
        return 2 * (self.k - int(self._inters.max()))

    def intersection_dims(self, pair_guard: int = PAIR_GUARD) -> np.ndarray:
        """Intersection dimensions of all word pairs (triu order), scanned once
        by :func:`pairwise_intersection_dims` under ``pair_guard``; later calls reuse it."""
        if self._inters is None:
            self._inters = pairwise_intersection_dims(self.words, self.p, pair_guard)
            self._inters.setflags(write=False)
        return self._inters

    def summary(self) -> str:
        d = self.d
        return f"n={self.n} M={self.M} d={'?' if d is None else d} k={self.k} q={self.p}"

    def _header(self) -> dict:
        return {"p": self.p, "n": self.n, "k": self.k, "provenance": self.provenance}

    def to_dict(self) -> dict:
        return {**self._header(), "words": self.words.tolist()}

    def to_json(self) -> str:
        """The code file: to_dict() as sorted, 2-space-indented JSON."""
        return dumps_with_array(self._header(), "words", self.words)

    @classmethod
    def from_dict(cls, data: dict) -> "GrassmannianCode":
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict) or not isinstance(provenance.get("claimed", {}), dict):
            raise ValueError("provenance and its claimed parameters must be JSON objects")
        code = cls(data["words"], data["p"], provenance=provenance)
        if (code.n, code.k) != (data["n"], data["k"]):
            raise ValueError("words do not match the declared (n, k)")
        if {type(data["n"]), type(data["k"])} != {int}:  # 4.0 == 4 and true == 1
            raise ValueError(f"declared n and k must be integers, got {data['n']!r}, {data['k']!r}")
        return code

    def __repr__(self):
        return f"GrassmannianCode({self.summary()})"


def pairwise_intersection_dims(bases: np.ndarray, p: int,
                               pair_guard: int = PAIR_GUARD) -> np.ndarray:
    """Intersection dimensions over all unordered pairs of a (M, k, n) stack
    of RREF bases (flat array in triu order, smallest unsigned dtype holding
    k; empty when M < 2).

    One rule: scan the side of dimension h = min(k, n - k), the words when
    2k <= n, else their duals (:func:`dual_bases`) with 2k - n added, since
    (A+B)^perp = A^perp n B^perp.  When that side's M (p^h-1)/(p-1) points
    are no more than the M(M-1)/2 pairs, the point scan (:func:`_point_scan`)
    reads each pair's dimension off shared points at a cost growing with M;
    otherwise the one-vs-all reduction (:func:`_reduction_scan`) ranks each
    pair.  With h = 0 (k = 0 or k = n) every pair meets in dimension k.
    """
    m, k, n = bases.shape
    npairs = m * (m - 1) // 2
    if npairs > pair_guard:
        raise ValueError(
            f"{npairs} pairs exceed the guard ({pair_guard}); raise it to force the scan"
        )
    h = min(k, n - k)
    if m < 2 or h == 0:
        return np.full(npairs, k, dtype=np.min_scalar_type(k))
    side = bases if h == k else dual_bases(bases, p)
    scan = _point_scan if m * _point_count(h, p) <= npairs else _reduction_scan
    return np.add(scan(side, p), k - h, dtype=np.min_scalar_type(k))


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
            mod(acc, p, out=acc)
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
    F of A_i, and dim(A_i n B_j) = k - rank(R_j).  R_j is a k x (n - k)
    stack for :func:`batch_rank`; the dispatcher passes only k <= n - k.
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
            mod(reduced, p, out=reduced)
        out[start:start + len(later)] = k - batch_rank(reduced, p)
        start += len(later)
    return out


def min_subspace_distance(code: GrassmannianCode) -> int:
    """Minimum subspace distance, code.d; an unscanned code is scanned under the
    default guard (scan first with code.intersection_dims(guard) to raise it)."""
    if code.M < 2:
        raise ValueError("minimum distance needs at least two words")
    code.intersection_dims()
    return code.d


def code_params(code: GrassmannianCode) -> tuple[int, int, int, int]:
    """(n, M, d, k) with d from :func:`min_subspace_distance`; the constructor
    has already checked that the M words are distinct."""
    return (code.n, code.M, min_subspace_distance(code), code.k)


def lift_code(code: RankMetricCode) -> GrassmannianCode:
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
        d = min_subspace_distance(lifted)
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
    blocks = _blocks(p, variant)
    images = [_image_words(blocks, i) for i in range(1, r + 1)]
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
    code.intersection_dims(pair_guard)
    if code.d != 4:
        raise RuntimeError(f"minimum distance {code.d} != 4")
    return code


def dual_code(code: GrassmannianCode, pair_guard: int = PAIR_GUARD) -> GrassmannianCode:
    """Orthogonal complements of every word, distance recomputed pairwise.

    Size is preserved and dimension becomes n - k; the dual is scanned under
    ``pair_guard`` and must match the original's distance if that was scanned.
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
    out.intersection_dims(pair_guard)
    if code.d is not None and out.d != code.d:
        raise RuntimeError(f"dual distance {out.d} != original {code.d}")
    return out
