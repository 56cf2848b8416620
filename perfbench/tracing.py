"""Span tracer for the benchmark's traced passes.

Spans are recorded from the benchmark's own files: ``Tracer.install`` wraps
public functions and methods of the ``grasslift`` modules for the duration
of a traced pass and ``uninstall`` restores them, so untraced passes run the
library untouched.  A function wrapper is placed at every module attribute
that holds the original object, which covers names a caller imported with
``from .matfp import batch_rank``.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory; the worker writes them out when
it exits.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("gf", "matfp", "codes", "grassmann", "graph", "cli")


def _rows_label(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return f"matfp.batch_rank.rows{shape[1]}" if len(shape) == 3 else "matfp.batch_rank"


def _batch_rank_counts(args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    if len(shape) != 3:
        return ()
    b, r, c = shape
    # bytes_in is computed from the stack shape (int64 entries), not measured.
    return (("stacks", b), ("bytes_in", b * r * c * 8))


def _word_pairs(args, kwargs, result):
    m = len(args[0])
    return (("pairs", m * (m - 1) // 2),)


def _min_rank_pairs(args, kwargs, result):
    # Pairs the call is asked to scan: all of them under the guard, else the
    # seeded sample (see codes.min_rank_distance).
    from grasslift import codes

    m = len(args[0].words)
    npairs = m * (m - 1) // 2
    guard = kwargs.get("pair_guard", args[1] if len(args) > 1 else codes.PAIR_GUARD)
    sample = kwargs.get("sample_pairs", codes.DEFAULT_SAMPLE_PAIRS)
    return (("pairs", npairs if npairs <= guard else sample),)


def _result_words(args, kwargs, result):
    return (("words", len(result)),)


def _image_words(args, kwargs, result):
    return (("words", sum(result.values())),)


# (module, attribute, metric label or a function of the call giving one,
#  function of the call giving extra counts).  Every name the benchmark
# reports is here, plus the other library calls the CLI makes, so that
# cli.<command>.self_s is left with JSON, file I/O and report rendering.
TARGETS = (
    ("gf", "require_construction_prime", None, None),
    ("matfp", "batch_rank", _rows_label, _batch_rank_counts),
    ("matfp", "MatrixFp.rref", "matfp.rref", None),
    ("matfp", "MatrixFp.rank", "matfp.rank", None),
    ("matfp", "MatrixFp.null_space", "matfp.null_space", None),
    ("codes", "build_image_code", None, _result_words),
    ("codes", "min_rank_distance", None, _min_rank_pairs),
    ("codes", "min_nonzero_rank", None, None),
    ("codes", "is_mrd", None, None),
    ("codes", "image_rank_counts", None, _image_words),
    ("codes", "sample_image_pair_min_rank", None, None),
    ("codes", "RankMetricCode.from_dict", None, None),
    ("grassmann", "span", None, None),
    ("grassmann", "pairwise_intersection_dims", None, _word_pairs),
    ("grassmann", "min_subspace_distance", None, None),
    ("grassmann", "code_params", None, None),
    ("grassmann", "anticode_bound", None, None),
    ("grassmann", "anticode_optimal_code", None, None),
    ("grassmann", "dual_code", None, None),
    ("grassmann", "GrassmannianCode.from_dict", None, None),
    ("grassmann", "GrassmannianCode.to_dict", None, None),
    ("graph", "intersection_graph", None, None),
    ("graph", "is_complete", None, None),
    ("graph", "degree_sequence", None, None),
    ("graph", "to_dot", None, None),
    ("graph", "vertex_sidecar_json", None, None),
    ("graph", "adjacency_csv", None, None),
)

# Classes whose constructions are counted (no span: there are too many).
OBJECT_COUNTERS = (
    ("matfp", "MatrixFp", "matfp.objects"),
    ("gf", "ExtFieldElement", "gf.ExtFieldElement.objects"),
)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, label, fn, counts=None):
        """``fn`` wrapped in a span named ``label`` (a string, or a function
        of the call's arguments that returns one)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts is not None:
                for key, n in counts(args, kwargs, result):
                    self.counts[f"{name}.{key}"] += n
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every resolvable target; names missing from the library are
        skipped, and their metrics read zero."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "grasslift" or name.startswith("grasslift.")]
        for mod_name, attr, label, counts in TARGETS:
            module = sys.modules.get(f"grasslift.{mod_name}")
            name = label or f"{mod_name}.{attr}"
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, counts))
                else:
                    new = self.wrap(name, raw, counts)
                self._set(cls, method, new)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, key in OBJECT_COUNTERS:
            cls = getattr(sys.modules.get(f"grasslift.{mod_name}"), cls_name, None)
            if cls is not None:
                self._set(cls, "__init__", self._counting_init(key, cls.__init__))

    def _counting_init(self, key: str, init):
        counts = self.counts

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        return counting_init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def summarize(spans, counts, wall: float) -> dict[str, float]:
    """Per span name: ``calls``, ``s`` (outermost spans of that name only,
    so recursion is not counted twice) and ``self_s``; per layer the summed
    self time; and the part of ``wall`` that no span covers."""
    selfs = self_times(spans)
    out: dict[str, float] = Counter()
    layer_self = Counter()
    covered = 0.0
    for (name, start, end, parent), own in zip(spans, selfs):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        layer_self[name.split(".", 1)[0]] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += end - start
        if parent < 0:
            covered += end - start
    out.update(counts)
    for layer in LAYERS:
        out[f"coverage.{layer}.self_s"] = layer_self[layer]
    out["coverage.wall_s"] = wall
    out["coverage.uncovered_s"] = wall - covered
    return out
