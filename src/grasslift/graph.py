"""Intersection graphs of constant-dimension codes, with DOT and CSV export.

Vertices are the codewords in the code's own order; two vertices are
adjacent exactly when the subspaces meet only in zero.  For the optimal
codes built by this package the graph is complete.  A graph is held as its
vertices' (M, k, n) basis array and a symmetric boolean adjacency matrix
with a false diagonal, its upper triangle filled row by row from slices of
the pair scan and mirrored.  The DOT and CSV writers are generators of ASCII
byte blocks of whole lines, about BLOCK bytes each, which a caller writes
straight to a binary file, so no whole-file text exists: the DOT writer
gathers each row's later neighbours from an array of vertex names by the
row's mask and joins them, and the CSV writer fills one character buffer
per block of rows.  The JSON sidecar fills one ``%d`` template of its basis
array's shape (dumps_with_array), byte for byte the stdlib's sorted
2-space-indented encoding.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from .gf import check_modulus
from .grassmann import GrassmannianCode, dumps_with_array
from .matfp import int_array

# DOT labels write each basis entry as one hex digit.
LABEL_MAX_P = 16
DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# Bytes per block of the DOT and CSV writers: every block but the last is
# the fewest whole lines that reach BLOCK, so writes are few and large while
# no block nears the size of a large graph's file.
BLOCK = 1 << 18


class CodeGraph:
    """Simple graph on indexed subspaces of GF(p)^n, given as a (M, k, n)
    stack of RREF bases and an (M, M) boolean adjacency matrix, which must be
    symmetric with no loops.  Basis entries must be integers in [0, p)."""

    def __init__(self, vertices: np.ndarray, p: int, adjacency):
        check_modulus(p)
        vertices = int_array(vertices, 3)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= p):
            raise ValueError(f"vertex entries must lie in [0, {p})")
        m = len(vertices)
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.shape != (m, m):
            raise ValueError(f"adjacency shape {adjacency.shape} != ({m}, {m})")
        if adjacency.diagonal().any():
            raise ValueError("loops are not allowed")
        if (adjacency != adjacency.T).any():
            raise ValueError("adjacency matrix is not symmetric")
        self.vertices, self.p, self.adjacency = vertices, p, adjacency

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def __repr__(self):
        return f"CodeGraph(vertices={self.n_vertices}, edges={self.n_edges})"


def intersection_graph(code: GrassmannianCode) -> CodeGraph:
    """Graph with an edge {i, j} iff words i and j intersect trivially, read
    off the code's pair scan (GrassmannianCode.intersection_dims)."""
    trivial = code.intersection_dims() == 0
    m = code.M
    adjacency = np.zeros((m, m), dtype=bool)
    # In triu order row i's later pairs are the next m - 1 - i of the scan.
    start = 0
    for i in range(m - 1):
        adjacency[i, i + 1:] = trivial[start:start + m - 1 - i]
        start += m - 1 - i
    adjacency |= adjacency.T
    return CodeGraph(code.words, code.p, adjacency)


def is_complete(graph: CodeGraph) -> bool:
    """True iff every distinct vertex pair is an edge."""
    m = graph.n_vertices
    return graph.n_edges == m * (m - 1) // 2


def degree_sequence(graph: CodeGraph) -> list[int]:
    """Edge count per vertex, in vertex order."""
    return graph.adjacency.sum(axis=1).tolist()


def _grouped(parts: Iterable[bytes]) -> Iterator[bytes]:
    """Join consecutive byte strings into blocks of at least BLOCK bytes;
    the last block may be shorter."""
    block, size = [], 0
    for part in parts:
        block.append(part)
        size += len(part)
        if size >= BLOCK:
            yield b"".join(block)
            block, size = [], 0
    if block:
        yield b"".join(block)


def _edge_rows(graph: CodeGraph, names: np.ndarray) -> Iterator[bytes]:
    """Each row's edge lines to its later neighbours, gathered from the name
    array by the row's mask and joined once."""
    for i, (name, row) in enumerate(zip(names, graph.adjacency)):
        later = names[i + 1:][row[i + 1:]].tolist()
        if later:
            head = b"  %s -- " % name
            yield head + (b";\n" + head).join(later) + b";\n"


def dot_blocks(graph: CodeGraph) -> Iterator[bytes]:
    """DOT description as ASCII byte blocks of whole lines: one labelled node
    per vertex (its index and its basis entries as hex digits), one line per
    edge {i, j}, i < j, in row order.  Refuses p > LABEL_MAX_P when called,
    before any block is asked for."""
    if graph.p > LABEL_MAX_P:
        raise ValueError(f"digit labels support p <= {LABEL_MAX_P}")
    names = np.array([b"%d" % i for i in range(graph.n_vertices)], dtype=object)
    nodes = (b'  %s [label="%s:%s"];\n' % (name, name, label.tobytes())
             for name, label in zip(names, DIGITS[graph.vertices]))
    return _grouped(itertools.chain([b"graph Gamma {\n"], nodes,
                                    _edge_rows(graph, names), [b"}\n"]))


def to_dot(graph: CodeGraph) -> str:
    """The DOT text of dot_blocks."""
    return b"".join(dot_blocks(graph)).decode("ascii")


def vertex_sidecar_json(graph: CodeGraph) -> str:
    """Full RREF bases for the compact DOT labels, as JSON."""
    _, k, n = graph.vertices.shape
    return dumps_with_array({"p": graph.p, "n": n, "k": k}, "vertices", graph.vertices)


def adjacency_matrix(graph: CodeGraph) -> np.ndarray:
    return graph.adjacency.astype(np.int64)


def adjacency_csv_blocks(graph: CodeGraph) -> Iterator[bytes]:
    """One line of 0/1 entries per vertex, as ASCII byte blocks of whole
    rows, each written as one character buffer."""
    m = graph.n_vertices
    rows = -(-BLOCK // (2 * m or 1))
    for start in range(0, m, rows):
        block = graph.adjacency[start:start + rows]
        buf = np.full((len(block), 2 * m), ord(","), dtype=np.uint8)
        buf[:, 0::2] = block.view(np.uint8) + ord("0")
        buf[:, -1] = ord("\n")
        yield buf.tobytes()


def adjacency_csv(graph: CodeGraph) -> str:
    """The CSV text of adjacency_csv_blocks."""
    return b"".join(adjacency_csv_blocks(graph)).decode("ascii")
