"""Intersection graphs of constant-dimension codes, with DOT and CSV export.

Vertices are the codewords in the code's own order; two vertices are
adjacent exactly when the subspaces meet only in zero.  For the optimal
codes built by this package the graph is complete.  A graph is held as its
vertices' (M, k, n) basis array and a symmetric boolean adjacency matrix
with a false diagonal; the writers read the matrix row by row, with no
per-edge objects.
"""

from __future__ import annotations

import json

import numpy as np

from .codes import PAIR_GUARD
from .grassmann import GrassmannianCode

# DOT labels write each basis entry as one hex digit.
LABEL_MAX_P = 16


class CodeGraph:
    """Simple graph on indexed subspaces of GF(p)^n, given as a (M, k, n)
    stack of RREF bases and an (M, M) boolean adjacency matrix, which must be
    symmetric with no loops."""

    def __init__(self, vertices: np.ndarray, p: int, adjacency):
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


def intersection_graph(code: GrassmannianCode,
                       pair_guard: int = PAIR_GUARD) -> CodeGraph:
    """Graph with an edge {i, j} iff words i and j intersect trivially."""
    adjacency = np.zeros((code.M, code.M), dtype=bool)
    adjacency[np.triu_indices(code.M, 1)] = code.intersection_dims(pair_guard) == 0
    adjacency |= adjacency.T
    return CodeGraph(code.words, code.p, adjacency)


def is_complete(graph: CodeGraph) -> bool:
    """True iff every distinct vertex pair is an edge."""
    m = graph.n_vertices
    return graph.n_edges == m * (m - 1) // 2


def degree_sequence(graph: CodeGraph) -> list[int]:
    """Edge count per vertex, in vertex order."""
    return graph.adjacency.sum(axis=1).tolist()


def to_dot(graph: CodeGraph) -> str:
    """DOT description: one labelled node per vertex (its index and its basis
    entries as hex digits), one line per edge {i, j}, i < j, in row order.
    Each index is formatted once; a row's edge lines are one join."""
    if graph.p > LABEL_MAX_P:
        raise ValueError(f"digit labels support p <= {LABEL_MAX_P}")
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    labels = digits[graph.vertices.reshape(graph.n_vertices, -1)]
    names = [str(i) for i in range(graph.n_vertices)]
    parts = ["graph Gamma {\n"]
    parts += [f'  {i} [label="{i}:{label.tobytes().decode()}"];\n'
              for i, label in zip(names, labels)]
    for i, row in zip(names, np.triu(graph.adjacency)):
        later = np.flatnonzero(row).tolist()
        if later:
            head = f"  {i} -- "
            parts.append(head + f";\n{head}".join([names[j] for j in later]) + ";\n")
    parts.append("}\n")
    return "".join(parts)


def vertex_sidecar_json(graph: CodeGraph) -> str:
    """Full RREF bases for the compact DOT labels, as JSON."""
    _, k, n = graph.vertices.shape
    payload = {"p": graph.p, "n": n, "k": k, "vertices": graph.vertices.tolist()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def adjacency_matrix(graph: CodeGraph) -> np.ndarray:
    return graph.adjacency.astype(np.int64)


def adjacency_csv(graph: CodeGraph) -> str:
    """One line of 0/1 entries per vertex, written as one character buffer."""
    m = graph.n_vertices
    buf = np.full((m, 2 * m), ord(","), dtype=np.uint8)
    buf[:, 0::2] = graph.adjacency + ord("0")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode("ascii")
