"""Intersection graphs of constant-dimension codes, with DOT and CSV export.

Vertices are the codewords in the code's own order; two vertices are
adjacent exactly when the subspaces meet only in zero.  For the optimal
codes built by this package the graph is complete.
"""

from __future__ import annotations

import json

import numpy as np

from .codes import PAIR_GUARD
from .grassmann import GrassmannianCode, Subspace

# DOT labels write each basis entry as one hex digit.
LABEL_MAX_P = 16


class CodeGraph:
    """Simple graph on indexed subspaces: no loops, unordered edges."""

    def __init__(self, vertices, edges):
        self.vertices: tuple[Subspace, ...] = tuple(vertices)
        canon = set()
        for i, j in edges:
            if i == j:
                raise ValueError("loops are not allowed")
            if not (0 <= i < len(self.vertices) and 0 <= j < len(self.vertices)):
                raise ValueError(f"edge ({i}, {j}) out of range")
            canon.add((min(i, j), max(i, j)))
        self.edges: frozenset[tuple[int, int]] = frozenset(canon)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"CodeGraph(vertices={self.n_vertices}, edges={self.n_edges})"


def intersection_graph(code: GrassmannianCode,
                       pair_guard: int = PAIR_GUARD) -> CodeGraph:
    """Graph with an edge {i, j} iff words i and j intersect trivially."""
    m = code.M
    if m < 2:
        return CodeGraph(code.words, [])
    trivial = code.intersection_dims(pair_guard) == 0
    ii, jj = np.triu_indices(m, 1)
    return CodeGraph(code.words, zip(ii[trivial].tolist(), jj[trivial].tolist()))


def is_complete(graph: CodeGraph) -> bool:
    """True iff every distinct vertex pair is an edge."""
    m = graph.n_vertices
    return graph.n_edges == m * (m - 1) // 2


def degree_sequence(graph: CodeGraph) -> list[int]:
    """Edge count per vertex, in vertex order."""
    deg = [0] * graph.n_vertices
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def _label(index: int, subspace: Subspace) -> str:
    if subspace.p > LABEL_MAX_P:
        raise ValueError(f"digit labels support p <= {LABEL_MAX_P}")
    digits = "".join(format(int(x), "x") for x in subspace.basis.array.ravel())
    return f"{index}:{digits}"


def to_dot(graph: CodeGraph) -> str:
    """DOT description: one labelled node per vertex, one line per edge."""
    lines = ["graph Gamma {"]
    for i, w in enumerate(graph.vertices):
        lines.append(f'  {i} [label="{_label(i, w)}"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def vertex_sidecar_json(graph: CodeGraph) -> str:
    """Full RREF bases for the compact DOT labels, as JSON."""
    payload = {
        "p": graph.vertices[0].p,
        "n": graph.vertices[0].n,
        "k": graph.vertices[0].dim,
        "vertices": [w.to_lists() for w in graph.vertices],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def adjacency_matrix(graph: CodeGraph) -> np.ndarray:
    m = graph.n_vertices
    adj = np.zeros((m, m), dtype=np.int64)
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = 1
    return adj


def adjacency_csv(graph: CodeGraph) -> str:
    adj = adjacency_matrix(graph)
    return "\n".join(",".join(str(int(x)) for x in row) for row in adj) + "\n"
