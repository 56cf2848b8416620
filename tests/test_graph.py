import json

import numpy as np
import pytest

from grasslift.grassmann import GrassmannianCode, anticode_optimal_code, span
from grasslift.graph import (
    CodeGraph,
    adjacency_csv,
    adjacency_matrix,
    degree_sequence,
    intersection_graph,
    is_complete,
    to_dot,
    vertex_sidecar_json,
)


def two_word_intersecting_code():
    a = span([[1, 0, 0, 0], [0, 1, 0, 0]], 2)
    b = span([[1, 0, 0, 0], [0, 0, 1, 0]], 2)
    return GrassmannianCode([a, b], 2)


def adjacency_of(m, edges):
    """The (m, m) boolean adjacency matrix of an edge list."""
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


def test_graph_counts_p2_r1():
    g = intersection_graph(anticode_optimal_code(2, 1, "O"))
    assert g.n_vertices == 5
    assert g.n_edges == 10
    assert degree_sequence(g) == [4] * 5
    assert is_complete(g)


def test_graph_counts_p2_r2():
    g = intersection_graph(anticode_optimal_code(2, 2, "O"))
    assert g.n_vertices == 21
    assert g.n_edges == 210
    assert degree_sequence(g) == [20] * 21
    assert is_complete(g)


def test_graph_counts_p3_r1():
    g = intersection_graph(anticode_optimal_code(3, 1, "O"))
    assert g.n_vertices == 10
    assert g.n_edges == 45
    assert is_complete(g)


def test_intersecting_words_have_no_edge():
    g = intersection_graph(two_word_intersecting_code())
    assert g.n_edges == 0
    assert degree_sequence(g) == [0, 0]
    assert not is_complete(g)


def test_distance_four_planes_always_complete():
    # any subset of an optimal code keeps distance 4, so its graph is complete
    code = anticode_optimal_code(2, 2, "O")
    sub = GrassmannianCode(code.words[3:9], code.p)
    assert is_complete(intersection_graph(sub))


def test_single_vertex_graph_is_complete():
    code = anticode_optimal_code(2, 1, "O")
    g = CodeGraph(code.words[:1], code.p, np.zeros((1, 1), dtype=bool))
    assert is_complete(g)
    assert degree_sequence(g) == [0]


def test_missing_edge_not_complete():
    g = intersection_graph(anticode_optimal_code(2, 1, "O"))
    adjacency = g.adjacency.copy()
    adjacency[3, 4] = adjacency[4, 3] = False
    smaller = CodeGraph(g.vertices, g.p, adjacency)
    assert not is_complete(smaller)
    assert smaller.n_edges == g.n_edges - 1


def test_edgeless_graph_degrees():
    code = anticode_optimal_code(2, 1, "O")
    g = CodeGraph(code.words[:3], code.p, np.zeros((3, 3), dtype=bool))
    assert degree_sequence(g) == [0, 0, 0]


def test_code_graph_validation():
    code = anticode_optimal_code(2, 1, "O")
    with pytest.raises(ValueError, match="loops"):
        CodeGraph(code.words, code.p, adjacency_of(5, [(1, 1)]))
    with pytest.raises(ValueError, match="shape"):
        CodeGraph(code.words, code.p, adjacency_of(6, [(0, 5)]))
    asymmetric = np.zeros((5, 5), dtype=bool)
    asymmetric[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        CodeGraph(code.words, code.p, asymmetric)
    g = CodeGraph(code.words, code.p, adjacency_of(5, [(0, 1), (1, 0), (0, 1)]))
    assert g.n_edges == 1
    g = CodeGraph(code.words, code.p, adjacency_of(5, [(3, 1), (4, 0), (1, 0), (2, 4)]))
    assert g.n_edges == 4
    assert degree_sequence(g) == [2, 2, 1, 1, 2]


def test_dot_output_exact():
    g = intersection_graph(two_word_intersecting_code())
    assert to_dot(g) == (
        "graph Gamma {\n"
        '  0 [label="0:10000100"];\n'
        '  1 [label="1:10000010"];\n'
        "}\n"
    )


def test_dot_output_exact_with_missing_edge_and_isolated_vertex():
    # Vertices 0-3 form K4 less the edge {1, 3}; vertex 4 is isolated.
    code = anticode_optimal_code(2, 1, "O")
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    g = CodeGraph(code.words, code.p, adjacency_of(5, edges))
    assert to_dot(g) == (
        "graph Gamma {\n"
        '  0 [label="0:10000100"];\n'
        '  1 [label="1:10100111"];\n'
        '  2 [label="2:10010110"];\n'
        '  3 [label="3:10110101"];\n'
        '  4 [label="4:00100001"];\n'
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "  0 -- 3;\n"
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "}\n"
    )


def test_dot_output_lists_all_edges_once():
    g = intersection_graph(anticode_optimal_code(2, 1, "O"))
    text = to_dot(g)
    assert text.startswith("graph Gamma {\n")
    assert text.count(" -- ") == 10
    assert "0 -- 1;" in text


def test_sidecar_json_round_trip():
    g = intersection_graph(anticode_optimal_code(2, 1, "O"))
    payload = json.loads(vertex_sidecar_json(g))
    assert payload["p"] == 2 and payload["n"] == 4 and payload["k"] == 2
    assert payload["vertices"] == g.vertices.tolist()


def test_adjacency_matrix_and_csv():
    g = intersection_graph(anticode_optimal_code(2, 1, "O"))
    adj = adjacency_matrix(g)
    assert adj.shape == (5, 5)
    assert (adj == adj.T).all()
    assert not adj.diagonal().any()
    assert adj.sum() == 2 * g.n_edges
    csv_text = adjacency_csv(g)
    rows = csv_text.strip().split("\n")
    assert len(rows) == 5
    assert rows[0] == "0,1,1,1,1"
    g0 = intersection_graph(two_word_intersecting_code())
    assert adjacency_csv(g0) == "0,0\n0,0\n"
    g1 = CodeGraph(g.vertices[:3], g.p, adjacency_of(3, [(2, 0)]))
    assert adjacency_csv(g1) == "0,0,1\n0,0,0\n1,0,0\n"


def test_vertices_keep_code_order():
    code = anticode_optimal_code(2, 1, "O")
    g = intersection_graph(code)
    assert np.array_equal(g.vertices, code.words)
    assert np.array_equal(
        adjacency_matrix(g), adjacency_matrix(intersection_graph(code))
    )
