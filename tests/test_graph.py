import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasslift.grassmann import (GrassmannianCode, anticode_optimal_code,
                                 enumerate_grassmannian, span)
from grasslift import graph as graph_module
from grasslift.graph import (
    CodeGraph,
    adjacency_csv,
    adjacency_csv_blocks,
    adjacency_matrix,
    degree_sequence,
    dot_blocks,
    intersection_graph,
    is_complete,
    to_dot,
    vertex_sidecar_json,
)

from oracles import (
    reference_adjacency,
    reference_adjacency_csv,
    reference_dumps_with_array,
    reference_intersection_dims,
    reference_to_dot,
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


@pytest.mark.parametrize("vertices, p, match", [
    ([[[1, 0, -1, 0]]], 2, r"\[0, 2\)"),  # was labelled "f"
    ([[[1, 0, 5, 0]]], 2, r"\[0, 2\)"),   # was labelled "5"
    ([[[0, 0, 3, 0]]], 3, r"\[0, 3\)"),
    ([[[1, 0, 0, 0]]], 16, "not prime"),
    ([[[1, 0, 0, 0]]], True, "integer"),
    ([[1, 0, 0, 0]], 2, "3-D"),
    ([[[1.0, 0, 0, 0]]], 2, "integers"),
])
def test_code_graph_refuses_vertices_outside_the_field(vertices, p, match):
    with pytest.raises(ValueError, match=match):
        CodeGraph(vertices, p, np.zeros((len(vertices), len(vertices)), dtype=bool))


def test_dot_writer_refuses_p_above_label_range_when_called():
    g = CodeGraph(np.zeros((1, 1, 2), dtype=np.int64), 17, np.zeros((1, 1), dtype=bool))
    with pytest.raises(ValueError, match="p <= 16"):
        dot_blocks(g)
    with pytest.raises(ValueError, match="p <= 16"):
        to_dot(g)


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


@pytest.mark.parametrize("p, r", [(2, 1), (2, 3), (3, 2), (13, 1), (17, 1)])
def test_sidecar_is_the_stdlib_encoding(p, r):
    code = anticode_optimal_code(p, r, "O")
    g = intersection_graph(code)
    header = {"p": p, "n": code.n, "k": code.k}
    assert vertex_sidecar_json(g) == reference_dumps_with_array(header, "vertices", code.words)


def random_graph(rng, m, p, density):
    """A CodeGraph on m random (2, 4) vertices over GF(p): a random upper
    triangle in which about a tenth of the rows have no later neighbour and
    about a tenth of the vertices are isolated."""
    upper = np.triu(rng.random((m, m)) < density, 1)
    upper[rng.random(m) < 0.1] = False
    isolated = rng.random(m) < 0.1
    upper[isolated] = False
    upper[:, isolated] = False
    vertices = rng.integers(0, p, size=(m, 2, 4))
    return CodeGraph(vertices, p, upper | upper.T)


# M crosses 10, 100 and 1000, where vertex names gain a digit.  The writers'
# blocks hold one part or row each (BLOCK of 1 or 2 bytes), a few (M + 1), or
# the whole file.
@pytest.mark.parametrize("m", [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_dot_matches_the_per_row_formula(m, monkeypatch):
    rng = np.random.default_rng(m)
    graphs = [random_graph(rng, m, p, density)
              for p, density in ((2, 0.0), (11, 0.05), (3, 0.5), (13, 1.0))]
    graphs.append(CodeGraph(graphs[-1].vertices, graphs[-1].p, ~np.eye(m, dtype=bool)))
    expected = [(reference_to_dot(g), reference_adjacency_csv(g)) for g in graphs]
    for block in (1, 2, m + 1, 1 << 40):
        monkeypatch.setattr(graph_module, "BLOCK", block)
        for g, (dot, csv_text) in zip(graphs, expected):
            assert to_dot(g) == dot
            assert adjacency_csv(g) == csv_text
            dot_parts, csv_parts = list(dot_blocks(g)), list(adjacency_csv_blocks(g))
            # Every block but the last reaches BLOCK, and blocks are whole lines.
            assert all(len(b) >= block for b in dot_parts[:-1] + csv_parts[:-1])
            assert all(b.endswith(b"\n") for b in dot_parts + csv_parts)
            if block > len(dot):
                assert len(dot_parts) == len(csv_parts) == 1


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 40), p=st.sampled_from([2, 3, 11, 13]),
       density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_dot_matches_the_per_row_formula_on_small_graphs(m, p, density, seed):
    g = random_graph(np.random.default_rng(seed), m, p, density)
    assert to_dot(g) == reference_to_dot(g)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), space=st.sampled_from([(4, 2, 3), (5, 2, 2), (4, 1, 2)]))
def test_intersection_graph_matches_the_triu_indices_construction(data, space):
    n, k, p = space
    planes = enumerate_grassmannian(n, k, p)
    picked = data.draw(st.lists(st.integers(0, len(planes) - 1), min_size=1,
                                max_size=30, unique=True), label="picked")
    code = GrassmannianCode(planes[picked], p)
    expected = reference_adjacency(code.M, reference_intersection_dims(list(code.words), p))
    assert np.array_equal(intersection_graph(code).adjacency, expected)


@pytest.mark.parametrize("p, r", [(2, 2), (2, 4), (3, 3), (7, 1)])
def test_intersection_graph_of_optimal_codes_matches_the_triu_indices_construction(p, r):
    code = anticode_optimal_code(p, r, "O")
    expected = reference_adjacency(code.M, code.intersection_dims())
    assert np.array_equal(intersection_graph(code).adjacency, expected)


def test_intersection_graph_peak_memory_is_within_three_matrices():
    # Rows are filled from slices of the scan and mirrored once; no M x M
    # mask or index array is built.  M = 1,365 at (2, 5).
    code = anticode_optimal_code(2, 5, "O")  # scanned here, outside the trace
    tracemalloc.start()
    graph = intersection_graph(code)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3 * graph.adjacency.nbytes
