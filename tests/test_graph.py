import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmax import Graph, FormatError, gen_gnm, load_edge_list


def test_basic_construction():
    g = Graph(3, [(1, 0), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    # edges are stored with u < v in ascending order
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.neighbors(1).tolist() == [0, 2]


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_isolated_vertices_allowed():
    g = Graph(5, [(0, 1)])
    assert g.n == 5
    assert g.degree(4) == 0
    assert len(g.components()) == 4


def test_components_sorted():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = [c.tolist() for c in g.components()]
    assert sorted(map(tuple, comps)) == [(0, 1), (2, 3, 4), (5,)]


def test_components_ordered_by_smallest_vertex():
    # isolated vertices 2, 4 and 7 are components of their own
    g = Graph(8, [(3, 5), (6, 0), (5, 1)])
    assert [c.tolist() for c in g.components()] == [[0, 6], [1, 3, 5], [2], [4], [7]]


def test_load_plain_edge_list(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(p)
    assert (g.n, g.m) == (3, 2)


def test_load_remaps_first_appearance(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n5 7\n7 9\n")
    g = load_edge_list(p)
    assert (g.n, g.m) == (3, 2)
    assert g.original_id(0) == 5
    assert g.original_id(1) == 7
    assert g.original_id(2) == 9


def test_load_drops_reversed_duplicates(tmp_path):
    # SNAP dumps often list both directions; keep one undirected edge
    p = tmp_path / "g.txt"
    p.write_text("5 7\n7 5\n")
    g = load_edge_list(p)
    assert (g.n, g.m) == (2, 1)


def test_nodes_header_fixes_count_and_ids(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# nodes: 6\n0 3\n")
    g = load_edge_list(p)
    assert g.n == 6
    # header keeps canonical ids: vertex 3 stays 3
    assert g.degree(3) == 1
    assert g.original_id(3) == 3


def test_bad_lines_rejected(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 2\n")
    with pytest.raises(FormatError):
        load_edge_list(p)
    p.write_text("a b\n")
    with pytest.raises(FormatError):
        load_edge_list(p)
    p.write_text("")
    with pytest.raises(FormatError):
        load_edge_list(p)


def test_write_read_round_trip(tmp_path):
    g = gen_gnm(12, 20, seed=3)
    p = tmp_path / "g.txt"
    g.write(p)
    text = p.read_text()
    assert text.startswith("# nodes: 12\n")
    back = load_edge_list(p)
    assert back == g
    assert back.edge_array.tolist() == g.edge_array.tolist()


def test_gen_gnm_reproducible():
    a = gen_gnm(30, 50, seed=11)
    b = gen_gnm(30, 50, seed=11)
    c = gen_gnm(30, 50, seed=12)
    assert a == b
    assert a != c


def test_gen_gnm_complete_triangle():
    g = gen_gnm(3, 3, seed=0)
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_gen_gnm_too_many_edges():
    with pytest.raises(ValueError):
        gen_gnm(4, 7, seed=0)


@given(st.integers(2, 25), st.data())
@settings(max_examples=40, deadline=None)
def test_gen_gnm_invariants(n, data):
    max_m = n * (n - 1) // 2
    m = data.draw(st.integers(0, min(max_m, 40)))
    seed = data.draw(st.integers(0, 2**32))
    g = gen_gnm(n, m, seed)
    assert g.m == m
    edges = g.edge_array
    if m:
        assert (edges[:, 0] < edges[:, 1]).all()
        # simple: no repeated pairs
        assert len({tuple(e) for e in edges.tolist()}) == m
    assert int(g.degrees.sum()) == 2 * m
    assert not g.degrees.flags.writeable
    adjacency = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v in range(n):
        nbrs = g.neighbors(v)
        assert nbrs.tolist() == sorted(adjacency[v])
        assert not nbrs.flags.writeable
