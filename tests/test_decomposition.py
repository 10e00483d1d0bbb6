import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmax import (
    CapacityError,
    ConsistencyError,
    FormatError,
    Graph,
    HierarchyTree,
    build_bisection,
    build_jaccard,
    build_random_edge,
    build_random_pair,
    dasgupta_cost,
    gen_gnm,
    read_tree,
    tree_from_nested,
    write_tree,
)

BUILDERS = {
    "random-pair": lambda g: build_random_pair(g, 17),
    "random-edge": lambda g: build_random_edge(g, 17),
    "jaccard": build_jaccard,
    "bisection": lambda g: build_bisection(g, 17),
}


def _check_valid(tree, n):
    assert tree.n_leaves == n
    assert tree.node_count == 2 * n - 1
    assert tree.leaf_set(tree.root) == frozenset(range(n))
    for node in range(tree.node_count):
        if tree.is_leaf(node):
            assert tree.size(node) == 1
        else:
            l, r = tree.left(node), tree.right(node)
            assert tree.parent(l) == node and tree.parent(r) == node
            assert tree.size(node) == tree.size(l) + tree.size(r)
            assert not (tree.leaf_set(l) & tree.leaf_set(r))


# ---------------------------------------------------------------- tree type


def test_nested_literal():
    tree = tree_from_nested(((0, 1), 2))
    _check_valid(tree, 3)
    assert tree.leaf_set(tree.left(tree.root)) == {0, 1}
    assert tree.leaf_set(tree.right(tree.root)) == {2}


def test_single_leaf_tree():
    tree = tree_from_nested(0)
    assert tree.n_leaves == 1
    assert tree.is_leaf(tree.root)


def test_nested_deeper_than_recursion_limit():
    # caterpillar (((0, 1), 2), ..., 1499): internal nodes 0..1498 down the
    # spine in preorder, then leaf 0, then leaf v as the right child of 1499 - v
    spec = 0
    for v in range(1, 1500):
        spec = (spec, v)
    tree = tree_from_nested(spec)
    _check_valid(tree, 1500)
    assert tree.tree_height == 1499
    assert tree.leaf_of_vertex(0) == 1499
    for v in (1, 2, 1499):
        assert tree.leaf_of_vertex(v) == 1499 + v
        assert tree.parent(1499 + v) == 1499 - v


def test_lca_and_sizes():
    tree = tree_from_nested((((0, 1), (2, 3)), (4, 5)))
    la = tree.leaf_of_vertex
    anc = tree.lca(np.array([la(0), la(0), la(4)]), np.array([la(1), la(3), la(5)]))
    assert tree.size(int(anc[0])) == 2
    assert tree.size(int(anc[1])) == 4
    assert tree.size(int(anc[2])) == 2
    assert int(tree.lca(np.array([la(0)]), np.array([la(5)]))[0]) == tree.root


def test_heights():
    tree = tree_from_nested((((0, 1), 2), 3))
    assert tree.tree_height == 3
    assert tree.height(tree.root) == 3
    assert [int(x) for x in tree.nodes_at_height(0)] == sorted(
        n for n in range(7) if tree.is_leaf(n)
    )


def test_canonical_child_order():
    # children are stored with the smaller node id on the left
    tree = tree_from_nested((0, 1))
    assert tree.left(tree.root) < tree.right(tree.root)


def test_tree_equality_and_hash():
    a = tree_from_nested(((0, 1), 2))
    b = tree_from_nested(((0, 1), 2))
    c = tree_from_nested(((0, 2), 1))
    assert a == b and hash(a) == hash(b)
    assert a != c


# ---------------------------------------------------------------- builders


@pytest.mark.parametrize("name", list(BUILDERS), ids=str)
@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_builders_produce_valid_trees(name, gs):
    g = gen_gnm(14, 25, seed=gs)
    _check_valid(BUILDERS[name](g), g.n)


@pytest.mark.parametrize("name", list(BUILDERS), ids=str)
def test_builders_handle_edgeless_graph(name):
    g = Graph(6, [])
    _check_valid(BUILDERS[name](g), 6)


@pytest.mark.parametrize("name", list(BUILDERS), ids=str)
def test_builders_handle_single_vertex(name):
    g = Graph(1, [])
    t = BUILDERS[name](g)
    assert t.n_leaves == 1
    assert t == tree_from_nested(0)


def test_random_builders_reproducible():
    g = gen_gnm(20, 40, seed=9)
    assert build_random_pair(g, 3) == build_random_pair(g, 3)
    assert build_random_edge(g, 3) == build_random_edge(g, 3)
    assert build_bisection(g, 3) == build_bisection(g, 3)
    assert build_random_pair(g, 3) != build_random_pair(g, 4)


def test_random_edge_respects_path_components():
    # path a-b-c: the first merge must join an edge, never the non-edge {a,c}
    g = Graph(3, [(0, 1), (1, 2)])
    for seed in range(25):
        t = build_random_edge(g, seed)
        first = t.leaf_set(3)
        assert first in ({0, 1}, {1, 2})


def test_random_edge_merges_components_last():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for seed in range(10):
        t = build_random_edge(g, seed)
        left = t.leaf_set(t.left(t.root))
        assert left in ({0, 1, 2}, {3, 4, 5})


def test_jaccard_four_cycle_pairs_antipodes():
    # antipodal vertices share both neighbors: similarity 1 beats adjacent 1/3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    t = build_jaccard(g)
    assert t.leaf_set(4) in ({0, 2}, {1, 3})
    assert t.leaf_set(5) in ({0, 2}, {1, 3})


def test_jaccard_twins_first():
    # 3 and 4 are twins hanging off 0; tie-break picks lowest vertex pair
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    t = build_jaccard(g)
    assert t.leaf_set(5) == {3, 4}


def test_jaccard_deterministic():
    g = gen_gnm(25, 60, seed=10)
    assert build_jaccard(g) == build_jaccard(g)


def test_bisection_balances_splits():
    g = gen_gnm(16, 40, seed=11)
    t = build_bisection(g, 1)
    root = t.root
    assert t.size(t.left(root)) == 8
    assert t.size(t.right(root)) == 8
    for child in (t.left(root), t.right(root)):
        assert t.size(t.left(child)) == 4


def test_bisection_separates_power_of_two_cliques():
    # two K4s joined by one edge: the top cut should break the bridge
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a + 4, b + 4) for a, b in edges[:6]]
    edges.append((0, 4))
    g = Graph(8, edges)
    t = build_bisection(g, 5)
    assert t.leaf_set(t.left(t.root)) in ({0, 1, 2, 3}, {4, 5, 6, 7})


def test_jaccard_capacity_guard():
    g = Graph(20001, [])
    with pytest.raises(CapacityError):
        build_jaccard(g)


# ---------------------------------------------------------------- cost


def test_cost_triangle_literal():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    t = tree_from_nested(((0, 1), 2))
    assert dasgupta_cost(g, t) == 8


def test_cost_cherry():
    g = Graph(3, [(0, 1)])
    assert dasgupta_cost(g, tree_from_nested(((0, 1), 2))) == 2
    assert dasgupta_cost(g, tree_from_nested(((0, 2), 1))) == 3


def test_cost_empty_graph():
    g = Graph(4, [])
    t = tree_from_nested(((0, 1), (2, 3)))
    assert dasgupta_cost(g, t) == 0


def test_cost_mismatched_tree():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ConsistencyError):
        dasgupta_cost(g, tree_from_nested((0, 1)))


@pytest.mark.parametrize("name", list(BUILDERS), ids=str)
@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_cost_bounds(name, gs):
    # every edge pays between 2 and n leaves
    g = gen_gnm(12, 20, seed=gs)
    cost = dasgupta_cost(g, BUILDERS[name](g))
    assert 2 * g.m <= cost <= g.n * g.m


def test_cost_invariant_under_child_swap():
    g = gen_gnm(10, 18, seed=13)
    a = tree_from_nested((((0, 1), (2, 3)), ((4, 5), ((6, 7), (8, 9)))))
    b = tree_from_nested(((((8, 9), (6, 7)), (5, 4)), ((3, 2), (1, 0))))
    assert dasgupta_cost(g, a) == dasgupta_cost(g, b)


# ---------------------------------------------------------------- files


def test_round_trip(tmp_path):
    g = gen_gnm(17, 33, seed=14)
    t = build_bisection(g, 2)
    p = tmp_path / "t.tree"
    write_tree(t, p)
    assert read_tree(p) == t
    assert p.read_text().startswith("hier v1 17\n")


def test_read_rejects_bad_header(tmp_path):
    p = tmp_path / "t.tree"
    for text in ["", "hier v2 3\n", "hier v1\n", "hier v1 0\n"]:
        p.write_text(text)
        with pytest.raises(FormatError):
            read_tree(p)


def test_read_rejects_wrong_line_count(tmp_path):
    p = tmp_path / "t.tree"
    p.write_text("hier v1 2\n0 -1 -1\n1 0 0\n")
    with pytest.raises(FormatError):
        read_tree(p)


def test_read_header_alone_allocates_nothing(tmp_path):
    # 2n - 1 node lines of int64 would not fit any address space; the
    # missing node lines are reported before anything is allocated
    p = tmp_path / "t.tree"
    p.write_text(f"hier v1 {2**62}\n")
    with pytest.raises(FormatError, match="node lines"):
        read_tree(p)


def test_read_rejects_trailing_content(tmp_path):
    g = Graph(2, [(0, 1)])
    t = build_random_pair(g, 1)
    p = tmp_path / "t.tree"
    write_tree(t, p)
    p.write_text(p.read_text() + "3 0 -1\n")
    with pytest.raises(FormatError):
        read_tree(p)


def test_read_rejects_duplicate_node(tmp_path):
    p = tmp_path / "t.tree"
    p.write_text("hier v1 2\n0 -1 -1\n1 0 0\n1 0 1\n")
    with pytest.raises(FormatError):
        read_tree(p)


def test_structural_validation():
    # unary internal node: node 0 has exactly one child
    with pytest.raises(FormatError):
        HierarchyTree(np.array([-1, 0, 1, 1]), np.array([-1, -1, 0, 1]))
    # duplicate leaf vertex
    with pytest.raises(FormatError):
        HierarchyTree(np.array([-1, 0, 0]), np.array([-1, 0, 0]))
    # two roots
    with pytest.raises(FormatError):
        HierarchyTree(np.array([-1, -1, 0]), np.array([-1, 0, 1]))
    # parent cycle
    with pytest.raises(FormatError):
        HierarchyTree(np.array([1, 0, 1]), np.array([-1, 0, 1]))
