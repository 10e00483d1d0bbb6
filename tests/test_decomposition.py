import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tree_helpers import leaf_set

from infmax import decomposition
from infmax._rng import DOMAIN_TREE_BISECTION, generator
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
    gen_hierarchical,
    gen_worstcase,
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
    assert leaf_set(tree, tree.root) == frozenset(range(n))
    for node in range(tree.node_count):
        if tree.is_leaf(node):
            assert tree.size(node) == 1
        else:
            l, r = tree.left(node), tree.right(node)
            assert tree.parent(l) == node and tree.parent(r) == node
            assert tree.size(node) == tree.size(l) + tree.size(r)
            assert not (leaf_set(tree, l) & leaf_set(tree, r))


# ---------------------------------------------------------------- tree type


def test_nested_literal():
    tree = tree_from_nested(((0, 1), 2))
    _check_valid(tree, 3)
    assert leaf_set(tree, tree.left(tree.root)) == {0, 1}
    assert leaf_set(tree, tree.right(tree.root)) == {2}


def test_single_leaf_tree():
    tree = tree_from_nested(0)
    assert tree.n_leaves == 1
    assert tree.is_leaf(tree.root)


def _caterpillar(n):
    """The nested spec (((0, 1), 2), ..., n - 1)."""
    spec = 0
    for v in range(1, n):
        spec = (spec, v)
    return spec


def test_nested_deeper_than_recursion_limit():
    # caterpillar (((0, 1), 2), ..., 1499): internal nodes 0..1498 down the
    # spine in preorder, then leaf 0, then leaf v as the right child of 1499 - v
    tree = tree_from_nested(_caterpillar(1500))
    _check_valid(tree, 1500)
    assert tree.tree_height == 1499
    assert tree.is_leaf(1499) and tree.leaf_vertex(1499) == 0
    for v in (1, 2, 1499):
        assert tree.is_leaf(1499 + v) and tree.leaf_vertex(1499 + v) == v
        assert tree.parent(1499 + v) == 1499 - v


def test_nested_leaves_must_be_integers():
    for spec in (((0, 1.7), 2), [0, 1], ((0, "1"), 2), ((0, None), 2)):
        with pytest.raises(ValueError, match="not an integer"):
            tree_from_nested(spec)
    assert tree_from_nested(((0, np.int64(1)), 2)) == tree_from_nested(((0, 1), 2))


def test_bool_ids_are_refused():
    # numpy would read a list mixing ints and bools as int64, and True as 1
    with pytest.raises(ValueError, match="not an integer"):
        tree_from_nested(((0, True), 2))
    for parents, leaf_vertex in (([-1, 0, 0], [-1, True, False]), ([-1, True, 0], [-1, 0, 1]), ([-1, 0, 0], [-1, np.True_, 0])):
        with pytest.raises(FormatError, match="must be integers"):
            HierarchyTree(parents, leaf_vertex)
    assert HierarchyTree([-1, 0, 0], [-1, 1, 0]) == tree_from_nested((1, 0))


def test_lca_and_sizes():
    # each edge pays the leaf count of its smallest common subtree
    tree = tree_from_nested((((0, 1), (2, 3)), (4, 5)))
    edges = [(0, 1), (0, 3), (4, 5), (0, 5)]
    for edge, size in zip(edges, (2, 4, 2, 6)):
        assert dasgupta_cost(Graph(6, [edge]), tree) == size
    assert dasgupta_cost(Graph(6, edges), tree) == 14


def _balanced(lo, hi):
    """The nested spec of a balanced tree over vertices lo..hi - 1."""
    if hi - lo == 1:
        return lo
    mid = (lo + hi) // 2
    return (_balanced(lo, mid), _balanced(mid, hi))


def test_heights():
    tree = tree_from_nested((((0, 1), 2), 3))
    assert tree.tree_height == 3
    assert list(tree.nodes_at_height(0)) == sorted(n for n in range(7) if tree.is_leaf(n))
    trees = [
        tree_from_nested(_caterpillar(40)),
        tree_from_nested(_balanced(0, 37)),
        build_bisection(gen_gnm(60, 150, 3), 3),
    ]
    for tree in trees:
        groups = [tree.nodes_at_height(h) for h in range(tree.tree_height + 1)]
        height = {node: h for h, group in enumerate(groups) for node in group}
        assert sorted(height) == list(range(tree.node_count))
        assert sum(map(len, groups)) == tree.node_count  # no node in two groups
        for h, group in enumerate(groups):
            assert len(group) > 0 and list(group) == sorted(group)
        for node, h in height.items():
            assert type(node) is int and type(tree.is_leaf(node)) is bool
            if tree.is_leaf(node):
                assert h == 0 and type(tree.leaf_vertex(node)) is int
            else:
                l, r = tree.left(node), tree.right(node)
                assert h == 1 + max(height[l], height[r])
                assert {type(l), type(r), type(tree.parent(l)), type(tree.size(node))} == {int}
        for h in (-1, tree.tree_height + 1, 10**6):
            assert len(tree.nodes_at_height(h)) == 0
        assert tree.nodes_at_height(np.int64(1)) == groups[1]
        for h in (1.0, True, "1"):
            with pytest.raises(ValueError, match="not an integer"):
                tree.nodes_at_height(h)
        assert type(tree.tree_height) is type(tree.root) is type(tree.node_count) is int


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


@st.composite
def _star_or_disconnected(draw, max_n=40):
    """A star (center anywhere, possibly edgeless) or a graph whose edges stay
    inside randomly drawn blocks, so that it has several components."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        center = draw(st.integers(0, n - 1))
        leaves = draw(st.lists(st.integers(0, n - 1), unique=True))
        return Graph(n, [(center, v) for v in leaves if v != center])
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] == block[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=80)) if pairs else []
    return Graph(n, edges)


@pytest.mark.parametrize("name", list(BUILDERS), ids=str)
@given(_star_or_disconnected())
@settings(max_examples=25, deadline=None)
def test_builders_handle_stars_and_disconnected_graphs(name, g):
    _check_valid(BUILDERS[name](g), g.n)


@given(
    _star_or_disconnected(max_n=decomposition._SMALL_SPLIT).filter(lambda g: g.n >= 2)
    | st.integers(2, decomposition._SMALL_SPLIT).flatmap(
        lambda n: st.builds(gen_gnm, st.just(n), st.integers(0, min(80, n * (n - 1) // 2)), st.integers(0, 99))
    ),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_small_split_matches_array_split(g, seed):
    # the list path draws the same starts and keeps the same side, leaves
    # the stream where the array path leaves it, and restricts the same way
    A = g.csr()
    rng_a = generator(DOMAIN_TREE_BISECTION, seed)
    rng_l = generator(DOMAIN_TREE_BISECTION, seed)
    side = decomposition._bisect_once(A.indptr, A.indices, rng_a)
    ptr, nbr = A.indptr.tolist(), A.indices.tolist()
    assert decomposition._bisect_small(ptr, nbr, rng_l) == side.tolist()
    assert rng_a.integers(2**62) == rng_l.integers(2**62)
    ids = list(range(100, 100 + g.n))
    for want, keep in ((True, side), (False, ~side)):
        sub_ids, sub_ptr, sub_nbr = decomposition._restrict_small(ids, ptr, nbr, side.tolist(), want)
        sub_indptr, sub_indices = decomposition._restrict(A.indptr, A.indices, keep)
        assert sub_ids == (np.arange(100, 100 + g.n)[keep]).tolist()
        assert (sub_ptr, sub_nbr) == (sub_indptr.tolist(), sub_indices.tolist())


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
        first = leaf_set(t, 3)
        assert first in ({0, 1}, {1, 2})


def test_random_edge_merges_components_last():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for seed in range(10):
        t = build_random_edge(g, seed)
        left = leaf_set(t, t.left(t.root))
        assert left in ({0, 1, 2}, {3, 4, 5})


def test_jaccard_four_cycle_pairs_antipodes():
    # antipodal vertices share both neighbors: similarity 1 beats adjacent 1/3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    t = build_jaccard(g)
    assert leaf_set(t, 4) in ({0, 2}, {1, 3})
    assert leaf_set(t, 5) in ({0, 2}, {1, 3})


def test_jaccard_twins_first():
    # 3 and 4 are twins hanging off 0; tie-break picks lowest vertex pair
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    t = build_jaccard(g)
    assert leaf_set(t, 5) == {3, 4}


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
    assert leaf_set(t, t.left(t.root)) in ({0, 1, 2, 3}, {4, 5, 6, 7})


def _bisection_pin_graphs():
    k9 = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    return {
        # seed 4 leaves an isolated vertex, so the graph has two components
        "gnm-2000-10000": gen_gnm(2000, 10000, seed=4),
        "gnm-400-300": gen_gnm(400, 300, seed=2),
        "hier-6-15-8": gen_hierarchical(6, 15, 8, 1)[0],
        "worstcase-5": gen_worstcase(5).graph,
        "k9": Graph(9, k9),
        "two-k5": Graph(10, k5 + [(a + 5, b + 5) for a, b in k5]),
        "star": Graph(12, [(0, v) for v in range(1, 12)]),
        "path-300": Graph(300, [(v, v + 1) for v in range(299)]),
        "edgeless-9": Graph(9, []),
        # splits that straddle the small-subgraph threshold of 32 vertices
        "path-33": Graph(33, [(v, v + 1) for v in range(32)]),
        "k33": Graph(33, [(a, b) for a in range(33) for b in range(a + 1, 33)]),
        "gnm-65-150": gen_gnm(65, 150, seed=3),
        "gnm-70-40": gen_gnm(70, 40, seed=5),
        "star-40": Graph(40, [(0, v) for v in range(1, 40)]),
    }


# sha256 over (parents, leaf_vertex) bytes of the trees at seeds 1 and 20261017
_BISECTION_PINS = {
    "gnm-2000-10000": "85c605cef593287fbd364b6441fc430600c15b5c3eab762d8cc0e3e63b1e85f7",
    "gnm-400-300": "02ff1437edbcb5f425aba623746497efbd4b23322dd3920ec8be7383a6589bc9",
    "hier-6-15-8": "a13f9af07e028d857d22e8b5e22453029b34ce72141a013ac6cae021ae494622",
    "worstcase-5": "7be450f7353f55f1f2dbe4aafbcd11831336ab0dce8bc6bdc8016a328a45e9d1",
    "k9": "ef594d627d3d138fe589d298adc612a50fa763677e39fca952fd99fa2fceb560",
    "two-k5": "d0c236439b8daf3b4d1ca60df073907b3e179d481713bb99cca36bd9b183054d",
    "star": "7c98ee046ae614c3247a11765801c00033e93f28c7b341c05d765ef7c9ab7791",
    "path-300": "c5dbe9fab519f8ffca715887890425e1d20690b7acac95fe8678e75bdcba1eca",
    "edgeless-9": "ef594d627d3d138fe589d298adc612a50fa763677e39fca952fd99fa2fceb560",
    "path-33": "a32c735d1d89890837e27598799f372ccb06ea3e9f747f7b96d3fa989e813fe3",
    "k33": "dab9fe6b153e09ecaab202ff913ffcb0787c965d162ef8d937e8c3713e2da0b6",
    "gnm-65-150": "8e78d46f334d5ec64aa342e707c20b7bda4939e3075ab8231c91b12f223d921e",
    "gnm-70-40": "e459beb18b2c621eaca3697c43a62513f306a24d0b881713630f29add9cce61c",
    "star-40": "c30a6f505c49f64d24ff76931b2be16e7e82ca4d1b393a2dfc7a53a72704e7dd",
}


def test_bisection_pinned():
    got = {}
    for name, g in _bisection_pin_graphs().items():
        h = hashlib.sha256()
        for seed in (1, 20261017):
            t = build_bisection(g, seed)
            h.update(t._parents.tobytes())
            h.update(t._leaf_vertex.tobytes())
        got[name] = h.hexdigest()
    assert got == _BISECTION_PINS


def test_seeds_must_be_integers():
    g = gen_gnm(10, 12, seed=1)
    calls = [
        lambda seed: build_bisection(g, seed),
        lambda seed: build_bisection(Graph(1, []), seed),  # before the n < 2 return
        lambda seed: build_random_pair(g, seed),
        lambda seed: build_random_edge(g, seed),
        lambda seed: gen_gnm(10, 12, seed),
        lambda seed: gen_hierarchical(3, 4, 2, seed),
    ]
    for call in calls:
        for seed in (1.5, "1", True, None, np.float64(1.0), np.bool_(True)):
            with pytest.raises(ValueError, match="not an integer"):
                call(seed)
    # numpy integers key the same stream as the int
    assert build_bisection(g, np.int64(7)) == build_bisection(g, 7)
    assert gen_gnm(10, 12, np.uint32(3)) == gen_gnm(10, 12, 3)


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


def _naive_cost(graph, tree):
    """Walk each edge's ends up the parents to their first common ancestor."""
    leaf = {tree.leaf_vertex(x): x for x in range(tree.node_count) if tree.is_leaf(x)}
    total = 0
    for u, v in graph.edge_array.tolist():
        above_u = set()
        x = leaf[u]
        while x >= 0:
            above_u.add(x)
            x = tree.parent(x)
        y = leaf[v]
        while y not in above_u:
            y = tree.parent(y)
        total += tree.size(y)
    return total


@st.composite
def _graph_and_tree(draw):
    """A random G(n, m) with a tree from one of the builders, or a random
    nested tree: random pairs of neighbours merged over a random leaf order."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, min(120, n * (n - 1) // 2)))
    g = gen_gnm(n, m, seed=draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from([*BUILDERS, "nested"]))
    if kind != "nested":
        return g, BUILDERS[kind](g)
    parts = list(draw(st.permutations(range(n))))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [(parts[i], parts[i + 1])]
    return g, tree_from_nested(parts[0])


@given(_graph_and_tree())
@example((gen_gnm(1500, 1000, seed=1), tree_from_nested(_caterpillar(1500))))
@example((Graph(1500, [(v, v + 1) for v in range(1499)]), tree_from_nested(_caterpillar(1500))))
@settings(max_examples=300, deadline=None)
def test_cost_matches_naive_walk(case):
    g, tree = case
    assert dasgupta_cost(g, tree) == _naive_cost(g, tree)


def test_cost_pinned():
    # costs of the bisection trees the benchmark workloads build
    got = {}
    for seed in (1, 20261017):
        g = gen_hierarchical(8, 15, 15, seed)[0]
        got["hier-select", seed] = dasgupta_cost(g, build_bisection(g, seed))
        g = gen_worstcase(24).graph
        got["worstcase-exact", seed] = dasgupta_cost(g, build_bisection(g, seed))
    g = gen_gnm(10_000, 50_000, seed=1)
    got["gnm-sigma", 1] = dasgupta_cost(g, build_bisection(g, 1))
    assert got == {
        ("hier-select", 1): 116_832,
        ("hier-select", 20261017): 108_040,
        ("worstcase-exact", 1): 619_166,
        ("worstcase-exact", 20261017): 619_166,
        ("gnm-sigma", 1): 272_710_689,
    }


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
    text = p.read_text()
    for tail in ("3 0 -1\n", "\ngarbage here\n", "\n  \n\n3 0 -1"):
        p.write_text(text + tail)
        with pytest.raises(FormatError, match="trailing content"):
            read_tree(p)
    # blank lines alone may follow the node lines
    p.write_text(text + "\n \n\t\n")
    assert read_tree(p) == t


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


@pytest.mark.parametrize("parents, leaf_vertex, message", [
    ([-1, 0, 0], [-1, 0], "lengths differ"),
    ([-1, 0, 5], [-1, 0, 1], "parent id out of range"),
    ([-1, 1, 0], [-1, 0, 1], "cannot be its own parent"),
    ([-1, 0, 0, 0, 1], [-1, -1, 0, 1, 2], "exactly two children"),
    ([-1, 0, 0], [0, 0, 1], "exactly on childless nodes"),
    # 3 and 4 are each other's parent, each with a leaf beside the other
    ([-1, 0, 0, 4, 3, 3, 4], [-1, 0, 1, -1, -1, 2, 3], "disconnected from the root"),
])
def test_each_tree_refusal_is_reached(parents, leaf_vertex, message):
    with pytest.raises(FormatError, match=message):
        HierarchyTree(parents, leaf_vertex)


@pytest.mark.parametrize("body, message", [
    ("0 -1 -1\n1 0\n2 0 1\n", r":3: expected three tokens"),
    ("0 -1 -1\n1 0 0\n3 0 1\n", r":4: node id 3 out of range"),
    ("-1 -1 -1\n1 0 0\n2 0 1\n", r":2: node id -1 out of range"),
])
def test_read_rejects_bad_node_lines(tmp_path, body, message):
    p = tmp_path / "t.tree"
    p.write_text("hier v1 2\n" + body)
    with pytest.raises(FormatError, match=message):
        read_tree(p)


def test_nested_spec_must_use_pairs():
    for spec in ((0, 1, 2), ((0, 1), (2,)), ()):
        with pytest.raises(ValueError, match="must use pairs"):
            tree_from_nested(spec)


def test_tree_ids_must_be_integers():
    # an int64 cast would read 0.5 as 0 and 1.9 as 1: a valid tree
    bad = [
        ([-1, 0.5, 0], [-1, 0, 1.9]),
        ([-1, 0, 0], [-1.0, 0.0, 1.0]),
        ([-1, 0, 0], ["-1", "0", "1"]),
        ([-1, 0, 0], [-1, None, 1]),
        ([-1], [False]),
        ([-1], np.array([0], dtype=np.uint64)),
    ]
    for parents, leaf_vertex in bad:
        with pytest.raises(FormatError, match="must be integers"):
            HierarchyTree(parents, leaf_vertex)
    small = HierarchyTree(np.array([-1, 0, 0], dtype=np.int8), np.array([-1, 0, 1], dtype=np.int16))
    assert small == tree_from_nested((0, 1))
    with pytest.raises(FormatError, match="node count"):
        HierarchyTree([], [])
