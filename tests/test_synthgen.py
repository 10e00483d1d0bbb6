import hashlib

import numpy as np
import pytest

from infmax import (
    CapacityError,
    CascadeModel,
    gen_hierarchical,
    gen_worstcase,
    sigma_exact,
)
from tree_helpers import leaf_set


def test_minimal_instance():
    g, tree = gen_hierarchical(1, 1, 1, seed=0)
    # two vertices, one walk each: the only possible edge is (0, 1)
    assert g.n == 2
    assert g.edge_array.tolist() == [[0, 1]]
    assert tree.n_leaves == 2


def test_vertex_count_is_power_of_two():
    for d in (2, 5, 8):
        g, tree = gen_hierarchical(d, 8, 2, seed=4)
        assert g.n == 2**d
        assert tree.n_leaves == 2**d


def test_starved_walks_raise():
    # an unlucky zero-weight draw cuts one leaf off from all but one
    # target, which makes t=2 distinct targets unreachable
    with pytest.raises(CapacityError):
        gen_hierarchical(2, 3, 2, seed=4)


def test_target_count_capped():
    with pytest.raises(ValueError):
        gen_hierarchical(2, 3, 4, seed=0)  # t > 2^d - 1
    with pytest.raises(ValueError):
        gen_hierarchical(0, 3, 1, seed=0)


def test_reproducible():
    a, ta = gen_hierarchical(5, 7, 4, seed=33)
    b, tb = gen_hierarchical(5, 7, 4, seed=33)
    c, _ = gen_hierarchical(5, 7, 4, seed=34)
    assert a == b and ta == tb
    assert a != c


# sha256 of the sorted edge lists (int64 pairs) at seeds 1 and 20261017;
# (5, 2, 1) takes the uniform branch of an all-zero-weight step 15 and 6
# times, the other two never
_HIERARCHICAL_PINS = {
    (8, 15, 15): "31bd827a99f2dd16eec51a14583862b17c69629eac11619c289fc653149ac9cf",
    (4, 6, 4): "d2ffdc1c16dbba79ecbc377d425628fdaebdb4d6e5a8171e1ce28fc71b8283e5",
    (5, 2, 1): "6ecf90df073402d5d12be234e5b45b52cd840cb81a598276d39ba8c76b6535b8",
}


def test_hierarchical_pinned():
    # the walks draw one scalar at a time; a batched draw must give the same
    # edges
    got = {}
    for args in _HIERARCHICAL_PINS:
        h = hashlib.sha256()
        for seed in (1, 20261017):
            g, _ = gen_hierarchical(*args, seed)
            edges = sorted(map(tuple, g.edge_array.tolist()))
            h.update(np.array(edges, dtype=np.int64).tobytes())
        got[args] = h.hexdigest()
    assert got == _HIERARCHICAL_PINS


def test_simple_undirected_output():
    g, _ = gen_hierarchical(6, 10, 6, seed=8)
    edges = g.edge_array
    assert (edges[:, 0] < edges[:, 1]).all()
    assert len({tuple(e) for e in edges.tolist()}) == g.m
    # t walks per vertex, deduplicated: m <= n*t, and every vertex reached
    # at least one distinct target
    assert g.m <= g.n * 6
    assert (g.degrees >= 1).all()


def test_guide_tree_is_balanced():
    _, tree = gen_hierarchical(4, 9, 3, seed=2)
    assert tree.tree_height == 4
    assert tree.size(tree.left(tree.root)) == 8


def test_locality_bias():
    # short walks concentrate: sibling-pair edges should be much more
    # common than under a uniform pick of n*t random targets
    g, tree = gen_hierarchical(7, 20, 4, seed=19)
    sib = sum(
        1 for u, v in g.edge_array.tolist()
        if u // 2 == v // 2
    )
    assert sib > g.n // 4


# ---------------------------------------------------------------- worst case


def test_worstcase_layout_n3():
    inst = gen_worstcase(3)
    g = inst.graph
    assert inst.n == 3
    assert g.n == 23  # 2*9 + 3 + 2
    assert g.m == 21  # 3 clique + 2*9 star edges
    sizes = sorted(len(c) for c in g.components())
    assert sizes == [3, 10, 10]
    assert inst.model.f_table(9)[1] == pytest.approx(1 / 9)


def test_worstcase_centers_and_degrees():
    n = 4
    inst = gen_worstcase(n)
    g = inst.graph
    c1, c2 = n, n + n * n + 1
    assert g.degrees[c1] == n * n
    assert g.degrees[c2] == n * n
    assert all(g.degrees[v] == n - 1 for v in range(n))


def test_worstcase_truth_tree_splits_clique_from_stars():
    inst = gen_worstcase(3)
    t = inst.truth_tree
    clique = frozenset(range(3))
    left = leaf_set(t, t.left(t.root))
    right = leaf_set(t, t.right(t.root))
    assert clique in (left, right)


def test_worstcase_sigma_values():
    # seeding both star centers yields exactly 4 expected infections;
    # seeding two clique vertices infects the whole clique
    n = 5
    inst = gen_worstcase(n)
    c1, c2 = n, n + n * n + 1
    assert sigma_exact(inst.graph, inst.model, [c1, c2]) == 4.0
    assert sigma_exact(inst.graph, inst.model, [0, 1]) == float(n)


def test_worstcase_size_formula():
    assert gen_worstcase(20).graph.n == 822
    with pytest.raises(ValueError):
        gen_worstcase(2)


def test_worstcase_model_matches_size():
    inst = gen_worstcase(20)
    assert inst.model == CascadeModel("twostep", eps=1 / 400)
