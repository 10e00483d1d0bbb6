import hashlib
import itertools
import math

import pytest

from infmax import (
    AllocationTable,
    CapacityError,
    CascadeModel,
    ConsistencyError,
    ExactOracle,
    Graph,
    HierarchyTree,
    MonteCarloOracle,
    OracleConfig,
    brute_force,
    build_bisection,
    build_jaccard,
    build_random_edge,
    build_random_pair,
    dpim,
    gen_gnm,
    gen_hierarchical,
    gen_worstcase,
    greedy,
    mpa,
    mpa_init_table,
    mpa_update,
    retrieve_seeds,
    tree_from_nested,
)
from tree_helpers import leaf_set


def _k5():
    return Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])


# ---------------------------------------------------------------- greedy


def test_greedy_k0():
    res = greedy(_k5(), CascadeModel.icm(0.2), 0, "exact")
    assert res.vertices == frozenset()
    assert res.sigma.mean == 0.0
    assert res.oracle_calls == 0


def test_greedy_symmetric_tie_breaks_low():
    # all K5 vertices are equivalent: ties resolve to the smallest id
    res = greedy(_k5(), CascadeModel.icm(0.2), 2, "exact")
    assert res.vertices == {0, 1}


def test_greedy_prefers_high_degree_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = greedy(g, CascadeModel.icm(0.5), 1, "exact")
    assert res.vertices == {0}


def test_greedy_call_count():
    # n + (n-1) + ... evaluations, one per candidate per round
    g = gen_gnm(12, 20, seed=1)
    res = greedy(g, CascadeModel.ltm(), 3, "exact")
    assert res.oracle_calls == 12 + 11 + 10
    assert res.oracle_calls <= 12 * 3


def test_greedy_k_bounds():
    with pytest.raises(ValueError):
        greedy(_k5(), CascadeModel.ltm(), 6, "exact")
    with pytest.raises(ValueError):
        greedy(_k5(), CascadeModel.ltm(), -1, "exact")


def test_greedy_mc_final_estimate_is_fresh():
    g = gen_gnm(10, 18, seed=2)
    cfg = OracleConfig(200, 5)
    res = greedy(g, CascadeModel.icm(0.3), 2, cfg)
    oracle = MonteCarloOracle(g, CascadeModel.icm(0.3), cfg)
    assert res.sigma.mean != oracle.sigma(res.vertices).mean
    assert res.sigma.reps == 200


def test_oracle_for_another_model_rejected():
    # the search must run under the model the result reports
    g = gen_gnm(8, 12, seed=3)
    tree = build_bisection(g, 1)
    icm, ltm = CascadeModel.icm(0.3), CascadeModel.ltm()
    for oracle in (MonteCarloOracle(g, icm, OracleConfig(20, 1)), ExactOracle(g, icm)):
        with pytest.raises(ConsistencyError):
            greedy(g, ltm, 2, oracle)
        with pytest.raises(ConsistencyError):
            dpim(g, tree, ltm, 2, oracle)
        with pytest.raises(ConsistencyError):
            mpa(g, tree, ltm, 2, oracle)
        # an equal model built separately is the same model
        assert greedy(g, CascadeModel.icm(0.3), 2, oracle).oracle_calls == 8 + 7


# ---------------------------------------------------------------- dpim


def test_init_table_leaf_rows():
    g = Graph(2, [(0, 1)])
    tree = tree_from_nested((0, 1))
    table = mpa_init_table(g, tree, CascadeModel.icm(0.5), 1, "exact")
    leaf0 = tree.left(tree.root)  # vertex 0
    assert retrieve_seeds(tree, table, leaf0, ("L", "R"), 0) == frozenset()
    assert retrieve_seeds(tree, table, leaf0, ("L", "R"), 1) == {0}
    assert retrieve_seeds(tree, table, tree.root, ("L", "R"), 1) in ({0}, {1})


def test_init_table_rows_stay_in_subtree():
    # the (L, R) row of every node and budget is the DP's i-subset of T(v),
    # capped at the subtree size
    g = gen_gnm(8, 14, seed=3)
    tree = build_bisection(g, 1)
    k = 3
    table = mpa_init_table(g, tree, CascadeModel.icm(0.3), k, "exact")
    for node in range(tree.node_count):
        leaves = leaf_set(tree, node)
        for i in range(k + 1):
            chosen = retrieve_seeds(tree, table, node, ("L", "R"), i)
            assert len(chosen) == min(i, len(leaves))
            assert chosen <= leaves


def test_dpim_matches_brute_on_disjoint_edges():
    # oracle is exact and the tree respects components, so the DP is optimal
    g = Graph(4, [(0, 1), (2, 3)])
    tree = tree_from_nested(((0, 1), (2, 3)))
    model = CascadeModel.twostep(0.25)
    d = dpim(g, tree, model, 2, "exact")
    b = brute_force(g, model, 2, "exact")
    assert d.sigma.mean == pytest.approx(b.sigma.mean)
    # one seed per edge beats both seeds on one edge
    assert len(d.vertices & {0, 1}) == 1
    assert len(d.vertices & {2, 3}) == 1


def test_dpim_call_bound():
    g = gen_gnm(10, 20, seed=4)
    tree = build_bisection(g, 2)
    k = 3
    res = dpim(g, tree, CascadeModel.ltm(), k, "exact")
    assert res.oracle_calls <= (2 * g.n - 1) * (k + 1) ** 2


def test_dpim_rejects_foreign_tree():
    g = gen_gnm(6, 8, seed=5)
    tree = tree_from_nested((0, 1))
    with pytest.raises(ConsistencyError):
        dpim(g, tree, CascadeModel.ltm(), 1, "exact")


def test_dpim_k0():
    g = gen_gnm(6, 8, seed=5)
    tree = build_bisection(g, 1)
    res = dpim(g, tree, CascadeModel.ltm(), 0, "exact")
    assert res.vertices == frozenset()
    assert res.sigma.mean == 0.0


# ---------------------------------------------------------------- retrieval


def _table_for(tree, k):
    return AllocationTable(tree, k)


def test_retrieve_leaf_cases():
    tree = tree_from_nested((0, 1))
    table = _table_for(tree, 2)
    leaf = tree.right(tree.root)  # vertex 1
    assert retrieve_seeds(tree, table, leaf, ("L", "R"), 0) == frozenset()
    assert retrieve_seeds(tree, table, leaf, ("L", "R"), 2) == {1}
    # outside-facing budget at a leaf has nowhere to go below it
    assert retrieve_seeds(tree, table, leaf, ("L", "U"), 2) == frozenset()


def test_retrieve_follows_table_splits():
    tree = tree_from_nested(((0, 1), 2))
    table = _table_for(tree, 2)
    root = tree.root
    internal = tree.left(root) if not tree.is_leaf(tree.left(root)) else tree.right(root)
    if tree.left(root) == internal:
        table.set(root, ("L", "R"), 2, 2, 0)
    else:
        table.set(root, ("L", "R"), 2, 0, 2)
    table.set(internal, ("L", "R"), 2, 1, 1)
    assert retrieve_seeds(tree, table, root, ("L", "R"), 2) == {0, 1}


def test_retrieve_root_up_budget_bypasses():
    # (D, U) at the root pushes the whole budget down: there is no "up"
    tree = tree_from_nested((0, 1))
    table = _table_for(tree, 1)
    left = tree.left(tree.root)
    got = retrieve_seeds(tree, table, tree.root, ("L", "U"), 1)
    assert got == retrieve_seeds(tree, table, left, ("L", "R"), 1)


def _caterpillar(n):
    """Tree of height n - 1: internal node n + j joins the spine below it
    (node n + j - 1, or leaf 0 when j = 0) with leaf j + 1."""
    parents = [-1] * (2 * n - 1)
    parents[0] = n
    for j in range(n - 1):
        parents[j + 1] = n + j
        if j:
            parents[n + j - 1] = n + j
    return HierarchyTree(parents, list(range(n)) + [-1] * (n - 1))


def test_retrieve_deeper_than_recursion_limit():
    tree = _caterpillar(1500)
    assert tree.tree_height == 1499
    table = _table_for(tree, 1)
    for node in range(1500, tree.node_count):
        # the leaf has the smaller id, so the spine is the right child
        table.set(node, ("L", "R"), 1, 0, 1)
    assert retrieve_seeds(tree, table, tree.root, ("L", "R"), 1) == {1}


def test_mpa_deeper_than_recursion_limit():
    path = Graph(1500, [(v, v + 1) for v in range(1499)])
    res = mpa(path, _caterpillar(1500), CascadeModel.icm(0.5), 1, OracleConfig(2, 1), max_outer=0)
    assert len(res.vertices) == 1


def test_allocation_table_validates():
    tree = tree_from_nested((0, 1))
    table = _table_for(tree, 2)
    with pytest.raises(ValueError):
        table.set(tree.root, ("L", "R"), 1, 1, 1)  # sums past budget
    with pytest.raises(ValueError):
        table.set(tree.root, ("X", "R"), 1, 1, 0)
    with pytest.raises(ValueError):
        table.set(tree.root, ("L", "U"), 1, 0, 1)  # no up budget at root
    for bad in ((10**9, ("L", "R"), 1), (-1, ("L", "R"), 1),  # node outside the tree
                (tree.root, ("L", "R"), 3), (tree.root, ("L", "R"), -1),  # budget outside 0..k
                (tree.root, ("U", "L"), 1)):  # unknown pair
        with pytest.raises(ValueError):
            table.get(*bad)
        with pytest.raises(ValueError):
            table.set(*bad, 0, 0)
    with pytest.raises(ValueError):
        table.set(10**9, ("L", "R"), 99, 0, 0)
    # unset entries read (0, 0) and a built table holds none
    assert table.get(tree.root, ("R", "U"), 2) == (0, 0)
    assert not table._data
    table.set(tree.root, ("L", "R"), 2, 1, 1)
    assert table.get(tree.root, ("L", "R"), 2) == (1, 1)


def test_walks_reject_nodes_outside_the_tree():
    # numpy indexing would read -1 and -2 as the last nodes
    g = Graph(2, [(0, 1)])
    tree = tree_from_nested((0, 1))
    model = CascadeModel.icm(0.5)
    table = mpa_init_table(g, tree, model, 1, "exact")
    for node in (-1, -2, 3):
        with pytest.raises(ValueError, match="outside the tree"):
            retrieve_seeds(tree, table, node, ("L", "R"), 1)
        with pytest.raises(ValueError, match="outside the tree"):
            mpa_update(g, tree, model, 1, "exact", table, node, ("L", "R"))


# ---------------------------------------------------------------- mpa


def test_mpa_init_equals_dpim():
    g = gen_gnm(14, 28, seed=6)
    tree = build_bisection(g, 3)
    model = CascadeModel.icm(0.25)
    cfg = OracleConfig(150, 11)
    init = mpa(g, tree, model, 3, cfg, max_outer=0)
    plain = dpim(g, tree, model, 3, cfg)
    assert init.vertices == plain.vertices
    assert init.history is not None and len(init.history) == 1


def test_mpa_update_root_row_is_stable():
    # re-running update at the root right after initialization rewrites the
    # same row: there is no outside-the-root context to shift the argmax
    g = gen_gnm(10, 18, seed=7)
    tree = build_bisection(g, 2)
    model = CascadeModel.icm(0.3)
    oracle = MonteCarloOracle(g, model, OracleConfig(80, 21))
    table = mpa_init_table(g, tree, model, 2, oracle)
    before = [table.get(tree.root, ("L", "R"), i) for i in range(3)]
    mpa_update(g, tree, model, 2, oracle, table, tree.root, ("L", "R"))
    after = [table.get(tree.root, ("L", "R"), i) for i in range(3)]
    assert before == after


def test_mpa_update_zero_budget_row():
    g = gen_gnm(10, 18, seed=7)
    tree = build_bisection(g, 2)
    model = CascadeModel.icm(0.3)
    table = _table_for(tree, 2)
    node = int(tree.left(tree.root))
    mpa_update(g, tree, model, 2, "exact", table, node, ("L", "U"))
    assert table.get(node, ("L", "U"), 0) == (0, 0)


def test_mpa_update_rejects_leaves():
    g = Graph(2, [(0, 1)])
    tree = tree_from_nested((0, 1))
    table = _table_for(tree, 1)
    with pytest.raises(ValueError):
        mpa_update(g, tree, CascadeModel.ltm(), 1, "exact", table, tree.left(tree.root), ("L", "R"))


def test_mpa_update_rejects_foreign_table():
    g = gen_gnm(10, 18, seed=7)
    tree = build_bisection(g, 2)
    model = CascadeModel.icm(0.3)
    node = int(tree.left(tree.root))
    # a table for another k, and one for another (equal) tree
    for table, k in ((_table_for(tree, 2), 3), (_table_for(build_bisection(g, 2), 2), 2)):
        with pytest.raises(ConsistencyError):
            mpa_update(g, tree, model, k, "exact", table, node, ("L", "U"))


def test_mpa_update_worstcase_root_allocates_to_clique():
    # at the node above the clique the i=2 split puts both seeds inside it
    inst = gen_worstcase(5)
    tree = inst.truth_tree
    table = mpa_init_table(inst.graph, tree, inst.model, 2, "exact")
    mpa_update(inst.graph, tree, inst.model, 2, "exact", table, tree.root, ("L", "R"))
    got = retrieve_seeds(tree, table, tree.root, ("L", "R"), 2)
    assert got <= frozenset(range(5))
    assert len(got) == 2


def test_init_table_retrieval_matches_dpim():
    g = gen_gnm(12, 24, seed=15)
    tree = build_bisection(g, 6)
    model = CascadeModel.dicm(0.25, 0.3)
    cfg = OracleConfig(90, 19)
    table = mpa_init_table(g, tree, model, 3, cfg)
    got = retrieve_seeds(tree, table, tree.root, ("L", "R"), 3)
    assert got == dpim(g, tree, model, 3, cfg).vertices


def test_mpa_history_strictly_increases():
    g = gen_gnm(20, 45, seed=8)
    tree = build_bisection(g, 4)
    res = mpa(g, tree, CascadeModel.dicm(0.3, 0.2), 4, OracleConfig(120, 13))
    hist = res.history
    assert all(b > a for a, b in zip(hist, hist[1:]))
    assert len(hist) - 1 <= 20


def test_mpa_never_below_dpim_under_crn():
    g = gen_gnm(18, 40, seed=9)
    tree = build_bisection(g, 5)
    model = CascadeModel.icm(0.2)
    cfg = OracleConfig(100, 17)
    d = dpim(g, tree, model, 4, cfg)
    m = mpa(g, tree, model, 4, cfg, max_outer=8)
    oracle = MonteCarloOracle(g, model, cfg)
    assert oracle.sigma(m.vertices).mean >= oracle.sigma(d.vertices).mean


def test_mpa_worstcase_keeps_clique():
    inst = gen_worstcase(5)
    res = mpa(inst.graph, inst.truth_tree, inst.model, 2, "exact", max_outer=4)
    assert res.vertices <= frozenset(range(5))
    assert res.sigma.mean == 5.0


def test_mpa_k0():
    g = gen_gnm(8, 12, seed=10)
    tree = build_bisection(g, 1)
    res = mpa(g, tree, CascadeModel.ltm(), 0, OracleConfig(50, 3))
    assert res.vertices == frozenset()


# ---------------------------------------------------------------- brute


def test_brute_force_exhaustive_small():
    g = gen_gnm(6, 9, seed=11)
    model = CascadeModel.icm(0.4)
    res = brute_force(g, model, 2, "exact")
    oracle = ExactOracle(g, model)
    best = max(
        oracle.sigma(set(c)).mean for c in itertools.combinations(range(6), 2)
    )
    assert res.sigma.mean == pytest.approx(best)
    assert math.comb(6, 2) == res.oracle_calls


def test_brute_force_capacity_guard():
    g = gen_gnm(50, 100, seed=12)
    with pytest.raises(CapacityError):
        brute_force(g, CascadeModel.ltm(), 25, "exact")


def test_brute_force_tie_breaks_lexicographic():
    g = Graph(4, [(0, 1), (2, 3)])
    res = brute_force(g, CascadeModel.twostep(0.5), 2, "exact")
    assert res.vertices == {0, 2}


# ---------------------------------------------------------------- worst case


def test_worstcase_separation_exact():
    inst = gen_worstcase(5)
    c1, c2 = 5, 5 + 25 + 1
    gr = greedy(inst.graph, inst.model, 2, "exact")
    assert gr.vertices == {c1, c2}
    assert gr.sigma.mean == 4.0
    dp = dpim(inst.graph, inst.truth_tree, inst.model, 2, "exact")
    assert dp.vertices <= frozenset(range(5))
    assert dp.sigma.mean == 5.0
    bf = brute_force(inst.graph, inst.model, 2, "exact")
    assert bf.vertices == {0, 1}
    assert bf.sigma.mean == 5.0


# ---------------------------------------------------------------- pinned bytes


def _optimizer_dump():
    """One line per optimizer run: seeds, sigma repr, oracle calls, history,
    plus every entry of the initial MPA allocation table."""
    models = [
        CascadeModel.icm(0.3), CascadeModel.dicm(0.3, 0.5), CascadeModel.ltm(),
        CascadeModel.scm(), CascadeModel.twostep(0.2),
    ]
    lines = []
    for g in (gen_gnm(9, 12, seed=5), gen_gnm(8, 5, seed=2)):
        trees = [build_bisection(g, 1), build_random_pair(g, 2),
                 build_random_edge(g, 3), build_jaccard(g)]
        for model, cfg, k in itertools.product(models, (OracleConfig(16, 7), "exact"), (0, 1, 3)):
            runs = [greedy(g, model, k, cfg), brute_force(g, model, k, cfg)]
            for tree in trees:
                runs.append(dpim(g, tree, model, k, cfg))
                runs += [mpa(g, tree, model, k, cfg, max_outer=m) for m in (0, 1, 3)]
                table = mpa_init_table(g, tree, model, k, cfg)
                lines.append(repr([
                    table.get(v, pair, i) for v in range(tree.node_count)
                    for pair in (("L", "R"), ("L", "U"), ("R", "U")) for i in range(k + 1)
                ]))
            lines += [
                f"{sorted(r.vertices)} {r.sigma!r} {r.oracle_calls} {r.history}" for r in runs
            ]
    return "\n".join(lines)


def test_optimizers_pinned():
    # Recorded before the optimizers shared one search core: any change of
    # seeds, sigma bytes, query counts, MPA histories or initial tables
    # across commits fails here.
    digest = hashlib.sha256(_optimizer_dump().encode()).hexdigest()
    assert digest == _OPTIMIZER_PIN


_OPTIMIZER_PIN = "0e6215f5eb6e7cae49702fe7ceca5c27ff7be52d25e23c494a4cb498a8934127"


def _midsize_dump():
    """dpim and mpa on a 32-vertex hierarchical graph, under its guide tree
    and a bisection tree, where the outside (U) directions hold real sets."""
    g, guide = gen_hierarchical(5, 15, 6, 3)
    lines = []
    for tree, model in itertools.product(
        (guide, build_bisection(g, 1)), (CascadeModel.scm(), CascadeModel.icm(0.1))
    ):
        cfg = OracleConfig(30, 4)
        for r in (dpim(g, tree, model, 4, cfg), mpa(g, tree, model, 4, cfg, max_outer=2)):
            lines.append(f"{sorted(r.vertices)} {r.sigma!r} {r.oracle_calls} {r.history}")
    return "\n".join(lines)


def test_optimizers_pinned_midsize():
    # Recorded before dpim and the MPA update shared one allocation step.
    digest = hashlib.sha256(_midsize_dump().encode()).hexdigest()
    assert digest == _MIDSIZE_PIN


_MIDSIZE_PIN = "e94b41649fd742516c37ad423bd5162bdabeddd531ba588898dfd574b8f70a25"
