import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from infmax import (
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
    tree_from_nested,
)
from infmax import optimize
from infmax._rng import _integer
from infmax.graph import _seed_key
from infmax.optimize import LR, LU, RU, _Sets, _dp_fill, _follow, _make_oracle, _update
from tree_helpers import leaf_set


def _k5():
    return Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])


# ---------------------------------------------------------------- greedy


def test_greedy_k0():
    res = greedy(_k5(), CascadeModel("icm", p=0.2), 0, "exact")
    assert res.vertices == frozenset()
    assert res.sigma.mean == 0.0
    assert res.oracle_calls == 0


def test_greedy_symmetric_tie_breaks_low():
    # all K5 vertices are equivalent: ties resolve to the smallest id
    res = greedy(_k5(), CascadeModel("icm", p=0.2), 2, "exact")
    assert res.vertices == {0, 1}


def test_greedy_prefers_high_degree_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = greedy(g, CascadeModel("icm", p=0.5), 1, "exact")
    assert res.vertices == {0}


def test_greedy_call_count():
    # n + (n-1) + ... evaluations, one per candidate per round
    g = gen_gnm(12, 20, seed=1)
    res = greedy(g, CascadeModel("ltm"), 3, "exact")
    assert res.oracle_calls == 12 + 11 + 10
    assert res.oracle_calls <= 12 * 3


def test_greedy_k_bounds():
    with pytest.raises(ValueError):
        greedy(_k5(), CascadeModel("ltm"), 6, "exact")
    with pytest.raises(ValueError):
        greedy(_k5(), CascadeModel("ltm"), -1, "exact")


def test_greedy_mc_final_estimate_is_fresh():
    g = gen_gnm(10, 18, seed=2)
    cfg = OracleConfig(200, 5)
    res = greedy(g, CascadeModel("icm", p=0.3), 2, cfg)
    oracle = MonteCarloOracle(g, CascadeModel("icm", p=0.3), cfg)
    assert res.sigma.mean != oracle.sigma(res.vertices).mean
    assert res.sigma.reps == 200


def test_oracle_for_another_model_rejected():
    # the search must run under the model the result reports
    g = gen_gnm(8, 12, seed=3)
    tree = build_bisection(g, 1)
    icm, ltm = CascadeModel("icm", p=0.3), CascadeModel("ltm")
    for oracle in (MonteCarloOracle(g, icm, OracleConfig(20, 1)), ExactOracle(g, icm)):
        with pytest.raises(ConsistencyError):
            greedy(g, ltm, 2, oracle)
        with pytest.raises(ConsistencyError):
            dpim(g, tree, ltm, 2, oracle)
        with pytest.raises(ConsistencyError):
            mpa(g, tree, ltm, 2, oracle)
        # an equal model built separately is the same model
        assert greedy(g, CascadeModel("icm", p=0.3), 2, oracle).oracle_calls == 8 + 7


# ---------------------------------------------------------------- dpim


def _init_advice(graph, tree, model, k, cfg):
    """The split advice after MPA's initialization, the dynamic program of dpim."""
    advice = {}
    _dp_fill(_make_oracle(graph, model, cfg), tree, k, advice)
    return advice


def _sets(tree, advice, k):
    """A retrieval memo for budgets up to k over advice, holding only the leaves' rows."""
    return _Sets(tree, advice, k, {
        leaf: [_seed_key((), 1), _seed_key((tree.leaf_vertex(leaf),), tree.n_leaves)]
        for leaf in tree.nodes_at_height(0)
    })


def test_init_table_leaf_rows():
    g = Graph(2, [(0, 1)])
    tree = tree_from_nested((0, 1))
    advice = _init_advice(g, tree, CascadeModel("icm", p=0.5), 1, "exact")
    leaf0 = tree.left(tree.root)  # vertex 0
    sets = _sets(tree, advice, 1)
    assert sets.lr_row(leaf0)[0] == frozenset()
    assert sets.lr_row(leaf0)[1] == {0}
    assert sets.lr_row(tree.root)[1] in ({0}, {1})


def test_init_table_rows_stay_in_subtree():
    # the (L, R) row of every node and budget is the DP's i-subset of T(v),
    # capped at the subtree size
    g = gen_gnm(8, 14, seed=3)
    tree = build_bisection(g, 1)
    k = 3
    advice = _init_advice(g, tree, CascadeModel("icm", p=0.3), k, "exact")
    sets = _sets(tree, advice, k)
    for node in range(tree.node_count):
        leaves = leaf_set(tree, node)
        row = sets.lr_row(node)
        assert len(row) == min(k, len(leaves)) + 1 or tree.is_leaf(node)
        for i in range(k + 1):
            chosen = row[min(i, len(row) - 1)]
            assert len(chosen) == min(i, len(leaves))
            assert chosen <= leaves


def test_dpim_matches_brute_on_disjoint_edges():
    # oracle is exact and the tree respects components, so the DP is optimal
    g = Graph(4, [(0, 1), (2, 3)])
    tree = tree_from_nested(((0, 1), (2, 3)))
    model = CascadeModel("twostep", eps=0.25)
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
    res = dpim(g, tree, CascadeModel("ltm"), k, "exact")
    assert res.oracle_calls <= (2 * g.n - 1) * (k + 1) ** 2


def test_dpim_rejects_foreign_tree():
    g = gen_gnm(6, 8, seed=5)
    tree = tree_from_nested((0, 1))
    with pytest.raises(ConsistencyError):
        dpim(g, tree, CascadeModel("ltm"), 1, "exact")


def test_dpim_k0():
    g = gen_gnm(6, 8, seed=5)
    tree = build_bisection(g, 1)
    res = dpim(g, tree, CascadeModel("ltm"), 0, "exact")
    assert res.vertices == frozenset()
    assert res.sigma.mean == 0.0


# ---------------------------------------------------------------- retrieval


def test_retrieve_leaf_cases():
    tree = tree_from_nested((0, 1))
    leaf = tree.right(tree.root)  # vertex 1
    assert _retrieve_seeds(tree, {}, leaf, LR, 0) == frozenset()
    assert _retrieve_seeds(tree, {}, leaf, LR, 2) == {1}
    # outside-facing budget at a leaf has nowhere to go below it
    assert _retrieve_seeds(tree, {}, leaf, LU, 2) == frozenset()
    # the memo's row of a leaf holds budgets 0 and 1
    assert _sets(tree, {}, 2).lr_row(leaf) == [frozenset(), {1}]


def test_retrieve_follows_table_splits():
    tree = tree_from_nested(((0, 1), 2))
    root = tree.root
    internal = tree.left(root) if not tree.is_leaf(tree.left(root)) else tree.right(root)
    advice = {(root, LR, 2): (2, 0) if tree.left(root) == internal else (0, 2), (internal, LR, 2): (1, 1)}
    assert _sets(tree, advice, 2).lr_row(root)[2] == {0, 1}


def test_retrieve_root_up_budget_bypasses():
    # (D, U) at the root pushes the whole budget down: there is no "up"
    tree = tree_from_nested((0, 1))
    left = tree.left(tree.root)
    sets = _sets(tree, {}, 1)
    got = sets.up_row(tree.root, LU, 1)[1]
    assert got == sets.lr_row(left)[1] == {0}


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
    # the leaf has the smaller id, so the spine is the right child
    advice = {(node, LR, 1): (0, 1) for node in range(1500, tree.node_count)}
    assert _sets(tree, advice, 1).lr_row(tree.root)[1] == {1}


def test_mpa_deeper_than_recursion_limit():
    # one sweep as well, so the sweeps' retrievals run past the recursion limit
    path = Graph(1500, [(v, v + 1) for v in range(1499)])
    for max_outer in (0, 1):
        res = mpa(path, _caterpillar(1500), CascadeModel("icm", p=0.5), 1, OracleConfig(2, 1), max_outer=max_outer)
        assert len(res.vertices) == 1


# ---------------------------------------------------------------- mpa


def test_mpa_init_equals_dpim():
    g = gen_gnm(14, 28, seed=6)
    tree = build_bisection(g, 3)
    model = CascadeModel("icm", p=0.25)
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
    model = CascadeModel("icm", p=0.3)
    oracle = MonteCarloOracle(g, model, OracleConfig(80, 21))
    advice = {}
    sets = _Sets(tree, advice, 2, _dp_fill(oracle, tree, 2, advice, keep=True))
    before = [advice[tree.root, LR, i] for i in range(3)]
    _update(oracle, 2, sets, (tree.root,), (LR,))
    after = [advice[tree.root, LR, i] for i in range(3)]
    assert before == after


def test_mpa_update_zero_budget_row():
    g = gen_gnm(10, 18, seed=7)
    tree = build_bisection(g, 2)
    model = CascadeModel("icm", p=0.3)
    advice = {}
    node = tree.left(tree.root)
    _update(_make_oracle(g, model, "exact"), 2, _sets(tree, advice, 2), (node,), (LU,))
    assert advice[node, LU, 0] == (0, 0)


def test_mpa_update_worstcase_root_allocates_to_clique():
    # at the node above the clique the i=2 split puts both seeds inside it
    inst = gen_worstcase(5)
    tree = inst.truth_tree
    oracle = _make_oracle(inst.graph, inst.model, "exact")
    advice = {}
    sets = _Sets(tree, advice, 2, _dp_fill(oracle, tree, 2, advice, keep=True))
    _update(oracle, 2, sets, (tree.root,), (LR,))
    got = sets.lr_row(tree.root)[2]
    assert got <= frozenset(range(5))
    assert len(got) == 2


def test_init_table_retrieval_matches_dpim():
    g = gen_gnm(12, 24, seed=15)
    tree = build_bisection(g, 6)
    model = CascadeModel("dicm", p=0.25, q=0.3)
    cfg = OracleConfig(90, 19)
    advice = _init_advice(g, tree, model, 3, cfg)
    got = _sets(tree, advice, 3).lr_row(tree.root)[3]
    assert got == dpim(g, tree, model, 3, cfg).vertices


def _sweep_instance(name):
    """(graph, tree, model, k, cfg) for the advice-invariant test."""
    if name in ("guide", "bisection"):
        g, guide = gen_hierarchical(5, 15, 6, 3)
        tree = guide if name == "guide" else build_bisection(g, 1)
        return g, tree, CascadeModel("scm"), 4, OracleConfig(30, 4)
    if name == "worstcase":
        inst = gen_worstcase(4)
        return inst.graph, inst.truth_tree, inst.model, 2, "exact"
    path = Graph(6, [(v, v + 1) for v in range(5)])
    return path, tree_from_nested((((((0, 1), 2), 3), 4), 5)), CascadeModel("icm", p=0.5), 2, "exact"


@pytest.mark.parametrize("name", ["guide", "bisection", "worstcase", "caterpillar"])
def test_advice_entries_are_valid_splits(name):
    # After initialization and one full down and up sweep, every entry is a
    # split of its budget at an internal node, and no root row faces up.
    g, tree, model, k, cfg = _sweep_instance(name)
    oracle = _make_oracle(g, model, cfg)
    advice = {}
    sets = _Sets(tree, advice, k, _dp_fill(oracle, tree, k, advice, keep=True))
    for h in range(tree.tree_height - 1, 0, -1):
        _update(oracle, k, sets, tree.nodes_at_height(h), (LU, RU))
    for h in range(1, tree.tree_height + 1):
        for node in tree.nodes_at_height(h):
            _update(oracle, k, sets, (node,), (LR,))
    assert {pair for _, pair, _ in advice} == {LR, LU, RU}
    for (node, pair, ell), (s1, s2) in advice.items():
        assert 0 <= node < tree.node_count and not tree.is_leaf(node)
        assert pair in (LR, LU, RU) and 0 <= ell <= k
        assert {type(x) for x in (node, ell, s1, s2)} == {int}
        assert s1 >= 0 and s2 >= 0 and s1 + s2 <= ell
        assert node != tree.root or pair == LR
        if pair == LR:
            row = sets.lr_row(node)  # budgets past the subtree size reach all of it
            got = row[min(ell, len(row) - 1)]
            assert len(got) == min(ell, tree.size(node))
            assert got <= leaf_set(tree, node)


# ---------------------------------------------------------------- reference schedule
# The search as it ran one allocation step at a time, retrieving every set by
# a fresh walk: the schedule that level batches and the retrieval memo must
# reproduce query for query.


def _retrieve_seeds(tree, advice, node, dpair, ell):
    """Follow the advice from (node, dpair, ell) to the leaves it reaches."""
    found = []
    stack = [(node, dpair, ell)]
    while stack:
        node, dpair, ell = stack.pop()
        if ell <= 0:
            continue
        if dpair == LR:
            if tree.is_leaf(node):
                found.append(tree.leaf_vertex(node))
            else:
                s1, s2 = advice.get((node, LR, ell), (0, 0))
                stack += [(tree.left(node), LR, s1), (tree.right(node), LR, s2)]
            continue
        child = tree.left(node) if dpair[0] == "L" else tree.right(node)
        if node == tree.root:
            stack.append((child, LR, ell))
        elif not tree.is_leaf(node):
            s1, s2 = advice.get((node, dpair, ell), (0, 0))
            stack.append((child, LR, s1))
            parent, pair, _ = _follow(tree, node, "U")
            stack.append((parent, pair, s2))
    return frozenset(found)


def _ref_allocate(oracle, advice, node, dpair, k, first, second, rest):
    cap1, cap2, cap3 = len(first) - 1, len(second) - 1, len(rest) - 1
    rows, queries = [], []
    for i in range(k + 1):
        ii, fixed = min(i, cap1 + cap2), rest[min(k - i, cap3)]
        shares = range(max(0, ii - cap2), min(ii, cap1) + 1)
        sets = [first[j] | second[ii - j] | fixed for j in shares]
        rows.append((i, ii, shares, sets))
        if len(sets) > 1:
            queries += sets
    answers = iter(oracle.sigma_many(queries))
    chosen = []
    for i, ii, shares, sets in rows:
        pick = 0
        if len(sets) > 1:
            means = [next(answers).mean for _ in sets]
            pick = means.index(max(means))
        j = shares[pick]
        advice[node, dpair, i] = (j, ii - j)
        if i == ii:
            chosen.append(sets[pick])
    return chosen


def _ref_dp_fill(oracle, tree, k, advice):
    rows = {}
    for h in range(tree.tree_height + 1):
        for node in tree.nodes_at_height(h):
            if tree.is_leaf(node):
                rows[node] = [frozenset(), frozenset((tree.leaf_vertex(node),))][: k + 1]
            else:
                left, right = rows.pop(tree.left(node)), rows.pop(tree.right(node))
                rows[node] = _ref_allocate(oracle, advice, node, LR, k, left, right, [frozenset()])
    return rows[tree.root]


def _ref_update(oracle, tree, k, advice, node, dpair):
    (d3,) = {"L", "R", "U"} - set(dpair)
    sets = []
    for direction in (*dpair, d3):
        neighbor, pair, leaves = _follow(tree, node, direction)
        sets.append([frozenset()] + [
            _retrieve_seeds(tree, advice, neighbor, pair, b) for b in range(1, min(leaves, k) + 1)
        ])
    _ref_allocate(oracle, advice, node, dpair, k, *sets)


def _ref_mpa(oracle, tree, k, max_outer, advice, checkpoint=lambda: None):
    """mpa's search one step at a time; checkpoint() runs after the dynamic
    program, after each level of a down sweep and after each update of an
    up sweep."""
    _ref_dp_fill(oracle, tree, k, advice)
    checkpoint()
    seeds = _retrieve_seeds(tree, advice, tree.root, LR, k)
    history = [oracle.sigma(seeds).mean]
    for _ in range(max_outer):
        for h in range(tree.tree_height - 1, 0, -1):
            for node in tree.nodes_at_height(h):
                _ref_update(oracle, tree, k, advice, node, LU)
                _ref_update(oracle, tree, k, advice, node, RU)
            checkpoint()
        for h in range(1, tree.tree_height + 1):
            for node in tree.nodes_at_height(h):
                _ref_update(oracle, tree, k, advice, node, LR)
                checkpoint()
        candidate = _retrieve_seeds(tree, advice, tree.root, LR, k)
        value = oracle.sigma(candidate).mean
        if value <= history[-1]:
            break
        seeds = candidate
        history.append(value)
    return seeds, tuple(history)


def _recording(graph, model, cfg):
    """A fresh oracle that records every seed set it is asked about, in order."""
    base = ExactOracle if cfg == "exact" else MonteCarloOracle

    class Recording(base):
        def sigma(self, seeds):
            if not self.inside:
                self.seen.append(frozenset(seeds))
            return super().sigma(seeds)

        def sigma_many(self, sets):
            sets = list(sets)
            self.seen += map(frozenset, sets)
            self.inside = True
            try:
                return super().sigma_many(sets)
            finally:
                self.inside = False

    oracle = Recording(graph, model) if cfg == "exact" else Recording(graph, model, cfg)
    oracle.seen, oracle.inside = [], False
    return oracle


def _schedule_instance(name):
    """(graph, tree, model, k, cfg, max_outer): the four sweep instances, and
    the midsize graph under scm and icm:p=0.1 with guide and bisection trees."""
    if name.startswith("mid-"):
        _, kind, tree_name = name.split("-")
        g, tree, _, k, cfg = _sweep_instance(tree_name)
        model = CascadeModel("scm") if kind == "scm" else CascadeModel("icm", p=0.1)
        return g, tree, model, k, cfg, 2
    return (*_sweep_instance(name), 2)


_SCHEDULES = ["guide", "bisection", "worstcase", "caterpillar",
              "mid-scm-guide", "mid-scm-bisection", "mid-icm-guide", "mid-icm-bisection"]


@pytest.mark.parametrize("name", _SCHEDULES)
def test_search_matches_reference_schedule(name, monkeypatch):
    # dpim and mpa send the oracle the reference schedule's seed sets in its
    # order, and mpa ends with its advice, seeds and history.
    g, tree, model, k, cfg, max_outer = _schedule_instance(name)
    ref = _recording(g, model, cfg)
    ref_dp = frozenset(_ref_dp_fill(ref, tree, k, {})[k])
    dp_queries = list(ref.seen)
    oracle = _recording(g, model, cfg)
    res = dpim(g, tree, model, k, oracle)
    assert res.vertices == ref_dp
    extra = [ref_dp] if cfg == "exact" else []  # the exact final estimate asks the search's oracle
    assert oracle.seen == dp_queries + extra

    ref = _recording(g, model, cfg)
    ref_advice: dict = {}
    ref_seeds, ref_history = _ref_mpa(ref, tree, k, max_outer, ref_advice)
    boards = []
    real_dp_fill = optimize._dp_fill

    def dp_fill(oracle, tree, k, advice, keep=False):
        boards.append(advice)
        return real_dp_fill(oracle, tree, k, advice, keep)

    monkeypatch.setattr(optimize, "_dp_fill", dp_fill)
    oracle = _recording(g, model, cfg)
    res = mpa(g, tree, model, k, oracle, max_outer=max_outer)
    assert (res.vertices, res.history) == (ref_seeds, ref_history)
    extra = [ref_seeds] if cfg == "exact" else []
    assert oracle.seen == ref.seen + extra
    assert res.oracle_calls == len(ref.seen)
    assert boards == [ref_advice]


def _check_memo(sets):
    """Every kept set equals the reference walk over the current advice;
    returns the number of U-facing sets checked."""
    tree, advice = sets.tree, sets.advice
    kept = [((node, LR, ell), got) for node, row in sets.lr.items() for ell, got in enumerate(row)]
    for (node, dpair, ell), got in kept + list(sets.up.items()):
        assert got == _retrieve_seeds(tree, advice, node, dpair, ell), (node, dpair, ell)
    return len(sets.up)


@pytest.mark.parametrize("name", _SCHEDULES)
def test_memo_matches_reference_walks(name, monkeypatch):
    # After the dynamic program, after each down-sweep level and after each
    # up-sweep update, the memo holds only sets the reference walk agrees
    # with, and the advice is the reference schedule's at the same point.
    g, tree, model, k, cfg, max_outer = _schedule_instance(name)
    ref_advice: dict = {}
    expected = []
    _ref_mpa(_make_oracle(g, model, cfg), tree, k, max_outer, ref_advice,
             lambda: expected.append(dict(ref_advice)))
    seen, up_entries = [], []

    class Checked(_Sets):
        def __init__(self, *args):
            super().__init__(*args)
            up_entries.append(_check_memo(self))
            seen.append(dict(self.advice))

    real_update = optimize._update

    def update(oracle, k, sets, nodes, dpairs):
        real_update(oracle, k, sets, nodes, dpairs)
        up_entries.append(_check_memo(sets))
        seen.append(dict(sets.advice))

    monkeypatch.setattr(optimize, "_Sets", Checked)
    monkeypatch.setattr(optimize, "_update", update)
    mpa(g, tree, model, k, _make_oracle(g, model, cfg), max_outer=max_outer)
    assert seen == expected
    assert sum(up_entries) > 0


@pytest.mark.parametrize("name", ["guide", "worstcase"])
def test_search_checks_each_leaf_id_once(name):
    # Every set the tree searches query is a union of the leaves' checked
    # keys, so the only vertex-id checks are the n leaves' own.
    g, tree, model, k, cfg = _sweep_instance(name)
    for run in (lambda: dpim(g, tree, model, k, cfg), lambda: mpa(g, tree, model, k, cfg, max_outer=1)):
        with mock.patch("infmax.graph._integer", wraps=_integer) as check:
            run()
        assert check.call_count == g.n


def test_mpa_history_strictly_increases():
    g = gen_gnm(20, 45, seed=8)
    tree = build_bisection(g, 4)
    res = mpa(g, tree, CascadeModel("dicm", p=0.3, q=0.2), 4, OracleConfig(120, 13))
    hist = res.history
    assert all(b > a for a, b in zip(hist, hist[1:]))
    assert len(hist) - 1 <= 20


def test_mpa_never_below_dpim_under_crn():
    g = gen_gnm(18, 40, seed=9)
    tree = build_bisection(g, 5)
    model = CascadeModel("icm", p=0.2)
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
    res = mpa(g, tree, CascadeModel("ltm"), 0, OracleConfig(50, 3))
    assert res.vertices == frozenset()


# ---------------------------------------------------------------- brute


def test_brute_force_exhaustive_small():
    g = gen_gnm(6, 9, seed=11)
    model = CascadeModel("icm", p=0.4)
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
        brute_force(g, CascadeModel("ltm"), 25, "exact")


def test_brute_force_tie_breaks_lexicographic():
    g = Graph(4, [(0, 1), (2, 3)])
    res = brute_force(g, CascadeModel("twostep", eps=0.5), 2, "exact")
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
    plus every entry of the initial MPA split advice."""
    models = [
        CascadeModel("icm", p=0.3), CascadeModel("dicm", p=0.3, q=0.5), CascadeModel("ltm"),
        CascadeModel("scm"), CascadeModel("twostep", eps=0.2),
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
                advice = _init_advice(g, tree, model, k, cfg)
                lines.append(repr([
                    advice.get((v, pair, i), (0, 0)) for v in range(tree.node_count)
                    for pair in (LR, LU, RU) for i in range(k + 1)
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
        (guide, build_bisection(g, 1)), (CascadeModel("scm"), CascadeModel("icm", p=0.1))
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


_SMALL = gen_gnm(8, 12, seed=4)
_SMALL_TREE = build_bisection(_SMALL, 1)
_ICM, _CFG = CascadeModel("icm", p=0.3), OracleConfig(20, 1)

# Every count the API takes: (a valid value, the call with that count set to v).
_COUNTS = {
    "Graph.n": (2, lambda v: Graph(v, [(0, 1)])),
    "gen_gnm.n": (6, lambda v: gen_gnm(v, 4, 1)),
    "gen_gnm.m": (4, lambda v: gen_gnm(6, v, 1)),
    "gen_hierarchical.d": (2, lambda v: gen_hierarchical(v, 3, 1, 1)),
    "gen_hierarchical.l": (3, lambda v: gen_hierarchical(2, v, 1, 1)),
    "gen_hierarchical.t": (1, lambda v: gen_hierarchical(2, 3, v, 1)),
    "gen_worstcase.n": (3, lambda v: gen_worstcase(v).graph),
    "greedy.k": (2, lambda v: greedy(_SMALL, _ICM, v, _CFG)),
    "dpim.k": (2, lambda v: dpim(_SMALL, _SMALL_TREE, _ICM, v, _CFG)),
    "mpa.k": (2, lambda v: mpa(_SMALL, _SMALL_TREE, _ICM, v, _CFG, max_outer=1)),
    "mpa.max_outer": (2, lambda v: mpa(_SMALL, _SMALL_TREE, _ICM, 2, _CFG, max_outer=v)),
    "brute_force.k": (2, lambda v: brute_force(_SMALL, _ICM, v, _CFG)),
    "OracleConfig.reps": (2, lambda v: OracleConfig(v, 1)),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_must_be_integers(name):
    # a count is never truncated (2.5), read from a bool or parsed from text
    good, call = _COUNTS[name]
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            call(bad)
    assert call(np.int64(good)) == call(good)
